//! The shard process: a worker pool behind one TCP connection.
//!
//! A shard dials the front-end, introduces itself with `Hello`, and
//! then runs three kinds of threads against the shared socket:
//!
//! * the **main thread** reads frames — `Assign` lands jobs on the
//!   server's [`BoundedQueue`], the one the local server's workers pop
//!   from; `Shutdown` (or a closed socket) closes it, drains and exits;
//! * a **heartbeat thread** sends `Heartbeat{seq, running, queued, plans}`
//!   every `heartbeat_ms` — the front-end's liveness signal;
//! * `workers` **worker threads** pop jobs and fetch each job's work
//!   profile from the shard's single-flight [`ProfileStore`] — the same
//!   store the local server's workers use, so a numerics key is
//!   computed once per shard. The first job of a key runs it hour by
//!   hour through the server's checkpoint machinery ([`run_hourly`]),
//!   streaming a `Progress` resume point after every completed hour,
//!   then `Calibrated` (the §4 model fitted from the fresh profile).
//!   Every job — that one, its siblings that waited for it, and later
//!   jobs of the key on any placement — then replays the profile and
//!   sends the `Completed` report; for all but the first that is the
//!   only frame.
//!
//! Jobs run on the caller's [`Obs`], one lane per worker: an untraced
//! shard runs its numerics on a disabled handle.
//!
//! All writes share one mutex-guarded socket, so frames from concurrent
//! workers never interleave. A writer that panicked mid-frame poisons
//! that lock, and a poisoned writer is a dead connection: nothing is
//! written after a partial frame.
//!
//! Two self-destruct knobs support shard-loss testing: `die_after_hours`
//! hard-exits the process (CI's `kill -9` stand-in, deterministic at an
//! hour boundary), and `drop_after_hours` merely severs the connection
//! and stops — usable in-process where `process::exit` would take the
//! test harness down with it.

use crate::proto::{self, Msg, ScenarioJob};
use airshed_core::codec::WireError;
use airshed_core::driver::HourPlans;
use airshed_core::obs::dist::TraceContext;
use airshed_core::plan::replay_profile;
use airshed_core::{ExecSpec, Obs, PerfModel};
use airshed_server::cache::{NumericsKey, ProfileStore, CACHE_SHARDS, PROFILE_CACHE_CAPACITY};
use airshed_server::queue::BoundedQueue;
use airshed_server::worker::{panic_message, run_hourly};
use airshed_server::JobError;
use std::net::{Shutdown, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Shard configuration.
#[derive(Debug, Clone)]
pub struct ShardOptions {
    /// Front-end address, e.g. `127.0.0.1:7700`.
    pub connect: String,
    /// Name reported in `Hello` (shows up in metrics labels).
    pub name: String,
    /// Worker threads — also the front-end's dispatch window.
    pub workers: usize,
    pub exec: ExecSpec,
    pub heartbeat_ms: u64,
    /// Hard-exit the process (status 3) once this many hours completed
    /// across all jobs. Deterministic stand-in for a mid-run crash.
    pub die_after_hours: Option<u64>,
    /// Sever the connection and stop (no process exit) once this many
    /// hours completed. The in-process-test variant of the above.
    pub drop_after_hours: Option<u64>,
}

impl Default for ShardOptions {
    fn default() -> ShardOptions {
        ShardOptions {
            connect: "127.0.0.1:7700".to_string(),
            name: "shard".to_string(),
            workers: 2,
            exec: ExecSpec::default(),
            heartbeat_ms: 250,
            die_after_hours: None,
            drop_after_hours: None,
        }
    }
}

struct Inner {
    writer: Mutex<TcpStream>,
    queue: BoundedQueue<(u64, TraceContext, ScenarioJob)>,
    /// Global cancel: set by `drop_after_hours`, observed by running
    /// jobs at their next hour boundary.
    cancel: AtomicBool,
    running: AtomicU32,
    hours_done: AtomicU64,
    /// Work profiles by numerics key, shared by all workers.
    profiles: ProfileStore,
}

impl Inner {
    /// Write one frame; `false` once the connection is dead. A poisoned
    /// lock counts as dead: its holder may have left a partial frame.
    fn send(&self, msg: &Msg) -> bool {
        match self.writer.lock() {
            Ok(mut w) => proto::send(&mut *w, msg).is_ok(),
            Err(_) => false,
        }
    }

    /// Sever the connection so the front-end's reader sees EOF now
    /// (rather than waiting out the heartbeat timeout).
    fn sever(&self) {
        self.cancel.store(true, Ordering::Relaxed);
        self.queue.close();
        // Shutting the socket writes nothing, so a poisoned lock is safe.
        let w = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = w.shutdown(Shutdown::Both);
    }
}

/// Run a shard to completion: connect, serve until `Shutdown` or
/// disconnect, join the workers, exit. See the module docs.
pub fn run_shard(opts: ShardOptions, obs: &Obs) -> Result<(), String> {
    let stream =
        TcpStream::connect(&opts.connect).map_err(|e| format!("connect {}: {e}", opts.connect))?;
    stream.set_nodelay(true).ok();
    let mut reader = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    let inner = Arc::new(Inner {
        writer: Mutex::new(stream),
        // Unbounded here: the router's dispatch window (at most
        // `workers` jobs on the wire per shard) is the bound.
        queue: BoundedQueue::new(usize::MAX),
        cancel: AtomicBool::new(false),
        running: AtomicU32::new(0),
        hours_done: AtomicU64::new(0),
        profiles: ProfileStore::new(CACHE_SHARDS, PROFILE_CACHE_CAPACITY),
    });

    // `sent_us` stamps ride on Hello/Heartbeat/Progress/Completed so
    // the front-end can bound this shard's clock offset; 0 (= no stamp)
    // when the shard runs untraced.
    let traced = obs.enabled();
    if !inner.send(&Msg::Hello {
        name: opts.name.clone(),
        workers: opts.workers.max(1) as u32,
        sent_us: if traced {
            obs.us_since_epoch(Instant::now()) as u64
        } else {
            0
        },
    }) {
        return Err("failed to send Hello".to_string());
    }

    // Heartbeats: the front-end's only liveness signal.
    let hb = {
        let inner = Arc::clone(&inner);
        let period = Duration::from_millis(opts.heartbeat_ms.max(10));
        let wall = traced.then(|| obs.clone());
        std::thread::spawn(move || {
            let mut seq = 0u64;
            while !inner.queue.is_closed() {
                std::thread::sleep(period);
                seq += 1;
                let queued = inner.queue.len() as u32;
                let running = inner.running.load(Ordering::Relaxed);
                if !inner.send(&Msg::Heartbeat {
                    seq,
                    running,
                    queued,
                    sent_us: wall
                        .as_ref()
                        .map_or(0, |o| o.us_since_epoch(Instant::now()) as u64),
                    plans: HourPlans::memo_stats(),
                }) {
                    return;
                }
            }
        })
    };

    let workers: Vec<_> = (0..opts.workers.max(1))
        .map(|w| {
            let inner = Arc::clone(&inner);
            let opts = opts.clone();
            let base = obs.with_lane(w as u32);
            std::thread::spawn(move || worker_loop(&inner, &opts, &base))
        })
        .collect();

    // Main thread: the read side of the protocol.
    loop {
        match proto::recv(&mut reader) {
            Ok(Msg::Assign { job, ctx, work }) => {
                // Refused only once severed: the router re-routes it.
                let _ = inner.queue.try_push((job, ctx, *work));
            }
            Ok(Msg::Shutdown) | Err(WireError::Closed) => {
                inner.queue.close();
                break;
            }
            Ok(other) => {
                eprintln!("airshed-shard: unexpected frame tag {}", other.tag());
            }
            Err(e) => {
                eprintln!("airshed-shard: stream error: {e}");
                inner.queue.close();
                break;
            }
        }
    }
    for handle in workers {
        let _ = handle.join();
    }
    let _ = hb.join();
    Ok(())
}

fn worker_loop(inner: &Arc<Inner>, opts: &ShardOptions, base: &Obs) {
    // Wall stamps use `base`'s epoch — the process obs epoch, which is
    // exactly what the front-end's clock-offset estimate is relative to.
    let traced = base.enabled();
    let stamp = || {
        if traced {
            base.us_since_epoch(Instant::now()) as u64
        } else {
            0
        }
    };
    while let Some((id, ctx, job)) = inner.queue.pop() {
        inner.running.fetch_add(1, Ordering::Relaxed);
        let config = job.config.clone();
        let layout = job.layout;
        let resume = job.resume;

        let outcome = catch_unwind(AssertUnwindSafe(|| {
            // The shard-side job span: same trace_id as the frontend's
            // job span, so the stitcher can parent and link them.
            let _job_span = base.span_arg("job", "trace_id", ctx.trace_id as i64);
            // Only the job that finds its key cold runs the numerics
            // (and streams checkpoints); a resident profile makes an
            // attached resume point irrelevant, because the report is
            // bit-identical either way.
            let key = NumericsKey::of(&config);
            let (profile, _) = inner.profiles.get_or_run(&key, &inner.cancel, None, || {
                let mut hour_started = Instant::now();
                let mut on_hour = |rp: &airshed_server::ResumePoint| {
                    let hour_us = hour_started.elapsed().as_micros() as u64;
                    let _ = inner.send(&Msg::Progress {
                        job: id,
                        ctx,
                        sent_us: stamp(),
                        hour_us,
                        resume: Box::new(rp.clone()),
                    });
                    hour_started = Instant::now();
                    let done = inner.hours_done.fetch_add(1, Ordering::Relaxed) + 1;
                    if opts.die_after_hours.is_some_and(|n| done >= n) {
                        // The CI crash: gone between two heartbeats, with
                        // the hour just finished already on the wire.
                        std::process::exit(3);
                    }
                    if opts.drop_after_hours.is_some_and(|n| done >= n) {
                        inner.sever();
                    }
                };
                let profile = run_hourly(
                    &config,
                    resume,
                    &inner.cancel,
                    None,
                    opts.exec,
                    base,
                    Some(&mut on_hour),
                )?;
                // Model first, so the router prices with it before a
                // completion frees capacity for the next dispatch.
                inner.send(&Msg::Calibrated {
                    job: id,
                    model: PerfModel::from_profile(&profile),
                });
                Ok(profile)
            })?;
            // Inside the guard too: a replay that panics fails its job
            // and the worker lives on.
            Ok(replay_profile(&profile, config.machine, config.p, layout))
        }));

        match outcome {
            Ok(Ok(report)) => {
                let msg = Msg::Completed {
                    job: id,
                    ctx,
                    sent_us: stamp(),
                    report: Box::new(report),
                };
                if traced {
                    // The wire cost of shipping this result back — the
                    // serialization leg of copy accounting.
                    base.record_counter(
                        "result_frame_bytes",
                        "copy bytes",
                        base.us_since_epoch(Instant::now()),
                        msg.encode().len() as f64,
                        None,
                    );
                }
                inner.send(&msg);
            }
            Ok(Err(JobError::Cancelled { .. } | JobError::DeadlineExpired { .. })) => {
                // Severed or shutting down: the front-end re-routes
                // from the last Progress checkpoint; nothing to say.
            }
            Ok(Err(JobError::Failed { message })) => {
                inner.send(&Msg::Failed {
                    job: id,
                    ctx,
                    message,
                });
            }
            Err(panic) => {
                inner.send(&Msg::Failed {
                    job: id,
                    ctx,
                    message: panic_message(panic.as_ref()),
                });
            }
        }
        inner.running.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::tags;
    use crate::wire::read_frame;
    use airshed_core::config::SimConfig;
    use airshed_core::driver::ChemLayout;
    use std::net::TcpListener;

    /// The module doc's promise, read off a loopback socket: an untraced
    /// shard answers a cold key with `Progress` per hour, `Calibrated`,
    /// `Completed`, a sibling of a resident key with `Completed` alone,
    /// and sends nothing else but `Hello` and heartbeats.
    #[test]
    fn an_untraced_shard_sends_exactly_the_documented_frames() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let opts = ShardOptions {
            connect: listener.local_addr().unwrap().to_string(),
            workers: 1,
            exec: ExecSpec::serial(),
            heartbeat_ms: 20,
            ..ShardOptions::default()
        };
        let shard = std::thread::spawn(move || run_shard(opts, &Obs::off()));
        let (mut stream, _) = listener.accept().unwrap();

        let mut seen = Vec::new();
        // Frames up to and including the next `Completed`, heartbeats
        // (the one frame with no fixed place) left out.
        let mut read_through_completed = |stream: &mut TcpStream| loop {
            let (tag, payload) = read_frame(stream).unwrap();
            Msg::decode(tag, &payload).unwrap();
            if tag != tags::HEARTBEAT {
                seen.push(tag);
            }
            if tag == tags::COMPLETED {
                break;
            }
        };
        let hours = 2;
        for (job, p) in [(1, 2), (2, 4)] {
            let mut config = SimConfig::test_tiny(p, hours);
            config.start_hour = 7;
            let assign = Msg::Assign {
                job,
                ctx: TraceContext::for_job(job),
                work: Box::new(ScenarioJob {
                    config,
                    layout: ChemLayout::Block,
                    resume: None,
                }),
            };
            proto::send(&mut stream, &assign).unwrap();
            read_through_completed(&mut stream);
        }
        proto::send(&mut stream, &Msg::Shutdown).unwrap();
        loop {
            match read_frame(&mut stream) {
                Ok((tag, _)) => assert_eq!(tag, tags::HEARTBEAT, "frame after the last job"),
                Err(WireError::Closed) => break,
                Err(e) => panic!("stream error {e}"),
            }
        }
        shard.join().unwrap().unwrap();
        assert_eq!(
            seen,
            [
                tags::HELLO,
                tags::PROGRESS,
                tags::PROGRESS,
                tags::CALIBRATED,
                tags::COMPLETED,
                tags::COMPLETED,
            ]
        );
    }
}
