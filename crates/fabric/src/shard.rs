//! The shard process: a worker pool behind one TCP connection.
//!
//! A shard dials the front-end, introduces itself with `Hello`, and
//! then runs three kinds of threads against the shared socket:
//!
//! * the **main thread** reads frames — `Assign` lands jobs on the
//!   local queue, `Shutdown` (or a closed socket) drains and exits;
//! * a **heartbeat thread** sends `Heartbeat{seq, running, queued, plans}`
//!   every `heartbeat_ms` — the front-end's liveness signal;
//! * `workers` **worker threads** pop jobs and fetch each job's work
//!   profile from the shard's single-flight [`ProfileStore`] — the same
//!   store the local server's workers use, so a numerics key is
//!   computed once per shard. The first job of a key runs it hour by
//!   hour through the server's checkpoint machinery ([`run_hourly`]),
//!   streaming a `Progress` resume point after every completed hour,
//!   then `Calibrated` (the §4 model fitted from the fresh profile) and
//!   `Recalibrated` (the oracle's fitted machine parameters). Every job
//!   — that one, its siblings that waited for it, and later jobs of the
//!   key on any placement — then replays the profile and sends the
//!   `Completed` report; for all but the first that is the only frame.
//!
//! All writes share one mutex-guarded [`FaultyWriter`], so frames from
//! concurrent workers never interleave — and a [`FaultPlan`] can
//! drop/delay/truncate any frame for fault-injection tests.
//!
//! Two self-destruct knobs support shard-loss testing: `die_after_hours`
//! hard-exits the process (CI's `kill -9` stand-in, deterministic at an
//! hour boundary), and `drop_after_hours` merely severs the connection
//! and stops — usable in-process where `process::exit` would take the
//! test harness down with it.

use crate::proto::{self, Msg, ScenarioJob};
use crate::wire::{FaultPlan, FaultyWriter, WireError};
use airshed_core::driver::HourPlans;
use airshed_core::obs::dist::TraceContext;
use airshed_core::obs::oracle::Oracle;
use airshed_core::obs::SpanSink;
use airshed_core::plan::replay_profile;
use airshed_core::{ExecSpec, Obs, PerfModel};
use airshed_server::cache::{NumericsKey, ProfileStore, CACHE_SHARDS, PROFILE_CACHE_CAPACITY};
use airshed_server::worker::run_hourly;
use airshed_server::JobError;
use std::collections::VecDeque;
use std::net::{Shutdown, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
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
    /// Wire-layer fault injection applied to outbound frames.
    pub fault: FaultPlan,
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
            fault: FaultPlan::none(),
        }
    }
}

struct Inner {
    writer: Mutex<FaultyWriter<TcpStream>>,
    queue: Mutex<VecDeque<(u64, TraceContext, ScenarioJob)>>,
    ready: Condvar,
    done: AtomicBool,
    /// Global cancel: set by `drop_after_hours`, observed by running
    /// jobs at their next hour boundary.
    cancel: AtomicBool,
    running: AtomicU32,
    hours_done: AtomicU64,
    /// Work profiles by numerics key, shared by all workers.
    profiles: ProfileStore,
}

impl Inner {
    fn send(&self, msg: &Msg) -> bool {
        let mut w = self.writer.lock().unwrap();
        w.write_frame(msg.tag(), &msg.encode()).is_ok()
    }

    fn pop(&self) -> Option<(u64, TraceContext, ScenarioJob)> {
        let mut q = self.queue.lock().unwrap();
        loop {
            if let Some(job) = q.pop_front() {
                return Some(job);
            }
            if self.done.load(Ordering::Relaxed) {
                return None;
            }
            q = self.ready.wait(q).unwrap();
        }
    }

    fn stop(&self) {
        self.done.store(true, Ordering::Relaxed);
        self.ready.notify_all();
    }

    /// Sever the connection so the front-end's reader sees EOF now
    /// (rather than waiting out the heartbeat timeout).
    fn sever(&self) {
        self.cancel.store(true, Ordering::Relaxed);
        self.stop();
        let w = self.writer.lock().unwrap();
        let _ = w.get_ref().shutdown(Shutdown::Both);
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
        writer: Mutex::new(FaultyWriter::new(stream, opts.fault.clone())),
        queue: Mutex::new(VecDeque::new()),
        ready: Condvar::new(),
        done: AtomicBool::new(false),
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
            while !inner.done.load(Ordering::Relaxed) {
                std::thread::sleep(period);
                seq += 1;
                let queued = inner.queue.lock().unwrap().len() as u32;
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
            let base = if obs.enabled() {
                obs.with_lane(w as u32)
            } else {
                // The oracle only sees spans on an enabled handle; give
                // each worker a private sink so recalibration works
                // even when the caller runs without observability.
                Obs::new(Arc::new(SpanSink::new())).with_lane(w as u32)
            };
            std::thread::spawn(move || worker_loop(&inner, &opts, &base, traced))
        })
        .collect();

    // Main thread: the read side of the protocol.
    loop {
        match proto::recv(&mut reader) {
            Ok(Msg::Assign { job, ctx, work }) => {
                inner.queue.lock().unwrap().push_back((job, ctx, *work));
                inner.ready.notify_one();
            }
            Ok(Msg::Shutdown) | Err(WireError::Closed) => {
                inner.stop();
                break;
            }
            Ok(other) => {
                eprintln!("airshed-shard: unexpected frame tag {}", other.tag());
            }
            Err(e) => {
                eprintln!("airshed-shard: stream error: {e}");
                inner.stop();
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

fn worker_loop(inner: &Arc<Inner>, opts: &ShardOptions, base: &Obs, traced: bool) {
    // Wall stamps use `base`'s epoch — when traced it shares the
    // process obs epoch, which is exactly what the front-end's
    // clock-offset estimate is relative to.
    let stamp = || {
        if traced {
            base.us_since_epoch(Instant::now()) as u64
        } else {
            0
        }
    };
    while let Some((id, ctx, job)) = inner.pop() {
        inner.running.fetch_add(1, Ordering::Relaxed);
        let oracle = Arc::new(Oracle::new(job.config.machine));
        let job_obs = base.clone().with_oracle(Arc::clone(&oracle));
        let config = job.config.clone();
        let layout = job.layout;
        let resume = job.resume;

        let outcome = catch_unwind(AssertUnwindSafe(|| {
            // The shard-side job span: same trace_id as the frontend's
            // job span, so the stitcher can parent and link them.
            let _job_span = job_obs.span_arg("job", "trace_id", ctx.trace_id as i64);
            // Only the job that finds its key cold runs the numerics
            // (and streams checkpoints); a resident profile makes an
            // attached resume point irrelevant, because the report is
            // bit-identical either way.
            let key = NumericsKey::of(&config);
            inner.profiles.get_or_run(&key, &inner.cancel, None, || {
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
                    &job_obs,
                    Some(&mut on_hour),
                )?;
                // Model first, so the router prices with it before a
                // completion frees capacity for the next dispatch.
                inner.send(&Msg::Calibrated {
                    job: id,
                    model: PerfModel::from_profile(&profile),
                });
                if oracle.comm_observations() > 0 {
                    inner.send(&Msg::Recalibrated {
                        machine: oracle.recalibrated(),
                    });
                }
                Ok(profile)
            })
        }));

        match outcome {
            Ok(Ok((profile, _))) => {
                let report = replay_profile(&profile, config.machine, config.p, layout);
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

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_string()
    }
}
