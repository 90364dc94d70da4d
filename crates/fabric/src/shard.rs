//! The shard process: a [`ScenarioServer`] behind one TCP connection.
//!
//! A shard dials the front-end, says `Hello`, and starts an in-process
//! [`ScenarioServer`] on the caller's [`Obs`]: `workers` workers, no
//! admission budget and an unbounded queue (the router's dispatch window
//! of `workers` jobs is the bound). Then one thread reads frames — each
//! `Assign` becomes one `submit`, and `Shutdown` (or a closed socket)
//! drains the server — and a heartbeat thread sends `Heartbeat` every
//! `heartbeat_ms`, read off the server's metrics (queue depth, jobs in
//! flight, the plan memo).
//!
//! The server runs each job as for a local client: a numerics key is
//! computed once, hour by hour, its other jobs replay the profile, and a
//! repeated job is a result-cache hit. Each request's [`JobObserver`]
//! turns the job's events into frames: `Progress` after every hour of a
//! cold run, `Calibrated` (the §4 model of the fresh profile) before its
//! replay, then `Completed` or `Failed`. A job answered from a resident
//! profile or result sends `Completed` alone.
//!
//! All writes share one mutex-guarded socket, so frames from concurrent
//! workers never interleave; a writer that panicked mid-frame poisons
//! the lock, and a poisoned writer is a dead connection.
//!
//! Two self-destruct knobs support shard-loss testing: `die_after_hours`
//! hard-exits the process (CI's `kill -9` stand-in, deterministic at an
//! hour boundary), and `drop_after_hours` severs the connection and
//! cancels every outstanding job, which stops at its next hour boundary
//! — usable in-process where `process::exit` would take the test harness
//! down with it.

use crate::proto::{self, Msg};
use airshed_core::codec::WireError;
use airshed_core::obs::dist::TraceContext;
use airshed_core::{ExecSpec, Obs, PerfModel};
use airshed_server::{
    lock, JobError, JobEvent, JobHandle, JobObserver, ScenarioRequest, ScenarioServer, ServerConfig,
};
use std::collections::HashMap;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
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

/// The connection, and what every job's observer shares.
struct Link {
    writer: Mutex<TcpStream>,
    /// Unfinished jobs by fabric id, what a sever cancels; `None` once
    /// severed.
    jobs: Mutex<Option<HashMap<u64, JobHandle>>>,
    hours_done: AtomicU64,
    opts: ShardOptions,
    /// Its epoch is the one the front-end's clock-offset estimate is
    /// relative to.
    obs: Obs,
}

impl Link {
    /// Write one frame; `false` once the connection is dead (a poisoned
    /// writer may have left a partial frame).
    fn send(&self, msg: &Msg) -> bool {
        match self.writer.lock() {
            Ok(mut w) => proto::send(&mut *w, msg).is_ok(),
            Err(_) => false,
        }
    }

    /// A `sent_us` stamp; 0 (= no stamp) when the shard runs untraced.
    fn stamp(&self) -> u64 {
        if self.obs.enabled() {
            self.obs.us_since_epoch(Instant::now()) as u64
        } else {
            0
        }
    }

    /// Cancel every outstanding job and shut the socket, so the
    /// front-end's reader sees EOF now rather than at the heartbeat
    /// timeout. Shutting writes nothing, so a poisoned writer is safe.
    fn sever(&self) {
        for (_, handle) in lock(&self.jobs).take().into_iter().flatten() {
            handle.cancel();
        }
        let _ = lock(&self.writer).shutdown(Shutdown::Both);
    }
}

/// One fabric job on the shard's server: its events become frames.
struct FabricJob {
    job: u64,
    ctx: TraceContext,
    link: Arc<Link>,
}

impl JobObserver for FabricJob {
    /// The front-end's trace, so the stitcher links the shard's span.
    fn trace_id(&self) -> Option<u64> {
        Some(self.ctx.trace_id)
    }

    fn event(&self, event: JobEvent<'_>) {
        let (link, job, ctx) = (&*self.link, self.job, self.ctx);
        let msg = match event {
            JobEvent::Hour(resume, wall) => {
                link.send(&Msg::Progress {
                    job,
                    ctx,
                    sent_us: link.stamp(),
                    hour_us: wall.as_micros() as u64,
                    resume: Box::new(resume.clone()),
                });
                let done = link.hours_done.fetch_add(1, Ordering::Relaxed) + 1;
                if link.opts.die_after_hours.is_some_and(|n| done >= n) {
                    // The CI crash: gone between two heartbeats, with
                    // the hour just finished already on the wire.
                    std::process::exit(3);
                }
                if link.opts.drop_after_hours.is_some_and(|n| done >= n) {
                    link.sever();
                }
                return;
            }
            // Sent before the replay, so the router prices with the
            // model before a completion frees capacity for a dispatch.
            JobEvent::Calibrated(profile) => Msg::Calibrated {
                job,
                model: PerfModel::from_profile(profile),
            },
            JobEvent::Finished(result) => {
                if let Some(jobs) = lock(&link.jobs).as_mut() {
                    jobs.remove(&job);
                }
                match result {
                    Ok(report) => Msg::Completed {
                        job,
                        ctx,
                        sent_us: link.stamp(),
                        report: Box::new((**report).clone()),
                    },
                    Err(JobError::Failed { message }) => Msg::Failed {
                        job,
                        ctx,
                        message: message.clone(),
                    },
                    // Cancelled by a sever (no job here has a deadline):
                    // the front-end re-routes from the last `Progress`.
                    Err(JobError::Cancelled { .. } | JobError::DeadlineExpired { .. }) => return,
                }
            }
        };
        if link.obs.enabled() && matches!(msg, Msg::Completed { .. }) {
            // The wire cost of shipping a result back: the
            // serialization leg of copy accounting.
            let at = link.obs.us_since_epoch(Instant::now());
            let bytes = msg.encode().len() as f64;
            link.obs
                .record_counter("result_frame_bytes", "copy bytes", at, bytes, None);
        }
        link.send(&msg);
    }
}

/// Run a shard to completion: connect, serve until `Shutdown` or
/// disconnect, drain the server, exit. See the module docs.
pub fn run_shard(opts: ShardOptions, obs: &Obs) -> Result<(), String> {
    let stream =
        TcpStream::connect(&opts.connect).map_err(|e| format!("connect {}: {e}", opts.connect))?;
    stream.set_nodelay(true).ok();
    let mut reader = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    let link = Arc::new(Link {
        writer: Mutex::new(stream),
        jobs: Mutex::new(Some(HashMap::new())),
        hours_done: AtomicU64::new(0),
        opts: opts.clone(),
        obs: obs.clone(),
    });
    let hello = Msg::Hello {
        name: opts.name,
        workers: opts.workers.max(1) as u32,
        sent_us: link.stamp(),
    };
    if !link.send(&hello) {
        return Err("failed to send Hello".to_string());
    }

    let server = ScenarioServer::start(ServerConfig {
        workers: opts.workers,
        queue_capacity: usize::MAX,
        budget_seconds: None,
        exec: opts.exec,
        obs: obs.clone(),
    });
    let period = Duration::from_millis(opts.heartbeat_ms.max(10));
    let (stop, stopped) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        let (server, link) = (&server, &link);
        // Heartbeats, the front-end's only liveness signal, until the
        // read side ends.
        scope.spawn(move || {
            for seq in 1.. {
                if stopped.recv_timeout(period) != Err(RecvTimeoutError::Timeout) {
                    return;
                }
                let m = server.metrics();
                if !link.send(&Msg::Heartbeat {
                    seq,
                    running: (m.in_flight - m.queue_depth).max(0) as u32,
                    queued: m.queue_depth.max(0) as u32,
                    sent_us: link.stamp(),
                    plans: m.plans,
                }) {
                    return;
                }
            }
        });
        loop {
            match proto::recv(&mut reader) {
                Ok(Msg::Assign { job, ctx, work }) => {
                    // Locked until the handle is in, so the job's
                    // `Finished` cannot look for it first. Refused once
                    // severed: the router re-routes it.
                    let mut jobs = lock(&link.jobs);
                    let Some(jobs) = jobs.as_mut() else { continue };
                    let request = ScenarioRequest {
                        layout: work.layout,
                        resume: work.resume.map(Box::new),
                        observer: Some(Arc::new(FabricJob {
                            job,
                            ctx,
                            link: Arc::clone(link),
                        })),
                        ..ScenarioRequest::new(work.config)
                    };
                    if let Some(handle) = server.submit(request).into_handle() {
                        jobs.insert(job, handle);
                    }
                }
                Ok(Msg::Shutdown) | Err(WireError::Closed) => break,
                Ok(other) => eprintln!("airshed-shard: unexpected frame tag {}", other.tag()),
                Err(e) => {
                    eprintln!("airshed-shard: stream error: {e}");
                    break;
                }
            }
        }
        drop(stop);
    });
    server.shutdown();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{report_fingerprint, tags, ScenarioJob};
    use crate::wire::read_frame;
    use crate::{serve_batch, FrontendOptions};
    use airshed_core::config::SimConfig;
    use airshed_core::driver::ChemLayout;
    use airshed_core::obs::SpanSink;
    use std::collections::BTreeSet;
    use std::net::TcpListener;
    use std::thread::JoinHandle;

    /// A one-worker serial shard dialling `listener`.
    fn spawn_shard(
        listener: &TcpListener,
        drop_after_hours: Option<u64>,
        obs: Obs,
    ) -> JoinHandle<Result<(), String>> {
        let opts = ShardOptions {
            connect: listener.local_addr().unwrap().to_string(),
            workers: 1,
            exec: ExecSpec::serial(),
            heartbeat_ms: 20,
            drop_after_hours,
            ..ShardOptions::default()
        };
        std::thread::spawn(move || run_shard(opts, &obs))
    }

    fn config(p: usize, hours: usize) -> SimConfig {
        let mut config = SimConfig::test_tiny(p, hours);
        config.start_hour = 7;
        config
    }

    fn assign(job: u64, config: SimConfig) -> Msg {
        let work = ScenarioJob {
            config,
            layout: ChemLayout::Block,
            resume: None,
        };
        let ctx = TraceContext::for_job(job);
        let work = Box::new(work);
        Msg::Assign { job, ctx, work }
    }

    /// The tags of every frame but heartbeats until the shard hangs up.
    fn tags_until_closed(stream: &mut TcpStream) -> Vec<u8> {
        let mut seen = Vec::new();
        loop {
            match read_frame(stream) {
                Ok((tags::HEARTBEAT, _)) => {}
                Ok((tag, _)) => seen.push(tag),
                Err(WireError::Closed) => return seen,
                Err(e) => panic!("stream error {e}"),
            }
        }
    }

    /// The module doc's promise, read off a loopback socket: an untraced
    /// shard answers a cold key with `Progress` per hour, `Calibrated`,
    /// `Completed`, a sibling of a resident key with `Completed` alone,
    /// a repeat of that sibling with `Completed` alone from the result
    /// cache, and sends nothing else but `Hello` and heartbeats.
    #[test]
    fn an_untraced_shard_sends_exactly_the_documented_frames() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let shard = spawn_shard(&listener, None, Obs::off());
        let (mut stream, _) = listener.accept().unwrap();

        let mut seen = Vec::new();
        let mut fingerprints = Vec::new();
        for (job, p) in [(1, 2), (2, 4), (3, 4)] {
            proto::send(&mut stream, &assign(job, config(p, 2))).unwrap();
            // Frames through the next `Completed`, heartbeats (the one
            // frame with no fixed place) left out.
            loop {
                let (tag, payload) = read_frame(&mut stream).unwrap();
                if tag != tags::HEARTBEAT {
                    seen.push(tag);
                }
                if let Msg::Completed { report, .. } = Msg::decode(tag, &payload).unwrap() {
                    fingerprints.push(report_fingerprint(&report));
                    break;
                }
            }
        }
        proto::send(&mut stream, &Msg::Shutdown).unwrap();
        assert_eq!(
            tags_until_closed(&mut stream),
            [],
            "frames after the last job"
        );
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
                tags::COMPLETED,
            ]
        );
        assert_eq!(fingerprints[1], fingerprints[2], "a repeat is the same job");
    }

    /// `drop_after_hours` severs the connection after that many hours,
    /// and the running job stops at its next hour boundary: one hour
    /// simulated, one `Progress` on the wire, no `Completed`.
    #[test]
    fn a_dropped_shard_stops_its_job_at_the_next_hour_boundary() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let sink = Arc::new(SpanSink::new());
        let shard = spawn_shard(&listener, Some(1), Obs::new(Arc::clone(&sink)));
        let (mut stream, _) = listener.accept().unwrap();
        proto::send(&mut stream, &assign(1, config(2, 4))).unwrap();
        assert_eq!(
            tags_until_closed(&mut stream),
            [tags::HELLO, tags::PROGRESS]
        );
        shard.join().unwrap().unwrap();
        let hours = sink.events().iter().filter(|e| e.name == "hour").count();
        assert_eq!(hours, 1, "the job ran past the hour that severed it");
    }

    /// A traced roundtrip through the real front-end: every shard-side
    /// `job` span carries the trace_id of a front-end `job` span, which
    /// is what lets `trace-merge` link the two.
    #[test]
    fn every_shard_side_job_span_carries_its_jobs_trace_id() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let shard_sink = Arc::new(SpanSink::new());
        let shard = spawn_shard(&listener, None, Obs::new(Arc::clone(&shard_sink)));
        let batch = [2, 4, 8].map(|p| (config(p, 1), ChemLayout::Block));
        let front_sink = Arc::new(SpanSink::new());
        let front = Obs::new(Arc::clone(&front_sink));
        let options = FrontendOptions {
            expect: 1,
            ..FrontendOptions::default()
        };
        let outcome = serve_batch(&listener, options, &batch, &front).unwrap();
        shard.join().unwrap().unwrap();
        assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);

        let trace_ids = |sink: &SpanSink| -> Vec<i64> {
            let spans = sink.events().into_iter().filter(|e| e.name == "job");
            spans
                .map(|e| match e.arg {
                    Some(("trace_id", id)) => id,
                    other => panic!("a job span without a trace_id: {other:?}"),
                })
                .collect()
        };
        let front = BTreeSet::from_iter(trace_ids(&front_sink));
        let shard = trace_ids(&shard_sink);
        assert_eq!(shard.len(), batch.len(), "one shard-side span per job");
        assert_eq!(BTreeSet::from_iter(shard), front);
    }
}
