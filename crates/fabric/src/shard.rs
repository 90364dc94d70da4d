//! The shard process: a [`ScenarioServer`] behind one TCP connection, as
//! a pure state machine and the socket driver that feeds it.
//!
//! [`ShardCore`] holds no socket, reads no clock and takes no lock. Each
//! [`ShardCore::step`] takes one [`ShardEvent`] and returns a
//! [`ShardStep`]: the frames to write, the jobs to submit and cancel, and
//! whether to sever the connection or exit the process. It keeps the
//! outstanding jobs and their trace contexts, the hour count behind the
//! self-destruct knobs, and the heartbeat sequence: the first `Tick`
//! `heartbeat_ms` after the last `Heartbeat` sends one, with its own
//! plan-memo counters. A seeded simulation (`tests/fabric_sim.rs`) drives it over a
//! stand-in executor.
//!
//! [`run_shard`] is the IO. It dials the front-end, says `Hello`, and
//! starts a [`ScenarioServer`] on the caller's [`Obs`]: `workers` workers,
//! no admission budget, an unbounded queue (the router's dispatch window
//! of `workers` jobs is the bound). A reader thread and every job's
//! [`JobObserver`] send events into one channel, and one loop waits on it
//! until the next heartbeat is due, steps, submits and cancels on the
//! server, then writes the frames. An observer holds its worker until its
//! event is stepped, so a sever's cancels land before the job's next hour
//! boundary. `Shutdown` (or a closed socket) lets the outstanding jobs
//! finish, then drains the server.
//!
//! A job's events become frames: `Progress` after every hour of a cold
//! run, `Calibrated` (the §4 model of the fresh profile) before its
//! replay, then `Completed` or `Failed`. A job answered from a resident
//! profile or result sends `Completed` alone.
//!
//! Two self-destruct knobs support shard-loss testing: `die_after_hours`
//! hard-exits the process (CI's `kill -9` stand-in, deterministic at an
//! hour boundary), and `drop_after_hours` severs the connection and
//! cancels every outstanding job — usable in-process where
//! `process::exit` would take the test harness down with it.

use crate::proto::{self, Msg, ScenarioJob};
use airshed_core::codec::WireError;
use airshed_core::driver::PlanMemoStats;
use airshed_core::obs::dist::TraceContext;
use airshed_core::{ExecSpec, Obs, PerfModel};
use airshed_server::{
    JobError, JobEvent, JobObserver, JobResult, ResumePoint, ScenarioRequest, ScenarioServer,
    ServerConfig,
};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
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

/// One input to [`ShardCore::step`]. A job's event names its fabric id.
#[derive(Debug)]
pub enum ShardEvent {
    /// A frame from the front-end.
    Frame(Msg),
    /// An hour of a cold run: all progress so far, and its wall time.
    Hour(u64, Box<ResumePoint>, Duration),
    /// The fresh profile's §4 model.
    Calibrated(u64, PerfModel),
    Finished(u64, JobResult),
    /// The executor's plan-memo counters, read when a beat may be due.
    Tick(PlanMemoStats),
}

/// What one [`ShardCore::step`] asks of its driver.
#[derive(Debug, Default)]
pub struct ShardStep {
    /// Frames to write, in order.
    pub frames: Vec<Msg>,
    /// `(job, trace context, work)` to submit to the executor.
    pub submits: Vec<(u64, TraceContext, ScenarioJob)>,
    /// Jobs to cancel: each stops at its next hour boundary.
    pub cancels: Vec<u64>,
    /// Shut the connection.
    pub sever: bool,
    /// Exit the process with status 3.
    pub exit: bool,
}

/// See the module docs.
pub struct ShardCore {
    name: String,
    workers: u32,
    heartbeat_ms: u64,
    die_after_hours: Option<u64>,
    drop_after_hours: Option<u64>,
    /// Unfinished jobs and their trace contexts: what a sever cancels.
    jobs: BTreeMap<u64, TraceContext>,
    hours_done: u64,
    severed: bool,
    /// The front-end said `Shutdown` or hung up.
    closed: bool,
    seq: u64,
    last_beat_ms: u64,
}

impl ShardCore {
    /// A shard whose step clock starts at 0.
    pub fn new(opts: &ShardOptions) -> ShardCore {
        ShardCore {
            name: opts.name.clone(),
            workers: opts.workers.max(1) as u32,
            heartbeat_ms: opts.heartbeat_ms.max(10),
            die_after_hours: opts.die_after_hours,
            drop_after_hours: opts.drop_after_hours,
            jobs: BTreeMap::new(),
            hours_done: 0,
            severed: false,
            closed: false,
            seq: 0,
            last_beat_ms: 0,
        }
    }

    /// The frame that opens the connection.
    pub fn hello(&self, sent_us: u64) -> Msg {
        Msg::Hello {
            name: self.name.clone(),
            workers: self.workers,
            sent_us,
        }
    }

    /// When the next `Heartbeat` is due, on the step clock.
    pub fn next_beat_ms(&self) -> u64 {
        self.last_beat_ms + self.heartbeat_ms
    }

    /// Nothing left to do: the connection is severed or closed, and no
    /// job is outstanding.
    pub fn is_done(&self) -> bool {
        (self.severed || self.closed) && self.jobs.is_empty()
    }

    /// Feed one event. `now_ms` is the driver's clock since the core was
    /// made; `sent_us` stamps this step's frames (0 untraced).
    pub fn step(&mut self, event: ShardEvent, now_ms: u64, sent_us: u64) -> ShardStep {
        let mut step = ShardStep::default();
        if self.severed {
            return step;
        }
        match event {
            // One server job per fabric id: a repeat of an outstanding
            // job is refused, so every job event finds its context.
            ShardEvent::Frame(Msg::Assign { job, ctx, work }) => {
                if let Entry::Vacant(slot) = self.jobs.entry(job) {
                    slot.insert(ctx);
                    step.submits.push((job, ctx, *work));
                }
            }
            ShardEvent::Frame(Msg::Shutdown) => self.closed = true,
            ShardEvent::Frame(other) => {
                eprintln!("airshed-shard: unexpected frame tag {}", other.tag())
            }
            ShardEvent::Hour(job, resume, wall) => {
                let (ctx, hour_us) = (self.jobs[&job], wall.as_micros() as u64);
                step.frames.push(Msg::Progress {
                    job,
                    ctx,
                    sent_us,
                    hour_us,
                    resume,
                });
                self.hours_done += 1;
                let reached = |n: Option<u64>| n.is_some_and(|n| self.hours_done >= n);
                step.exit = reached(self.die_after_hours);
                if reached(self.drop_after_hours) {
                    self.severed = true;
                    step.sever = true;
                    step.cancels = std::mem::take(&mut self.jobs).into_keys().collect();
                }
            }
            // Stepped before the job's `Finished`, so the router prices
            // with the model before a completion frees capacity.
            ShardEvent::Calibrated(job, model) => step.frames.push(Msg::Calibrated { job, model }),
            ShardEvent::Finished(job, result) => {
                let ctx = self.jobs.remove(&job).expect("an outstanding job");
                step.frames.extend(match result {
                    Ok(report) => Some(Msg::Completed {
                        job,
                        ctx,
                        sent_us,
                        report: Box::new(Arc::unwrap_or_clone(report)),
                    }),
                    Err(JobError::Failed { message }) => Some(Msg::Failed { job, ctx, message }),
                    // No job here has a deadline, and only a sever
                    // cancels: the front-end re-routes it.
                    Err(JobError::Cancelled { .. } | JobError::DeadlineExpired { .. }) => None,
                });
            }
            // Only a `Tick` beats, so a heartbeat's counters are never
            // stale.
            ShardEvent::Tick(plans) if now_ms >= self.next_beat_ms() => {
                self.seq += 1;
                self.last_beat_ms = now_ms;
                step.frames.push(Msg::Heartbeat {
                    seq: self.seq,
                    sent_us,
                    plans,
                });
            }
            ShardEvent::Tick(..) => {}
        }
        step
    }
}

/// What the loop's channel carries: an event, and for a job's event the
/// sender its worker waits on until the loop drops it after the step.
type Inbound = (ShardEvent, Option<Sender<()>>);

/// One fabric job on the shard's server: its events go to the loop.
struct FabricJob {
    job: u64,
    trace_id: u64,
    events: Sender<Inbound>,
}

impl JobObserver for FabricJob {
    /// The front-end's trace, so the stitcher links the shard's span.
    fn trace_id(&self) -> Option<u64> {
        Some(self.trace_id)
    }

    fn event(&self, event: JobEvent<'_>) {
        let job = self.job;
        let event = match event {
            JobEvent::Hour(resume, wall) => ShardEvent::Hour(job, Box::new(resume.clone()), wall),
            JobEvent::Calibrated(profile) => {
                ShardEvent::Calibrated(job, PerfModel::from_profile(profile))
            }
            JobEvent::Finished(result) => ShardEvent::Finished(job, result.clone()),
        };
        let (stepped, wait) = mpsc::channel();
        // Returns once the loop dropped `stepped`, or never took it.
        let _ = self.events.send((event, Some(stepped)));
        let _ = wait.recv();
    }
}

/// Run a shard to completion: connect, serve until `Shutdown` or
/// disconnect, drain the server, exit. See the module docs.
pub fn run_shard(opts: ShardOptions, obs: &Obs) -> Result<(), String> {
    let mut stream =
        TcpStream::connect(&opts.connect).map_err(|e| format!("connect {}: {e}", opts.connect))?;
    stream.set_nodelay(true).ok();
    let mut reader = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    // On the epoch the front-end's clock-offset estimate is relative to;
    // 0 (= no stamp) untraced.
    let stamp = || {
        let now = obs.enabled().then(|| obs.us_since_epoch(Instant::now()));
        now.map_or(0, |us| us as u64)
    };
    let epoch = Instant::now();
    let now_ms = || epoch.elapsed().as_millis() as u64;
    let mut core = ShardCore::new(&opts);
    proto::send(&mut stream, &core.hello(stamp())).map_err(|_| "failed to send Hello")?;

    let server = ScenarioServer::start(ServerConfig {
        workers: opts.workers,
        queue_capacity: usize::MAX,
        budget_seconds: None,
        exec: opts.exec,
        obs: obs.clone(),
    });
    let tick = || (ShardEvent::Tick(server.metrics().plans), None);
    let (events, inbox) = mpsc::channel::<Inbound>();
    let forward = events.clone();
    let mut handles = HashMap::new();
    std::thread::scope(|scope| {
        // The front-end's frames, ending in `Shutdown` (a closed or
        // broken stream reads as one).
        scope.spawn(move || loop {
            let msg = proto::recv(&mut reader).unwrap_or_else(|e| {
                if !matches!(e, WireError::Closed) {
                    eprintln!("airshed-shard: stream error: {e}");
                }
                Msg::Shutdown
            });
            let end = matches!(msg, Msg::Shutdown);
            if forward.send((ShardEvent::Frame(msg), None)).is_err() || end {
                return;
            }
        });
        while !core.is_done() {
            // A due heartbeat steps the executor's counters first.
            let (event, stepped) = match core.next_beat_ms().saturating_sub(now_ms()) {
                0 => tick(),
                wait => inbox
                    .recv_timeout(Duration::from_millis(wait))
                    .unwrap_or_else(|_| tick()),
            };
            if let ShardEvent::Finished(job, _) = &event {
                handles.remove(job);
            }
            // Submits and cancels, then the frames, then the connection.
            let step = core.step(event, now_ms(), stamp());
            for (job, ctx, work) in step.submits {
                let observer = FabricJob {
                    job,
                    trace_id: ctx.trace_id,
                    events: events.clone(),
                };
                let request = ScenarioRequest {
                    layout: work.layout,
                    resume: work.resume.map(Box::new),
                    observer: Some(Arc::new(observer)),
                    ..ScenarioRequest::new(work.config)
                };
                handles.extend(server.submit(request).into_handle().map(|h| (job, h)));
            }
            for job in step.cancels {
                if let Some(handle) = handles.remove(&job) {
                    handle.cancel();
                }
            }
            for msg in &step.frames {
                if obs.enabled() && matches!(msg, Msg::Completed { .. }) {
                    // The wire cost of shipping a result back: the
                    // serialization leg of copy accounting.
                    let at = obs.us_since_epoch(Instant::now());
                    let bytes = msg.encode().len() as f64;
                    obs.record_counter("result_frame_bytes", "copy bytes", at, bytes, None);
                }
                let _ = proto::send(&mut stream, msg);
            }
            if step.sever {
                let _ = stream.shutdown(Shutdown::Both);
            }
            if step.exit {
                // The CI crash: gone between two heartbeats, with the
                // hour just finished already on the wire.
                std::process::exit(3);
            }
            drop(stepped);
        }
        // Unblocks the reader if the loop ended on a sever.
        let _ = stream.shutdown(Shutdown::Both);
    });
    // Dropping the channel releases any worker still waiting on a step.
    drop(inbox);
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

    /// A repeated `Assign` of an outstanding job is refused: one server
    /// job per fabric id, whose events all find the job's context.
    #[test]
    fn a_repeated_assign_of_an_outstanding_job_is_refused() {
        let mut core = ShardCore::new(&ShardOptions::default());
        for submits in [1, 0] {
            let step = core.step(ShardEvent::Frame(assign(1, config(2, 1))), 0, 0);
            assert_eq!(step.submits.len(), submits);
        }
        let failed = Err(JobError::Failed {
            message: "numerics panicked".into(),
        });
        let step = core.step(ShardEvent::Finished(1, failed), 0, 0);
        assert!(matches!(step.frames[..], [Msg::Failed { job: 1, .. }]));
        let shutdown = core.step(ShardEvent::Frame(Msg::Shutdown), 0, 0);
        assert!(shutdown.frames.is_empty() && core.is_done());
    }

    /// Only a `Tick` beats, so a heartbeat reports the plan-memo
    /// counters of the `Tick` that sent it: a due step of any other event
    /// sends none.
    #[test]
    fn a_heartbeat_reports_the_load_of_the_tick_that_sends_it() {
        let mut core = ShardCore::new(&ShardOptions::default());
        let due = core.next_beat_ms();
        let tick = |hits| {
            ShardEvent::Tick(PlanMemoStats {
                hits,
                ..PlanMemoStats::default()
            })
        };
        assert!(core.step(tick(1), due - 1, 0).frames.is_empty());
        let assigned = core.step(ShardEvent::Frame(assign(1, config(2, 1))), due, 0);
        assert!(assigned.frames.is_empty(), "a heartbeat off a Tick");
        let beat = core.step(tick(2), due, 0).frames;
        assert!(matches!(
            beat[..],
            [Msg::Heartbeat {
                plans: PlanMemoStats { hits: 2, .. },
                ..
            }]
        ));
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
