//! The front-end process: a pure state machine around the [`Router`],
//! and the socket driver that feeds it.
//!
//! [`Frontend`] holds no socket and reads no clock, like the router it
//! owns. Each [`Frontend::step`] takes one [`Event`] with the driver's
//! clock readings and returns a [`Step`]: the frames to write and the
//! jobs whose results arrived. Around the router it keeps the fleet's
//! `Hello` phase, the per-shard clock-offset estimates and wire times,
//! the collected results, and the "all shards lost" verdict. A seeded
//! simulation (`tests/fabric_sim.rs`) drives it against in-process
//! shard models.
//!
//! [`serve_batch`] is the IO: accept shards and read their `Hello`s, one
//! reader thread per shard funnelling decoded messages into an mpsc
//! channel, the writes, the deadline and the trace marks. A failed
//! write or a closed reader both become [`Event::Gone`] — the router
//! treats them identically to a heartbeat timeout.

use crate::proto::{self, Msg};
use crate::router::{Router, RouterConfig, ShardCounters};
use airshed_core::codec::{intern, WireError};
use airshed_core::config::SimConfig;
use airshed_core::driver::ChemLayout;
use airshed_core::obs::dist::{TraceContext, CLOCK_OFFSET_TRACK};
use airshed_core::obs::Track;
use airshed_core::Obs;
use airshed_core::RunReport;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Front-end tuning.
#[derive(Debug, Clone, Copy)]
pub struct FrontendOptions {
    /// Number of shard connections to wait for before serving.
    pub expect: usize,
    pub router: RouterConfig,
    /// Overall wall-clock budget for the batch.
    pub deadline: Option<Duration>,
}

impl Default for FrontendOptions {
    fn default() -> FrontendOptions {
        FrontendOptions {
            expect: 2,
            router: RouterConfig::default(),
            deadline: Some(Duration::from_secs(600)),
        }
    }
}

/// What a batch produced.
pub struct FabricOutcome {
    /// `(scenario index, report)` for every job that completed.
    pub reports: Vec<(usize, RunReport)>,
    /// `(scenario index, error)` for every job that terminally failed.
    pub failures: Vec<(usize, String)>,
    /// Per-shard `(name, counters)` in connection order.
    pub shards: Vec<(String, ShardCounters)>,
    /// Fabric metrics in Prometheus exposition format.
    pub prometheus: String,
}

/// One input to [`Frontend::step`]. Shards are numbered in the order
/// their `Hello` arrives.
#[derive(Debug)]
pub enum Event {
    /// A frame from a shard.
    Msg(usize, Msg),
    /// The shard's connection closed or failed.
    Gone(usize),
    /// Time passed with no traffic.
    Tick,
}

/// What one [`Frontend::step`] asks of its driver.
#[derive(Debug, Default)]
pub struct Step {
    /// `(shard, frame)` to write, in order.
    pub frames: Vec<(usize, Msg)>,
    /// `(scenario, trace context)` of every job whose result arrived.
    pub finished: Vec<(usize, TraceContext)>,
}

impl Step {
    /// Record this step's trace marks: a dispatch mark on each shipped
    /// job's track (the stitcher draws the flow arrow from it to the
    /// shard-side span with the same `trace_id`), and each finished
    /// job's span from `submitted` (all jobs are submitted together) to
    /// `now`.
    pub fn trace(&self, obs: &Obs, router: &Router, submitted: Instant, now: Instant) {
        if !obs.enabled() {
            return;
        }
        for (_, msg) in &self.frames {
            if let Msg::Assign { job, ctx, .. } = msg {
                obs.record_interval(
                    router.job_hop(*job),
                    Track::Job(*job as u32),
                    now,
                    now + Duration::from_micros(1),
                    None,
                    Some(("trace_id", ctx.trace_id as i64)),
                );
            }
        }
        for (scenario, ctx) in &self.finished {
            obs.record_interval(
                "job",
                Track::Job(*scenario as u32),
                submitted,
                now,
                None,
                Some(("trace_id", ctx.trace_id as i64)),
            );
        }
    }
}

/// The batch cannot finish: every shard is lost with jobs outstanding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllShardsLost {
    pub outstanding: usize,
}

impl std::fmt::Display for AllShardsLost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "all shards lost with {} jobs outstanding",
            self.outstanding
        )
    }
}

/// See the module docs.
pub struct Frontend {
    router: Router,
    /// Shards to wait for before the batch is submitted.
    expect: usize,
    /// The batch until the fleet is complete, then empty.
    pending: Vec<(SimConfig, ChemLayout)>,
    /// Each outstanding scenario's trace context, as the router stamped it.
    ctxs: HashMap<usize, TraceContext>,
    /// Best clock-offset estimate per shard (µs the driver's trace clock
    /// is ahead of the shard's): min over `recv - sent` of every
    /// Hello/Heartbeat sample — each is the true offset plus a one-way
    /// wire delay, so the minimum is the tightest upper bound.
    offsets: Vec<f64>,
    reports: Vec<(usize, RunReport)>,
    failures: Vec<(usize, String)>,
}

impl Frontend {
    /// A front-end that submits `scenarios` (scenario `i` as job `i`)
    /// once `expect` shards said `Hello`.
    pub fn new(
        cfg: RouterConfig,
        expect: usize,
        scenarios: &[(SimConfig, ChemLayout)],
    ) -> Frontend {
        let mut frontend = Frontend {
            router: Router::new(cfg),
            expect,
            pending: scenarios.to_vec(),
            ctxs: HashMap::new(),
            offsets: Vec::new(),
            reports: Vec::new(),
            failures: Vec::new(),
        };
        frontend.submit_if_ready();
        frontend
    }

    /// Feed one event. `now_ms` is the driver's batch clock; `recv_us`
    /// is when the event arrived on the trace clock, `None` untraced.
    pub fn step(
        &mut self,
        event: Event,
        now_ms: u64,
        recv_us: Option<f64>,
    ) -> Result<Step, AllShardsLost> {
        match event {
            Event::Msg(
                shard,
                Msg::Hello {
                    name,
                    workers,
                    sent_us,
                },
            ) if shard == self.router.shard_count() => {
                self.router.add_shard(&name, workers as usize, now_ms);
                self.offsets.push(match recv_us {
                    Some(recv) if sent_us > 0 => recv - sent_us as f64,
                    _ => f64::INFINITY,
                });
                self.submit_if_ready();
            }
            Event::Msg(shard, msg) => {
                if let Some(recv) = recv_us {
                    self.observe(shard, &msg, recv);
                }
                self.router.on_msg(shard, msg, now_ms);
            }
            Event::Gone(shard) => self.router.on_disconnect(shard),
            Event::Tick => {}
        }
        let mut step = Step::default();
        // Only a shard's Completed or Failed finishes a job, so the
        // event just handled is the one place results come from.
        for (scenario, result) in self.router.take_finished() {
            step.finished
                .extend(self.ctxs.remove(&scenario).map(|ctx| (scenario, ctx)));
            match result {
                Ok(report) => self.reports.push((scenario, report)),
                Err(message) => self.failures.push((scenario, message)),
            }
        }
        if self.router.shard_count() < self.expect {
            return Ok(step);
        }
        step.frames = self.router.poll(now_ms);
        let outstanding = self.router.outstanding();
        if self.router.live_shards() == 0 && outstanding > 0 {
            return Err(AllShardsLost { outstanding });
        }
        Ok(step)
    }

    fn submit_if_ready(&mut self) {
        if self.router.shard_count() < self.expect {
            return;
        }
        for (scenario, (config, layout)) in
            std::mem::take(&mut self.pending).into_iter().enumerate()
        {
            let id = self.router.submit(scenario, config, layout);
            self.ctxs
                .extend(self.router.job_ctx(id).map(|ctx| (scenario, ctx)));
        }
    }

    /// Refine the shard's clock-offset estimate from heartbeat samples
    /// and turn shard-stamped `sent_us` values into one-way wire times
    /// for the router's latency anatomy. Runs *before* the message
    /// reaches [`Router::on_msg`]: completion consumes the job record.
    fn observe(&mut self, shard: usize, msg: &Msg, recv_us: f64) {
        let offset = &mut self.offsets[shard];
        match msg {
            Msg::Heartbeat { sent_us, .. } if *sent_us > 0 => {
                *offset = offset.min(recv_us - *sent_us as f64);
            }
            Msg::Progress { job, sent_us, .. } | Msg::Completed { job, sent_us, .. }
                if *sent_us > 0 && offset.is_finite() =>
            {
                let wire = (recv_us - (*sent_us as f64 + *offset)).max(0.0);
                let reply = matches!(msg, Msg::Completed { .. });
                self.router.note_wire(*job, wire as u64, reply);
            }
            _ => {}
        }
    }

    /// Every scenario has its result.
    pub fn is_done(&self) -> bool {
        self.router.shard_count() >= self.expect && self.router.outstanding() == 0
    }

    pub fn router(&self) -> &Router {
        &self.router
    }

    /// `(scenario, report)` of every completed job, in arrival order.
    pub fn reports(&self) -> &[(usize, RunReport)] {
        &self.reports
    }

    /// `(scenario, error)` of every failed job, in arrival order.
    pub fn failures(&self) -> &[(usize, String)] {
        &self.failures
    }

    /// `(shard name, offset µs)` of every shard with a clock-offset
    /// estimate.
    pub fn clock_offsets(&self) -> impl Iterator<Item = (&str, f64)> {
        let router = &self.router;
        self.offsets
            .iter()
            .enumerate()
            .filter(|(_, offset)| offset.is_finite())
            .map(|(s, &offset)| (router.shard_name(s), offset))
    }

    /// The batch's results (sorted by scenario), counters and metrics.
    pub fn into_outcome(mut self) -> FabricOutcome {
        self.reports.sort_by_key(|(i, _)| *i);
        self.failures.sort_by_key(|(i, _)| *i);
        let router = &self.router;
        FabricOutcome {
            shards: (0..router.shard_count())
                .map(|s| (router.shard_name(s).to_string(), router.counters(s)))
                .collect(),
            prometheus: router.prometheus(),
            reports: self.reports,
            failures: self.failures,
        }
    }
}

/// Serve one batch of scenarios over `listener`: wait for
/// `opts.expect` shards to connect and say `Hello`, route every
/// scenario, and run the event loop until each job reaches a terminal
/// state. Returns an error only when the batch cannot finish (all
/// shards lost, or the deadline expires). The deadline runs from entry,
/// so it bounds the wait for the fleet too.
///
/// The fabric metrics are published through `obs` under the
/// `fabric-metrics` section, so `--metrics-out` exports them alongside
/// the rest of the Prometheus surface.
pub fn serve_batch(
    listener: &TcpListener,
    opts: FrontendOptions,
    scenarios: &[(SimConfig, ChemLayout)],
    obs: &Obs,
) -> Result<FabricOutcome, String> {
    let deadline = opts.deadline.map(|d| Instant::now() + d);
    let mut frontend = Frontend::new(opts.router, opts.expect, scenarios);
    let (tx, rx) = mpsc::channel::<Event>();
    let mut writers: Vec<Option<TcpStream>> = Vec::new();
    let mut readers = Vec::new();
    let recv_us = || obs.enabled().then(|| obs.us_since_epoch(Instant::now()));
    let mut events = VecDeque::new();

    // Phase 1: collect the fleet. Shards introduce themselves with a
    // Hello frame carrying their name and worker count.
    listener
        .set_nonblocking(deadline.is_some())
        .map_err(|e| format!("listener: {e}"))?;
    for shard in 0..opts.expect {
        let (stream, addr) = loop {
            match listener.accept() {
                Ok(accepted) => break accepted,
                Err(e) if e.kind() != ErrorKind::WouldBlock => {
                    return Err(format!("accept failed: {e}"))
                }
                Err(_) if deadline.is_some_and(|d| Instant::now() >= d) => {
                    return Err(format!(
                        "fabric deadline expired with {shard} of {} shards connected",
                        opts.expect
                    ))
                }
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        };
        stream.set_nonblocking(false).ok();
        stream.set_nodelay(true).ok();
        let mut reader = stream
            .try_clone()
            .map_err(|e| format!("clone failed: {e}"))?;
        // Bounded, so a peer that connects and stalls cannot hang it.
        reader.set_read_timeout(opts.deadline).ok();
        let hello = proto::recv(&mut reader).map_err(|e| format!("bad hello from {addr}: {e}"))?;
        reader.set_read_timeout(None).ok();
        if !matches!(hello, Msg::Hello { .. }) {
            return Err(format!(
                "expected Hello from {addr}, got tag {}",
                hello.tag()
            ));
        }
        events.push_back((Event::Msg(shard, hello), recv_us()));
        let tx = tx.clone();
        readers.push(std::thread::spawn(move || loop {
            match proto::recv(&mut reader) {
                Ok(msg) => {
                    if tx.send(Event::Msg(shard, msg)).is_err() {
                        return;
                    }
                }
                Err(WireError::Closed) => {
                    let _ = tx.send(Event::Gone(shard));
                    return;
                }
                Err(e) => {
                    eprintln!("airshed-fabric: shard {shard} stream error: {e}");
                    let _ = tx.send(Event::Gone(shard));
                    return;
                }
            }
        }));
        writers.push(Some(stream));
    }
    drop(tx);

    // Phase 2: the Hellos submit the batch; step until every job is
    // terminal. The batch clock starts here, so the fleet starts live.
    let epoch = Instant::now();
    let served = loop {
        if frontend.is_done() {
            break Ok(());
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break Err(format!(
                "fabric deadline expired with {} jobs outstanding",
                frontend.router().outstanding()
            ));
        }
        let (event, recv) = events.pop_front().unwrap_or_else(|| {
            let event = rx
                .recv_timeout(Duration::from_millis(20))
                .unwrap_or(Event::Tick);
            (event, recv_us())
        });
        let step = match frontend.step(event, epoch.elapsed().as_millis() as u64, recv) {
            Ok(step) => step,
            Err(lost) => break Err(lost.to_string()),
        };
        step.trace(obs, frontend.router(), epoch, Instant::now());
        for (shard, msg) in step.frames {
            let sent = writers[shard]
                .as_mut()
                .is_some_and(|w| proto::send(w, &msg).is_ok());
            if !sent {
                writers[shard] = None;
                events.push_back((Event::Gone(shard), None));
            }
        }
    };
    shutdown(&mut writers, &mut readers);
    served?;

    if obs.enabled() {
        // Persist the per-shard clock offsets as a counter track so the
        // trace stitcher can place every process on this timeline from
        // the frontend trace alone.
        let ts = obs.us_since_epoch(Instant::now());
        for (name, offset) in frontend.clock_offsets() {
            // The peer chose this name in its Hello: interned, a
            // long-lived frontend keeps one copy per name, and a name
            // the bounded table refuses goes without a counter.
            if let Ok(name) = intern(name) {
                obs.record_counter(name, CLOCK_OFFSET_TRACK, ts, offset, None);
            }
        }
    }
    let outcome = frontend.into_outcome();
    obs.publish("fabric-metrics", outcome.prometheus.clone());
    obs.flush();
    Ok(outcome)
}

/// Tell live shards to exit, unblock their readers, and join them.
fn shutdown(writers: &mut [Option<TcpStream>], readers: &mut Vec<std::thread::JoinHandle<()>>) {
    for w in writers.iter_mut() {
        if let Some(stream) = w.as_mut() {
            let _ = proto::send(stream, &Msg::Shutdown);
            let _ = stream.flush();
            let _ = stream.shutdown(Shutdown::Both);
        }
        *w = None;
    }
    for handle in readers.drain(..) {
        let _ = handle.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airshed_core::obs::SpanSink;
    use std::sync::Arc;

    /// Serve an empty traced batch to stand-in shards that say a stamped
    /// Hello under `names` and then wait for the end; returns the names
    /// of the clock-offset counters the frontend recorded.
    fn clock_offset_names(names: &[&str]) -> Vec<&'static str> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shards: Vec<_> = names
            .iter()
            .map(|name| {
                let hello = Msg::Hello {
                    name: name.to_string(),
                    workers: 1,
                    sent_us: 1,
                };
                std::thread::spawn(move || {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    proto::send(&mut stream, &hello).unwrap();
                    while proto::recv(&mut stream).is_ok() {}
                })
            })
            .collect();
        let sink = Arc::new(SpanSink::new());
        let opts = FrontendOptions {
            expect: names.len(),
            ..FrontendOptions::default()
        };
        serve_batch(&listener, opts, &[], &Obs::new(sink.clone())).unwrap();
        for shard in shards {
            shard.join().unwrap();
        }
        sink.events()
            .into_iter()
            .filter(|e| e.track == Track::Counter(CLOCK_OFFSET_TRACK))
            .map(|e| e.name)
            .collect()
    }

    /// A peer that connects and sends 3 bytes of a Hello is refused
    /// within the deadline, with the typed error.
    #[test]
    fn a_stalled_hello_is_refused_within_the_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        peer.write_all(b"AF\x01").unwrap();
        let opts = FrontendOptions {
            expect: 1,
            deadline: Some(Duration::from_millis(200)),
            ..FrontendOptions::default()
        };
        let (done, outcome) = mpsc::channel();
        std::thread::spawn(move || {
            let served = serve_batch(&listener, opts, &[], &Obs::off());
            let _ = done.send(served.err());
        });
        let refused = outcome.recv_timeout(Duration::from_secs(30));
        let message = refused.expect("serve_batch hangs on a stalled Hello");
        let message = message.expect("a stalled Hello is an error");
        assert!(message.starts_with("bad hello from"), "{message}");
        drop(peer);
    }

    /// A fleet of two where only one shard ever connects is refused
    /// within the deadline, naming how many connected.
    #[test]
    fn a_missing_shard_is_refused_within_the_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let hello = Msg::Hello {
            name: "lonely".to_string(),
            workers: 1,
            sent_us: 1,
        };
        proto::send(&mut peer, &hello).unwrap();
        let opts = FrontendOptions {
            expect: 2,
            deadline: Some(Duration::from_millis(200)),
            ..FrontendOptions::default()
        };
        let (done, outcome) = mpsc::channel();
        std::thread::spawn(move || {
            let served = serve_batch(&listener, opts, &[], &Obs::off());
            let _ = done.send(served.err());
        });
        let refused = outcome.recv_timeout(Duration::from_secs(30));
        let message = refused.expect("serve_batch hangs waiting for the second shard");
        let message = message.expect("a missing shard is an error");
        assert_eq!(
            message,
            "fabric deadline expired with 1 of 2 shards connected"
        );
        drop(peer);
    }

    #[test]
    fn traced_batches_share_one_copy_of_each_shard_name() {
        let names = ["intern-a", "intern-b"];
        let first = clock_offset_names(&names);
        let second = clock_offset_names(&names);
        assert_eq!(first.len(), names.len());
        assert_eq!(second.len(), names.len());
        for name in &first {
            let again = second.iter().find(|n| *n == name).expect("same shards");
            assert!(
                std::ptr::eq(*name, *again),
                "{name}: a second traced batch made a second copy of the name"
            );
        }
    }
}
