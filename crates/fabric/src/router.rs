//! The front-end's state machine: the fleet's session, every job's
//! record, routing and the batch's results.
//!
//! The router holds no sockets and never reads a clock — every method
//! that depends on time takes an explicit `now_ms`, and all outbound
//! wire traffic is returned as `(shard, Msg)` pairs. Each
//! [`Router::step`] takes one [`Event`] with the driver's clock readings
//! and returns a [`Step`]: the frames to write and the jobs whose
//! results arrived. Around routing it keeps the fleet's `Hello` phase
//! (the batch is submitted once `expect` shards said `Hello`), each
//! shard's clock-offset estimate and the wire times it yields, the
//! results, and the "all shards lost" verdict. That makes the
//! interesting distributed behaviors — earliest-predicted-completion
//! routing, work stealing, heartbeat-timeout failover with checkpoint
//! resume — testable with a scripted clock (see `tests/robustness.rs`)
//! and under a seeded simulation (`tests/fabric_sim.rs`), while the
//! socket shuffling in [`crate::frontend`] stays dumb.
//!
//! **Routing** prices a job with the one serving price,
//! [`PricedModel::hour_price`] of the job's scenario *family* (the
//! [`NumericsKey::family`] the server's admission controller also uses)
//! on the job's own `config.machine`, for the plan the shard will run
//! (the job's requested layout), scaled to the hours the job still has
//! to run — a function of the job and its family model alone, so the
//! price is the same on every shard, in every run and at the shard's own
//! admission.
//! The job goes to the shard with the earliest predicted completion:
//! `argmin(predicted backlog + this job's predicted cost)`. Families
//! with no calibrated model yet are priced at the mean cost of the
//! known outstanding jobs (or 1 when nothing is known), which degrades
//! to least-loaded routing.
//!
//! **Numerics affinity**: a shard runs each [`NumericsKey`] once and
//! replays its profile for every other job of that key (see
//! [`crate::shard`]), so placement charges numerics, not jobs. Each
//! live shard carries the set of keys placed on it; a job whose key is
//! already there adds no placement cost, a shard's load counts each key
//! whose profile it does not hold yet once, and a tie in predicted
//! finish goes to the shard that holds the key. The placement cost is
//! not the §4 price: the prediction stamped on a dispatched job is
//! still [`Router::job_cost`], whether the shard runs or replays it.
//!
//! **Stealing**: only `workers` jobs are ever in flight to a shard (the
//! dispatch window); the rest of its queue is a logical backlog held
//! here. A shard that runs dry steals from the shard with the most
//! predicted backlog — a cheap local move, no revocation protocol,
//! because undispatched jobs only exist in the router. What moves is a
//! whole key-group the victim has not started: all its queued jobs of
//! one key, never a key that is resident or in flight there (those jobs
//! are microsecond replays where they are and a numerics run anywhere
//! else).
//!
//! **Failover**: a shard that misses heartbeats past the timeout (or
//! drops its connection) is declared lost and its keys forgotten;
//! every job it held is re-routed, in-flight jobs first, with the
//! freshest [`ResumePoint`] its hourly `Progress` reports carried, so
//! the new shard resumes from the checkpoint instead of restarting —
//! and the checkpoint guarantee makes the final report bit-identical
//! either way. Queued siblings follow their key's leader through the
//! same affinity rule.

use crate::proto::{Msg, ScenarioJob};
use airshed_core::config::SimConfig;
use airshed_core::driver::{ChemLayout, PlanLayouts, PlanMemoStats};
use airshed_core::obs::dist::{TraceContext, HOP_NAMES};
use airshed_core::obs::metrics::Histogram;
use airshed_core::obs::prom::{render, render_labelled};
use airshed_core::obs::Track;
use airshed_core::report::{CopyBytes, LatencyAnatomy};
use airshed_core::{Obs, PerfModel, PricedModel, RunReport};
use airshed_server::cache::NumericsKey;
use airshed_server::ResumePoint;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::time::{Duration, Instant};

/// Router tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// A shard that has not been heard from for this long is lost.
    pub heartbeat_timeout_ms: u64,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            heartbeat_timeout_ms: 2000,
        }
    }
}

/// Per-shard fabric counters (exported to Prometheus, asserted in tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardCounters {
    /// Jobs first routed to this shard.
    pub routed: u64,
    /// Queued jobs this shard stole from a loaded peer.
    pub stolen: u64,
    /// Jobs this shard received from a lost peer (failover).
    pub failed_over: u64,
    /// Jobs this shard completed.
    pub completed: u64,
    /// Completed jobs the shard answered from a resident profile, as
    /// the router infers it: no `Progress` hour and no resume point.
    pub profile_hits: u64,
}

struct Shard {
    name: String,
    /// Dispatch window: at most this many jobs in flight on the wire.
    window: usize,
    alive: bool,
    last_seen_ms: u64,
    inflight: Vec<u64>,
    backlog: VecDeque<u64>,
    /// Numerics keys placed here (queued, in flight or completed);
    /// `true` once a job of the key completed here, i.e. its profile is
    /// resident in the shard's store. Forgotten when the shard is lost.
    keys: HashMap<NumericsKey, bool>,
    counters: ShardCounters,
    /// The shard process's plan-memo counters, as of its last heartbeat.
    plans: PlanMemoStats,
    /// Best clock-offset estimate (µs the driver's trace clock is ahead
    /// of the shard's): min over `recv - sent` of every Hello/Heartbeat
    /// sample — each is the true offset plus a one-way wire delay, so
    /// the minimum is the tightest upper bound. Infinite until sampled.
    offset: f64,
}

struct Job {
    /// Caller's tag (scenario index) echoed back with the result.
    scenario: usize,
    config: SimConfig,
    /// `NumericsKey::of(&config)`, the unit of placement.
    key: NumericsKey,
    layout: ChemLayout,
    /// Freshest resume state, from hourly `Progress` reports.
    resume: Option<ResumePoint>,
    /// Predicted remaining virtual seconds at dispatch time.
    predicted: Option<f64>,
    shard: Option<usize>,
    /// Trace context stamped at submit; every shard reply must echo it.
    ctx: TraceContext,
    /// How the job most recently changed shards ([`HOP_NAMES`] entry):
    /// the dispatch-marker name the frontend draws in the trace.
    hop: &'static str,
    // --- latency anatomy, all on the router's scripted clock ---------
    submit_ms: u64,
    first_dispatch_ms: Option<u64>,
    /// Filled in place as the job runs; `queued_ms` and `end_to_end_ms`
    /// are set at completion.
    anatomy: LatencyAnatomy,
}

/// One input to [`Router::step`]. Shards are numbered in the order
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

/// What one [`Router::step`] asks of its driver.
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

/// See the module docs.
pub struct Router {
    cfg: RouterConfig,
    /// Shards to wait for before the batch is submitted.
    expect: usize,
    /// The batch until the fleet is complete, then empty.
    pending: Vec<(SimConfig, ChemLayout)>,
    shards: Vec<Shard>,
    /// By id, so the float folds over it (`mean_cost`) add in one order
    /// and a seeded run replays whatever the hasher.
    jobs: BTreeMap<u64, Job>,
    next_job: u64,
    /// Calibrated §4 models by scenario family, each with its price memo.
    models: HashMap<NumericsKey, PricedModel>,
    /// Jobs with no live shard to run on (all lost); re-routed as soon
    /// as a shard is (re)registered.
    orphans: VecDeque<u64>,
    /// `(scenario, result)` of every finished job, in arrival order.
    results: Vec<(usize, Result<RunReport, String>)>,
    /// Predicted-vs-actual completion time distributions (virtual s).
    predicted_hist: Histogram,
    actual_hist: Histogram,
    /// Latest `now_ms` any caller passed in — the clock submit and
    /// completion stamps read, so `submit()`'s signature stays pure.
    now_ms: u64,
    /// Shard replies whose echoed [`TraceContext`] did not match the
    /// submit-time stamp (should stay 0; asserted in tests).
    ctx_mismatches: u64,
    /// Fleet-wide copy traffic summed over completed jobs' reports.
    fleet_copy: CopyBytes,
    // Latency-anatomy stage histograms (frontend clock).
    queued_hist: Histogram,
    exec_hour_hist: Histogram,
    wire_hist: Histogram,
    reply_hist: Histogram,
    e2e_hist: Histogram,
}

impl Router {
    /// A router that submits `scenarios` (scenario `i` as job `i`) once
    /// `expect` shards said `Hello`. Scripted sessions that register
    /// shards and submit jobs themselves pass `0, &[]`.
    pub fn new(cfg: RouterConfig, expect: usize, scenarios: &[(SimConfig, ChemLayout)]) -> Router {
        let mut router = Router {
            cfg,
            expect,
            pending: scenarios.to_vec(),
            shards: Vec::new(),
            jobs: BTreeMap::new(),
            next_job: 0,
            models: HashMap::new(),
            orphans: VecDeque::new(),
            results: Vec::new(),
            predicted_hist: Histogram::new(),
            actual_hist: Histogram::new(),
            now_ms: 0,
            ctx_mismatches: 0,
            fleet_copy: CopyBytes::default(),
            queued_hist: Histogram::new(),
            exec_hour_hist: Histogram::new(),
            wire_hist: Histogram::new(),
            reply_hist: Histogram::new(),
            e2e_hist: Histogram::new(),
        };
        router.submit_if_ready();
        router
    }

    /// Feed one event. `now_ms` is the driver's batch clock; `recv_us`
    /// is when the event arrived on the trace clock, `None` untraced.
    pub fn step(
        &mut self,
        event: Event,
        now_ms: u64,
        recv_us: Option<f64>,
    ) -> Result<Step, AllShardsLost> {
        let mut step = Step::default();
        match event {
            Event::Msg(
                shard,
                Msg::Hello {
                    name,
                    workers,
                    sent_us,
                },
            ) if shard == self.shards.len() => {
                self.add_shard(&name, workers as usize, now_ms);
                if let Some(recv) = recv_us.filter(|_| sent_us > 0) {
                    self.shards[shard].offset = recv - sent_us as f64;
                }
                self.submit_if_ready();
            }
            Event::Msg(shard, msg) => {
                if let Some(recv) = recv_us {
                    self.observe(shard, &msg, recv);
                }
                // Only a shard's Completed or Failed finishes a job, and
                // it consumes the job's record: read it first.
                if let Msg::Completed { job, .. } | Msg::Failed { job, .. } = &msg {
                    step.finished
                        .extend(self.jobs.get(job).map(|j| (j.scenario, j.ctx)));
                }
                self.on_msg(shard, msg, now_ms);
            }
            Event::Gone(shard) => self.on_disconnect(shard),
            Event::Tick => {}
        }
        if self.shards.len() < self.expect {
            return Ok(step);
        }
        step.frames = self.poll(now_ms);
        let outstanding = self.outstanding();
        if self.live_shards() == 0 && outstanding > 0 {
            return Err(AllShardsLost { outstanding });
        }
        Ok(step)
    }

    fn submit_if_ready(&mut self) {
        if self.shards.len() < self.expect {
            return;
        }
        for (scenario, (config, layout)) in
            std::mem::take(&mut self.pending).into_iter().enumerate()
        {
            self.submit(scenario, config, layout);
        }
    }

    /// Refine the shard's clock-offset estimate from heartbeat samples
    /// and turn shard-stamped `sent_us` values into one-way wire times
    /// for the job's latency anatomy. Runs *before* the message reaches
    /// [`Router::on_msg`]: completion consumes the job record.
    fn observe(&mut self, shard: usize, msg: &Msg, recv_us: f64) {
        let offset = &mut self.shards[shard].offset;
        match msg {
            Msg::Heartbeat { sent_us, .. } if *sent_us > 0 => {
                *offset = offset.min(recv_us - *sent_us as f64);
            }
            Msg::Progress { job, sent_us, .. } | Msg::Completed { job, sent_us, .. }
                if *sent_us > 0 && offset.is_finite() =>
            {
                let wire = (recv_us - (*sent_us as f64 + *offset)).max(0.0);
                let reply = matches!(msg, Msg::Completed { .. });
                self.note_wire(*job, wire as u64, reply);
            }
            _ => {}
        }
    }

    /// Every scenario has its result.
    pub fn is_done(&self) -> bool {
        self.shards.len() >= self.expect && self.jobs.is_empty()
    }

    /// `(scenario, result)` of every finished job, in arrival order.
    pub fn results(&self) -> &[(usize, Result<RunReport, String>)] {
        &self.results
    }

    /// `(shard name, offset µs)` of every shard with a clock-offset
    /// estimate.
    pub fn clock_offsets(&self) -> impl Iterator<Item = (&str, f64)> {
        self.shards
            .iter()
            .filter(|s| s.offset.is_finite())
            .map(|s| (s.name.as_str(), s.offset))
    }

    /// The batch's results (sorted by scenario), counters and metrics.
    pub fn into_outcome(mut self) -> FabricOutcome {
        let (mut reports, mut failures) = (Vec::new(), Vec::new());
        for (scenario, result) in std::mem::take(&mut self.results) {
            match result {
                Ok(report) => reports.push((scenario, report)),
                Err(message) => failures.push((scenario, message)),
            }
        }
        reports.sort_by_key(|(i, _)| *i);
        failures.sort_by_key(|(i, _)| *i);
        FabricOutcome {
            shards: (self.shards.iter())
                .map(|s| (s.name.clone(), s.counters))
                .collect(),
            prometheus: self.prometheus(),
            reports,
            failures,
        }
    }

    /// Register a connected shard; `workers` sets its dispatch window.
    pub fn add_shard(&mut self, name: &str, workers: usize, now_ms: u64) -> usize {
        self.shards.push(Shard {
            name: name.to_string(),
            window: workers.max(1),
            alive: true,
            last_seen_ms: now_ms,
            inflight: Vec::new(),
            backlog: VecDeque::new(),
            keys: HashMap::new(),
            counters: ShardCounters::default(),
            plans: PlanMemoStats::default(),
            offset: f64::INFINITY,
        });
        self.shards.len() - 1
    }

    /// Accept one scenario; returns its job id. The job is routed
    /// immediately (counted in `routed`) but only shipped by [`Router::poll`].
    pub fn submit(&mut self, scenario: usize, config: SimConfig, layout: ChemLayout) -> u64 {
        let id = self.next_job;
        self.next_job += 1;
        self.jobs.insert(
            id,
            Job {
                scenario,
                key: NumericsKey::of(&config),
                config,
                layout,
                resume: None,
                predicted: None,
                shard: None,
                ctx: TraceContext::for_job(id),
                hop: HOP_NAMES[0],
                submit_ms: self.now_ms,
                first_dispatch_ms: None,
                anatomy: LatencyAnatomy::default(),
            },
        );
        match self.route(id) {
            Some(s) => self.shards[s].counters.routed += 1,
            None => self.orphans.push_back(id),
        }
        id
    }

    /// Record a calibrated performance model for `config`'s family.
    /// Normally fed by `Calibrated` messages; also a test hook.
    pub fn calibrate(&mut self, config: &SimConfig, model: PerfModel) {
        self.models
            .insert(NumericsKey::of(config).family(), PricedModel::new(model));
    }

    /// Handle one shard message. `now_ms` marks the shard live.
    pub fn on_msg(&mut self, shard: usize, msg: Msg, now_ms: u64) {
        self.now_ms = self.now_ms.max(now_ms);
        if self.shards[shard].alive {
            self.shards[shard].last_seen_ms = now_ms;
        }
        match msg {
            Msg::Heartbeat { plans, .. } => self.shards[shard].plans = plans,
            Msg::Hello { .. } => {}
            Msg::Progress {
                job,
                ctx,
                hour_us,
                resume,
                ..
            } => {
                self.check_ctx(job, ctx);
                if let Some(j) = self.jobs.get_mut(&job) {
                    j.resume = Some(*resume);
                    j.anatomy.exec_us += hour_us;
                    j.anatomy.hours += 1;
                    self.exec_hour_hist.record(Duration::from_micros(hour_us));
                }
            }
            Msg::Completed {
                job, ctx, report, ..
            } => {
                self.check_ctx(job, ctx);
                self.complete(shard, job, *report);
            }
            Msg::Failed { job, ctx, message } => {
                self.check_ctx(job, ctx);
                if let Some(j) = self.jobs.remove(&job) {
                    self.detach(job);
                    self.results.push((j.scenario, Err(message)));
                }
            }
            // A shard sends Calibrated before Completed on one stream, so
            // a model for a job already finished is not expected: ignored.
            Msg::Calibrated { job, model } => {
                if let Some(j) = self.jobs.get(&job) {
                    self.models.insert(j.key.family(), PricedModel::new(model));
                }
            }
            Msg::Assign { .. } | Msg::Shutdown => {} // not shard -> front-end
        }
    }

    /// The shard's connection dropped: immediate failover.
    pub fn on_disconnect(&mut self, shard: usize) {
        self.lose(shard);
    }

    /// Advance the state machine: declare heartbeat-silent shards lost,
    /// re-route their jobs, let dry shards steal, and dispatch up to
    /// each live shard's window. Returns the frames to put on the wire.
    pub fn poll(&mut self, now_ms: u64) -> Vec<(usize, Msg)> {
        self.now_ms = self.now_ms.max(now_ms);
        // Failover on missed heartbeats.
        let timeout = self.cfg.heartbeat_timeout_ms;
        for s in 0..self.shards.len() {
            if self.shards[s].alive && now_ms.saturating_sub(self.shards[s].last_seen_ms) > timeout
            {
                self.lose(s);
            }
        }
        // Orphans (jobs that survived a total outage) route first.
        for _ in 0..self.orphans.len() {
            let Some(id) = self.orphans.pop_front() else {
                break;
            };
            self.fail_over(id);
        }
        self.steal();
        self.dispatch()
    }

    /// Count a shard reply whose echoed trace context does not match
    /// the submit-time stamp (unknown jobs are fine — races with
    /// completion are expected, forged contexts are not).
    fn check_ctx(&mut self, job: u64, ctx: TraceContext) {
        if let Some(j) = self.jobs.get(&job) {
            if ctx != j.ctx {
                self.ctx_mismatches += 1;
            }
        }
    }

    /// Work stealing: a live shard whose pipeline has room and whose
    /// backlog is empty takes one key-group at a time — every queued
    /// job of one numerics key — from the live shard with the largest
    /// predicted backlog. Only shards whose pipeline is already full
    /// are valid victims — their backlog is true excess; stealing from
    /// a shard that could dispatch the job itself would just ping-pong
    /// work between idle shards. And only groups the victim has not
    /// started move (see [`Router::stealable_key`]).
    fn steal(&mut self) {
        loop {
            let mut moved = false;
            for thief in 0..self.shards.len() {
                let t = &self.shards[thief];
                if !t.alive || !t.backlog.is_empty() || t.inflight.len() >= t.window {
                    continue;
                }
                // Victim: most predicted backlog seconds, ties to the
                // lowest index; must have an unstarted group queued.
                let victim = (0..self.shards.len())
                    .filter(|&v| v != thief && self.shards[v].alive)
                    .filter(|&v| self.shards[v].inflight.len() >= self.shards[v].window)
                    .filter_map(|v| {
                        let key = self.stealable_key(v)?;
                        Some((self.backlog_cost(v), v, key))
                    })
                    .max_by(|(ca, va, _), (cb, vb, _)| {
                        ca.partial_cmp(cb)
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then(vb.cmp(va))
                    })
                    .map(|(_, v, key)| (v, key.clone()));
                let Some((victim, key)) = victim else {
                    continue;
                };
                let jobs = &self.jobs;
                let (group, rest): (VecDeque<u64>, VecDeque<u64>) = self.shards[victim]
                    .backlog
                    .iter()
                    .partition(|id| jobs.get(id).is_some_and(|j| j.key == key));
                self.shards[victim].backlog = rest;
                self.shards[victim].keys.remove(&key);
                self.shards[thief].keys.entry(key).or_insert(false);
                self.shards[thief].counters.stolen += group.len() as u64;
                for id in &group {
                    if let Some(j) = self.jobs.get_mut(id) {
                        j.shard = Some(thief);
                        j.hop = HOP_NAMES[1];
                        j.anatomy.stolen += 1;
                    }
                }
                self.shards[thief].backlog = group;
                moved = true;
            }
            if !moved {
                return;
            }
        }
    }

    /// The key-group a thief may take from `victim`: the key of the
    /// queued job farthest from running whose numerics the victim has
    /// neither finished (resident) nor started (in flight).
    fn stealable_key(&self, victim: usize) -> Option<&NumericsKey> {
        let v = &self.shards[victim];
        let key_of = |id: &u64| self.jobs.get(id).map(|j| &j.key);
        v.backlog.iter().rev().filter_map(key_of).find(|&key| {
            v.keys.get(key) != Some(&true)
                && !v.inflight.iter().filter_map(key_of).any(|k| k == key)
        })
    }

    /// Ship backlog jobs up to each live shard's dispatch window.
    fn dispatch(&mut self) -> Vec<(usize, Msg)> {
        let mut out = Vec::new();
        for s in 0..self.shards.len() {
            while self.shards[s].alive && self.shards[s].inflight.len() < self.shards[s].window {
                let Some(id) = self.shards[s].backlog.pop_front() else {
                    break;
                };
                let predicted = self.job_cost(id);
                let now_ms = self.now_ms;
                // A queued id whose job is gone has nothing to ship.
                let Some(job) = self.jobs.get_mut(&id) else {
                    continue;
                };
                self.shards[s].inflight.push(id);
                job.predicted = predicted;
                job.first_dispatch_ms.get_or_insert(now_ms);
                job.anatomy.segments += 1;
                out.push((
                    s,
                    Msg::Assign {
                        job: id,
                        ctx: job.ctx,
                        work: Box::new(ScenarioJob {
                            config: job.config.clone(),
                            layout: job.layout,
                            resume: job.resume.clone(),
                        }),
                    },
                ));
            }
        }
        out
    }

    fn complete(&mut self, shard: usize, job: u64, mut report: RunReport) {
        let Some(mut j) = self.jobs.remove(&job) else {
            return;
        };
        self.detach(job);
        let s = &mut self.shards[shard];
        s.counters.completed += 1;
        if j.anatomy.hours == 0 && j.resume.is_none() && j.config.hours > 0 {
            s.counters.profile_hits += 1;
        }
        s.keys.insert(j.key.clone(), true);
        // The router's price, never the shard's own admission estimate.
        report.predicted_seconds = j.predicted;
        if let Some(p) = j.predicted {
            self.predicted_hist
                .record(Duration::from_secs_f64(p.max(0.0)));
            self.actual_hist
                .record(Duration::from_secs_f64(report.total_seconds.max(0.0)));
        }
        let a = &mut j.anatomy;
        a.queued_ms = j
            .first_dispatch_ms
            .unwrap_or(j.submit_ms)
            .saturating_sub(j.submit_ms);
        a.end_to_end_ms = self.now_ms.saturating_sub(j.submit_ms);
        self.queued_hist.record(Duration::from_millis(a.queued_ms));
        self.wire_hist.record(Duration::from_micros(a.wire_us));
        self.reply_hist.record(Duration::from_micros(a.reply_us));
        self.e2e_hist.record(Duration::from_millis(a.end_to_end_ms));
        report.anatomy = Some(j.anatomy);
        if let Some(cb) = &report.copy_bytes {
            self.fleet_copy.add(cb);
        }
        self.results.push((j.scenario, Ok(report)));
    }

    /// Remove `job` from whichever shard queue holds it.
    fn detach(&mut self, job: u64) {
        for s in &mut self.shards {
            s.inflight.retain(|&id| id != job);
            s.backlog.retain(|&id| id != job);
        }
        self.orphans.retain(|&id| id != job);
    }

    /// Declare a shard lost and re-route everything it held, resuming
    /// from the freshest checkpoints its progress reports carried.
    fn lose(&mut self, shard: usize) {
        if !self.shards[shard].alive {
            return;
        }
        self.shards[shard].alive = false;
        self.shards[shard].keys.clear();
        let mut displaced: Vec<u64> = self.shards[shard].inflight.drain(..).collect();
        displaced.extend(self.shards[shard].backlog.drain(..));
        for id in displaced {
            if let Some(j) = self.jobs.get_mut(&id) {
                j.shard = None;
                j.predicted = None;
            }
            self.fail_over(id);
        }
    }

    /// Re-route a job whose shard was lost: a failover on the shard that
    /// takes it, or an orphan again while no shard is live.
    fn fail_over(&mut self, id: u64) {
        match self.route(id) {
            Some(s) => {
                self.shards[s].counters.failed_over += 1;
                if let Some(j) = self.jobs.get_mut(&id) {
                    j.hop = HOP_NAMES[2];
                    j.anatomy.failed_over += 1;
                }
            }
            None => self.orphans.push_back(id),
        }
    }

    /// Route one job to the live shard with the earliest predicted
    /// completion; returns the chosen shard, or `None` if none is live.
    /// A shard that already holds the job's numerics key is charged
    /// nothing for it (the job replays there) and wins ties.
    fn route(&mut self, id: u64) -> Option<usize> {
        let key = self.jobs.get(&id)?.key.clone();
        let cost = self.job_cost(id).unwrap_or_else(|| self.mean_cost());
        let best = (0..self.shards.len())
            .filter(|&s| self.shards[s].alive)
            .map(|s| {
                let elsewhere = !self.shards[s].keys.contains_key(&key);
                let placement = if elsewhere { cost } else { 0.0 };
                (self.shard_load(s) + placement, elsewhere, s)
            })
            // Earliest finish wins; ties go to the shard holding the
            // key, then to the lowest shard index.
            .min_by(|(ca, ea, sa), (cb, eb, sb)| {
                ca.partial_cmp(cb)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(ea.cmp(eb))
                    .then(sa.cmp(sb))
            })
            .map(|(_, _, s)| s)?;
        self.shards[best].backlog.push_back(id);
        self.shards[best].keys.entry(key).or_insert(false);
        self.jobs.get_mut(&id)?.shard = Some(best);
        Some(best)
    }

    /// Predicted remaining virtual seconds of `job`: the family model's
    /// hour price of the plan the shard will run — the job's requested
    /// layout on the job's `config.machine` —
    /// scaled to the hours not yet checkpointed. Public so tests can
    /// assert the cost function directly.
    pub fn job_cost(&self, job: u64) -> Option<f64> {
        let j = self.jobs.get(&job)?;
        let model = self.models.get(&j.key.family())?;
        let plan = PlanLayouts::chem(j.layout);
        let per_hour = model.hour_price(&j.config.machine, j.config.p, plan);
        let done = j.resume.as_ref().map_or(0, |r| r.partial.hours.len());
        let remaining = j.config.hours.saturating_sub(done);
        Some(per_hour * remaining as f64)
    }

    /// Predicted virtual seconds of the numerics queued or running on
    /// `shard` (unknown families at the mean known cost).
    pub fn shard_load(&self, shard: usize) -> f64 {
        self.numerics_cost(shard, true)
    }

    fn backlog_cost(&self, shard: usize) -> f64 {
        self.numerics_cost(shard, false)
    }

    /// What `shard` still has to compute: each key whose profile is not
    /// resident there is charged once, at the price of its first job in
    /// dispatch order (the one that runs it; its siblings replay).
    /// Without `inflight`, keys already running are not charged either
    /// — what is left is the backlog a thief could relieve.
    fn numerics_cost(&self, shard: usize, inflight: bool) -> f64 {
        let s = &self.shards[shard];
        let mut seen = HashSet::new();
        let mut mean = None;
        let mut total = 0.0;
        for (i, &id) in s.inflight.iter().chain(&s.backlog).enumerate() {
            let Some(j) = self.jobs.get(&id) else {
                continue;
            };
            if s.keys.get(&j.key) == Some(&true) || !seen.insert(&j.key) {
                continue;
            }
            if inflight || i >= s.inflight.len() {
                total += self
                    .job_cost(id)
                    .unwrap_or_else(|| *mean.get_or_insert_with(|| self.mean_cost()));
            }
        }
        total
    }

    /// Fallback price for uncalibrated families: the mean predicted
    /// cost over outstanding jobs with known families, else 1.
    fn mean_cost(&self) -> f64 {
        let (mut sum, mut n) = (0.0, 0u64);
        for (&id, j) in &self.jobs {
            if j.shard.is_some() {
                if let Some(c) = self.job_cost(id) {
                    sum += c;
                    n += 1;
                }
            }
        }
        if n == 0 {
            1.0
        } else {
            sum / n as f64
        }
    }

    // --- introspection -----------------------------------------------------

    pub fn live_shards(&self) -> usize {
        self.shards.iter().filter(|s| s.alive).count()
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    pub fn shard_is_alive(&self, shard: usize) -> bool {
        self.shards[shard].alive
    }

    /// Jobs not yet in a terminal state.
    pub fn outstanding(&self) -> usize {
        self.jobs.len()
    }

    pub fn counters(&self, shard: usize) -> ShardCounters {
        self.shards[shard].counters
    }

    /// Which live shard currently holds `job`, if any.
    pub fn job_shard(&self, job: u64) -> Option<usize> {
        self.jobs.get(&job).and_then(|j| j.shard)
    }

    /// The trace context stamped on `job` at submit.
    pub fn job_ctx(&self, job: u64) -> Option<TraceContext> {
        self.jobs.get(&job).map(|j| j.ctx)
    }

    /// The dispatch-marker name ([`HOP_NAMES`] entry) for `job`'s most
    /// recent shard change — what the frontend draws when it ships the
    /// next Assign. Defaults to `"route"` for unknown jobs.
    pub fn job_hop(&self, job: u64) -> &'static str {
        self.jobs.get(&job).map_or(HOP_NAMES[0], |j| j.hop)
    }

    /// Accumulate a measured one-way wire time (µs) onto `job`'s
    /// anatomy: progress messages when `is_reply` is false, the final
    /// reply otherwise. Call *before* feeding the triggering message to
    /// [`Router::on_msg`] — completion consumes the job.
    pub fn note_wire(&mut self, job: u64, wire_us: u64, is_reply: bool) {
        if let Some(j) = self.jobs.get_mut(&job) {
            if is_reply {
                j.anatomy.reply_us += wire_us;
            } else {
                j.anatomy.wire_us += wire_us;
            }
        }
    }

    /// Shard replies whose echoed trace context did not match (0 in a
    /// healthy fabric).
    pub fn ctx_mismatches(&self) -> u64 {
        self.ctx_mismatches
    }

    /// Hours of `job` already checkpointed (from progress reports).
    pub fn job_hours_done(&self, job: u64) -> usize {
        self.jobs
            .get(&job)
            .and_then(|j| j.resume.as_ref())
            .map_or(0, |r| r.partial.hours.len())
    }

    /// Render the fabric metrics in Prometheus exposition format:
    /// per-shard routed/stolen/failed-over/completed counters, the
    /// fleet's plan-memo rows, shard liveness, the predicted-vs-actual
    /// completion and latency-anatomy histograms, fleet copy bytes and
    /// trace-context mismatches.
    pub fn prometheus(&self) -> String {
        let shards = || self.shards.iter().map(|s| (s.name.as_str(), s));
        let fleet = self
            .shards
            .iter()
            .fold(PlanMemoStats::default(), |sum, s| PlanMemoStats {
                hits: sum.hits + s.plans.hits,
                misses: sum.misses + s.plans.misses,
                entries: sum.entries + s.plans.entries,
            });
        [
            render_labelled(
                SHARD_COUNTERS,
                "shard",
                shards().map(|(n, s)| (n, &s.counters)),
            ),
            render(FLEET_PLANS, &fleet),
            render_labelled(SHARD_UP, "shard", shards()),
            render(ROUTER_FAMILIES, self),
        ]
        .concat()
    }
}

airshed_core::metrics! {
    /// Each shard's counters, rendered under its `shard` label.
    const SHARD_COUNTERS: [ShardCounters] = {
        counter "airshed_fabric_jobs_total" "Fabric job routing events by shard." {
            routed {event = "routed"},
            stolen {event = "stolen"},
            failed_over {event = "failed_over"},
            completed {event = "completed"},
        }
        counter "airshed_fabric_shard_profile_hits_total"
            "Completed jobs a shard answered by replaying a resident \
             work profile (no numerics run)." {
            profile_hits
        }
    };

    /// Every shard process's plan-memo counters as of its last
    /// heartbeat, summed.
    const FLEET_PLANS: [PlanMemoStats] = {
        counter "airshed_fabric_cache_events_total"
            "Fleet-wide plan-memo lookups (each shard process's counters \
             as of its last heartbeat, summed)." {
            hits {cache = "plan", outcome = "hit"},
            misses {cache = "plan", outcome = "miss"},
        }
        gauge "airshed_fabric_cache_entries"
            "Plan sets resident across the fleet (last heartbeats, summed)." {
            entries {cache = "plan"}
        }
    };

    const SHARD_UP: [Shard] = {
        gauge "airshed_fabric_shard_up" "1 while the shard is connected and heartbeating." {
            alive
        }
    };

    const ROUTER_FAMILIES: [Router] = {
        histogram "airshed_fabric_completion_virtual_seconds"
            "Predicted vs actual job completion time (virtual seconds)." {
            predicted_hist {kind = "predicted"},
            actual_hist {kind = "actual"},
        }
        histogram "airshed_fabric_job_stage_seconds"
            "Per-job latency anatomy by stage (frontend clock; execute \
             per shard-reported hour)." {
            queued_hist {stage = "queued"},
            exec_hour_hist {stage = "execute_hour"},
            wire_hist {stage = "wire"},
            reply_hist {stage = "reply"},
            e2e_hist {stage = "end_to_end"},
        }
        counter "airshed_fabric_copy_bytes_total"
            "Fleet-wide bytes copied outside the kernels, summed over \
             completed jobs." {
            fleet_copy.redist_local {kind = "redist_local"},
            fleet_copy.soa_staging {kind = "soa_staging"},
            fleet_copy.result_serialization {kind = "result_serialization"},
        }
        counter "airshed_fabric_ctx_mismatches_total"
            "Frames whose trace context disagreed with the router's \
             record for the job (should stay 0)." {
            ctx_mismatches
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use airshed_core::plan::replay_profile;
    use airshed_core::testsupport::tiny_profile;
    use airshed_machine::MachineProfile;

    fn family_config(p: usize, hours: usize) -> SimConfig {
        let mut c = SimConfig::test_tiny(p, hours);
        c.start_hour = 6;
        c
    }

    /// Job `i` of a batch whose jobs all differ in numerics (one key
    /// each), so placement has nothing to co-locate and the tests of
    /// balancing, stealing and failover see one unit of work per job.
    fn distinct_config(i: usize, p: usize, hours: usize) -> SimConfig {
        let mut c = family_config(p, hours);
        c.emission_scale = 1.0 + i as f64 / 100.0;
        c
    }

    /// Submit `distinct_config(i, ..)` with its family calibrated.
    fn submit_calibrated(r: &mut Router, i: usize, p: usize, hours: usize) -> u64 {
        let c = distinct_config(i, p, hours);
        r.calibrate(&c, PerfModel::from_profile(tiny_profile()));
        r.submit(i, c, ChemLayout::Block)
    }

    fn tiny_report() -> RunReport {
        replay_profile(tiny_profile(), MachineProfile::t3e(), 4, ChemLayout::Block)
    }

    /// Feed `shard`'s `Completed` for `job` to the router.
    fn complete(r: &mut Router, shard: usize, job: u64, now_ms: u64) {
        let ctx = r.job_ctx(job).expect("job is outstanding");
        let msg = Msg::Completed {
            job,
            ctx,
            sent_us: 0,
            report: Box::new(tiny_report()),
        };
        r.on_msg(shard, msg, now_ms);
    }

    /// Feed one `Progress` hour for `job`, carrying a one-hour resume
    /// point (the router only reads how many hours it covers).
    fn progress(r: &mut Router, shard: usize, job: u64, now_ms: u64) {
        use airshed_core::checkpoint::Checkpoint;
        use airshed_core::config::DatasetChoice;
        use airshed_core::state::SimState;
        let mut partial = tiny_profile().clone();
        partial.hours.truncate(1);
        let resume = ResumePoint {
            checkpoint: Checkpoint {
                next_hour: 7,
                state: SimState::from_background(&DatasetChoice::Tiny(10).build()),
            },
            partial,
        };
        let msg = Msg::Progress {
            job,
            ctx: r.job_ctx(job).expect("job is outstanding"),
            sent_us: 0,
            hour_us: 1_000,
            resume: Box::new(resume),
        };
        r.on_msg(shard, msg, now_ms);
    }

    /// Two identical shards and the tiny family's model.
    fn calibrated_router() -> Router {
        let mut r = Router::new(RouterConfig::default(), 0, &[]);
        r.add_shard("a", 8, 0);
        r.add_shard("b", 8, 0);
        r.calibrate(
            &family_config(4, 1),
            PerfModel::from_profile(tiny_profile()),
        );
        r
    }

    #[test]
    fn greedy_by_prediction_beats_round_robin_on_makespan() {
        // Identical shards, planted job costs: two six-hour episodes
        // among one-hour ones, placed so that blind round-robin stacks
        // both long ones on shard 0.
        let mut r = calibrated_router();
        let hours = [6, 1, 6, 1, 1, 1, 1, 1];
        let jobs: Vec<u64> = hours
            .iter()
            .enumerate()
            .map(|(i, &h)| submit_calibrated(&mut r, i, 4, h))
            .collect();

        // The cost function sees the hours, and nothing of the shard:
        // every job is the one-hour price times its hours, so makespans
        // compare exactly in hours.
        let hour = r.job_cost(jobs[1]).unwrap();
        for (&id, &h) in jobs.iter().zip(&hours) {
            assert_eq!(r.job_cost(id), Some(hour * h as f64));
        }
        let makespan = |shard_of: &dyn Fn(usize) -> usize| {
            let mut per_shard = [0usize; 2];
            for (i, &h) in hours.iter().enumerate() {
                per_shard[shard_of(i)] += h;
            }
            per_shard[0].max(per_shard[1])
        };
        // 18 hours of work: earliest-predicted-completion reaches the
        // 9 / 9 optimum, round-robin ends 14 / 4.
        assert_eq!(makespan(&|i| r.job_shard(jobs[i]).expect("routed")), 9);
        assert_eq!(makespan(&|i| i % 2), 14);
        // The long episodes went to different shards.
        assert_ne!(r.job_shard(jobs[0]), r.job_shard(jobs[2]));
    }

    #[test]
    fn mixed_job_costs_still_share_load() {
        let mut r = calibrated_router();
        let ids: Vec<u64> = (0..10)
            .map(|i| submit_calibrated(&mut r, i, 4, 2 + i % 2))
            .collect();
        let (a, b) = (r.counters(0).routed, r.counters(1).routed);
        assert_eq!(a + b, 10);
        assert!(a >= 4 && b >= 4, "both shards must contribute ({a} vs {b})");
        // List scheduling: the predicted loads end within one job.
        let dearest = ids
            .iter()
            .map(|&id| r.job_cost(id).unwrap())
            .fold(0.0, f64::max);
        let gap = (r.shard_load(0) - r.shard_load(1)).abs();
        assert!(gap <= dearest, "loads {gap} apart, dearest job {dearest}");
    }

    #[test]
    fn dry_shards_steal_queued_work() {
        let mut r = Router::new(RouterConfig::default(), 0, &[]);
        // Tiny windows so most jobs sit in the router-side backlog.
        r.add_shard("a", 1, 0);
        r.add_shard("b", 1, 0);
        let jobs: Vec<u64> = (0..6).map(|i| submit_calibrated(&mut r, i, 4, 1)).collect();
        let assigns = r.poll(0);
        assert_eq!(assigns.len(), 2, "one in-flight job per shard window");
        // Shard b's pipeline completes everything it holds; its backlog
        // drains and it must start stealing from a's queue.
        let b_jobs: Vec<u64> = jobs
            .iter()
            .copied()
            .filter(|&id| r.job_shard(id) == Some(1))
            .collect();
        let mut completed = 0;
        for id in b_jobs {
            complete(&mut r, 1, id, 10);
            completed += 1;
            r.poll(10);
        }
        assert!(completed > 0);
        assert!(
            r.counters(1).stolen > 0,
            "dry shard should have stolen from the loaded one"
        );
        // Stolen jobs really moved: shard b now holds more than it was
        // originally routed minus completions.
        let moved: Vec<u64> = jobs
            .iter()
            .copied()
            .filter(|&id| r.job_shard(id) == Some(1))
            .collect();
        assert!(!moved.is_empty());
    }

    #[test]
    fn uncalibrated_families_fall_back_to_least_loaded() {
        let mut r = Router::new(RouterConfig::default(), 0, &[]);
        r.add_shard("a", 4, 0);
        r.add_shard("b", 4, 0);
        // No models calibrated: routing must still spread the load.
        for i in 0..8 {
            r.submit(i, distinct_config(i, 4, 1), ChemLayout::Block);
        }
        assert_eq!(r.counters(0).routed, 4);
        assert_eq!(r.counters(1).routed, 4);
    }

    #[test]
    fn completion_sets_predicted_seconds_and_prometheus_renders() {
        let mut r = calibrated_router();
        let id = r.submit(0, family_config(4, 1), ChemLayout::Block);
        let assigns = r.poll(0);
        assert_eq!(assigns.len(), 1);
        let mut report = tiny_report();
        report.copy_bytes = Some(airshed_core::report::CopyBytes {
            redist_local: 1000,
            soa_staging: 500,
            result_serialization: 50,
        });
        r.on_msg(
            0,
            Msg::Completed {
                job: id,
                ctx: r.job_ctx(id).unwrap(),
                sent_us: 0,
                report: Box::new(report),
            },
            5,
        );
        let finished = r.results();
        assert_eq!(finished.len(), 1);
        let (scenario, result) = &finished[0];
        assert_eq!(*scenario, 0);
        let report = result.as_ref().unwrap();
        assert!(
            report.predicted_seconds.is_some(),
            "router stamps its prediction"
        );
        let a = report.anatomy.expect("completion fills the anatomy");
        assert_eq!(a.segments, 1);
        assert_eq!(a.end_to_end_ms, 5);
        assert_eq!((a.stolen, a.failed_over), (0, 0));
        assert_eq!(r.ctx_mismatches(), 0);
        // Each shard's latest heartbeat carries its process's plan-memo
        // counters; the fleet rows are their sum.
        for (shard, seq, hits) in [(0, 1, 5), (1, 1, 30), (0, 2, 12)] {
            let plans = PlanMemoStats {
                hits,
                misses: 3,
                entries: 3,
            };
            r.on_msg(
                shard,
                Msg::Heartbeat {
                    seq,
                    sent_us: 0,
                    plans,
                },
                6,
            );
        }

        let text = r.prometheus();
        assert!(
            text.contains(r#"airshed_fabric_cache_events_total{cache="plan",outcome="hit"} 42"#)
        );
        assert!(
            text.contains(r#"airshed_fabric_cache_events_total{cache="plan",outcome="miss"} 6"#)
        );
        assert!(text.contains(r#"airshed_fabric_cache_entries{cache="plan"} 6"#));
        assert!(text.contains(r#"airshed_fabric_jobs_total{shard="a",event="routed"} 1"#));
        assert!(text.contains(r#"airshed_fabric_jobs_total{shard="a",event="completed"} 1"#));
        assert!(text.contains(r#"airshed_fabric_shard_up{shard="b"} 1"#));
        assert!(
            text.contains(r#"airshed_fabric_completion_virtual_seconds_count{kind="predicted"} 1"#)
        );
        assert!(
            text.contains(r#"airshed_fabric_completion_virtual_seconds_count{kind="actual"} 1"#)
        );
        assert!(text.contains(r#"airshed_fabric_job_stage_seconds_count{stage="queued"} 1"#));
        assert!(text.contains(r#"airshed_fabric_job_stage_seconds_count{stage="end_to_end"} 1"#));
        assert!(text.contains(r#"airshed_fabric_copy_bytes_total{kind="redist_local"} 1000"#));
        assert!(text.contains(r#"airshed_fabric_copy_bytes_total{kind="soa_staging"} 500"#));
        assert!(text.contains(r#"airshed_fabric_copy_bytes_total{kind="result_serialization"} 50"#));
        assert!(text.contains("airshed_fabric_ctx_mismatches_total 0"));
    }

    /// Placement `p` of numerics key `k`: jobs of one key differ only in
    /// where they are charged.
    fn keyed_config(k: usize, p: usize) -> SimConfig {
        distinct_config(k, p, 1)
    }

    #[test]
    fn every_key_lands_on_one_shard_for_any_submit_order() {
        // 4 keys x 3 placements over 2 uncalibrated shards (the
        // benchmark's fabric batch): whatever the order, each key's
        // jobs co-locate and the keys split two and two.
        let batch: Vec<(usize, usize)> = (0..4).flat_map(|k| [4, 8, 16].map(|p| (k, p))).collect();
        for window in [1, 2] {
            for seed in 0..64u64 {
                let mut order = batch.clone();
                let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
                for i in (1..order.len()).rev() {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    order.swap(i, (state >> 33) as usize % (i + 1));
                }
                let mut r = Router::new(RouterConfig::default(), 0, &[]);
                r.add_shard("a", window, 0);
                r.add_shard("b", window, 0);
                let mut shards_of_key = [[false; 2]; 4];
                for (i, &(k, p)) in order.iter().enumerate() {
                    let id = r.submit(i, keyed_config(k, p), ChemLayout::Block);
                    shards_of_key[k][r.job_shard(id).expect("routed")] = true;
                }
                for s in 0..2 {
                    let held = shards_of_key.iter().filter(|on| on[s]).count();
                    assert_eq!(held, 2, "seed {seed}: shard {s} holds {held} keys");
                }
                for (k, on) in shards_of_key.iter().enumerate() {
                    assert!(on[0] != on[1], "seed {seed}: key {k} is split");
                }
                assert_eq!(r.counters(0).routed + r.counters(1).routed, 12);
            }
        }
    }

    #[test]
    fn thieves_take_whole_unstarted_key_groups_only() {
        let mut r = Router::new(RouterConfig::default(), 0, &[]);
        r.add_shard("victim", 1, 0);
        r.add_shard("thief", 1, 0);
        // Key 0 (three placements) and key 2 (two) pile up on the
        // victim; the thief only gets key 1's single job.
        let mut submit = |k, p| r.submit(0, keyed_config(k, p), ChemLayout::Block);
        let a1 = submit(0, 4);
        let b1 = submit(1, 4);
        let a2 = submit(0, 8);
        let c1 = submit(2, 4);
        let c2 = submit(2, 8);
        let a3 = submit(0, 16);
        for id in [a1, a2, a3, c1, c2] {
            assert_eq!(r.job_shard(id), Some(0));
        }
        assert_eq!(r.job_shard(b1), Some(1));
        assert_eq!(r.poll(0).len(), 2, "a1 and b1 go in flight");

        // The thief runs dry while a1 is still running on the victim.
        // Key 0 is in flight there, so its queued siblings stay; key 2
        // has not started and moves whole.
        progress(&mut r, 1, b1, 10);
        complete(&mut r, 1, b1, 10);
        let assigns = r.poll(10);
        assert_eq!(r.counters(1).stolen, 2, "both jobs of the group count");
        for id in [c1, c2] {
            assert_eq!(r.job_shard(id), Some(1));
            assert_eq!(r.job_hop(id), "steal");
        }
        for id in [a2, a3] {
            assert_eq!(r.job_shard(id), Some(0), "in-flight key must stay");
        }
        assert!(matches!(assigns[..], [(1, Msg::Assign { job, .. })] if job == c1));

        // Dry again with only in-flight-key jobs queued on the victim:
        // nothing to take.
        progress(&mut r, 1, c1, 20);
        complete(&mut r, 1, c1, 20);
        r.poll(20);
        complete(&mut r, 1, c2, 30);
        r.poll(30);
        assert_eq!(r.counters(1).stolen, 2);
        // Key 0 becomes resident on the victim; a3 is still queued
        // behind a2 and still not stealable.
        progress(&mut r, 0, a1, 40);
        complete(&mut r, 0, a1, 40);
        let assigns = r.poll(40);
        assert!(matches!(assigns[..], [(0, Msg::Assign { job, .. })] if job == a2));
        assert_eq!(r.job_shard(a3), Some(0), "resident key must stay");
        assert_eq!(r.counters(1).stolen, 2);
        complete(&mut r, 0, a2, 50);
        r.poll(50);
        complete(&mut r, 0, a3, 60);
        assert_eq!(r.outstanding(), 0);
        assert_eq!(r.counters(0).profile_hits, 2, "a2 and a3 replayed");
        assert_eq!(r.counters(1).profile_hits, 1, "c2 replayed; b1, c1 ran");
    }

    #[test]
    fn a_lost_shards_key_group_follows_its_leader_to_one_survivor() {
        let mut r = Router::new(RouterConfig::default(), 0, &[]);
        for name in ["doomed", "s1", "s2"] {
            r.add_shard(name, 1, 0);
        }
        let mut submit = |k, p| r.submit(0, keyed_config(k, p), ChemLayout::Block);
        let a1 = submit(0, 4);
        let b1 = submit(1, 4);
        let _c1 = submit(2, 4);
        let a2 = submit(0, 8);
        let a3 = submit(0, 16);
        for id in [a1, a2, a3] {
            assert_eq!(r.job_shard(id), Some(0));
        }
        assert_eq!(r.poll(0).len(), 3);
        // The leader checkpoints one hour, then its shard drops.
        progress(&mut r, 0, a1, 100);
        r.on_disconnect(0);
        assert!(r.shards[0].keys.is_empty(), "a lost shard forgets its keys");
        for id in [a1, a2, a3] {
            assert_eq!(r.job_shard(id), Some(1), "the group stays together");
            assert_eq!(r.job_hop(id), "failover");
        }
        assert_eq!(r.counters(1).failed_over, 3);
        assert_eq!(r.counters(2).failed_over, 0);
        // The survivor's window frees up: the leader goes first and
        // carries its checkpoint.
        complete(&mut r, 1, b1, 200);
        let assigns = r.poll(200);
        match &assigns[..] {
            [(1, Msg::Assign { job, work, .. })] => {
                assert_eq!(*job, a1);
                let resume = work
                    .resume
                    .as_ref()
                    .expect("failover carries the checkpoint");
                assert_eq!(resume.partial.hours.len(), 1);
            }
            _ => panic!("expected one Assign to the survivor"),
        }
    }

    #[test]
    fn a_profile_hit_keeps_the_price_stamped_at_dispatch() {
        let mut r = calibrated_router();
        let leader = submit_calibrated(&mut r, 0, 4, 2);
        // (A dearer placement, so waiting behind the leader still beats
        // running the key again on the other shard.)
        let sibling = submit_calibrated(&mut r, 0, 2, 2);
        assert_eq!(r.job_shard(sibling), r.job_shard(leader));
        let shard = r.job_shard(leader).unwrap();
        assert_eq!(r.poll(0).len(), 2, "both fit the window");
        let price = r.job_cost(sibling).expect("calibrated family");
        assert!(price > 0.0);

        progress(&mut r, shard, leader, 10);
        complete(&mut r, shard, leader, 20);
        // The sibling replays: no Progress, just Completed.
        complete(&mut r, shard, sibling, 21);
        assert_eq!(r.counters(shard).profile_hits, 1);
        let (_, report) = &r.results()[1];
        assert_eq!(
            report.as_ref().unwrap().predicted_seconds,
            Some(price),
            "the placement discount must not leak into the §4 price"
        );
        assert!(r.prometheus().contains(&format!(
            "airshed_fabric_shard_profile_hits_total{{shard=\"{}\"}} 1",
            ["a", "b"][shard]
        )));
    }
}
