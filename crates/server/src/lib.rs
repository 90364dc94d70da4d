//! # airshed-server — a concurrent scenario service over `airshed-core`
//!
//! The paper turns the Airshed model into a system with *predictable*
//! performance; this crate turns the model into a *service*: many
//! scenario requests, run concurrently, reusing work across requests.
//! The pieces, in request order:
//!
//! ```text
//!            submit                    pop
//! clients ──────────► [admission] ──► [bounded queue] ──► [worker pool]
//!                         │                  │                  │
//!                    PricedModel         QueueFull       profile/result
//!                     budget (§4)      backpressure       LRU caches
//!                         │                                     │
//!                         └────────── [metrics registry] ◄──────┘
//! ```
//!
//! * [`queue`] — bounded MPMC queue; producers get [`SubmitOutcome::QueueFull`]
//!   instead of blocking (explicit backpressure);
//! * [`worker`] — N OS threads running jobs hour-by-hour through
//!   one `core::driver::Episode`, so cancellation and deadlines take effect at
//!   hour boundaries and interrupted jobs hand back a [`ResumePoint`];
//! * [`cache`] — sharded LRU caches: captured [`WorkProfile`]s keyed by
//!   the numerics (machine/P-independent, the paper's key observation)
//!   behind a single-flight guard, so concurrent jobs of one numerics
//!   key run it once, and finished [`RunReport`]s keyed by the full
//!   scenario;
//! * [`admission`] — `core::PricedModel`, the one serving price, predicts
//!   a job's virtual cost before it is accepted; over-budget scenarios
//!   are rejected up front;
//! * [`metrics`] — counters and latency histograms for every stage, with
//!   a reconciliation invariant (`submitted = completed + rejected +
//!   cancelled + failed`) checked in tests and printed in the report.
//!
//! [`ScenarioServer::run_ensemble`] and [`ScenarioServer::what_if`] are
//! the one way to run an ensemble sweep or a what-if query (the
//! `airshed ensemble` CLI is a client): a sweep's members are priced and
//! feed the caches, a clean emission sweep stores its response surface,
//! and a what-if is answered from that surface or by an admitted exact
//! run, counted by tier in the `airshed_server_ensemble_*` and
//! `airshed_server_surrogate_answers_total` rows.

pub mod admission;
pub mod cache;
pub mod metrics;
pub mod queue;
pub mod worker;

use crate::admission::{AdmissionController, AdmissionDecision};
use crate::cache::{NumericsKey, PlacementMemo, ProfileStore, ResultKey, ShardedLru};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::queue::BoundedQueue;
use airshed_core::checkpoint::Checkpoint;
use airshed_core::codec::{Codec, Dec, Enc, WireError};
use airshed_core::config::SimConfig;
use airshed_core::driver::{ChemLayout, Episode, PlanLayouts};
use airshed_core::ensemble::{run_ensemble, EnsembleJob, EnsembleResult};
use airshed_core::surrogate::{ResponseSurface, SurrogateAnswer, WhatIfOutcome};
use airshed_core::{Obs, RunReport, WorkProfile};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The one lock policy of the serving path (server and fabric): no lock
/// there guards data a panicking holder can leave half-written, so a
/// poisoned lock is taken back rather than passed on as a second panic.
pub fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Unique identity of one accepted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Where an interrupted multi-hour scenario can pick up again: the
/// checkpoint for the next hour plus the work already captured. Feeding
/// it back via [`ScenarioRequest::resume`] produces a final report
/// bit-identical to an uninterrupted run (the checkpoint guarantee).
#[derive(Debug, Clone)]
pub struct ResumePoint {
    pub checkpoint: Checkpoint,
    /// Hours captured so far (dataset/shape/summaries included).
    pub partial: WorkProfile,
}

/// On the wire a resume point is its checkpoint's `ASHCKPT1` file as one
/// length-prefixed blob, then the partial profile.
impl Codec for ResumePoint {
    const MIN_BYTES: usize = 4 + WorkProfile::MIN_BYTES;
    fn enc(&self, e: &mut Enc) {
        e.bytes(&self.checkpoint.encode());
        self.partial.enc(e);
    }
    fn dec(d: &mut Dec<'_>) -> Result<ResumePoint, WireError> {
        Ok(ResumePoint {
            checkpoint: Checkpoint::decode(d.bytes()?)?,
            partial: WorkProfile::dec(d)?,
        })
    }
}

/// One scenario to run.
#[derive(Debug, Clone)]
pub struct ScenarioRequest {
    pub config: SimConfig,
    /// Chemistry column layout for the replay (does not affect science).
    /// Ignored when [`ScenarioRequest::optimize`] is set and the family
    /// is calibrated — the planner chooses the layouts instead.
    pub layout: ChemLayout,
    /// Let the plan optimizer pick the per-phase layouts at execute
    /// time, priced on `config.machine` with the family's model (a job
    /// queued before that model existed is planned once it does).
    /// First-of-family jobs fall back to [`ScenarioRequest::layout`]:
    /// there is no model to plan with until their own run calibrates
    /// it.
    pub optimize: bool,
    /// Wall-clock budget for the job once it starts running; checked at
    /// hour boundaries. `None` means no deadline.
    pub deadline: Option<Duration>,
    /// Resume an interrupted scenario instead of starting from hour one.
    pub resume: Option<Box<ResumePoint>>,
    /// Hears the job's [`JobEvent`]s on the worker thread that runs it;
    /// `None` runs the job exactly as if nobody listened.
    pub observer: Option<Arc<dyn JobObserver>>,
}

/// What a job's [`JobObserver`] hears, in order: `Hour` after every
/// hour of a cold run (all progress so far, and the hour's wall time on
/// its worker), `Calibrated` once that run's profile exists (before the
/// job's replay), and `Finished`. A job served from a cache hears
/// `Finished` alone.
pub enum JobEvent<'a> {
    Hour(&'a ResumePoint, Duration),
    Calibrated(&'a WorkProfile),
    Finished(&'a JobResult),
}

/// A job's event hook ([`ScenarioRequest::observer`]).
pub trait JobObserver: Send + Sync {
    /// The distributed trace the job belongs to: when set, the worker's
    /// `job` span carries it as its `trace_id` argument instead of the
    /// server's job id.
    fn trace_id(&self) -> Option<u64> {
        None
    }
    fn event(&self, event: JobEvent<'_>);
}

impl fmt::Debug for dyn JobObserver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("JobObserver")
    }
}

impl ScenarioRequest {
    pub fn new(config: SimConfig) -> ScenarioRequest {
        ScenarioRequest {
            config,
            layout: ChemLayout::Block,
            optimize: false,
            deadline: None,
            resume: None,
            observer: None,
        }
    }

    pub fn with_deadline(mut self, deadline: Duration) -> ScenarioRequest {
        self.deadline = Some(deadline);
        self
    }

    /// Ask the server to run this scenario under the optimizer's plan.
    pub fn optimized(mut self) -> ScenarioRequest {
        self.optimize = true;
        self
    }

    pub fn resuming(mut self, resume: ResumePoint) -> ScenarioRequest {
        self.resume = Some(Box::new(resume));
        self
    }
}

/// Why a job did not produce a report.
#[derive(Debug, Clone)]
pub enum JobError {
    /// Cancelled via [`JobHandle::cancel`]; carries a resume point if
    /// any hours had completed.
    Cancelled { resume: Option<Box<ResumePoint>> },
    /// The wall-clock deadline expired at an hour boundary.
    DeadlineExpired { resume: Option<Box<ResumePoint>> },
    /// The job panicked inside the numerics (kept from killing the
    /// worker thread).
    Failed { message: String },
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Cancelled { resume } => write!(
                f,
                "cancelled ({} hours resumable)",
                resume.as_ref().map_or(0, |r| r.partial.hours.len())
            ),
            JobError::DeadlineExpired { resume } => write!(
                f,
                "deadline expired ({} hours resumable)",
                resume.as_ref().map_or(0, |r| r.partial.hours.len())
            ),
            JobError::Failed { message } => write!(f, "failed: {message}"),
        }
    }
}

impl std::error::Error for JobError {}

/// The terminal state of one job.
pub type JobResult = Result<Arc<RunReport>, JobError>;

/// Completion cell shared between the submitting client and the worker.
struct JobCell {
    done: Mutex<Option<JobResult>>,
    completed: Condvar,
    cancel: AtomicBool,
}

impl JobCell {
    fn new() -> JobCell {
        JobCell {
            done: Mutex::new(None),
            completed: Condvar::new(),
            cancel: AtomicBool::new(false),
        }
    }

    fn finish(&self, result: JobResult) {
        let mut done = lock(&self.done);
        *done = Some(result);
        drop(done);
        self.completed.notify_all();
    }
}

/// Client-side handle to an accepted job.
#[derive(Clone)]
pub struct JobHandle {
    id: JobId,
    cell: Arc<JobCell>,
}

impl JobHandle {
    pub fn id(&self) -> JobId {
        self.id
    }

    /// Request cancellation. Takes effect before the job starts or at
    /// the next hour boundary; a job that already finished is unaffected.
    pub fn cancel(&self) {
        self.cell.cancel.store(true, Ordering::Relaxed);
    }

    /// Block until the job reaches a terminal state.
    pub fn wait(&self) -> JobResult {
        let mut done = lock(&self.cell.done);
        loop {
            if let Some(result) = done.as_ref() {
                return result.clone();
            }
            done = self
                .cell
                .completed
                .wait(done)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// The outcome of a submit attempt.
pub enum SubmitOutcome {
    /// Accepted; await the handle for the result.
    Submitted(JobHandle),
    /// Backpressure: the bounded queue is at capacity. Retry later or
    /// shed the request.
    QueueFull,
    /// The admission controller predicts this scenario exceeds the
    /// configured budget.
    Rejected {
        predicted_seconds: f64,
        budget_seconds: f64,
    },
    /// Never returned: `submit` borrows the server, and only
    /// `shutdown(self)` or `Drop` close its queue. Kept while the
    /// benchmark package still matches on it (ROADMAP item 2).
    ShuttingDown,
}

impl SubmitOutcome {
    /// The handle, if the job was accepted.
    pub fn into_handle(self) -> Option<JobHandle> {
        match self {
            SubmitOutcome::Submitted(h) => Some(h),
            _ => None,
        }
    }
}

/// The outcome of submitting a whole [`EnsembleJob`].
pub enum EnsembleOutcome {
    /// Every member ran; the result carries per-member reports and the
    /// dedup accounting.
    Completed(Box<EnsembleResult>),
    /// Admission control predicts member `member` alone exceeds the
    /// budget, so the whole sweep is refused up front (a partial sweep
    /// cannot fit a trustworthy response surface).
    Rejected {
        member: usize,
        predicted_seconds: f64,
        budget_seconds: f64,
    },
}

impl EnsembleOutcome {
    /// The completed sweep, if admission let it run.
    pub fn result(&self) -> Option<&EnsembleResult> {
        match self {
            EnsembleOutcome::Completed(r) => Some(r),
            EnsembleOutcome::Rejected { .. } => None,
        }
    }
}

/// How the server routed a what-if query.
pub enum WhatIfRouted {
    /// Answered — from the surrogate tier (which bypasses admission
    /// pricing entirely) or by an admitted exact fallback run.
    Answered(WhatIfOutcome),
    /// The surrogate declined and admission control refused the exact
    /// fallback simulation.
    Rejected {
        predicted_seconds: f64,
        budget_seconds: f64,
    },
    /// The surrogate declined and no run is defined at the queried scale
    /// (NaN, negative or infinite): why, from [`SimConfig::validate`].
    Refused(&'static str),
}

impl WhatIfRouted {
    /// The answered outcome, if the query was not rejected.
    pub fn outcome(&self) -> Option<&WhatIfOutcome> {
        match self {
            WhatIfRouted::Answered(o) => Some(o),
            WhatIfRouted::Rejected { .. } | WhatIfRouted::Refused(_) => None,
        }
    }
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker pool size (OS threads running the numerics).
    pub workers: usize,
    /// Bounded submission queue capacity.
    pub queue_capacity: usize,
    /// Admission budget in *virtual* (target-machine) seconds; `None`
    /// admits everything.
    pub budget_seconds: Option<f64>,
    /// Host threads each worker runs the numerics on. A job's
    /// transport/chemistry loops fork onto them, so total kernel
    /// concurrency is roughly `workers × exec.parallelism()`; results do
    /// not depend on it.
    pub exec: airshed_core::ExecSpec,
    /// Observability handle. Worker `k` records its job lifecycle and
    /// driver spans on lane `k + 1` of this handle's collector; the
    /// final metrics snapshot is published into it when the server's
    /// shared state drops. Disabled by default.
    pub obs: Obs,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 4,
            queue_capacity: 64,
            budget_seconds: None,
            exec: airshed_core::ExecSpec::default(),
            obs: Obs::off(),
        }
    }
}

/// State shared by clients and workers.
pub(crate) struct Shared {
    pub(crate) queue: BoundedQueue<worker::QueuedJob>,
    pub(crate) metrics: Metrics,
    pub(crate) profiles: ProfileStore,
    pub(crate) placements: PlacementMemo,
    pub(crate) results: ShardedLru<ResultKey, Arc<RunReport>>,
    pub(crate) admission: AdmissionController,
    /// Fitted response surfaces from completed ensembles, keyed by the
    /// sweep's numerics with the emission scale normalised out (every
    /// scale in the family shares one surface).
    pub(crate) surrogates: Mutex<HashMap<NumericsKey, Arc<ResponseSurface>>>,
    pub(crate) exec: airshed_core::ExecSpec,
    pub(crate) obs: Obs,
}

/// Cache key for a response surface: the member numerics with the swept
/// dimension (emission scale) erased, so a what-if at any scale finds
/// the surface fitted by its family's sweep.
fn surrogate_key(config: &SimConfig) -> NumericsKey {
    let mut key = NumericsKey::of(config);
    key.emission_scale_bits = 1.0f64.to_bits();
    key
}

impl Drop for Shared {
    /// Drain-safety: whatever path tears the server down (explicit
    /// [`ScenarioServer::shutdown`], plain drop, or a panicking test),
    /// the last owner of the shared state publishes the final registry
    /// snapshot into the obs collector. Workers hold clones of the
    /// `Arc<Shared>`, and both teardown paths join them first, so every
    /// recorded-but-unreported counter update is visible here.
    fn drop(&mut self) {
        if self.obs.enabled() {
            self.obs
                .publish("server-metrics", self.metrics.snapshot().to_prometheus());
        }
    }
}

/// The concurrent scenario service.
///
/// ```
/// use airshed_server::{ScenarioServer, ScenarioRequest, ServerConfig};
/// use airshed_core::config::SimConfig;
///
/// let server = ScenarioServer::start(ServerConfig { workers: 2, ..Default::default() });
/// let mut config = SimConfig::test_tiny(4, 1);
/// config.start_hour = 12;
/// let handle = server
///     .submit(ScenarioRequest::new(config))
///     .into_handle()
///     .expect("accepted");
/// let report = handle.wait().expect("completed");
/// assert!(report.total_seconds > 0.0);
/// let metrics = server.shutdown();
/// assert_eq!(metrics.completed, 1);
/// assert!(metrics.reconciles());
/// ```
pub struct ScenarioServer {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    next_id: AtomicU64,
}

impl ScenarioServer {
    /// Start the worker pool.
    pub fn start(config: ServerConfig) -> ScenarioServer {
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(config.queue_capacity),
            metrics: Metrics::new(),
            profiles: ProfileStore::new(cache::CACHE_SHARDS, cache::PROFILE_CACHE_CAPACITY),
            // 32 placements a shard.
            placements: ShardedLru::new(
                cache::PLACEMENT_MEMO_ENTRIES / 32,
                cache::PLACEMENT_MEMO_ENTRIES,
            ),
            results: ShardedLru::new(cache::CACHE_SHARDS, cache::RESULT_CACHE_CAPACITY),
            admission: AdmissionController::new(config.budget_seconds),
            surrogates: Mutex::new(HashMap::new()),
            exec: config.exec,
            obs: config.obs.clone(),
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                // Worker k records on lane k+1 (lane 0 is the client /
                // CLI driver), so concurrent jobs get separate tracks.
                let worker_obs = config.obs.with_lane(i as u32 + 1);
                std::thread::Builder::new()
                    .name(format!("airshed-worker-{i}"))
                    .spawn(move || worker::worker_loop(&shared, &worker_obs))
                    .expect("spawn worker thread")
            })
            .collect();
        ScenarioServer {
            shared,
            workers,
            next_id: AtomicU64::new(1),
        }
    }

    /// Submit one scenario. Never blocks: the outcome is immediate
    /// (accepted, queue-full, or rejected by admission control).
    pub fn submit(&self, request: ScenarioRequest) -> SubmitOutcome {
        let metrics = &self.shared.metrics;
        let obs = &self.shared.obs;
        let _submit_span = obs.span("submit");
        metrics.submitted.inc();

        // Resumed jobs were already admitted once; re-deciding would
        // double-charge them against the budget.
        if request.resume.is_none() {
            let _admission_span = obs.span("admission");
            if let AdmissionDecision::Reject {
                predicted_seconds,
                budget_seconds,
            } = self
                .shared
                .admission
                .decide(&request.config, request.layout, request.optimize)
            {
                metrics.rejected_admission.inc();
                return SubmitOutcome::Rejected {
                    predicted_seconds,
                    budget_seconds,
                };
            }
        }

        let id = JobId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let cell = Arc::new(JobCell::new());
        let job = worker::QueuedJob {
            id,
            request,
            cell: Arc::clone(&cell),
            enqueued_at: Instant::now(),
        };
        match self.shared.queue.try_push(job) {
            Ok(()) => {
                metrics.in_flight.inc();
                metrics.queue_depth.inc();
                SubmitOutcome::Submitted(JobHandle { id, cell })
            }
            // The queue closes only in `shutdown(self)` and `Drop`, which
            // own the server, so a push that fails found it full.
            Err(_) => {
                metrics.rejected_queue_full.inc();
                SubmitOutcome::QueueFull
            }
        }
    }

    /// Run an ensemble sweep through the service: every member is priced
    /// by admission control first (one over-budget member refuses the
    /// whole job), the sweep runs with or without shared-input dedup,
    /// member profiles seed the work-profile cache and calibrate
    /// admission, and — when the members form a clean emission sweep — a
    /// response surface is fitted and stored for [`ScenarioServer::what_if`].
    pub fn run_ensemble(&self, job: &EnsembleJob, dedup: bool) -> EnsembleOutcome {
        let obs = &self.shared.obs;
        let _span = obs.span("ensemble");
        for i in 0..job.len() {
            let config = job.member_config(i);
            let _admission_span = obs.span("admission");
            if let AdmissionDecision::Reject {
                predicted_seconds,
                budget_seconds,
            } = self
                .shared
                .admission
                .decide(&config, ChemLayout::Block, false)
            {
                return EnsembleOutcome::Rejected {
                    member: i,
                    predicted_seconds,
                    budget_seconds,
                };
            }
        }
        let result = run_ensemble(job, self.shared.exec, obs, dedup);

        let metrics = &self.shared.metrics;
        metrics.ensemble_members.add(result.members.len() as u64);
        metrics
            .ensemble_input_hours_shared
            .add(result.dedup.input_hours_deduped as u64);
        metrics.ensemble_saved_bytes.add(result.dedup.saved_bytes);

        // Every member is a full run the rest of the service can reuse:
        // its profile keys the cache for later submits of the same
        // scenario, and calibrates the admission model for its family.
        for m in &result.members {
            self.shared
                .profiles
                .insert(NumericsKey::of(&m.config), Arc::new(m.profile.clone()));
            self.shared.admission.calibrate(&m.config, &m.profile);
        }

        // A clean emission sweep (uniform weather/day) yields a response
        // surface; mixed perturbations don't, and that is fine — the
        // what-if tier simply has no surface for that family.
        if let Ok(surface) = ResponseSurface::from_ensemble(&result) {
            let key = surrogate_key(&job.member_config(0));
            lock(&self.shared.surrogates).insert(key, Arc::new(surface));
        }
        EnsembleOutcome::Completed(Box::new(result))
    }

    /// Answer a what-if query ("what if emissions were at `scale`?") in
    /// two tiers — the one what-if router. A surrogate hit is answered
    /// from the fitted response surface and **bypasses admission pricing
    /// entirely** — no budget is spent on a query the surface answers
    /// within `tolerance`. When the surrogate declines (no surface for
    /// the family, scale outside the fitted range, or error bound over
    /// tolerance), a scale no run is defined at is refused, and the exact
    /// fallback simulation is priced by admission control like any other
    /// job and may be rejected; an admitted one runs on the caller's
    /// thread and answers with its last hour's surface field.
    pub fn what_if(&self, base: &SimConfig, scale: f64, tolerance: f64) -> WhatIfRouted {
        let obs = &self.shared.obs;
        let _span = obs.span("what-if");
        let metrics = &self.shared.metrics;
        let reason = match self.surface(base).map(|s| s.query(scale, tolerance)) {
            Some(SurrogateAnswer::Hit { field, bound }) => {
                metrics.surrogate_hits.inc();
                return WhatIfRouted::Answered(WhatIfOutcome::Surrogate { field, bound });
            }
            Some(SurrogateAnswer::Fallback(reason)) => Some(reason),
            None => None,
        };
        // Refuse, then price, the fallback before running it. Neither is
        // job-flow accounting: the query never entered the submit queue,
        // so `rejected_admission` stays untouched.
        let mut exact = base.clone();
        exact.emission_scale = scale;
        if let Err(why) = exact.validate() {
            return WhatIfRouted::Refused(why);
        }
        {
            let _admission_span = obs.span("admission");
            if let AdmissionDecision::Reject {
                predicted_seconds,
                budget_seconds,
            } = self
                .shared
                .admission
                .decide(&exact, ChemLayout::Block, false)
            {
                return WhatIfRouted::Rejected {
                    predicted_seconds,
                    budget_seconds,
                };
            }
        }
        let (report, mut profile, _) =
            Episode::new(&exact, None, self.shared.exec, obs).run(exact.hours);
        metrics.surrogate_misses.inc();
        WhatIfRouted::Answered(WhatIfOutcome::Exact {
            field: profile.hours.pop().map(|h| h.surface).unwrap_or_default(),
            report: Box::new(report),
            reason,
        })
    }

    /// The response surface a completed sweep of `base`'s family stored:
    /// the one [`ScenarioServer::what_if`] answers from.
    pub fn surface(&self, base: &SimConfig) -> Option<Arc<ResponseSurface>> {
        lock(&self.shared.surrogates)
            .get(&surrogate_key(base))
            .cloned()
    }

    /// A point-in-time metrics snapshot.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Number of calibrated scenario families available to admission.
    pub fn calibrated_families(&self) -> usize {
        self.shared.admission.calibrated_families()
    }

    /// Predicted virtual cost of a scenario under the default plan, if
    /// its family is calibrated.
    pub fn predict_seconds(&self, config: &SimConfig) -> Option<f64> {
        self.shared.admission.price(config, PlanLayouts::default())
    }

    /// Graceful shutdown: stop accepting work, drain the queue, join the
    /// workers, and return the final metrics snapshot.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.shared.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        self.shared.metrics.snapshot()
    }
}

impl Drop for ScenarioServer {
    fn drop(&mut self) {
        self.shared.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_request(p: usize, hours: usize) -> ScenarioRequest {
        let mut config = SimConfig::test_tiny(p, hours);
        config.start_hour = 12;
        ScenarioRequest::new(config)
    }

    fn small_server(workers: usize) -> ScenarioServer {
        ScenarioServer::start(ServerConfig {
            workers,
            ..Default::default()
        })
    }

    #[test]
    fn reports_carry_predictions_and_traced_hours() {
        let sink = Arc::new(airshed_core::obs::SpanSink::new());
        let config = {
            let mut c = SimConfig::test_tiny(4, 1);
            c.start_hour = 12;
            c
        };
        let obs = Obs::new(Arc::clone(&sink));
        let server = ScenarioServer::start(ServerConfig {
            workers: 1,
            obs,
            ..Default::default()
        });
        // First of its family: unknown at submit time, but the worker
        // calibrates before replaying, so even this report is priced.
        let r1 = server
            .submit(ScenarioRequest::new(config.clone()))
            .into_handle()
            .unwrap()
            .wait()
            .unwrap();
        assert!(r1.predicted_seconds.is_some());
        // Second job, same family on another placement: predicted up
        // front, and within the one price's bound of the charged result.
        // The price takes the heaviest node of the run's summed work
        // where the charge takes it step by step, so it reads low and
        // never high beyond rounding (0.54 % low here, at most 2.9 % low
        // over three machines × P = 1…64 × two layouts); 5 % is the
        // bound.
        let mut c2 = config.clone();
        c2.p = 8;
        let r2 = server
            .submit(ScenarioRequest::new(c2))
            .into_handle()
            .unwrap()
            .wait()
            .unwrap();
        let predicted = r2.predicted_seconds.expect("family is calibrated");
        let below = (r2.total_seconds - predicted) / r2.total_seconds;
        assert!(
            (-1e-12..0.05).contains(&below),
            "predicted {predicted} vs actual {} ({below} below)",
            r2.total_seconds
        );
        server.shutdown();
        // The worker stepped its episodes on the server's handle.
        assert!(sink.events().iter().any(|e| e.name == "charge_hour"));
    }

    #[test]
    fn submit_wait_complete() {
        let server = small_server(2);
        let handle = server.submit(tiny_request(4, 1)).into_handle().unwrap();
        let report = handle.wait().expect("job completes");
        assert_eq!(report.p, 4);
        assert!(report.total_seconds > 0.0);
        let metrics = server.shutdown();
        assert_eq!(metrics.submitted, 1);
        assert_eq!(metrics.completed, 1);
        assert_eq!(metrics.in_flight, 0);
        assert!(metrics.reconciles());
    }

    #[test]
    fn duplicate_scenarios_hit_the_caches() {
        let server = small_server(1);
        let a = server.submit(tiny_request(4, 1)).into_handle().unwrap();
        let ra = a.wait().unwrap();
        // Same numerics, same placement: result-cache hit.
        let b = server.submit(tiny_request(4, 1)).into_handle().unwrap();
        let rb = b.wait().unwrap();
        assert!(
            Arc::ptr_eq(&ra, &rb),
            "result cache must return the same report"
        );
        // Same numerics, different placement: profile-cache hit, replayed.
        let c = server.submit(tiny_request(16, 1)).into_handle().unwrap();
        let rc = c.wait().unwrap();
        assert_eq!(rc.p, 16);
        assert_eq!(rc.peak_o3(), ra.peak_o3(), "science is placement-invariant");
        let m = server.shutdown();
        assert_eq!(m.result_cache_hits, 1);
        assert_eq!(m.profile_cache_hits, 1);
        assert_eq!(m.profile_cache_misses, 1);
        assert!(m.reconciles());
    }

    /// The report a standalone run of `request` produces, as the bits
    /// the science and the virtual clock are compared by.
    fn reference_bits(request: &ScenarioRequest) -> (u64, u64) {
        let c = &request.config;
        let (_, profile) =
            airshed_core::driver::run_with_profile_on(c, airshed_core::ExecSpec::default());
        report_bits(&airshed_core::plan::replay_profile(
            &profile,
            c.machine,
            c.p,
            request.layout,
        ))
    }

    fn report_bits(report: &RunReport) -> (u64, u64) {
        (report.total_seconds.to_bits(), report.peak_o3().to_bits())
    }

    #[test]
    fn concurrent_cold_jobs_of_one_key_run_the_numerics_once() {
        // Eight placements of one cold numerics key on four workers:
        // whoever pops first runs it, the rest wait or replay.
        let server = small_server(4);
        let requests: Vec<_> = (1..=8).map(|p| tiny_request(p, 1)).collect();
        let handles: Vec<_> = requests
            .iter()
            .map(|r| server.submit(r.clone()).into_handle().unwrap())
            .collect();
        let reports: Vec<_> = handles.iter().map(|h| h.wait().unwrap()).collect();
        for (p, report) in (1..=8).zip(&reports) {
            assert_eq!(report.p, p);
            assert_eq!(report.peak_o3(), reports[0].peak_o3());
        }
        assert_eq!(report_bits(&reports[3]), reference_bits(&requests[3]));
        let m = server.shutdown();
        assert_eq!(m.profile_cache_misses, 1, "{m}");
        assert_eq!(m.profile_cache_hits, 7, "{m}");
        assert!(m.profile_coalesced <= m.profile_cache_hits);
        assert_eq!(m.completed, 8);
        assert!(m.reconciles(), "{m}");
        let prom = m.to_prometheus();
        let line = format!(
            "airshed_server_profile_coalesced_total {}",
            m.profile_coalesced
        );
        assert!(prom.contains(&line), "{prom}");
    }

    /// Spin (no sleep) until some worker has started the numerics.
    fn await_first_miss(server: &ScenarioServer) {
        while server.metrics().profile_cache_misses == 0 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_cancelled_waiter_returns_without_the_leaders_result() {
        let server = small_server(2);
        let leader = server.submit(tiny_request(4, 3)).into_handle().unwrap();
        await_first_miss(&server);
        let waiter = server.submit(tiny_request(8, 3)).into_handle().unwrap();
        waiter.cancel();
        match waiter.wait() {
            Err(JobError::Cancelled { resume }) => assert!(resume.is_none()),
            other => panic!("expected cancellation, got {other:?}"),
        }
        leader.wait().expect("the leader is unaffected");
        let m = server.shutdown();
        assert_eq!((m.cancelled, m.completed), (1, 1));
        assert_eq!(m.profile_cache_misses, 1, "a waiter never runs numerics");
        assert!(m.reconciles(), "{m}");
    }

    #[test]
    fn a_waiter_is_promoted_when_the_leader_is_cancelled() {
        let server = small_server(2);
        let leader = server.submit(tiny_request(4, 3)).into_handle().unwrap();
        await_first_miss(&server);
        let request = tiny_request(8, 3);
        let waiter = server.submit(request.clone()).into_handle().unwrap();
        leader.cancel();
        // The waiter finishes either way, with the standalone result.
        let report = waiter.wait().expect("the waiter completes");
        assert_eq!(report_bits(&report), reference_bits(&request));
        let m = server.shutdown();
        match leader.wait() {
            // The usual case: the leader stops at its next hour
            // boundary and the waiter runs the numerics itself.
            Err(JobError::Cancelled { .. }) => {
                assert_eq!((m.profile_cache_misses, m.cancelled), (2, 1), "{m}");
            }
            // The flag landed after the leader's last hour boundary.
            Ok(_) => assert_eq!((m.profile_cache_misses, m.completed), (1, 2), "{m}"),
            Err(other) => panic!("unexpected leader outcome: {other}"),
        }
        assert!(m.reconciles(), "{m}");
    }

    #[test]
    fn optimized_requests_are_replanned_and_annotated() {
        let server = small_server(1);
        // Calibrate the family with a default run.
        let base = server
            .submit(tiny_request(4, 1))
            .into_handle()
            .unwrap()
            .wait()
            .unwrap();
        // Optimized request on a fresh placement: the worker plans at
        // execute time and annotates the report with its choice.
        let opt = server
            .submit(tiny_request(16, 1).optimized())
            .into_handle()
            .unwrap()
            .wait()
            .unwrap();
        let layouts = opt.plan_layouts.as_deref().expect("planned run");
        assert!(layouts.contains("transport="), "{layouts}");
        assert!(opt.plan_delta_seconds.unwrap() >= 0.0);
        // Optimized plans never change the science.
        assert_eq!(opt.peak_o3(), base.peak_o3());
        // Priced at the plan the worker's search chose: the plan and the
        // price a separate search on the same model state gives.
        let admission = &server.shared.admission;
        let config = tiny_request(16, 1).config;
        let chosen = admission.plan_for(&config).expect("calibrated family");
        assert_eq!(opt.plan_layouts, Some(chosen.to_string()));
        assert_eq!(opt.predicted_seconds, admission.price(&config, chosen));
        assert!(opt.predicted_seconds.is_some());
        server.shutdown();
    }

    #[test]
    fn cancelled_before_running_is_reported() {
        // Server with zero live capacity: one worker blocked by a real
        // job, so a queued job can be cancelled before it starts.
        let server = small_server(1);
        let first = server.submit(tiny_request(4, 2)).into_handle().unwrap();
        let victim = server.submit(tiny_request(4, 3)).into_handle().unwrap();
        victim.cancel();
        let result = victim.wait();
        assert!(
            matches!(result, Err(JobError::Cancelled { .. })),
            "expected cancellation"
        );
        first.wait().unwrap();
        let m = server.shutdown();
        assert_eq!(m.cancelled, 1);
        assert_eq!(m.completed, 1);
        assert!(m.reconciles());
    }

    #[test]
    fn zero_deadline_expires_at_first_hour_boundary() {
        let server = small_server(1);
        let handle = server
            .submit(tiny_request(4, 2).with_deadline(Duration::ZERO))
            .into_handle()
            .unwrap();
        match handle.wait() {
            Err(JobError::DeadlineExpired { resume }) => {
                assert!(resume.is_none(), "no hours finished before the check");
            }
            other => panic!("expected deadline expiry, got {other:?}"),
        }
        let m = server.shutdown();
        assert_eq!(m.deadline_expired, 1);
        assert!(m.reconciles());
    }

    #[test]
    fn configs_validate_refuses_fail_and_the_worker_runs_on() {
        let server = small_server(1);
        let refused = |edit: fn(&mut SimConfig), why: &str| {
            let mut request = tiny_request(4, 1);
            edit(&mut request.config);
            match server.submit(request).into_handle().unwrap().wait() {
                Err(JobError::Failed { message }) => {
                    assert_eq!(message, format!("invalid config: {why}"));
                }
                other => panic!("expected validate's refusal, got {other:?}"),
            }
        };
        let bounds = "chemistry substep bounds are not 0 < h_min <= h_max";
        refused(|c| c.chem_opts.h_min = c.chem_opts.h_max * 2.0, bounds);
        let scale = "emission scale is not finite and non-negative";
        refused(|c| c.emission_scale = f64::NAN, scale);
        // Only now: a NaN eps never accepts a substep, so without the
        // check this job would hang rather than fail an assertion.
        let eps = "chemistry eps is not finite and positive";
        refused(|c| c.chem_opts.eps = f64::NAN, eps);
        let report = server.submit(tiny_request(4, 1)).into_handle().unwrap();
        report
            .wait()
            .expect("the one worker still runs a valid job");
        let m = server.shutdown();
        assert_eq!((m.failed, m.completed), (3, 1), "{m}");
        assert!(m.reconciles(), "{m}");
    }

    #[test]
    fn queue_full_is_surfaced_as_backpressure() {
        let server = ScenarioServer::start(ServerConfig {
            workers: 1,
            queue_capacity: 1,
            ..Default::default()
        });
        // Worker busy with the first job; capacity-1 queue holds the
        // second; the third must see QueueFull.
        let h1 = server.submit(tiny_request(4, 2)).into_handle().unwrap();
        let mut handles = vec![h1];
        let mut saw_full = false;
        for _ in 0..8 {
            match server.submit(tiny_request(4, 3)) {
                SubmitOutcome::Submitted(h) => handles.push(h),
                SubmitOutcome::QueueFull => {
                    saw_full = true;
                    break;
                }
                other => panic!(
                    "unexpected outcome: {:?}",
                    match other {
                        SubmitOutcome::Rejected { .. } => "rejected",
                        _ => "?",
                    }
                ),
            }
        }
        assert!(saw_full, "bounded queue must push back");
        for h in &handles {
            let _ = h.wait();
        }
        let m = server.shutdown();
        assert!(m.rejected_queue_full >= 1);
        assert!(m.reconciles());
    }

    #[test]
    fn admission_rejects_over_budget_scenarios() {
        // Calibrate on a cheap 1-hour run, then submit a monster episode
        // of the same family on the slowest machine at P=1.
        let server = ScenarioServer::start(ServerConfig {
            workers: 1,
            budget_seconds: Some(1.0e4),
            ..Default::default()
        });
        let probe = tiny_request(4, 1);
        server
            .submit(probe.clone())
            .into_handle()
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(server.calibrated_families(), 1);

        let mut monster = probe.config.clone();
        monster.hours = 100_000;
        monster.p = 1;
        monster.machine = airshed_machine::MachineProfile::paragon();
        match server.submit(ScenarioRequest::new(monster)) {
            SubmitOutcome::Rejected {
                predicted_seconds,
                budget_seconds,
            } => {
                assert!(predicted_seconds > budget_seconds);
            }
            _ => panic!("expected admission rejection"),
        }
        let m = server.shutdown();
        assert_eq!(m.rejected_admission, 1);
        assert!(m.reconciles());
    }

    #[test]
    fn dropped_server_flushes_final_metrics() {
        // Drain-safety regression: a server dropped WITHOUT an explicit
        // shutdown() must still publish its final registry snapshot to
        // the obs sink (counters registered but never reported
        // used to be lost on this path).
        let sink = Arc::new(airshed_core::obs::SpanSink::new());
        let obs = Obs::new(Arc::clone(&sink));
        let server = ScenarioServer::start(ServerConfig {
            workers: 1,
            obs,
            ..Default::default()
        });
        let handle = server.submit(tiny_request(4, 1)).into_handle().unwrap();
        handle.wait().unwrap();
        drop(server);
        let sections = sink.sections();
        let (_, text) = sections
            .iter()
            .find(|(name, _)| *name == "server-metrics")
            .expect("final metrics published on drop");
        assert!(text.contains("airshed_server_submitted_total 1"), "{text}");
        assert!(text.contains("airshed_server_completed_total 1"), "{text}");
        assert!(text.contains("airshed_server_in_flight 0"), "{text}");
    }

    #[test]
    fn ensemble_sweep_feeds_caches_admission_and_the_surrogate_tier() {
        let server = small_server(1);
        let mut base = SimConfig::test_tiny(4, 1);
        base.start_hour = 9;
        let job = EnsembleJob::emission_sweep(base.clone(), &[0.6, 0.8, 1.0, 1.2, 1.4]);

        let outcome = server.run_ensemble(&job, true);
        let result = outcome.result().expect("sweep admitted");
        assert_eq!(result.members.len(), 5);
        assert_eq!(result.dedup.input_runs, 1, "one shared input group");
        assert!(result.dedup.saved_bytes > 0);
        let surface = server
            .surface(&base)
            .expect("a clean sweep stores a surface");
        assert_eq!(surface.members(), 5);
        // Member profiles calibrated admission for the family.
        assert!(server.calibrated_families() >= 1);

        // A submit of a member scenario hits the profile cache seeded by
        // the sweep — the worker replays instead of re-running numerics.
        let mut member = base.clone();
        member.emission_scale = 0.8;
        member.p = 16;
        let report = server
            .submit(ScenarioRequest::new(member))
            .into_handle()
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(report.p, 16);

        // In-range what-if: answered by the surrogate, no simulation.
        let hit = server.what_if(&base, 0.9, 1.0);
        let answer = hit.outcome().expect("not rejected");
        assert!(answer.is_surrogate(), "in-range query takes the surrogate");
        assert!(!answer.field().is_empty());
        // ... and it is the stored surface's own prediction, bit for bit.
        let bits = |f: &[f64]| f.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(answer.field()), bits(&surface.predict(0.9)));
        // Out-of-range what-if: exact fallback runs the simulator.
        let miss = server.what_if(&base, 3.0, 1.0);
        match miss.outcome().expect("admitted fallback") {
            WhatIfOutcome::Exact { reason, report, .. } => {
                assert!(matches!(
                    reason,
                    Some(airshed_core::surrogate::FallbackReason::OutOfRange { .. })
                ));
                assert_eq!(report.hours, 1);
            }
            other => panic!("out-of-range query must fall back, got {other:?}"),
        }

        let m = server.shutdown();
        assert_eq!(m.ensemble_members, 5);
        assert_eq!(m.ensemble_input_hours_shared, 4);
        assert!(m.ensemble_saved_bytes > 0);
        assert_eq!(m.surrogate_hits, 1);
        assert_eq!(m.surrogate_misses, 1);
        assert_eq!(m.profile_cache_hits, 1, "sweep seeded the profile cache");
        assert!(m.reconciles(), "{m}");
    }

    #[test]
    fn surrogate_hits_bypass_admission_but_fallbacks_are_priced() {
        // Budget small enough that any real run of the family is
        // rejected once calibrated, but the surrogate still answers.
        let server = ScenarioServer::start(ServerConfig {
            workers: 1,
            budget_seconds: Some(f64::MIN_POSITIVE),
            ..Default::default()
        });
        let mut base = SimConfig::test_tiny(4, 1);
        base.start_hour = 9;
        let job = EnsembleJob::emission_sweep(base.clone(), &[0.8, 1.0, 1.2]);
        // The family is uncalibrated, so admission admits the sweep
        // (first-of-family runs are never rejected) and the sweep itself
        // calibrates it.
        let outcome = server.run_ensemble(&job, true);
        assert!(outcome.result().is_some());
        assert!(server.calibrated_families() >= 1);

        // Now every exact run at a calibrated scale busts the budget: a
        // zero-tolerance query forces the fallback (any real surface has
        // a nonzero bound), and admission prices it out. (A fallback at
        // an *uncalibrated* scale is first-of-family and would still be
        // admitted — the scale is part of the family key.)
        let rejected = server.what_if(&base, 1.0, 0.0);
        assert!(
            matches!(rejected, WhatIfRouted::Rejected { .. }),
            "over-tolerance fallback must be priced and rejected"
        );
        // ...but an in-range surrogate hit never consults the budget.
        let hit = server.what_if(&base, 1.1, 1.0);
        assert!(hit.outcome().expect("answered").is_surrogate());

        // A second sweep of the now-calibrated, over-budget family is
        // refused up front, naming the offending member.
        match server.run_ensemble(&job, true) {
            EnsembleOutcome::Rejected {
                member,
                predicted_seconds,
                budget_seconds,
            } => {
                assert_eq!(member, 0);
                assert!(predicted_seconds > budget_seconds);
            }
            EnsembleOutcome::Completed(_) => panic!("expected rejection"),
        }

        let m = server.shutdown();
        assert_eq!(m.surrogate_hits, 1);
        assert_eq!(m.surrogate_misses, 0, "rejected fallback served no answer");
        assert!(m.reconciles());
    }

    #[test]
    fn a_what_if_at_a_scale_no_run_is_defined_on_is_refused() {
        let server = small_server(1);
        let mut base = SimConfig::test_tiny(4, 1);
        base.start_hour = 9;
        let refused_all = |server: &ScenarioServer| {
            for scale in [f64::NAN, -1.0, f64::INFINITY] {
                let routed = server.what_if(&base, scale, 1.0);
                assert!(
                    matches!(routed, WhatIfRouted::Refused(_)),
                    "scale {scale} must be refused"
                );
            }
        };
        // No surface for the family yet.
        refused_all(&server);
        // A fitted surface declines each of them as out of range.
        let job = EnsembleJob::emission_sweep(base.clone(), &[0.8, 1.0, 1.2]);
        assert!(server.run_ensemble(&job, true).result().is_some());
        assert!(server.surface(&base).is_some());
        refused_all(&server);

        let m = server.shutdown();
        assert_eq!((m.surrogate_hits, m.surrogate_misses), (0, 0));
        assert!(m.reconciles(), "{m}");
    }

    #[test]
    fn job_ids_are_unique_and_displayable() {
        let server = small_server(2);
        let a = server.submit(tiny_request(4, 1)).into_handle().unwrap();
        let b = server.submit(tiny_request(4, 1)).into_handle().unwrap();
        assert_ne!(a.id(), b.id());
        assert_eq!(format!("{}", a.id()), format!("job-{}", a.id().0));
        a.wait().unwrap();
        b.wait().unwrap();
        drop(server); // Drop also joins cleanly.
    }
}
