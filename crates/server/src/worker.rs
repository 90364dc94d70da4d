//! The worker pool: N OS threads pulling jobs from the bounded queue.
//!
//! A job executes in up to three ways, fastest first:
//!
//! 1. **result-cache hit** — the exact scenario (numerics + machine + P)
//!    ran before; return the cached [`RunReport`](airshed_core::report::RunReport);
//! 2. **replay** — the numerics ran before on *some* placement, or
//!    another worker is running them right now (this job waits for that
//!    run: the store is single-flight, see
//!    [`ProfileStore`](crate::cache::ProfileStore)); charge the captured
//!    [`WorkProfile`] to this job's machine through the plan layer (no
//!    kernels re-run, the paper's run-once/replay-everywhere path). The
//!    profile comes first, then its placement — folded once for every
//!    machine by the [`PlacementMemo`](crate::cache::PlacementMemo) — so
//!    the order is result cache → profile cache → placement memo, and a
//!    resident placement leaves only the machine half to run;
//! 3. **miss** — run the real numerics, hour by hour on one
//!    `driver::Episode`, checking cancellation and the wall-clock deadline
//!    at every hour boundary. An interrupted job hands back a
//!    [`ResumePoint`] so a later request can finish the episode with no
//!    work lost and bit-identical results.
//!
//! Panics inside the numerics are contained with `catch_unwind`: the job
//! fails, the worker thread survives.
//!
//! A request's observer hears each hour of a miss, the fresh profile and
//! the terminal state ([`JobEvent`]); a fabric shard writes them as frames.

use crate::cache::{Fetch, NumericsKey, ResultKey};
use crate::{JobCell, JobError, JobEvent, JobResult, ResumePoint, ScenarioRequest, Shared};
use airshed_core::config::SimConfig;
use airshed_core::driver::{Episode, PlanLayouts};
use airshed_core::obs::Track;
use airshed_core::plan::Placement;
use airshed_core::ExecSpec;
use airshed_core::Obs;
use airshed_core::WorkProfile;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One accepted job travelling through the queue.
pub(crate) struct QueuedJob {
    pub(crate) id: crate::JobId,
    pub(crate) request: ScenarioRequest,
    pub(crate) cell: Arc<JobCell>,
    pub(crate) enqueued_at: Instant,
}

/// Body of one worker thread: pop until the queue closes and drains.
/// `obs` is the worker's lane-bound observability handle: the queue
/// wait, each job's execution, and the driver's per-hour spans all land
/// on this worker's track.
pub(crate) fn worker_loop(shared: &Shared, obs: &Obs) {
    while let Some(job) = shared.queue.pop() {
        let metrics = &shared.metrics;
        metrics.queue_depth.dec();
        let popped_at = Instant::now();
        metrics.queue_wait.record(popped_at - job.enqueued_at);
        // The wait is over by the time this worker sees the job; record
        // it retroactively so the trace shows the backpressure.
        obs.record_interval(
            "queue-wait",
            Track::Lane(obs.lane()),
            job.enqueued_at,
            popped_at,
            None,
            Some(("job", job.id.0 as i64)),
        );

        if job.cell.cancel.load(Ordering::Relaxed) {
            metrics.cancelled.inc();
            metrics.in_flight.dec();
            job.finish(Err(JobError::Cancelled { resume: None }));
            continue;
        }

        let started = Instant::now();
        let deadline_at = job.request.deadline.map(|d| started + d);
        let result: JobResult = {
            let trace_id = job.request.observer.as_ref().and_then(|o| o.trace_id());
            let _job_span = match trace_id {
                Some(id) => obs.span_arg("job", "trace_id", id as i64),
                None => obs.span_arg("job", "job", job.id.0 as i64),
            };
            match catch_unwind(AssertUnwindSafe(|| execute(shared, &job, deadline_at, obs))) {
                Ok(result) => result,
                Err(panic) => Err(JobError::Failed {
                    message: panic_message(panic.as_ref()),
                }),
            }
        };

        match &result {
            Ok(_) => {
                metrics.completed.inc();
                metrics.service.record(started.elapsed());
                metrics.latency.record(job.enqueued_at.elapsed());
            }
            Err(JobError::Cancelled { .. }) => {
                metrics.cancelled.inc();
            }
            Err(JobError::DeadlineExpired { .. }) => {
                metrics.deadline_expired.inc();
            }
            Err(JobError::Failed { message }) => {
                eprintln!("airshed-server: {} failed: {message}", job.id);
                metrics.failed.inc();
            }
        }
        metrics.in_flight.dec();
        job.finish(result);
        obs.flush();
    }
}

impl QueuedJob {
    /// Hand the terminal state to the job's observer, then its client.
    fn finish(&self, result: JobResult) {
        if let Some(observer) = &self.request.observer {
            observer.event(JobEvent::Finished(&result));
        }
        self.cell.finish(result);
    }
}

/// Run one job to a terminal state (report or error).
fn execute(shared: &Shared, job: &QueuedJob, deadline_at: Option<Instant>, obs: &Obs) -> JobResult {
    let request = &job.request;
    let config = &request.config;
    let numerics_key = NumericsKey::of(config);
    // Resolve the plan now, not at submit time: an optimized job queued
    // before its family's first profile landed is planned with the
    // model that profile calibrated. A job that runs before any model
    // exists runs the requested layout.
    let plan = if request.optimize {
        shared.admission.plan_for(config)
    } else {
        None
    };
    let layouts = plan.unwrap_or(PlanLayouts::chem(request.layout));
    let result_key = ResultKey::of_layouts(config, layouts);
    let metrics = &shared.metrics;

    if let Some(report) = shared.results.get(&result_key) {
        metrics.result_cache_hits.inc();
        return Ok(report);
    }
    metrics.result_cache_misses.inc();

    let observer = request.observer.as_deref();
    let (profile, fetch) =
        shared
            .profiles
            .get_or_run(&numerics_key, &job.cell.cancel, deadline_at, || {
                metrics.profile_cache_misses.inc();
                let mut hour_started = Instant::now();
                let mut on_hour = |resume: &ResumePoint| {
                    if let Some(observer) = observer {
                        observer.event(JobEvent::Hour(resume, hour_started.elapsed()));
                    }
                    hour_started = Instant::now();
                };
                let profile = run_hourly(
                    config,
                    request.resume.as_deref().cloned(),
                    &job.cell.cancel,
                    deadline_at,
                    shared.exec,
                    obs,
                    observer.map(|_| &mut on_hour as _),
                )?;
                // Before the profile is published, so a job that waited
                // on this run is priced by the model it calibrated, and
                // its observer hears of the run before any replay of it.
                shared.admission.calibrate(config, &profile);
                if let Some(observer) = observer {
                    observer.event(JobEvent::Calibrated(&profile));
                }
                Ok(profile)
            })?;
    // A job that waited on another job's run counts as a hit: misses
    // are numerics runs, exactly.
    match fetch {
        Fetch::Ran => {}
        Fetch::Hit => metrics.profile_cache_hits.inc(),
        Fetch::Coalesced => {
            metrics.profile_cache_hits.inc();
            metrics.profile_coalesced.inc();
        }
    }

    // Priced once, now that the family is calibrated (a first run has
    // just calibrated it): the plan the job runs, at admission's price.
    let predicted = shared.admission.price(config, layouts);
    // Whether the profile came from the cache or was just captured, and
    // whether its placement was folded now or for another machine, the
    // report is charged through the one replay — a cached profile and a
    // fresh run price identically.
    let _replay_span = obs.span("replay");
    let (placement, hit) = shared
        .placements
        .get_or_insert_with((numerics_key, config.p, layouts), || {
            Arc::new(Placement::of(&profile, config.p, layouts))
        });
    if hit {
        metrics.placement_hits.inc();
    } else {
        metrics.placement_misses.inc();
        let resident = shared.placements.len() as i64;
        metrics.placement_entries.set(resident);
    }
    let mut report = placement.replay(&profile, config.machine);
    report.predicted_seconds = predicted;
    if let Some(chosen) = plan {
        report.plan_layouts = Some(chosen.to_string());
        let default = shared.admission.price(config, PlanLayouts::default());
        report.plan_delta_seconds = default.zip(predicted).map(|(d, c)| d - c);
    }
    let report = Arc::new(report);
    shared.results.insert(result_key, Arc::clone(&report));
    Ok(report)
}

/// Execute `config` hour by hour on one [`Episode`], so cancellation
/// and the deadline take effect at hour boundaries and an interrupted
/// run can be resumed with bit-identical results. Returns the
/// [`WorkProfile`] covering the whole episode, resumed hours included.
/// The driver's spans go through `obs` (a worker's lane-bound handle
/// nests each simulated hour under that worker's job span).
///
/// `on_hour`, when given, is called after every completed hour with a
/// [`ResumePoint`] capturing all progress (a per-hour clone of the
/// accumulated profile; streaming-checkpoint callers accept that cost).
/// A job's observer hears them as [`JobEvent::Hour`]: the fabric shard
/// streams them to its front-end so that if the shard is lost, its jobs
/// resume from the last reported hour on another shard instead of
/// restarting — with bit-identical final results, courtesy of the
/// checkpoint guarantee.
pub fn run_hourly(
    config: &SimConfig,
    resume: Option<ResumePoint>,
    cancel: &AtomicBool,
    deadline_at: Option<Instant>,
    exec: ExecSpec,
    obs: &Obs,
    mut on_hour: Option<&mut dyn FnMut(&ResumePoint)>,
) -> Result<WorkProfile, JobError> {
    let (checkpoint, partial) = resume.map(|r| (r.checkpoint, r.partial)).unzip();
    let mut episode = Episode::new(config, checkpoint, exec, obs);
    if let Some(partial) = partial {
        episode.adopt(partial);
    }

    while episode.profile().hours.len() < config.hours {
        if cancel.load(Ordering::Relaxed) {
            return Err(JobError::Cancelled {
                resume: interrupted(episode),
            });
        }
        if deadline_at.is_some_and(|d| Instant::now() >= d) {
            return Err(JobError::DeadlineExpired {
                resume: interrupted(episode),
            });
        }
        episode.step(None);
        if let Some(hook) = on_hour.as_deref_mut() {
            hook(&ResumePoint {
                checkpoint: episode.checkpoint().clone(),
                partial: episode.profile().clone(),
            });
        }
    }
    Ok(episode.finish().1)
}

/// What an interrupted episode hands back: its progress, if it made any.
fn interrupted(episode: Episode) -> Option<Box<ResumePoint>> {
    let (_, partial, checkpoint) = episode.finish();
    (!partial.hours.is_empty()).then(|| {
        Box::new(ResumePoint {
            checkpoint,
            partial,
        })
    })
}

/// The text of a caught panic payload (`&str` or `String`; anything else
/// is "unknown panic").
pub fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airshed_core::driver::{run_resumable_with, run_with_profile_on, ChemLayout};
    use airshed_core::obs::SpanSink;
    use airshed_core::plan::replay_profile;

    fn config(hours: usize) -> SimConfig {
        let mut c = SimConfig::test_tiny(4, hours);
        c.start_hour = 11;
        c
    }

    fn never() -> AtomicBool {
        AtomicBool::new(false)
    }

    /// `run_hourly` as a plain caller uses it: untraced, no hour hook.
    fn hourly(
        config: &SimConfig,
        resume: Option<ResumePoint>,
        cancel: &AtomicBool,
        deadline_at: Option<Instant>,
    ) -> Result<WorkProfile, JobError> {
        let exec = ExecSpec::default();
        run_hourly(config, resume, cancel, deadline_at, exec, &Obs::off(), None)
    }

    #[test]
    fn hourly_execution_matches_straight_run_bitwise() {
        let cfg = config(3);
        let (_, straight) = run_with_profile_on(&cfg, ExecSpec::default());
        let stitched = hourly(&cfg, None, &never(), None).unwrap();
        assert_eq!(stitched.hours.len(), straight.hours.len());
        assert_eq!(stitched.dataset, straight.dataset);
        assert_eq!(stitched.shape, straight.shape);
        for (a, b) in stitched.hours.iter().zip(&straight.hours) {
            assert_eq!(a.surface, b.surface, "surface fields must be bit-identical");
            assert_eq!(a.steps.len(), b.steps.len());
            for (sa, sb) in a.steps.iter().zip(&b.steps) {
                assert_eq!(sa.chemistry, sb.chemistry);
                assert_eq!(sa.transport1, sb.transport1);
                assert_eq!(sa.transport2, sb.transport2);
                assert_eq!(sa.aerosol, sb.aerosol);
            }
        }
        // And so the derived reports agree exactly.
        let ra = replay_profile(&stitched, cfg.machine, cfg.p, ChemLayout::Block);
        let rb = replay_profile(&straight, cfg.machine, cfg.p, ChemLayout::Block);
        assert_eq!(ra.total_seconds, rb.total_seconds);
        assert_eq!(ra.peak_o3(), rb.peak_o3());
    }

    #[test]
    fn interrupted_run_resumes_to_the_same_profile() {
        let cfg = config(4);
        let (_, straight) = run_with_profile_on(&cfg, ExecSpec::default());

        // Cancel after 0 hours is impossible mid-loop here; instead cut
        // the episode in half manually and resume through a ResumePoint.
        let mut half = cfg.clone();
        half.hours = 2;
        let stitched_half = hourly(&half, None, &never(), None).unwrap();
        // Rebuild the checkpoint by running the same half through the
        // resumable driver directly.
        let (_, _, ckpt) = run_resumable_with(&half, None, ExecSpec::default());
        let resume = ResumePoint {
            checkpoint: ckpt,
            partial: stitched_half,
        };
        let full = hourly(&cfg, Some(resume), &never(), None).unwrap();
        assert_eq!(full.hours.len(), 4);
        for (a, b) in full.hours.iter().zip(&straight.hours) {
            assert_eq!(a.surface, b.surface);
        }
        let ra = replay_profile(&full, cfg.machine, cfg.p, ChemLayout::Block);
        let rb = replay_profile(&straight, cfg.machine, cfg.p, ChemLayout::Block);
        assert_eq!(ra.total_seconds, rb.total_seconds);
    }

    #[test]
    fn cached_profile_and_fresh_run_charge_identical_cost() {
        // The one charge loop guarantees the server's price invariant: a
        // result computed from a cached profile (plan replay) carries
        // exactly the virtual cost a fresh run would have charged.
        let cfg = config(2);
        let (fresh, profile) = run_with_profile_on(&cfg, ExecSpec::default());
        let cached = replay_profile(&profile, cfg.machine, cfg.p, ChemLayout::Block);
        assert_eq!(fresh.total_seconds, cached.total_seconds);
        assert_eq!(fresh.communication_seconds, cached.communication_seconds);
        assert_eq!(fresh.io_seconds, cached.io_seconds);
        assert_eq!(fresh.transport_seconds, cached.transport_seconds);
        assert_eq!(fresh.chemistry_seconds, cached.chemistry_seconds);
    }

    #[test]
    fn pre_cancelled_run_returns_cancelled_without_work() {
        let cfg = config(2);
        let cancelled = AtomicBool::new(true);
        match hourly(&cfg, None, &cancelled, None) {
            Err(JobError::Cancelled { resume }) => assert!(resume.is_none()),
            other => panic!("expected cancellation, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_hands_back_progress() {
        let cfg = config(3);
        // Deadline already in the past: expires before the first hour.
        let past = Instant::now();
        match hourly(&cfg, None, &never(), Some(past)) {
            Err(JobError::DeadlineExpired { resume }) => assert!(resume.is_none()),
            other => panic!("expected expiry, got {other:?}"),
        }
    }
    #[test]
    fn copy_counters_are_cumulative_over_the_whole_job() {
        let cfg = config(3);
        let sink = Arc::new(SpanSink::new());
        let obs = Obs::new(sink.clone());
        let profile =
            run_hourly(&cfg, None, &never(), None, ExecSpec::default(), &obs, None).unwrap();
        let total = replay_profile(&profile, cfg.machine, cfg.p, ChemLayout::Block)
            .copy_bytes
            .expect("replay accounts copies");

        let series: Vec<f64> = sink
            .events()
            .iter()
            .filter(|e| e.track == Track::Counter("copy bytes") && e.name == "redist_local")
            .map(|e| e.dur_us)
            .collect();
        assert_eq!(series.len(), 3, "one sample per simulated hour");
        assert!(
            series.windows(2).all(|w| w[0] < w[1]),
            "redist_local must accumulate across hours: {series:?}"
        );
        assert_eq!(series[2], total.redist_local as f64);

        let sections = sink.sections();
        let (_, text) = sections
            .iter()
            .find(|(name, _)| *name == "copy-traffic")
            .expect("copy-traffic section published");
        for (kind, bytes) in [
            ("redist_local", total.redist_local),
            ("soa_staging", total.soa_staging),
            ("result_serialization", total.result_serialization),
        ] {
            let line = text
                .lines()
                .find(|l| l.contains(&format!("kind=\"{kind}\"")))
                .unwrap_or_else(|| panic!("no {kind} sample in {text}"));
            let value: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert_eq!(value, bytes as f64, "{kind} must be the job total");
        }
    }

    #[test]
    fn zero_hour_request_returns_an_empty_profile_with_metadata() {
        let cfg = config(0);
        let empty = hourly(&cfg, None, &never(), None).unwrap();
        let (_, one_hour) = run_with_profile_on(&config(1), ExecSpec::default());
        assert!(empty.hours.is_empty() && empty.summaries.is_empty());
        assert_eq!(empty.dataset, one_hour.dataset);
        assert_eq!(empty.shape, one_hour.shape);
    }
}
