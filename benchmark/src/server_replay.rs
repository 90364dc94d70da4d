//! `server_replay` — run once, replay everywhere. One `ScenarioServer`
//! (`workers = T`, serial exec); set-up runs six cold families so every
//! later job is a profile-cache hit, and the timed jobs exercise the
//! queue, admission, both caches and `core::plan` → `machine` →
//! `hpf::redist`. The numerics do none of the timed work.
//!
//! Closed loop: one client thread keeps `8·T` jobs outstanding, enough
//! that the workers always find the queue filled and the run measures
//! them and not how fast an idle vCPU wakes up. Each job
//! draws (family, machine, P, layout) — 30 % from a 64-key hot set
//! (result-cache hits), 70 % uniformly from a ~2 300-key space that is
//! larger than the 256-entry result cache.

use crate::harness::{
    setup_s, time_lower_quartile, Checks, Ctx, Kind, Layers, Metric, Outcome, Roles,
    TracedVsUntraced,
};
use crate::inputs::{self, ReplayJob};
use crate::probe::{self, HostSpeed};
use crate::stats::percentile;
use crate::trace::{self, Tracer};
use airshed::core::config::SimConfig;
use airshed::core::driver::{run_with_profile_on, HourPlans, WORD};
use airshed::core::plan::{optimize_plan, replay_profile, PhaseGraph};
use airshed::core::{ExecSpec, RunReport, WorkProfile};
use airshed::fabric::report_fingerprint;
use airshed::hpf::redist::airshed_redists;
use airshed::machine::{Machine, MachineProfile};
use airshed::server::cache::{ResultKey, ShardedLru};
use airshed::server::{JobHandle, ScenarioRequest, ScenarioServer, ServerConfig, SubmitOutcome};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Jobs per unit: thirty samples beyond the per-unit p99. Units are kept
/// this short (~0.2 s) so that each sits close to the probe readings it
/// is held against.
pub const JOBS_PER_UNIT: usize = 3000;

/// Jobs the client keeps outstanding.
fn window(ctx: &Ctx) -> usize {
    8 * ctx.threads
}
/// Every `CHECK_STRIDE`-th job of the reference family is compared with
/// a direct replay.
const CHECK_STRIDE: usize = 16;

/// The warmed server and what the checks need.
struct Service {
    server: ScenarioServer,
    families: Vec<SimConfig>,
    hot: Vec<ReplayJob>,
    /// One family's profile, captured by the harness itself, so sampled
    /// reports can be compared with a direct `plan::replay_profile`.
    reference_family: usize,
    reference: WorkProfile,
}

fn set_up(ctx: &Ctx, mut host: Option<&mut HostSpeed>, checks: &mut Checks) -> Service {
    let server = ScenarioServer::start(ServerConfig {
        workers: ctx.threads,
        exec: ExecSpec::serial(),
        ..ServerConfig::default()
    });
    let families = inputs::replay_families(ctx.seed);
    checks.attempt(families.len() as u64);
    probe::around(host.as_deref_mut(), || {
        let cold: Vec<Option<JobHandle>> = families
            .iter()
            .map(|config| {
                server
                    .submit(ScenarioRequest::new(config.clone()))
                    .into_handle()
            })
            .collect();
        for (f, handle) in cold.iter().enumerate() {
            match handle.as_ref().map(JobHandle::wait) {
                Some(Ok(_)) => {}
                Some(Err(e)) => checks.fail(Kind::Operation, || format!("cold family {f}: {e}")),
                None => checks.fail(Kind::Operation, || {
                    format!("cold family {f} was not accepted")
                }),
            }
        }
    });
    let reference_family = (ctx.seed % inputs::REPLAY_FAMILIES as u64) as usize;
    let ((_, reference), _) = probe::around(host, || {
        run_with_profile_on(&families[reference_family], ExecSpec::rayon(ctx.threads))
    });
    Service {
        server,
        families,
        hot: inputs::replay_hot_set(ctx.seed),
        reference_family,
        reference,
    }
}

/// What one unit measured.
struct Unit {
    wall_s: f64,
    latencies_us: Vec<f64>,
    /// Client time between one job's `wait()` returning and the next
    /// `submit()` starting.
    lags_us: Vec<f64>,
}

impl Service {
    /// One closed-loop unit of `jobs`, `window` outstanding.
    fn run_unit(
        &self,
        tr: &mut Tracer,
        unit: u32,
        jobs: &[ReplayJob],
        window: usize,
        checks: &mut Checks,
    ) -> Unit {
        let mut outstanding: VecDeque<(JobHandle, Instant, usize)> =
            VecDeque::with_capacity(window);
        let mut latencies_us = Vec::with_capacity(jobs.len());
        let mut lags_us = Vec::with_capacity(jobs.len());
        let mut sampled: Vec<(usize, Arc<RunReport>)> = Vec::new();
        checks.attempt(jobs.len() as u64);

        let mut finish = |tr: &mut Tracer,
                          (handle, submitted, index): (JobHandle, Instant, usize),
                          checks: &mut Checks| {
            match tr.span("server.wait", unit, |_| handle.wait()) {
                Ok(report) => {
                    latencies_us.push(submitted.elapsed().as_secs_f64() * 1e6);
                    if jobs[index].family == self.reference_family && index % CHECK_STRIDE == 0 {
                        sampled.push((index, report));
                    }
                }
                Err(e) => checks.fail(Kind::Operation, || format!("unit {unit} job {index}: {e}")),
            }
            Instant::now()
        };

        let start = Instant::now();
        for (index, job) in jobs.iter().enumerate() {
            let mut request = ScenarioRequest::new(job.config(&self.families));
            request.layout = job.chem_layout();
            let returned = if outstanding.len() == window {
                let oldest = outstanding.pop_front().expect("window is full");
                Some(finish(tr, oldest, checks))
            } else {
                None
            };
            let submitted = Instant::now();
            if let Some(returned) = returned {
                lags_us.push((submitted - returned).as_secs_f64() * 1e6);
            }
            match tr.span("server.submit", unit, |_| self.server.submit(request)) {
                SubmitOutcome::Submitted(handle) => {
                    outstanding.push_back((handle, submitted, index))
                }
                SubmitOutcome::QueueFull => checks.fail(Kind::Operation, || {
                    format!("unit {unit} job {index}: queue full")
                }),
                SubmitOutcome::Rejected { .. } => checks.fail(Kind::Operation, || {
                    format!("unit {unit} job {index}: rejected")
                }),
                SubmitOutcome::ShuttingDown => checks.fail(Kind::Operation, || {
                    format!("unit {unit} job {index}: shutting down")
                }),
            }
        }
        while let Some(oldest) = outstanding.pop_front() {
            finish(tr, oldest, checks);
        }
        let wall_s = start.elapsed().as_secs_f64();

        // Outside the timed loop: sampled reports against a direct replay.
        for (index, report) in sampled {
            let job = jobs[index];
            let direct = replay_profile(
                &self.reference,
                job.machine_profile(),
                job.p,
                job.chem_layout(),
            );
            checks.same_fingerprint(
                &format!("unit {unit} job {index}"),
                &report_fingerprint(&report),
                &report_fingerprint(&direct),
            );
        }
        Unit {
            wall_s,
            latencies_us,
            lags_us,
        }
    }

    /// Shut the server down and check its books.
    fn shut_down(self, checks: &mut Checks) -> airshed::server::metrics::MetricsSnapshot {
        let metrics = self.server.shutdown();
        checks.attempt(1);
        checks.require(Kind::Count, metrics.reconciles(), || {
            "server metrics do not reconcile".to_string()
        });
        checks.require(Kind::Count, metrics.completed == metrics.submitted, || {
            format!(
                "completed {} of {} submitted",
                metrics.completed, metrics.submitted
            )
        });
        checks.require(
            Kind::Count,
            metrics.profile_cache_misses == inputs::REPLAY_FAMILIES as u64,
            || {
                format!(
                    "{} profile-cache misses; only the cold families may miss",
                    metrics.profile_cache_misses
                )
            },
        );
        metrics
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut checks = Checks::in_suite(ctx.workload);
    let mut host = HostSpeed::new(ctx.threads);
    let service = set_up(ctx, Some(&mut host), &mut checks);
    let setup_s = setup_s(ctx, &host);

    let mut tr = Tracer::new(false);
    let (mut units, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    crate::harness::run_rounds(ctx.seconds, |round| {
        let jobs = inputs::replay_jobs(ctx.seed, round, JOBS_PER_UNIT, &service.hot);
        let (unit, paced) = host
            .around(|| service.run_unit(&mut tr, round as u32, &jobs, window(ctx), &mut checks));
        units.push(paced.of(unit.wall_s));
        if !unit.latencies_us.is_empty() {
            p50s.push(paced.of(percentile(&unit.latencies_us, 0.50)));
            p99s.push(paced.of(percentile(&unit.latencies_us, 0.99)));
        }
    });
    service.shut_down(&mut checks);

    Outcome {
        setup_s,
        host,
        metrics: vec![
            Metric::rate_paced("replay_jobs_per_s", "1/s", &units, JOBS_PER_UNIT as f64),
            Metric::time_paced("replay_latency_p50_us", "us", &p50s, 1.0),
            Metric::time_paced("replay_latency_p99_us", "us", &p99s, 1.0),
        ],
        roles: Roles {
            rate: "replay_jobs_per_s",
            primary: ("replay_latency_p50_us", 1e-6),
            contrast: ("replay_latency_p99_us", 1e-6),
        },
        checks,
    }
}

/// The traced pass: one traced and one untraced unit on a warmed server,
/// the server's own counters, and the replay path's layers one call at a
/// time on the reference family's profile.
pub fn layers(
    ctx: &Ctx,
    tr: &mut Tracer,
    out: &mut Layers,
    checks: &mut Checks,
) -> TracedVsUntraced {
    let service = set_up(ctx, None, checks);
    let window = window(ctx);
    let jobs = inputs::replay_jobs(ctx.seed, 0, JOBS_PER_UNIT, &service.hot);
    // Warm the result cache's hot set the way a long run would have.
    service.run_unit(&mut Tracer::new(false), 0, &jobs, window, checks);
    let mark = tr.mark();
    let traced = service.run_unit(
        tr,
        1,
        &inputs::replay_jobs(ctx.seed, 1, JOBS_PER_UNIT, &service.hot),
        window,
        checks,
    );
    let untraced = service.run_unit(
        &mut Tracer::new(false),
        2,
        &inputs::replay_jobs(ctx.seed, 2, JOBS_PER_UNIT, &service.hot),
        window,
        checks,
    );
    out.set(
        "server.submit_us",
        percentile(
            &trace::durations_us(&tr.spans()[mark..], "server.submit"),
            0.25,
        ),
    );

    let family = service.families[service.reference_family].clone();
    let predict_s = time_lower_quartile(9, || {
        for _ in 0..1000 {
            std::hint::black_box(service.server.predict_seconds(&family));
        }
    });
    out.set("server.predict_us", predict_s * 1e6 / 1000.0);

    let reference = service.reference.clone();
    let families = service.families.clone();
    let metrics = service.shut_down(checks);
    out.set(
        "server.queue_wait_p50_us",
        metrics.queue_wait.quantile_micros(0.5) as f64,
    );
    out.set(
        "server.service_p50_us",
        metrics.service.quantile_micros(0.5) as f64,
    );
    let frac = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    out.set(
        "server.profile_cache_hit_frac",
        frac(metrics.profile_cache_hits, metrics.profile_cache_misses),
    );
    out.set(
        "server.result_cache_hit_frac",
        frac(metrics.result_cache_hits, metrics.result_cache_misses),
    );

    // The result cache on its own, driven with the unit's keys.
    let cache: ShardedLru<ResultKey, Arc<RunReport>> = ShardedLru::new(8, 256);
    let keys: Vec<ResultKey> = jobs
        .iter()
        .map(|j| ResultKey::of(&j.config(&families), j.chem_layout()))
        .collect();
    let t3e = MachineProfile::t3e();
    let report = Arc::new(replay_profile(&reference, t3e, 16, Default::default()));
    let insert_s = time_lower_quartile(5, || {
        for key in &keys {
            cache.insert(key.clone(), Arc::clone(&report));
        }
    });
    out.set("server.lru_insert_ns", insert_s * 1e9 / keys.len() as f64);
    let get_s = time_lower_quartile(5, || {
        for key in &keys {
            std::hint::black_box(cache.get(key));
        }
    });
    out.set("server.lru_get_ns", get_s * 1e9 / keys.len() as f64);

    // core::plan → machine → hpf::redist for the family shape at P = 16.
    let p = 16;
    let hours = reference.hours.len() as f64;
    let plans = HourPlans::new(&reference.shape, p);
    let lower_s = time_lower_quartile(25, || PhaseGraph::for_hour(&reference.hours[0], &plans, p));
    out.set("core.plan.lower_us", lower_s * 1e6);
    let replay_s = time_lower_quartile(25, || {
        replay_profile(&reference, t3e, p, Default::default())
    });
    out.set("core.plan.replay_us", replay_s * 1e6);
    out.set(
        "core.plan.optimize_ms",
        time_lower_quartile(5, || optimize_plan(&reference, &t3e, p)) * 1e3,
    );
    let graph = PhaseGraph::for_hour(&reference.hours[0], &plans, p);
    let execute_s = time_lower_quartile(25, || graph.execute(&mut Machine::new(t3e, p)));
    out.set("machine.execute_hour_us", execute_s * 1e6);
    out.set(
        "machine.virtual_hour_s",
        replay_profile(&reference, t3e, p, Default::default()).total_seconds / hours,
    );
    let redist_s = time_lower_quartile(25, || airshed_redists(&reference.shape, p, WORD));
    out.set("hpf.redist.plan_us", redist_s * 1e6);
    // Executions per hour, as the driver's main loop makes them.
    let steps = reference.hours[0].steps.len();
    let executed = [
        (&plans.main.trans_to_chem, steps),
        (&plans.main.chem_to_repl, steps),
        (&plans.main.repl_to_trans, steps + 1),
        (&plans.trans_to_repl, 1),
    ];
    let per_hour = |f: fn(&airshed::hpf::redist::RedistPlan) -> usize| -> f64 {
        executed
            .iter()
            .map(|(plan, count)| (f(plan) * count) as f64)
            .sum()
    };
    out.set("hpf.redist.msgs_per_hour", per_hour(|p| p.total_messages()));
    out.set(
        "hpf.redist.bytes_per_hour",
        per_hour(|p| p.total_bytes_sent()),
    );

    out.set("harness.generator_lag_us", percentile(&traced.lags_us, 0.5));
    TracedVsUntraced {
        traced_s: traced.wall_s,
        untraced_s: untraced.wall_s,
    }
}
