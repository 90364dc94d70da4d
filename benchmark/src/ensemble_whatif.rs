//! `ensemble_whatif` — the policy-study path. A unit starts a fresh
//! `ScenarioServer` (`ExecSpec::rayon(T)`), runs a six-member emission
//! sweep through `run_ensemble` (dedup on), then asks 1000 seeded
//! in-range `what_if` queries at tolerance 1e-3 (timed in batches of
//! 50), one out-of-range query and one in-range query at tolerance 1e-9
//! (both exact fallbacks). Shared-input dedup and the surrogate fit are
//! on the write side; microsecond hits sit beside second-long exact
//! fallbacks on the read side, so a gain for one tier that costs the
//! other shows.

use crate::harness::{
    setup_s, time_lower_quartile, Checks, Ctx, Kind, Layers, Metric, Outcome, Roles,
    TracedVsUntraced,
};
use crate::inputs;
use crate::probe::{self, HostSpeed, Paced};
use crate::trace::Tracer;
use airshed::core::ensemble::{EnsembleJob, EnsembleResult};
use airshed::core::surrogate::ResponseSurface;
use airshed::core::ExecSpec;
use airshed::fabric::report_fingerprint;
use airshed::server::{EnsembleOutcome, ScenarioServer, ServerConfig, WhatIfRouted};
use std::time::Instant;

const QUERIES: usize = 1000;
const QUERY_BATCH: usize = 50;

/// What one unit measured.
struct Unit {
    /// The whole sweep.
    sweep: Paced,
    hit_us: Vec<f64>,
    /// The two exact fallbacks together.
    exact: Paced,
    result: Option<Box<EnsembleResult>>,
    surrogate_hits: u64,
    surrogate_misses: u64,
}

/// Member fingerprints of the first unit; later units must match.
type Members = Vec<String>;

fn run_unit(
    ctx: &Ctx,
    tr: &mut Tracer,
    mut host: Option<&mut HostSpeed>,
    unit: usize,
    first: &mut Option<Members>,
    checks: &mut Checks,
) -> Unit {
    let id = unit as u32;
    let server = ScenarioServer::start(ServerConfig {
        workers: 1,
        exec: ExecSpec::rayon(ctx.threads),
        ..ServerConfig::default()
    });
    let base = inputs::ensemble_base();
    let job = EnsembleJob::emission_sweep(base.clone(), &inputs::ENSEMBLE_SCALES);

    checks.attempt(job.len() as u64);
    let (outcome, sweep) = probe::around(host.as_deref_mut(), || {
        tr.span("server.run_ensemble", id, |_| {
            server.run_ensemble(&job, true)
        })
    });
    let result = match outcome {
        EnsembleOutcome::Completed(result) => Some(result),
        EnsembleOutcome::Rejected { member, .. } => {
            checks.fail(Kind::Operation, || {
                format!("unit {unit}: sweep rejected at member {member}")
            });
            None
        }
    };
    if let Some(result) = &result {
        checks.require(Kind::Count, result.members.len() == job.len(), || {
            format!(
                "unit {unit}: {} of {} members",
                result.members.len(),
                job.len()
            )
        });
        let members: Members = result
            .members
            .iter()
            .map(|m| report_fingerprint(&m.report))
            .collect();
        match first {
            Some(first) => {
                for (i, (got, want)) in members.iter().zip(first.iter()).enumerate() {
                    checks.same_fingerprint(&format!("unit {unit} member {i}"), got, want);
                }
            }
            None => *first = Some(members),
        }
        let want_runs = inputs::ENSEMBLE_HOURS * result.dedup.groups;
        checks.require(Kind::Count, result.dedup.input_runs == want_runs, || {
            format!(
                "unit {unit}: {} input runs, want {want_runs}",
                result.dedup.input_runs
            )
        });
    }

    // Read side: surrogate hits, then the two kinds of exact fallback.
    checks.attempt(QUERIES as u64 + 2);
    let scales = inputs::whatif_scales(ctx.seed, unit, QUERIES);
    let mut hit_us = Vec::with_capacity(QUERIES / QUERY_BATCH);
    for batch in scales.chunks(QUERY_BATCH) {
        let start = Instant::now();
        let hits = batch
            .iter()
            .filter(|&&scale| {
                let routed = tr.span("server.what_if", id, |_| {
                    server.what_if(&base, scale, inputs::WHATIF_TOLERANCE)
                });
                routed.outcome().is_some_and(|o| o.is_surrogate())
            })
            .count();
        hit_us.push(start.elapsed().as_secs_f64() * 1e6 / batch.len() as f64);
        for _ in hits..batch.len() {
            checks.fail(Kind::Tier, || {
                format!("unit {unit}: an in-range query missed the surrogate")
            });
        }
    }
    let fallbacks = [
        (
            inputs::WHATIF_OUT_OF_RANGE,
            inputs::WHATIF_TOLERANCE,
            "out of range",
        ),
        (scales[0], inputs::WHATIF_TIGHT_TOLERANCE, "tolerance 1e-9"),
    ];
    let (routed, exact) = probe::around(host, || {
        fallbacks.map(|(scale, tolerance, _)| {
            tr.span("server.what_if_exact", id, |_| {
                server.what_if(&base, scale, tolerance)
            })
        })
    });
    for (routed, (_, _, why)) in routed.iter().zip(fallbacks) {
        let exact = matches!(routed, WhatIfRouted::Answered(o) if !o.is_surrogate());
        checks.require(Kind::Tier, exact, || {
            format!("unit {unit}: the {why} query was not an exact fallback")
        });
    }
    let metrics = server.shutdown();
    Unit {
        sweep,
        hit_us,
        exact,
        result,
        surrogate_hits: metrics.surrogate_hits,
        surrogate_misses: metrics.surrogate_misses,
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut checks = Checks::in_suite(ctx.workload);
    let mut tr = Tracer::new(false);
    let mut host = HostSpeed::new(ctx.threads);
    // Every unit starts its own server, so set-up is one untimed unit:
    // it pages the code in and yields the reference member fingerprints.
    let mut first = None;
    run_unit(
        ctx,
        &mut tr,
        Some(&mut host),
        usize::MAX,
        &mut first,
        &mut checks,
    );
    let setup_s = setup_s(ctx, &host);

    let members = inputs::ENSEMBLE_SCALES.len() as f64;
    let (mut sweeps, mut exacts, mut hits) = (Vec::new(), Vec::new(), Vec::new());
    crate::harness::run_rounds(ctx.seconds, |round| {
        let unit = run_unit(
            ctx,
            &mut tr,
            Some(&mut host),
            round,
            &mut first,
            &mut checks,
        );
        sweeps.push(unit.sweep);
        exacts.push(unit.exact);
        hits.extend(unit.hit_us);
    });

    Outcome {
        setup_s,
        host,
        metrics: vec![
            Metric::time_paced("member_wall_s", "s", &sweeps, 1.0 / members),
            Metric::rate_paced("members_per_s", "1/s", &sweeps, members),
            // One thread, microseconds at a time: the probe, which keeps
            // every thread busy for a tenth of a second, says nothing
            // about it.
            Metric::fastest("whatif_hit_us", "us", &hits),
            Metric::time_paced("whatif_exact_s", "s", &exacts, 0.5),
        ],
        roles: Roles {
            rate: "members_per_s",
            primary: ("whatif_hit_us", 1e-6),
            contrast: ("whatif_exact_s", 1.0),
        },
        checks,
    }
}

/// The traced pass: one traced and one untraced unit, the dedup
/// accounting, and the response surface fitted and queried directly.
pub fn layers(
    ctx: &Ctx,
    tr: &mut Tracer,
    out: &mut Layers,
    checks: &mut Checks,
) -> TracedVsUntraced {
    let mut first = None;
    let start = Instant::now();
    let traced = run_unit(ctx, tr, None, 0, &mut first, checks);
    let traced_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    run_unit(ctx, &mut Tracer::new(false), None, 1, &mut first, checks);
    let untraced_s = start.elapsed().as_secs_f64();

    out.set(
        "core.surrogate.hit_frac",
        traced.surrogate_hits as f64
            / (traced.surrogate_hits + traced.surrogate_misses).max(1) as f64,
    );
    if let Some(result) = &traced.result {
        let dedup = &result.dedup;
        out.set("core.ensemble.input_runs", dedup.input_runs as f64);
        out.set(
            "core.ensemble.dedup_saved_frac",
            dedup.input_hours_deduped as f64
                / (dedup.input_runs + dedup.input_hours_deduped).max(1) as f64,
        );
        checks.attempt(1);
        match ResponseSurface::from_ensemble(result) {
            Ok(surface) => {
                out.set(
                    "core.surrogate.fit_ms",
                    time_lower_quartile(9, || ResponseSurface::from_ensemble(result).is_ok()) * 1e3,
                );
                let scales = inputs::whatif_scales(ctx.seed, 0, QUERIES);
                let query_s = time_lower_quartile(9, || {
                    for &scale in &scales {
                        std::hint::black_box(surface.query(scale, inputs::WHATIF_TOLERANCE));
                    }
                });
                out.set(
                    "core.surrogate.query_us",
                    query_s * 1e6 / scales.len() as f64,
                );
                out.set("core.surrogate.error_bound_ppm", surface.error_bound());
            }
            Err(e) => checks.fail(Kind::Operation, || format!("response surface: {e}")),
        }
    }
    TracedVsUntraced {
        traced_s,
        untraced_s,
    }
}
