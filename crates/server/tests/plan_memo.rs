//! A server derives a placement's plan set once: N replays over K
//! distinct placements plan at most K times, and what they report is
//! what a direct replay reports.
//!
//! The memo is the process's (see `MetricsSnapshot::plans`), which is
//! why this is a test binary of its own with one test, and why the
//! assertions are relations rather than equalities.

use airshed_core::config::SimConfig;
use airshed_core::driver::{run_with_profile_on, ChemLayout};
use airshed_core::plan::replay_profile;
use airshed_core::{ExecSpec, RunReport};
use airshed_server::{ScenarioRequest, ScenarioServer, ServerConfig};

/// Everything a replay computes, bit for bit.
fn replay_bits(r: &RunReport) -> String {
    let seconds = [
        r.total_seconds,
        r.io_seconds,
        r.transport_seconds,
        r.chemistry_seconds,
        r.communication_seconds,
    ]
    .map(f64::to_bits);
    let steps: Vec<_> = r
        .comm_steps
        .iter()
        .map(|c| (&c.label, c.total_seconds.to_bits(), c.count))
        .collect();
    format!("{seconds:x?} {steps:x?} {:?}", r.copy_bytes)
}

#[test]
fn replays_plan_each_placement_once() {
    let config = |p: usize, scale: f64| {
        let mut c = SimConfig::test_tiny(p, 1);
        c.start_hour = 12;
        c.emission_scale = scale;
        c
    };
    // K placements (P = 1 among them; calibrating a family plans
    // nothing, so only replays and the admission prices count) ...
    let placements: Vec<(usize, ChemLayout)> = [1, 2, 5, 16, 64]
        .into_iter()
        .flat_map(|p| [(p, ChemLayout::Block), (p, ChemLayout::Cyclic)])
        .collect();
    // ... replayed by three numerics families of one shape.
    let scales = [1.0, 0.7, 0.4];
    let server = ScenarioServer::start(ServerConfig {
        workers: 1,
        ..Default::default()
    });
    let before = server.metrics();

    let mut reports = Vec::new();
    for &scale in &scales {
        for &(p, layout) in &placements {
            let mut request = ScenarioRequest::new(config(p, scale));
            request.layout = layout;
            let handle = server.submit(request).into_handle().expect("accepted");
            reports.push((scale, p, layout, handle.wait().expect("completed")));
        }
    }

    let after = server.shutdown();
    let (k, n) = (placements.len() as u64, reports.len() as u64);
    assert_eq!(after.result_cache_misses - before.result_cache_misses, n);
    let misses = after.plans.misses - before.plans.misses;
    let hits = after.plans.hits - before.plans.hits;
    assert!(misses <= k, "{misses} plannings for {k} placements");
    assert!(hits >= n - k, "{hits} hits over {n} replays");
    assert!((1..=before.plans.entries + k).contains(&after.plans.entries));

    // Sampled reports against a replay that shares nothing with the
    // server but the process's plan memo.
    for &scale in &scales {
        let (_, profile) = run_with_profile_on(&config(4, scale), ExecSpec::default());
        for (_, p, layout, report) in reports.iter().filter(|r| r.0 == scale).step_by(3) {
            let c = config(*p, scale);
            let direct = replay_profile(&profile, c.machine, c.p, *layout);
            assert_eq!(
                replay_bits(report),
                replay_bits(&direct),
                "scale {scale} p {p} {layout}"
            );
        }
    }
}
