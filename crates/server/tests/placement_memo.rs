//! A server replays through its placement memo exactly as a direct
//! replay does, whether the placement was folded for this job or for
//! another machine before it, and across the memo's evictions.
//!
//! One family is placed on every machine × P × chemistry layout, more
//! placements than the memo holds, then optimized on a few (machine, P):
//! every report must carry the bits of `plan::replay_profile`, and the
//! memo's resident count must never pass its bound. A placement in use
//! while the memo fills stays resident: the least recently used go.

use airshed_core::config::SimConfig;
use airshed_core::driver::{run_with_profile_on, ChemLayout};
use airshed_core::plan::{replay_profile, replay_profile_with};
use airshed_core::{ExecSpec, PerfModel, RunReport};
use airshed_machine::MachineProfile;
use airshed_server::cache::PLACEMENT_MEMO_ENTRIES;
use airshed_server::{ScenarioRequest, ScenarioServer, ServerConfig};

/// Everything a replay computes, bit for bit.
fn replay_bits(r: &RunReport) -> String {
    let seconds = [
        r.total_seconds,
        r.io_seconds,
        r.transport_seconds,
        r.chemistry_seconds,
        r.communication_seconds,
        r.popexp_seconds,
    ]
    .map(f64::to_bits);
    let steps: Vec<_> = r
        .comm_steps
        .iter()
        .map(|c| (&c.label, c.total_seconds.to_bits(), c.count))
        .collect();
    let summaries: Vec<_> = r
        .summaries
        .iter()
        .map(|s| (s.hour, s.max_o3.to_bits(), s.mean_o3.to_bits()))
        .collect();
    format!(
        "{} {} {} {} {seconds:x?} {steps:x?} {:?} {summaries:x?}",
        r.dataset, r.machine, r.p, r.hours, r.copy_bytes
    )
}

fn family(machine: MachineProfile, p: usize) -> SimConfig {
    let mut c = SimConfig::test_tiny(p, 1);
    c.start_hour = 12;
    c.machine = machine;
    c
}

#[test]
fn every_report_is_a_direct_replay_across_evictions() {
    let layouts = [
        ChemLayout::Block,
        ChemLayout::Cyclic,
        ChemLayout::BlockCyclic(3),
    ];
    // One more P than it takes to fill the memo with requested layouts.
    let max_p = PLACEMENT_MEMO_ENTRIES / layouts.len() + 1;
    let machines = MachineProfile::paper_machines();
    let (_, profile) = run_with_profile_on(&family(machines[0], 4), ExecSpec::serial());
    let server = ScenarioServer::start(ServerConfig {
        workers: 1,
        exec: ExecSpec::serial(),
        ..Default::default()
    });

    let bound = PLACEMENT_MEMO_ENTRIES as i64;
    let run = |request: ScenarioRequest| {
        let handle = server.submit(request).into_handle().expect("accepted");
        let report = handle.wait().expect("completed");
        let now = server.metrics().placement_entries;
        assert!(now <= bound, "{now} placements resident, bound {bound}");
        report
    };

    // The three machines of a placement run back to back: one fold, two
    // memo hits.
    for p in 1..=max_p {
        for layout in layouts {
            for machine in machines {
                let mut request = ScenarioRequest::new(family(machine, p));
                request.layout = layout;
                let report = run(request);
                let direct = replay_profile(&profile, machine, p, layout);
                let case = format!("{} P={p} {layout}", machine.name);
                assert_eq!(replay_bits(&report), replay_bits(&direct), "{case}");
            }
        }
    }
    // Optimized jobs run the plan the family's model chooses.
    let model = PerfModel::from_profile(&profile);
    for machine in machines {
        for p in [2, 16, 64, 1000] {
            let mut request = ScenarioRequest::new(family(machine, p));
            request.optimize = true;
            let report = run(request);
            let chosen = model.choose_layout(&machine, p);
            let case = format!("{} P={p} optimized {chosen}", machine.name);
            assert_eq!(report.plan_layouts, Some(chosen.to_string()), "{case}");
            let direct = replay_profile_with(&profile, machine, p, chosen);
            assert_eq!(replay_bits(&report), replay_bits(&direct), "{case}");
        }
    }
    let metrics = server.shutdown();
    // One worker folds each missed placement once and keeps it, so fewer
    // resident than folded means full shards evicted.
    let resident = metrics.placement_entries as u64;
    assert!(
        resident < metrics.placement_misses,
        "{resident} resident of {} folds: the memo never evicted",
        metrics.placement_misses
    );
    let placements = (max_p * layouts.len()) as u64;
    assert_eq!(metrics.completed, placements * machines.len() as u64 + 12);
    // Every result-cache miss replays through the memo once.
    let (hits, misses) = (metrics.placement_hits, metrics.placement_misses);
    assert_eq!(hits + misses, metrics.result_cache_misses);
    assert!(
        misses >= placements,
        "{misses} folds of {placements} placements"
    );
    assert!(
        hits >= 2 * placements,
        "{hits} hits over {placements} placements"
    );
    assert!(metrics.reconciles());
}

/// Filling the memo to twice its bound while one placement is touched
/// between every two folds leaves that placement resident: each fold
/// evicts its shard's least recently used placement, never the one in
/// use. A memo cleared when full drops it.
#[test]
fn a_placement_in_use_survives_filling_the_memo_twice_over() {
    let server = ScenarioServer::start(ServerConfig {
        workers: 1,
        exec: ExecSpec::serial(),
        ..Default::default()
    });
    let run = |config: SimConfig, layout: ChemLayout| {
        let mut request = ScenarioRequest::new(config);
        request.layout = layout;
        let handle = server.submit(request).into_handle().expect("accepted");
        handle.wait().expect("completed");
    };
    let t3e = MachineProfile::t3e();
    // The touched placement, on a machine of its own each time so that
    // every touch misses the result cache and looks in the memo.
    let mut touches = 0;
    let mut touch = || {
        let mut machine = t3e;
        machine.rate *= 1.0 + touches as f64 / 8192.0;
        touches += 1;
        run(family(machine, 3), ChemLayout::BlockCyclic(2));
    };
    touch();
    let before = server.metrics();
    for p in 1..=PLACEMENT_MEMO_ENTRIES {
        for layout in [ChemLayout::Block, ChemLayout::Cyclic] {
            run(family(t3e, p), layout);
            touch();
        }
    }
    let after = server.shutdown();
    let fills = 2 * PLACEMENT_MEMO_ENTRIES as u64;
    let misses = after.placement_misses - before.placement_misses;
    let hits = after.placement_hits - before.placement_hits;
    assert_eq!(
        misses, fills,
        "each fill folds once, the touched one never again"
    );
    assert_eq!(hits, fills, "every touch is a hit");
    assert!(after.placement_entries <= PLACEMENT_MEMO_ENTRIES as i64);
}
