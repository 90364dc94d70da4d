//! Integration checks of the paper's three headline performance claims,
//! run on a small episode so they execute quickly:
//!
//! 1. performance portability (Figures 2-4);
//! 2. predictable performance (Figures 5-7);
//! 3. task parallelism removes the I/O ceiling (Figure 9) and foreign
//!    modules cost little (Figure 13).

use airshed::core::config::SimConfig;
use airshed::core::driver::{run_with_profile_on, ChemLayout};
use airshed::core::plan::replay_profile;
use airshed::core::predict::PerfModel;
use airshed::core::taskpar::fig9_sweep;
use airshed::core::ExecSpec;
use airshed::core::WorkProfile;
use airshed::machine::MachineProfile;
use airshed::popexp::fig13_sweep;
use std::sync::OnceLock;

fn profile() -> &'static WorkProfile {
    static CELL: OnceLock<WorkProfile> = OnceLock::new();
    CELL.get_or_init(|| {
        let mut cfg = SimConfig::test_tiny(4, 4);
        cfg.start_hour = 9;
        run_with_profile_on(&cfg, ExecSpec::default()).1
    })
}

const SWEEP: [usize; 6] = [4, 8, 16, 32, 64, 128];

#[test]
fn claim1_performance_portability() {
    // The log-scale curves are "nearly parallel": the speedup pattern is
    // machine-independent even though absolute times differ ~10x.
    let prof = profile();
    let machines = MachineProfile::paper_machines();
    let speedups: Vec<Vec<f64>> = machines
        .iter()
        .map(|m| {
            let t4 = replay_profile(prof, *m, 4, ChemLayout::Block).total_seconds;
            SWEEP
                .iter()
                .map(|&p| t4 / replay_profile(prof, *m, p, ChemLayout::Block).total_seconds)
                .collect()
        })
        .collect();
    for i in 0..SWEEP.len() {
        for pair in [(0usize, 1usize), (0, 2), (1, 2)] {
            let (a, b) = (speedups[pair.0][i], speedups[pair.1][i]);
            assert!(
                (a / b - 1.0).abs() < 0.30,
                "speedup curves diverge at P={}: {a} vs {b}",
                SWEEP[i]
            );
        }
    }
    // And the machines keep their ranking at every P.
    for &p in &SWEEP {
        let t: Vec<f64> = machines
            .iter()
            .map(|m| replay_profile(prof, *m, p, ChemLayout::Block).total_seconds)
            .collect();
        assert!(t[0] < t[1] && t[1] < t[2], "ranking broken at P={p}: {t:?}");
    }
}

#[test]
fn claim2_predictable_performance() {
    // The analytic model tracks the simulated total within a modest band
    // over the full sweep (paper: "a rough estimate ... can be obtained").
    let prof = profile();
    let model = PerfModel::from_profile(prof);
    let t3e = MachineProfile::t3e();
    for &p in &SWEEP {
        let pred = model.predict(&t3e, p).total;
        let meas = replay_profile(prof, t3e, p, ChemLayout::Block).total_seconds;
        let err = (pred - meas).abs() / meas;
        assert!(
            err < 0.30,
            "P={p}: predicted {pred:.2}s vs measured {meas:.2}s ({:.0}% off)",
            100.0 * err
        );
    }
}

#[test]
fn claim3_task_parallelism_beats_data_parallelism_at_scale() {
    let prof = profile();
    let rows = fig9_sweep(prof, MachineProfile::paragon(), &SWEEP);
    let r64 = rows.iter().find(|r| r.p == 64).unwrap();
    let gain = r64.data_parallel_seconds / r64.task_parallel_seconds - 1.0;
    assert!(
        gain > 0.10,
        "expected a paper-like (~25%) improvement at P=64, got {:.1}%",
        100.0 * gain
    );
    // And the task-parallel version's speedup keeps growing past the
    // point where the data-parallel one flattens.
    let r32 = rows.iter().find(|r| r.p == 32).unwrap();
    let dp_growth = r64.data_parallel_speedup / r32.data_parallel_speedup;
    let tp_growth = r64.task_parallel_speedup / r32.task_parallel_speedup;
    assert!(
        tp_growth > dp_growth,
        "task-parallel should scale further: {tp_growth} vs {dp_growth}"
    );
}

#[test]
fn claim4_foreign_module_overhead_is_small_and_fixed() {
    let prof = profile();
    let rows = fig13_sweep(prof, MachineProfile::paragon(), &[8, 16, 32, 64]);
    for r in &rows {
        assert!(
            (0.0..0.15).contains(&r.overhead),
            "P={}: overhead {:.1}% outside the small-fixed band",
            r.p,
            100.0 * r.overhead
        );
    }
    // Absolute overhead seconds should not grow with P (it is "fixed").
    let abs: Vec<f64> = rows
        .iter()
        .map(|r| r.foreign_seconds - r.native_seconds)
        .collect();
    assert!(
        abs.last().unwrap() <= &(abs[0] * 2.0 + 1.0),
        "overhead grows with P: {abs:?}"
    );
}
