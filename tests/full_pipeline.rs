//! End-to-end integration: a complete simulated episode through every
//! subsystem — grid, meteorology, transport, chemistry, aerosol, the HPF
//! runtime, the virtual machine — checked for structural and physical
//! consistency.

use airshed::core::config::{DatasetChoice, SimConfig};
use airshed::core::driver::{run_with_profile_on, ChemLayout};
use airshed::core::plan::replay_profile;
use airshed::core::profile::SURFACE_SPECIES;
use airshed::core::ExecSpec;
use airshed::machine::MachineProfile;
use std::sync::OnceLock;

/// The suite's six-hour episode at a given emission scale.
fn config(emission_scale: f64) -> SimConfig {
    SimConfig {
        hours: 6,
        start_hour: 7,
        emission_scale,
        ..SimConfig::new(DatasetChoice::Tiny(100), 8)
    }
}

fn episode() -> &'static (airshed::core::RunReport, airshed::core::WorkProfile) {
    static CELL: OnceLock<(airshed::core::RunReport, airshed::core::WorkProfile)> = OnceLock::new();
    CELL.get_or_init(|| run_with_profile_on(&config(1.0), ExecSpec::default()))
}

#[test]
fn report_structure_is_complete() {
    let (r, prof) = episode();
    assert_eq!(r.hours, 6);
    assert_eq!(r.summaries.len(), 6);
    assert_eq!(prof.hours.len(), 6);
    assert!(r.total_seconds > 0.0);
    assert!(r.chemistry_seconds > r.transport_seconds);
    assert!(r.communication_seconds > 0.0);
    // All four redistribution labels present.
    for label in [
        "D_Repl->D_Trans",
        "D_Trans->D_Chem",
        "D_Chem->D_Repl",
        "D_Trans->D_Repl",
    ] {
        assert!(
            r.comm_steps.iter().any(|c| c.label == label),
            "missing {label}"
        );
    }
}

#[test]
fn diurnal_photochemistry_cycle() {
    let (r, _) = episode();
    // Morning (hour 7) to midday: ozone must build up.
    let first = &r.summaries[0];
    let last = &r.summaries[5];
    assert!(
        last.max_o3 > first.max_o3,
        "O3 should build through the morning: {} -> {}",
        first.max_o3,
        last.max_o3
    );
    // Peak should be meaningfully above the 40 ppb background.
    assert!(r.peak_o3() > 0.045, "peak O3 {} ppm", r.peak_o3());
    // NOx stays in a physical urban range.
    for s in &r.summaries {
        assert!(s.mean_nox > 0.0 && s.mean_nox < 0.5, "NOx {}", s.mean_nox);
    }
}

#[test]
fn surface_snapshots_are_physical() {
    let (_, prof) = episode();
    for h in &prof.hours {
        assert_eq!(h.surface.len(), SURFACE_SPECIES.len() * prof.shape[2]);
        assert!(h.surface.iter().all(|&c| c.is_finite() && c >= 0.0));
        // Ozone plane (species 0 of the snapshot) is nonzero somewhere.
        let n = prof.shape[2];
        assert!(h.surface[..n].iter().any(|&c| c > 1e-3));
    }
}

#[test]
fn work_profile_is_replayable_across_the_full_machine_grid() {
    let (_, prof) = episode();
    let mut last_total = f64::INFINITY;
    for p in [1usize, 2, 4, 8, 16, 32, 64, 128, 256] {
        for m in MachineProfile::paper_machines() {
            let r = replay_profile(prof, m, p, ChemLayout::Block);
            assert!(r.total_seconds.is_finite() && r.total_seconds > 0.0);
            assert_eq!(r.summaries.len(), 6);
        }
        // On a fixed machine, more nodes never makes the run slower by
        // more than the growing communication (allow 5% slack).
        let t = replay_profile(prof, MachineProfile::t3e(), p, ChemLayout::Block).total_seconds;
        assert!(t < last_total * 1.05, "P={p}: {t} vs previous {last_total}");
        last_total = t;
    }
}

#[test]
fn emission_controls_reduce_ozone_peak() {
    // The policy loop the paper motivates: cutting the inventory must cut
    // the headline ozone (this domain is not NOx-saturated).
    let base = episode().0.peak_o3();
    let (cut, _) = run_with_profile_on(&config(0.3), ExecSpec::default());
    assert!(
        cut.peak_o3() < base,
        "70% emission cut should lower peak O3: {} -> {}",
        base,
        cut.peak_o3()
    );
}
