//! North-East dataset integration (slow — run with `--ignored`).
//!
//! The NE grid (≈3328 columns over a 1000×800 km domain) is 4.75× the LA
//! grid; these tests confirm the full pipeline carries the larger data
//! set, matching the paper's Figure 3 experiment. A 2-hour slice keeps
//! the runtime tolerable; `cargo test -- --ignored` opts in.

use airshed::core::config::{DatasetChoice, SimConfig};
use airshed::core::driver::{run_with_profile_on, ChemLayout};
use airshed::core::plan::replay_profile;
use airshed::core::ExecSpec;
use airshed::machine::MachineProfile;

#[test]
#[ignore = "runs the NE numerics (~1 minute)"]
fn ne_two_hour_slice_runs_and_scales() {
    let config = SimConfig {
        hours: 2,
        start_hour: 11,
        ..SimConfig::new(DatasetChoice::NorthEast, 16)
    };
    let (r, prof) = run_with_profile_on(&config, ExecSpec::default());
    assert_eq!(prof.shape[0], 35);
    assert_eq!(prof.shape[1], 5);
    assert!(
        prof.shape[2].abs_diff(3328) * 50 <= 3328,
        "NE columns {} not within 2% of 3328",
        prof.shape[2]
    );
    assert!(r.peak_o3() > 0.0 && r.peak_o3() < 0.5);
    // Chemistry dominates and scales; transport saturates at 5 layers.
    let t16 = replay_profile(&prof, MachineProfile::t3e(), 16, ChemLayout::Block);
    let t128 = replay_profile(&prof, MachineProfile::t3e(), 128, ChemLayout::Block);
    assert!(t128.chemistry_seconds < 0.2 * t16.chemistry_seconds);
    assert!((t128.transport_seconds - t16.transport_seconds).abs() < 1e-9);
}
