//! Quickstart: simulate a morning over a small urban domain and print
//! both the science (ozone formation) and the virtual-machine timing.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use airshed::core::config::{DatasetChoice, SimConfig};
use airshed::core::driver::{run_with_profile_on, ChemLayout};
use airshed::core::plan::replay_profile;
use airshed::core::ExecSpec;
use airshed::machine::MachineProfile;

fn main() {
    // A ~120-column multiscale grid with one urban hot-spot, simulated
    // for four daylight hours on 16 virtual Cray T3E nodes.
    let config = SimConfig {
        hours: 4,
        start_hour: 9,
        ..SimConfig::new(DatasetChoice::Tiny(120), 16)
    };

    println!(
        "running {} hours over the {} dataset...",
        config.hours,
        config.dataset.name()
    );
    let (report, profile) = run_with_profile_on(&config, ExecSpec::default());

    println!("\n--- science ---");
    for s in &report.summaries {
        println!(
            "hour {:>2}: peak O3 {:>5.1} ppb | mean O3 {:>5.1} ppb | mean NOx {:>5.1} ppb",
            s.hour,
            1000.0 * s.max_o3,
            1000.0 * s.mean_o3,
            1000.0 * s.mean_nox
        );
    }

    println!("\n--- virtual machine ---");
    print!("{report}");

    println!("\n--- reuse ---");
    println!(
        "the captured work profile ({} steps) can be replayed on any machine/P:",
        profile.total_steps()
    );
    for p in [4usize, 64] {
        let r = replay_profile(&profile, MachineProfile::paragon(), p, ChemLayout::Block);
        println!("  Paragon P={:<3} -> {:.1}s", p, r.total_seconds);
    }
}
