//! Performance portability in miniature: one captured run replayed on all
//! three paper machines across a node sweep — the paper's Figure 2 on a
//! small dataset.
//!
//! ```bash
//! cargo run --release --example machine_comparison
//! ```

use airshed::core::config::SimConfig;
use airshed::core::driver::{run_with_profile_on, ChemLayout};
use airshed::core::plan::replay_profile;
use airshed::core::ExecSpec;
use airshed::machine::MachineProfile;

fn main() {
    let mut config = SimConfig::test_tiny(4, 4);
    config.start_hour = 9;
    println!("capturing the work profile (numerics run once)...");
    let (_, profile) = run_with_profile_on(&config, ExecSpec::default());

    let machines = MachineProfile::paper_machines();
    println!(
        "\n{:>5} {:>12} {:>12} {:>14}",
        "P", "T3E (s)", "T3D (s)", "Paragon (s)"
    );
    for p in [4usize, 8, 16, 32, 64, 128] {
        let ts: Vec<f64> = machines
            .iter()
            .map(|m| replay_profile(&profile, *m, p, ChemLayout::Block).total_seconds)
            .collect();
        println!("{:>5} {:>12.2} {:>12.2} {:>14.2}", p, ts[0], ts[1], ts[2]);
    }

    println!("\nthe curves are parallel on a log scale — the paper's");
    println!("\"performance portability\": same qualitative speedup on every machine.");
}
