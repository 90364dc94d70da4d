//! Predictable performance (the paper's §4): calibrate the analytic model
//! from a small-node run, then extrapolate to large node counts and
//! compare against the simulation.
//!
//! "The measurements obtained by executing an application on a small
//! number of nodes can be used to extrapolate the performance to larger
//! numbers of nodes. This is an interesting and important case since
//! small parallel computers are fairly widely available as development
//! platforms, while large ones are the domain of a select set of
//! institutions like supercomputing centers."
//!
//! ```bash
//! cargo run --release --example performance_prediction
//! ```

use airshed::core::config::SimConfig;
use airshed::core::driver::{run_with_profile_on, ChemLayout};
use airshed::core::plan::replay_profile;
use airshed::core::predict::PerfModel;
use airshed::core::ExecSpec;
use airshed::machine::MachineProfile;

fn main() {
    let mut config = SimConfig::test_tiny(4, 4);
    config.start_hour = 10;
    println!("calibration run on a small machine (P = 4)...");
    let (small, profile) = run_with_profile_on(&config, ExecSpec::default());
    println!("  P=4 measured: {:.2}s", small.total_seconds);

    let model = PerfModel::from_profile(&profile);
    let t3e = MachineProfile::t3e();

    println!("\nextrapolation to larger machines:");
    println!(
        "{:>5} {:>14} {:>14} {:>8}",
        "P", "predicted (s)", "simulated (s)", "error"
    );
    for p in [8usize, 16, 32, 64, 128, 256] {
        let pred = model.predict(&t3e, p);
        let meas = replay_profile(&profile, t3e, p, ChemLayout::Block);
        println!(
            "{:>5} {:>14.2} {:>14.2} {:>7.1}%",
            p,
            pred.total,
            meas.total_seconds,
            100.0 * (pred.total - meas.total_seconds).abs() / meas.total_seconds
        );
    }

    let p64 = model.predict(&t3e, 64);
    println!("\nwhere does the time go at P = 64 (predicted)?");
    println!("  chemistry     {:>8.2}s (scales ~1/P)", p64.chemistry);
    println!(
        "  transport     {:>8.2}s (stops at the layer count)",
        p64.transport
    );
    println!("  I/O processing{:>8.2}s (sequential, constant)", p64.io);
    println!("  communication {:>8.2}s", p64.communication);
}
