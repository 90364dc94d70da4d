//! The integrated multidisciplinary application: Airshed coupled with the
//! population exposure model, PopExp hosted both as a native Fx task and
//! as a PVM foreign module (the paper's §6).
//!
//! ```bash
//! cargo run --release --example popexp_pipeline
//! ```

use airshed::core::config::SimConfig;
use airshed::core::driver::run_with_profile_on;
use airshed::core::ExecSpec;
use airshed::machine::MachineProfile;
use airshed::popexp::{fig13_sweep, replay_with_popexp, Hosting};

fn main() {
    let mut config = SimConfig::test_tiny(4, 5);
    config.start_hour = 9;
    println!("running Airshed ({} hours)...", config.hours);
    let (_, profile) = run_with_profile_on(&config, ExecSpec::default());

    let paragon = MachineProfile::paragon();
    println!("\nintegrated Airshed+PopExp on the virtual Paragon:");
    println!(
        "{:>5} {:>14} {:>16} {:>10}",
        "P", "native (s)", "foreign (s)", "overhead"
    );
    for r in fig13_sweep(&profile, paragon, &[8, 16, 32, 64]) {
        println!(
            "{:>5} {:>14.1} {:>16.1} {:>9.2}%",
            r.p,
            r.native_seconds,
            r.foreign_seconds,
            100.0 * r.overhead
        );
    }

    // The exposures are identical — hosting changes plumbing, not
    // science.
    let native = replay_with_popexp(&profile, paragon, 16, Hosting::NativeTask);
    let foreign = replay_with_popexp(&profile, paragon, 16, Hosting::ForeignModule);
    for (a, b) in native.exposures.iter().zip(&foreign.exposures) {
        assert!((a.person_dose - b.person_dose).abs() < 1e-9 * a.person_dose.max(1.0));
    }
    println!("\nhourly exposure (foreign module, really computed over PVM tasks):");
    for e in &foreign.exposures {
        println!(
            "  hour {:>2}: person-dose {:>10.3e}, people over O3 standard {:>10.0}",
            e.hour, e.person_dose, e.people_above_o3_threshold
        );
    }
}
