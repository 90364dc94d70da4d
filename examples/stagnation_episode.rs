//! Episode meteorology matters: the same city and the same emissions
//! under ventilated vs stagnant high-pressure weather.
//!
//! Regulatory air-quality modelling runs *worst-case episodes* — hot,
//! stagnant, shallow-boundary-layer days. This example shows why, and
//! renders both ozone plumes side by side.
//!
//! ```bash
//! cargo run --release --example stagnation_episode
//! ```

use airshed::core::config::{DatasetChoice, SimConfig, Weather};
use airshed::core::driver::run_with_profile_on;
use airshed::core::viz;
use airshed::core::ExecSpec;

fn episode(weather: Weather) -> (airshed::core::RunReport, airshed::core::WorkProfile) {
    let config = SimConfig {
        hours: 8,
        start_hour: 7,
        weather,
        ..SimConfig::new(DatasetChoice::Tiny(120), 16)
    };
    run_with_profile_on(&config, ExecSpec::default())
}

fn main() {
    let dataset = DatasetChoice::Tiny(120).build();
    let n = dataset.nodes();

    println!("simulating the same day under two weather regimes...");
    let (vent, vent_prof) = episode(Weather::Ventilated);
    let (stag, stag_prof) = episode(Weather::Stagnation);

    println!(
        "\n{:<12} {:>10} {:>10} {:>12}",
        "regime", "peak O3", "mean NOx", "steps/day"
    );
    for (name, r, prof) in [
        ("ventilated", &vent, &vent_prof),
        ("stagnant", &stag, &stag_prof),
    ] {
        let mean_nox =
            r.summaries.iter().map(|s| s.mean_nox).sum::<f64>() / r.summaries.len() as f64;
        println!(
            "{:<12} {:>7.1}ppb {:>7.1}ppb {:>12}",
            name,
            1000.0 * r.peak_o3(),
            1000.0 * mean_nox,
            prof.total_steps()
        );
    }

    let scale_hi = stag.peak_o3();
    for (name, prof) in [("ventilated", &vent_prof), ("stagnant", &stag_prof)] {
        println!("\nsurface ozone after 8 hours — {name} (common scale):");
        let last = prof.hours.last().unwrap();
        print!(
            "{}",
            viz::ascii_map(&dataset, &last.surface[..n], 64, 16, 0.03, scale_hi)
        );
    }
    println!(
        "\nscale: ' ' = 30 ppb .. '@' = {:.0} ppb (the stagnant episode's peak)",
        1000.0 * scale_hi
    );
    println!(
        "the stagnant episode traps precursors under a shallow inversion and\n\
         cooks them in place — the design case the multiscale grid resolves."
    );
}
