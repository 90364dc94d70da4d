//! Weather-regime integration: the same emissions under stagnant
//! high-pressure meteorology must produce a worse smog episode than under
//! ventilated conditions — the sensitivity that makes episode selection
//! matter in regulatory modelling.

use airshed::core::config::{DatasetChoice, SimConfig, Weather};
use airshed::core::driver::run_with_profile_on;
use airshed::core::ExecSpec;

fn run(weather: Weather) -> airshed::core::RunReport {
    let config = SimConfig {
        hours: 8,
        start_hour: 7,
        weather,
        ..SimConfig::new(DatasetChoice::Tiny(100), 8)
    };
    run_with_profile_on(&config, ExecSpec::default()).0
}

#[test]
fn stagnation_episode_is_smoggier() {
    let ventilated = run(Weather::Ventilated);
    let stagnant = run(Weather::Stagnation);
    // Shallow mixing + weak advection concentrate precursors: both the
    // peak and the mean surface ozone burden worsen.
    assert!(
        stagnant.peak_o3() > ventilated.peak_o3(),
        "stagnation peak {} !> ventilated {}",
        stagnant.peak_o3(),
        ventilated.peak_o3()
    );
    let mean = |r: &airshed::core::RunReport| {
        r.summaries.iter().map(|s| s.mean_nox).sum::<f64>() / r.summaries.len() as f64
    };
    assert!(
        mean(&stagnant) > mean(&ventilated),
        "stagnation should trap NOx near the surface"
    );
}

#[test]
fn stagnation_needs_fewer_transport_steps() {
    // Weak winds relax the CFL constraint; the runtime-determined step
    // count responds.
    let v = run(Weather::Ventilated);
    let s = run(Weather::Stagnation);
    let steps = |r: &airshed::core::RunReport| {
        r.comm_steps
            .iter()
            .find(|c| c.label == "D_Trans->D_Chem")
            .map(|c| c.count)
            .unwrap()
    };
    assert!(
        steps(&s) <= steps(&v),
        "stagnation steps {} !<= ventilated {}",
        steps(&s),
        steps(&v)
    );
}
