//! Policy scenario evaluation through the GEMS problem-solving
//! environment — the paper's motivating use case: "An important use of
//! Airshed is to help in the development of environmental policies. The
//! effect of air pollution control measures can be evaluated at a low
//! cost making it possible to select the best strategy under a given set
//! of constraints."
//!
//! ```bash
//! cargo run --release --example policy_scenario
//! ```

use airshed::core::config::{DatasetChoice, SimConfig};
use airshed::popexp::gems::{best_within_budget, cheapest_meeting_o3_target};
use airshed::popexp::{Gems, Scenario};

fn main() {
    let base = SimConfig {
        hours: 6,
        start_hour: 8,
        ..SimConfig::new(DatasetChoice::Tiny(120), 16)
    };
    let gems = Gems::new(base, 16);

    let scenarios = [
        Scenario::new("baseline", 1.0, 0.0),
        Scenario::new("I/M program", 0.85, 25.0),
        Scenario::new("30% cut", 0.70, 60.0),
        Scenario::new("60% cut", 0.40, 150.0),
    ];
    println!("evaluating {} control scenarios...", scenarios.len());
    let outcomes = gems.evaluate_all(&scenarios);

    println!(
        "\n{:<12} {:>6} {:>9} {:>10} {:>14} {:>14}",
        "scenario", "cost", "peak O3", "mean dose", "excess events", "runtime (s)"
    );
    for o in &outcomes {
        println!(
            "{:<12} {:>6.0} {:>6.1}ppb {:>10.3e} {:>14.1} {:>14.1}",
            o.name,
            o.control_cost,
            1000.0 * o.peak_o3,
            o.person_dose,
            o.excess_events,
            o.total_seconds
        );
    }

    // "Select the best strategy under a given set of constraints."
    let target = 0.98 * outcomes[0].peak_o3; // shave 2% off the baseline peak
    match cheapest_meeting_o3_target(&outcomes, target) {
        Some(pick) => println!(
            "\ncheapest strategy holding peak O3 under {:.1} ppb: {} (cost {})",
            1000.0 * target,
            pick.name,
            pick.control_cost
        ),
        None => println!("\nno evaluated strategy attains the target"),
    }
    if let Some(pick) = best_within_budget(&outcomes, 80.0) {
        println!(
            "largest health benefit within a budget of 80: {} ({:.1} excess events)",
            pick.name, pick.excess_events
        );
    }
}
