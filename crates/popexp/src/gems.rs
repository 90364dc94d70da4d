//! GEMS-style scenario management — the problem-solving environment of
//! the paper's Figure 10.
//!
//! "Environmental scientists would like to use an efficient integrated
//! version of these two programs through the GEMS problem solving
//! environment": define emission-control scenarios, run the integrated
//! Airshed+PopExp application for each, and "select the best strategy
//! under a given set of constraints" (§1).

use crate::hosting::{replay_with_popexp, Hosting};
use airshed_core::config::SimConfig;
use airshed_core::driver::run_with_profile_on;
use airshed_core::ExecSpec;
use airshed_machine::MachineProfile;
use serde::Serialize;

/// One emission-control scenario.
#[derive(Debug, Clone, Serialize)]
pub struct Scenario {
    pub name: String,
    /// Inventory scale (1.0 = baseline; 0.7 = 30 % cut).
    pub emission_scale: f64,
    /// Assumed annualised cost of the control programme (arbitrary
    /// monetary units; used by the constraint solver).
    pub control_cost: f64,
}

impl Scenario {
    pub fn new(name: &str, emission_scale: f64, control_cost: f64) -> Scenario {
        assert!(emission_scale >= 0.0);
        Scenario {
            name: name.to_string(),
            emission_scale,
            control_cost,
        }
    }
}

/// The evaluated outcome of one scenario.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioOutcome {
    pub name: String,
    pub emission_scale: f64,
    pub control_cost: f64,
    /// Episode peak surface ozone (ppm).
    pub peak_o3: f64,
    /// Episode-total person-dose (person·ppm·h).
    pub person_dose: f64,
    /// Episode-total excess health events.
    pub excess_events: f64,
    /// Virtual execution time of the integrated application (seconds).
    pub total_seconds: f64,
}

/// The problem-solving environment: a base configuration plus the
/// integrated-application hosting choices.
#[derive(Debug, Clone)]
pub struct Gems {
    pub base: SimConfig,
    pub machine: MachineProfile,
    pub p: usize,
    pub hosting: Hosting,
}

impl Gems {
    pub fn new(base: SimConfig, p: usize) -> Gems {
        let machine = base.machine;
        Gems {
            base,
            machine,
            p,
            hosting: Hosting::NativeTask,
        }
    }

    /// Evaluate one scenario: run the model with the scenario's inventory
    /// scale and push the output through PopExp.
    pub fn evaluate(&self, scenario: &Scenario) -> ScenarioOutcome {
        let mut config = self.base.clone();
        config.emission_scale *= scenario.emission_scale;
        let (report, profile) = run_with_profile_on(&config, ExecSpec::default());
        let pop = replay_with_popexp(&profile, self.machine, self.p, self.hosting);
        ScenarioOutcome {
            name: scenario.name.clone(),
            emission_scale: scenario.emission_scale,
            control_cost: scenario.control_cost,
            peak_o3: report.peak_o3(),
            person_dose: pop.exposures.iter().map(|e| e.person_dose).sum(),
            excess_events: pop.exposures.iter().map(|e| e.excess_events).sum(),
            total_seconds: pop.total_seconds,
        }
    }

    /// Evaluate a batch of scenarios.
    pub fn evaluate_all(&self, scenarios: &[Scenario]) -> Vec<ScenarioOutcome> {
        scenarios.iter().map(|s| self.evaluate(s)).collect()
    }
}

/// "Select the best strategy under a given set of constraints": the
/// cheapest scenario whose peak ozone meets the target, or `None` if no
/// scenario attains it. An outcome whose cost is NaN cannot be ranked
/// and is never selected.
pub fn cheapest_meeting_o3_target(
    outcomes: &[ScenarioOutcome],
    target_peak_o3: f64,
) -> Option<&ScenarioOutcome> {
    outcomes
        .iter()
        .filter(|o| o.peak_o3 <= target_peak_o3 && !o.control_cost.is_nan())
        .min_by(|a, b| a.control_cost.total_cmp(&b.control_cost))
}

/// The largest health benefit attainable within a control budget (an
/// outcome whose excess events are NaN is never selected).
pub fn best_within_budget(outcomes: &[ScenarioOutcome], budget: f64) -> Option<&ScenarioOutcome> {
    outcomes
        .iter()
        .filter(|o| o.control_cost <= budget && !o.excess_events.is_nan())
        .min_by(|a, b| a.excess_events.total_cmp(&b.excess_events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use airshed_core::config::{DatasetChoice, SimConfig};
    use std::sync::OnceLock;

    fn outcomes() -> &'static Vec<ScenarioOutcome> {
        static CELL: OnceLock<Vec<ScenarioOutcome>> = OnceLock::new();
        CELL.get_or_init(|| {
            let mut base = SimConfig::test_tiny(8, 3);
            base.dataset = DatasetChoice::Tiny(90);
            base.start_hour = 10;
            let gems = Gems::new(base, 8);
            gems.evaluate_all(&[
                Scenario::new("baseline", 1.0, 0.0),
                Scenario::new("moderate", 0.6, 40.0),
                Scenario::new("aggressive", 0.25, 100.0),
            ])
        })
    }

    #[test]
    fn controls_reduce_ozone_and_health_burden_monotonically() {
        let o = outcomes();
        assert!(
            o[0].peak_o3 > o[1].peak_o3 && o[1].peak_o3 > o[2].peak_o3,
            "peaks: {} {} {}",
            o[0].peak_o3,
            o[1].peak_o3,
            o[2].peak_o3
        );
        assert!(o[0].excess_events > o[2].excess_events);
    }

    #[test]
    fn constraint_selection_picks_cheapest_attaining_target() {
        let o = outcomes();
        // A target between the moderate and baseline peaks must select
        // the moderate scenario (cheaper than aggressive).
        let target = 0.5 * (o[0].peak_o3 + o[1].peak_o3);
        let pick = cheapest_meeting_o3_target(o, target).expect("attainable");
        assert_eq!(pick.name, "moderate");
        // An unattainable target selects nothing.
        assert!(cheapest_meeting_o3_target(o, 0.0).is_none());
    }

    #[test]
    fn budget_selection_maximises_health_benefit() {
        let o = outcomes();
        let pick = best_within_budget(o, 50.0).expect("two fit the budget");
        assert_eq!(pick.name, "moderate");
        let free = best_within_budget(o, 0.0).expect("baseline is free");
        assert_eq!(free.name, "baseline");
        let unlimited = best_within_budget(o, 1e9).unwrap();
        assert_eq!(unlimited.name, "aggressive");
    }

    #[test]
    fn selectors_skip_nan_instead_of_panicking() {
        let outcome = |name: &str, control_cost, excess_events| ScenarioOutcome {
            name: name.into(),
            emission_scale: 1.0,
            control_cost,
            peak_o3: 0.05,
            person_dose: 1.0,
            excess_events,
            total_seconds: 1.0,
        };
        let o = [
            outcome("unpriced", f64::NAN, 1.0),
            outcome("cheap", 10.0, 5.0),
            outcome("dear", 20.0, 2.0),
            outcome("unassessed", 30.0, f64::NAN),
            // x86 arithmetic yields NaN with the sign bit set, which
            // `total_cmp` would rank before every number.
            outcome("unpriced-", -f64::NAN, 1.0),
            outcome("unassessed-", 40.0, -f64::NAN),
        ];
        assert_eq!(cheapest_meeting_o3_target(&o, 0.1).unwrap().name, "cheap");
        assert_eq!(best_within_budget(&o, 100.0).unwrap().name, "dear");
    }

    #[test]
    fn outcomes_record_run_cost() {
        let o = outcomes();
        assert!(o.iter().all(|x| x.total_seconds > 0.0));
        assert!(o.iter().all(|x| x.person_dose > 0.0));
    }
}
