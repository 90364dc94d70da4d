//! Admission control: the paper's §4 performance model put to
//! operational use.
//!
//! Before a scenario is queued, the controller *predicts* its cost with
//! [`airshed_core::PerfModel`] — the closed-form model the paper
//! validates against measurements in Figures 6/7, calibrated by folding
//! over the same `airshed_core::plan::PhaseGraph` the workers execute —
//! and rejects jobs whose predicted virtual run time on the target
//! machine exceeds a configured budget. Models are calibrated per scenario *family* (dataset, mode)
//! from the first captured profile of that family and extrapolated across
//! machines, node counts and episode lengths — the paper's "measurements
//! obtained on a small number of nodes can be used to extrapolate".
//!
//! Predicted time is **virtual** (simulated-machine) seconds: the budget
//! expresses "don't accept scenarios that would have tied up the target
//! machine longer than X", which is the operational-forecasting admission
//! question.

use crate::cache::NumericsKey;
use crate::lock;
use airshed_core::config::SimConfig;
use airshed_core::{LayoutChoice, PerfModel, WorkProfile};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// The controller's verdict on one scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionDecision {
    /// Admitted; the predicted virtual seconds when a model was
    /// available (`None` for a first-of-its-family scenario, which is
    /// admitted optimistically to bootstrap calibration).
    Admit { predicted_seconds: Option<f64> },
    /// Rejected: predicted cost exceeds the budget.
    Reject {
        predicted_seconds: f64,
        budget_seconds: f64,
    },
}

/// Predicts job cost per scenario family and enforces a budget.
pub struct AdmissionController {
    budget_seconds: Option<f64>,
    /// Shared handles, so pricing clones one out and lets the lock go
    /// before it folds or searches anything.
    models: Mutex<HashMap<NumericsKey, Arc<PerfModel>>>,
}

impl AdmissionController {
    /// `budget_seconds = None` disables admission control (everything is
    /// admitted, but models are still calibrated for observability).
    pub fn new(budget_seconds: Option<f64>) -> AdmissionController {
        AdmissionController {
            budget_seconds,
            models: Mutex::new(HashMap::new()),
        }
    }

    pub fn budget_seconds(&self) -> Option<f64> {
        self.budget_seconds
    }

    /// The model of `config`'s family, if the family has been
    /// calibrated. The `models` lock is released before the caller
    /// prices with it: a layout search on one worker stalls neither
    /// another worker's pricing nor `calibrate`.
    fn model_for(&self, config: &SimConfig) -> Option<Arc<PerfModel>> {
        let family = NumericsKey::of(config).family();
        lock(&self.models).get(&family).cloned()
    }

    /// Predict the virtual run time of `config`, if this family has been
    /// calibrated. Episode length is scaled linearly from the calibrated
    /// run — diurnal variation makes this approximate, which is fine for
    /// an admission estimate.
    pub fn predict_seconds(&self, config: &SimConfig) -> Option<f64> {
        let model = self.model_for(config)?;
        Some(model.scenario_seconds(&config.machine, config.p, config.hours))
    }

    /// Run the model-level plan search for `config`'s family: the
    /// cheapest per-phase layouts on `config.machine`, cost-annotated
    /// against the default plan. `None` until the family is calibrated.
    /// Called at execute time rather than at submit, so a job queued
    /// before its family's first profile landed is still planned.
    pub fn plan_for(&self, config: &SimConfig) -> Option<LayoutChoice> {
        let model = self.model_for(config)?;
        Some(model.choose_layout(&config.machine, config.p))
    }

    /// [`AdmissionController::predict_seconds`] repriced with the
    /// optimizer's chosen plan instead of the default.
    pub fn predict_seconds_optimized(&self, config: &SimConfig) -> Option<f64> {
        self.plan_for(config)
            .map(|choice| choice.scenario_seconds(config.hours))
    }

    /// Decide whether to admit `config` under the default plan.
    pub fn decide(&self, config: &SimConfig) -> AdmissionDecision {
        self.decide_opt(config, false)
    }

    /// Decide whether to admit `config`; `optimize` prices against the
    /// plan the optimizer would run instead of the paper default, so a
    /// scenario that only fits the budget when re-planned is admitted.
    pub fn decide_opt(&self, config: &SimConfig, optimize: bool) -> AdmissionDecision {
        let predict = || {
            if optimize {
                self.predict_seconds_optimized(config)
            } else {
                self.predict_seconds(config)
            }
        };
        let Some(budget) = self.budget_seconds else {
            return AdmissionDecision::Admit {
                predicted_seconds: predict(),
            };
        };
        match predict() {
            None => AdmissionDecision::Admit {
                predicted_seconds: None,
            },
            Some(predicted) if predicted > budget => AdmissionDecision::Reject {
                predicted_seconds: predicted,
                budget_seconds: budget,
            },
            Some(predicted) => AdmissionDecision::Admit {
                predicted_seconds: Some(predicted),
            },
        }
    }

    /// Calibrate the family of `config` from a captured profile (first
    /// profile wins; the model is deterministic per family).
    pub fn calibrate(&self, config: &SimConfig, profile: &WorkProfile) {
        let family = NumericsKey::of(config).family();
        if lock(&self.models).contains_key(&family) {
            return;
        }
        // Folded outside the lock; if two first runs of a family race,
        // both fold the same deterministic model and the first insert
        // stays.
        let model = Arc::new(PerfModel::from_profile(profile));
        lock(&self.models).entry(family).or_insert(model);
    }

    /// Number of calibrated scenario families.
    pub fn calibrated_families(&self) -> usize {
        lock(&self.models).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airshed_core::driver::run_with_profile_on;
    use airshed_core::ExecSpec;
    use airshed_machine::MachineProfile;

    fn calibrated_controller(budget: Option<f64>) -> (AdmissionController, SimConfig) {
        let mut config = SimConfig::test_tiny(4, 1);
        config.start_hour = 12;
        let (_, profile) = run_with_profile_on(&config, ExecSpec::default());
        let ctl = AdmissionController::new(budget);
        ctl.calibrate(&config, &profile);
        (ctl, config)
    }

    #[test]
    fn unknown_family_is_admitted_optimistically() {
        let ctl = AdmissionController::new(Some(1.0));
        let config = SimConfig::test_tiny(4, 1);
        assert_eq!(
            ctl.decide(&config),
            AdmissionDecision::Admit {
                predicted_seconds: None
            }
        );
    }

    #[test]
    fn over_budget_scenarios_are_rejected_after_calibration() {
        let (ctl, config) = calibrated_controller(None);
        // Find the calibrated cost, then set a budget just under a
        // 100-hour episode of the same family.
        let mut monster = config.clone();
        monster.hours = 100;
        monster.p = 1;
        monster.machine = MachineProfile::paragon();
        let predicted = ctl.predict_seconds(&monster).unwrap();
        assert!(predicted > 0.0);

        let ctl = {
            let (c, base) = calibrated_controller(Some(predicted * 0.5));
            assert_eq!(
                NumericsKey::of(&base).family(),
                NumericsKey::of(&config).family()
            );
            c
        };
        match ctl.decide(&monster) {
            AdmissionDecision::Reject {
                predicted_seconds,
                budget_seconds,
            } => {
                assert!(predicted_seconds > budget_seconds);
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        // The calibrated scenario itself still fits if the budget covers it.
        let ctl2 = calibrated_controller(Some(predicted * 2.0)).0;
        assert!(matches!(
            ctl2.decide(&monster),
            AdmissionDecision::Admit { .. }
        ));
    }

    #[test]
    fn prediction_scales_with_hours_and_machine() {
        let (ctl, config) = calibrated_controller(None);
        let one = ctl.predict_seconds(&config).unwrap();
        let mut long = config.clone();
        long.hours = 10;
        let ten = ctl.predict_seconds(&long).unwrap();
        assert!((ten / one - 10.0).abs() < 1e-9);

        let mut slow = config.clone();
        slow.machine = MachineProfile::paragon();
        assert!(ctl.predict_seconds(&slow).unwrap() > one);
    }

    #[test]
    fn another_family_calibrates_while_a_search_runs() {
        let (ctl, config) = calibrated_controller(None);
        let mut other = config.clone();
        other.emission_scale = 0.5;
        assert_ne!(
            NumericsKey::of(&other).family(),
            NumericsKey::of(&config).family()
        );
        let (_, profile) = run_with_profile_on(&other, ExecSpec::default());
        let (searching_tx, searching_rx) = std::sync::mpsc::channel();
        let (calibrated_tx, calibrated_rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let (ctl, other, profile) = (&ctl, &other, &profile);
            scope.spawn(move || {
                searching_rx.recv().expect("the search starts");
                ctl.calibrate(other, profile);
                calibrated_tx
                    .send(ctl.calibrated_families())
                    .expect("report");
            });
            // Holding the model is where `plan_for` searches: meanwhile
            // the other thread must get through `calibrate`.
            let model = ctl.model_for(&config).expect("calibrated family");
            searching_tx.send(()).expect("announce");
            let during = calibrated_rx.recv_timeout(std::time::Duration::from_secs(30));
            let choice = model.choose_layout(&config.machine, config.p);
            assert_eq!(
                during,
                Ok(2),
                "calibrate blocked behind a running layout search"
            );
            assert_eq!(
                Some(choice.scenario_seconds(config.hours)),
                ctl.predict_seconds_optimized(&config)
            );
        });
    }

    #[test]
    fn the_chosen_layout_follows_the_configured_machine() {
        use airshed_core::driver::ChemLayout;
        use airshed_core::profile::{HourProfile, StepProfile};

        // A family whose chemistry load piles onto the first block of
        // columns: on the T3E the optimizer must pick CYCLIC to spread
        // it.
        let mut chemistry = vec![1.0e8; 16];
        for w in chemistry.iter_mut().take(4) {
            *w = 9.0e8;
        }
        let planted = airshed_core::WorkProfile {
            dataset: "TEST",
            shape: [1, 1, 16],
            hours: vec![HourProfile {
                input_work: 1.0,
                pretrans_work: 1.0,
                output_work: 1.0,
                input_bytes: 8,
                steps: vec![StepProfile {
                    transport1: vec![1.0],
                    transport2: vec![1.0],
                    chemistry,
                    aerosol: 0.0,
                }],
                surface: vec![],
            }],
            summaries: vec![],
        };
        let mut config = SimConfig::test_tiny(4, 1);
        config.machine = MachineProfile::t3e();
        let ctl = AdmissionController::new(None);
        assert!(ctl.plan_for(&config).is_none(), "uncalibrated family");
        ctl.calibrate(&config, &planted);

        let before = ctl.plan_for(&config).unwrap();
        assert_eq!(before.layouts.chemistry, ChemLayout::Cyclic);
        assert!(before.hour_cost < before.default_hour_cost);

        // The same family on a machine whose per-message latency is a
        // million times worse: CYCLIC's extra messages now cost more
        // than its balance wins, so the plan is the default BLOCK.
        config.machine.latency *= 1.0e6;
        let after = ctl.plan_for(&config).unwrap();
        assert_eq!(after.layouts.chemistry, ChemLayout::Block);
        // And the optimized admission price tracks the re-plan.
        let optimized = ctl.predict_seconds_optimized(&config).unwrap();
        let default = ctl.predict_seconds(&config).unwrap();
        assert!(optimized <= default * 1.5, "{optimized} vs {default}");
    }
}
