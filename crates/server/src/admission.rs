//! Admission control: the paper's §4 performance model put to
//! operational use.
//!
//! Before a scenario is queued, the controller *predicts* its cost with
//! the one serving price, [`airshed_core::PricedModel::hour_price`] of
//! the plan the job runs — the calibrated model folded over the
//! requested layout's planned loads, the same price the worker stamps on
//! the report and the fabric router routes by — and rejects jobs whose
//! predicted virtual run time on the target machine exceeds a configured
//! budget. Models are calibrated per scenario *family* (dataset, mode)
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
use airshed_core::{ChemLayout, PerfModel, PlanLayouts, PricedModel, WorkProfile};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// The controller's verdict on one scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionDecision {
    /// Admitted: no budget is set, the price fits it, or the scenario is
    /// the first of its family (admitted optimistically to bootstrap
    /// calibration).
    Admit,
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
    models: Mutex<HashMap<NumericsKey, Arc<PricedModel>>>,
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

    /// The model of `config`'s family, if the family has been
    /// calibrated. The `models` lock is released before the caller
    /// prices with it: a layout search on one worker stalls neither
    /// another worker's pricing nor `calibrate`.
    fn model_for(&self, config: &SimConfig) -> Option<Arc<PricedModel>> {
        let family = NumericsKey::of(config).family();
        lock(&self.models).get(&family).cloned()
    }

    /// The one serving price of running `config` under `plan`, if its
    /// family has been calibrated. Episode length is scaled linearly
    /// from the calibrated run — diurnal variation makes this
    /// approximate, which is fine for an admission estimate.
    pub fn price(&self, config: &SimConfig, plan: PlanLayouts) -> Option<f64> {
        let model = self.model_for(config)?;
        Some(model.hour_price(&config.machine, config.p, plan) * config.hours as f64)
    }

    /// Run the model-level plan search for `config`'s family: the
    /// cheapest per-phase layouts on `config.machine`. `None` until the
    /// family is calibrated. The worker calls it again at execute time,
    /// so a job queued before its family's first profile landed is still
    /// planned.
    pub fn plan_for(&self, config: &SimConfig) -> Option<PlanLayouts> {
        let model = self.model_for(config)?;
        Some(model.model().choose_layout(&config.machine, config.p))
    }

    /// Decide whether to admit `config` at the price of the plan it will
    /// run: the requested `layout`, or with `optimize` the plan the
    /// optimizer would run, so a scenario that only fits the budget when
    /// re-planned is admitted. Without a budget nothing is priced here:
    /// the worker prices the plan the job runs.
    pub fn decide(
        &self,
        config: &SimConfig,
        layout: ChemLayout,
        optimize: bool,
    ) -> AdmissionDecision {
        let Some(budget) = self.budget_seconds else {
            return AdmissionDecision::Admit;
        };
        let plan = optimize.then(|| self.plan_for(config)).flatten();
        match self.price(config, plan.unwrap_or(PlanLayouts::chem(layout))) {
            Some(predicted) if predicted > budget => AdmissionDecision::Reject {
                predicted_seconds: predicted,
                budget_seconds: budget,
            },
            _ => AdmissionDecision::Admit,
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
        let model = Arc::new(PricedModel::new(PerfModel::from_profile(profile)));
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
            ctl.decide(&config, ChemLayout::Block, false),
            AdmissionDecision::Admit
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
        let predicted = ctl.price(&monster, PlanLayouts::default()).unwrap();
        assert!(predicted > 0.0);

        let ctl = {
            let (c, base) = calibrated_controller(Some(predicted * 0.5));
            assert_eq!(
                NumericsKey::of(&base).family(),
                NumericsKey::of(&config).family()
            );
            c
        };
        match ctl.decide(&monster, ChemLayout::Block, false) {
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
            ctl2.decide(&monster, ChemLayout::Block, false),
            AdmissionDecision::Admit
        ));
    }

    #[test]
    fn prediction_scales_with_hours_and_machine() {
        let (ctl, config) = calibrated_controller(None);
        let one = ctl.price(&config, PlanLayouts::default()).unwrap();
        let mut long = config.clone();
        long.hours = 10;
        let ten = ctl.price(&long, PlanLayouts::default()).unwrap();
        assert!((ten / one - 10.0).abs() < 1e-9);

        let mut slow = config.clone();
        slow.machine = MachineProfile::paragon();
        assert!(ctl.price(&slow, PlanLayouts::default()).unwrap() > one);
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
            let choice = model.model().choose_layout(&config.machine, config.p);
            assert_eq!(
                during,
                Ok(2),
                "calibrate blocked behind a running layout search"
            );
            assert_eq!(Some(choice), ctl.plan_for(&config));
        });
    }

    #[test]
    fn the_chosen_layout_follows_the_configured_machine() {
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

        let price = |config: &SimConfig, plan| ctl.price(config, plan).unwrap();
        let before = ctl.plan_for(&config).unwrap();
        assert_eq!(before.chemistry, ChemLayout::Cyclic);
        assert!(price(&config, before) < price(&config, PlanLayouts::default()));

        // The same family on a machine whose per-message latency is a
        // million times worse: CYCLIC's extra messages now cost more
        // than its balance wins, so the plan is the default BLOCK.
        config.machine.latency *= 1.0e6;
        let after = ctl.plan_for(&config).unwrap();
        assert_eq!(after.chemistry, ChemLayout::Block);
        // And the optimized admission price tracks the re-plan: both are
        // the one price, and the search keeps the default plan on ties.
        let optimized = price(&config, after);
        let default = price(&config, PlanLayouts::default());
        assert!(optimized <= default, "{optimized} vs {default}");
    }
}
