//! # `obs::oracle` — prediction-vs-measurement validation
//!
//! The paper's second headline claim is *predictable* performance: the
//! §4 analytic model (compute = sequential / useful parallelism, comm
//! `Ct = L·m + G·b + H·c`) tracks the measured phase and redistribution
//! times across node counts (Figures 5–7). The plan IR supplies the
//! prediction ([`crate::predict::PerfModel`]) and the charged replay of a
//! captured [`WorkProfile`] supplies the measurement — [`validate_profile`]
//! pairs the two for **every executed plan node** and renders the
//! Figures 5–7 analogue tables (`airshed validate`). The tables are a
//! pure function of the profile: a run's charge *is* that replay, so
//! there is nothing a live hook on the running hours would add.
//!
//! The pairing holds by construction: the one charge loop
//! ([`charge_hours`], which live hours and replays charge through too)
//! hands each plan node over with the virtual `(start, end)` the machine
//! just charged it, and for each node the sweep computes the **model
//! residual** — the §4 closed form (even division with the ceil rule;
//! the [`comm_step_costs`] equations) against the charged duration
//! `end - start`. This is the Figure 6/7 error: genuinely nonzero,
//! dominated by the urban/rural work imbalance the simple model ignores.
//!
//! The sweep reports; it does not fit, and it does not re-price. The
//! machine's `L`/`G`/`H` are the datasheet the spans were charged from,
//! so there is nothing in them to recover (EXPERIMENTS.md, "Online
//! recalibration": the refit was the identity to 14 digits); and the
//! charge itself *is* what a replay and the planner price with, so a
//! residual between the two would compare a formula with itself
//! (`plan::tests::a_live_charge_and_a_replay_are_one_walk` pins that
//! instead).

use crate::driver::{HourPlans, PlanLayouts};
use crate::plan::{charge_hours, edges, Op, PhaseNode, Work};
use crate::predict::{ceil_rule_seconds, comm_step_costs, CommStepCosts, PerfModel, Prediction};
use crate::profile::WorkProfile;
use crate::report::RunReport;
use airshed_hpf::redist::{labels, RedistPlan};
use airshed_machine::{Machine, MachineProfile};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Residuals smaller than this (in predicted seconds) are compared
/// against a floor instead of the raw prediction, so an all-but-empty
/// phase cannot produce a million-percent relative error.
const REL_FLOOR: f64 = 1e-12;
/// Ring size for the rolling p95 estimate.
const RING: usize = 512;

/// Rolling residual statistics for one phase or redistribution label.
#[derive(Debug, Clone, Default)]
struct ResidualStat {
    count: u64,
    sum_rel: f64,
    sum_abs_rel: f64,
    /// Ring buffer of recent |relative error| for the p95.
    recent: Vec<f64>,
    cursor: usize,
    max_imbalance: f64,
    sum_predicted: f64,
    sum_measured: f64,
}

impl ResidualStat {
    fn record(&mut self, rel: f64, imbalance: f64, predicted: f64, measured: f64) {
        self.count += 1;
        self.sum_rel += rel;
        self.sum_abs_rel += rel.abs();
        if self.recent.len() < RING {
            self.recent.push(rel.abs());
        } else {
            self.recent[self.cursor] = rel.abs();
            self.cursor = (self.cursor + 1) % RING;
        }
        self.max_imbalance = self.max_imbalance.max(imbalance);
        self.sum_predicted += predicted;
        self.sum_measured += measured;
    }

    fn summary(&self) -> ResidualSummary {
        let n = self.count.max(1) as f64;
        let mut sorted = self.recent.clone();
        sorted.sort_by(f64::total_cmp);
        let p95 = if sorted.is_empty() {
            0.0
        } else {
            sorted[((sorted.len() - 1) as f64 * 0.95).round() as usize]
        };
        ResidualSummary {
            count: self.count,
            mean_rel: self.sum_rel / n,
            mean_abs_rel: self.sum_abs_rel / n,
            p95_abs_rel: p95,
            max_imbalance: self.max_imbalance,
            predicted_seconds: self.sum_predicted,
            measured_seconds: self.sum_measured,
        }
    }
}

/// Residual summary for one label — what the tables report.
#[derive(Debug, Clone, Copy)]
pub struct ResidualSummary {
    /// Observations paired under this label.
    pub count: u64,
    /// Mean signed relative error `(measured - predicted)/predicted`.
    pub mean_rel: f64,
    /// Mean absolute relative error.
    pub mean_abs_rel: f64,
    /// Rolling p95 of the absolute relative error.
    pub p95_abs_rel: f64,
    /// Worst per-node imbalance (heaviest/mean charge) seen.
    pub max_imbalance: f64,
    /// Total predicted seconds across the observations.
    pub predicted_seconds: f64,
    /// Total measured (charged) seconds across the observations.
    pub measured_seconds: f64,
}

fn rel_err(measured: f64, predicted: f64) -> f64 {
    (measured - predicted) / predicted.abs().max(REL_FLOOR)
}

/// Per-label model residuals of a sweep.
type Residuals = BTreeMap<&'static str, ResidualStat>;

/// The §4 closed-form seconds of one plan node on `p` nodes priced on
/// `nominal`, and the per-node imbalance of its charge (heaviest/mean).
fn model_of(
    node: &PhaseNode,
    p: usize,
    edges: &[&RedistPlan; 4],
    nominal: &MachineProfile,
    costs: &CommStepCosts,
) -> (f64, f64) {
    match &node.op {
        Op::Compute { work, .. } => {
            let (_, imbalance) = work.charged(p);
            // §4.1: replicated work in full; transport distributes
            // layers, chemistry distributes columns, both by the ceil
            // rule over their item count.
            let model = match work {
                Work::Replicated { work, .. } => work / nominal.rate,
                Work::Distributed { per_item, .. } => {
                    ceil_rule_seconds(work.total(), nominal.rate, per_item.len(), p)
                }
            };
            (model, imbalance)
        }
        Op::Comm { edge } => {
            let e = edges[*edge];
            let model = costs
                .for_label(e.label)
                .expect("a plan edge is one of the four redistributions");
            let per_node: Vec<f64> = e.loads.iter().map(|l| nominal.comm_cost(l)).collect();
            let max = per_node.iter().fold(0.0f64, |a, &b| a.max(b));
            let mean = per_node.iter().sum::<f64>() / per_node.len().max(1) as f64;
            let imbalance = if mean > 0.0 { max / mean } else { 1.0 };
            (model, imbalance)
        }
    }
}

// ---------------------------------------------------------------------
// Validation sweep: the `airshed validate` engine.
// ---------------------------------------------------------------------

/// One node-count point of a validation sweep: the §4 prediction next
/// to the charged measurement.
#[derive(Debug, Clone)]
pub struct ValidationRow {
    pub p: usize,
    pub predicted: Prediction,
    pub measured_io: f64,
    pub measured_transport: f64,
    pub measured_chemistry: f64,
    pub measured_communication: f64,
    pub measured_total: f64,
    /// Measured per-occurrence seconds of the three §4.2 redistributions
    /// (Figure 5 rows).
    pub measured_repl_to_trans: f64,
    pub measured_trans_to_chem: f64,
    pub measured_chem_to_repl: f64,
}

/// The outcome of [`validate_profile`]: rows per node count and pooled
/// per-label model residuals.
#[derive(Debug, Clone)]
pub struct Validation {
    pub dataset: String,
    pub machine: MachineProfile,
    pub hours: usize,
    pub rows: Vec<ValidationRow>,
    pub residuals: Vec<(&'static str, ResidualSummary)>,
}

/// Run the Figures 5–7 experiment on a captured profile: for each node
/// count, charge every hour, pair every charged node with its prediction
/// (residuals pooled over the whole sweep), and collect the
/// predicted-vs-measured rows.
pub fn validate_profile(
    profile: &WorkProfile,
    machine: MachineProfile,
    nodes: &[usize],
) -> Validation {
    let model = PerfModel::from_profile(profile);
    let mut residuals = Residuals::new();
    let mut rows = Vec::with_capacity(nodes.len());
    for &p in nodes {
        let plans = HourPlans::shared(&profile.shape, p, PlanLayouts::default());
        let edges = edges(&plans);
        let costs = comm_step_costs(&machine, profile.shape, p);
        let mut m = Machine::new(machine, p);
        charge_hours(
            &mut m,
            &profile.hours,
            &plans,
            None,
            |node, label, start, end| {
                let measured = end - start;
                let (model, imbalance) = model_of(node, p, &edges, &machine, &costs);
                residuals.entry(label).or_default().record(
                    rel_err(measured, model),
                    imbalance,
                    model,
                    measured,
                );
            },
        );
        let report = RunReport::from_machine(profile.dataset, &m, profile.hours.len(), Vec::new());
        rows.push(ValidationRow {
            p,
            predicted: model.predict(&machine, p),
            measured_io: report.io_seconds,
            measured_transport: report.transport_seconds,
            measured_chemistry: report.chemistry_seconds,
            measured_communication: report.communication_seconds,
            measured_total: report.total_seconds,
            measured_repl_to_trans: report.comm_per_step(labels::REPL_TO_TRANS),
            measured_trans_to_chem: report.comm_per_step(labels::TRANS_TO_CHEM),
            measured_chem_to_repl: report.comm_per_step(labels::CHEM_TO_REPL),
        });
    }
    Validation {
        dataset: profile.dataset.to_string(),
        machine,
        hours: profile.hours.len(),
        rows,
        residuals: residuals.iter().map(|(&l, s)| (l, s.summary())).collect(),
    }
}

impl Validation {
    /// Render the Figures 5–7 analogue tables as text.
    pub fn text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "predicted vs measured phase seconds — {} on {}, {} h",
            self.dataset, self.machine.name, self.hours
        );
        let _ = writeln!(
            out,
            "{:>6}  {:>17}  {:>17}  {:>17}  {:>17}  {:>17}",
            "P", "io p/m", "transport p/m", "chemistry p/m", "comm p/m", "total p/m"
        );
        let pair = |a: f64, b: f64| format!("{a:>8.2}/{b:<8.2}");
        for r in &self.rows {
            let pred = &r.predicted;
            let predicted_total = pred.total;
            let _ = writeln!(
                out,
                "{:>6}  {}  {}  {}  {}  {}",
                r.p,
                pair(pred.io, r.measured_io),
                pair(pred.transport, r.measured_transport),
                pair(pred.chemistry, r.measured_chemistry),
                pair(pred.communication, r.measured_communication),
                pair(predicted_total, r.measured_total),
            );
        }
        let _ = writeln!(
            out,
            "\nper-occurrence redistribution seconds (Figure 5 analogue)"
        );
        let _ = writeln!(
            out,
            "{:>6}  {:>23}  {:>23}  {:>23}",
            "P", "D_Repl->D_Trans p/m", "D_Trans->D_Chem p/m", "D_Chem->D_Repl p/m"
        );
        let spair = |a: f64, b: f64| format!("{:>10.6}/{:<10.6}", a, b);
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:>6}  {}  {}  {}",
                r.p,
                spair(r.predicted.comm_repl_to_trans, r.measured_repl_to_trans),
                spair(r.predicted.comm_trans_to_chem, r.measured_trans_to_chem),
                spair(r.predicted.comm_chem_to_repl, r.measured_chem_to_repl),
            );
        }
        let _ = writeln!(
            out,
            "\nper-phase model residuals (§4 closed form vs charged spans)"
        );
        let _ = writeln!(
            out,
            "{:<18} {:>7} {:>10} {:>10} {:>10} {:>9}",
            "phase", "n", "mean rel", "mean |rel|", "p95 |rel|", "max imb"
        );
        for (label, s) in &self.residuals {
            let _ = writeln!(
                out,
                "{:<18} {:>7} {:>10.4} {:>10.4} {:>10.4} {:>9.3}",
                label, s.count, s.mean_rel, s.mean_abs_rel, s.p95_abs_rel, s.max_imbalance
            );
        }
        out
    }

    /// Render the validation as a JSON document (hand-rolled; the
    /// vendored serde shim is a no-op).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"dataset\": \"{}\",", self.dataset);
        let _ = writeln!(out, "  \"machine\": \"{}\",", self.machine.name);
        let _ = writeln!(out, "  \"hours\": {},", self.hours);
        out.push_str("  \"rows\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            let pred = &r.predicted;
            let _ = write!(
                out,
                "    {{\"p\": {}, \
                 \"predicted\": {{\"io\": {}, \"transport\": {}, \"chemistry\": {}, \
                 \"communication\": {}, \"total\": {}, \"repl_to_trans\": {}, \
                 \"trans_to_chem\": {}, \"chem_to_repl\": {}}}, \
                 \"measured\": {{\"io\": {}, \"transport\": {}, \"chemistry\": {}, \
                 \"communication\": {}, \"total\": {}, \"repl_to_trans\": {}, \
                 \"trans_to_chem\": {}, \"chem_to_repl\": {}}}}}",
                r.p,
                pred.io,
                pred.transport,
                pred.chemistry,
                pred.communication,
                pred.total,
                pred.comm_repl_to_trans,
                pred.comm_trans_to_chem,
                pred.comm_chem_to_repl,
                r.measured_io,
                r.measured_transport,
                r.measured_chemistry,
                r.measured_communication,
                r.measured_total,
                r.measured_repl_to_trans,
                r.measured_trans_to_chem,
                r.measured_chem_to_repl,
            );
            out.push_str(if i + 1 < self.rows.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n  \"residuals\": [\n");
        for (i, (label, s)) in self.residuals.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"phase\": \"{}\", \"count\": {}, \"mean_rel\": {}, \
                 \"mean_abs_rel\": {}, \"p95_abs_rel\": {}, \"max_imbalance\": {}}}",
                label, s.count, s.mean_rel, s.mean_abs_rel, s.p95_abs_rel, s.max_imbalance
            );
            out.push_str(if i + 1 < self.residuals.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::tiny_profile;

    #[test]
    fn model_residuals_match_figure_6_7_error_structure() {
        // The §4 closed form's error is the Figure 6/7 story: exact on
        // the replicated phases, imbalance-bounded elsewhere.
        let v = validate_profile(tiny_profile(), MachineProfile::t3e(), &[4, 16, 64]);
        let stats: BTreeMap<_, _> = v.residuals.into_iter().collect();
        for label in ["inputhour", "pretrans", "outputhour", "aerosol"] {
            let s = stats[label];
            assert!(
                s.mean_abs_rel < 1e-9,
                "{label}: replicated phases are exactly modelled, got {}",
                s.mean_abs_rel
            );
        }
        for label in ["transport", "chemistry"] {
            let s = stats[label];
            assert!(s.count > 0 && s.mean_abs_rel < 0.6, "{label}: {s:?}");
            assert!(s.max_imbalance >= 1.0);
        }
        // Comm edges priced by the closed form stay within the Figure 6
        // tolerance band.
        for label in [
            labels::REPL_TO_TRANS,
            labels::TRANS_TO_CHEM,
            labels::CHEM_TO_REPL,
            labels::TRANS_TO_REPL,
        ] {
            let s = stats[label];
            assert!(s.count > 0 && s.mean_abs_rel < 0.6, "{label}: {s:?}");
        }
    }

    #[test]
    fn validation_sweep_builds_tables() {
        let profile = tiny_profile();
        let v = validate_profile(profile, MachineProfile::t3e(), &[4, 16]);
        assert_eq!(v.rows.len(), 2);
        assert!(v.rows[0].measured_total > v.rows[1].measured_total);
        assert!(!v.residuals.is_empty());
        let text = v.text();
        assert!(text.contains("predicted vs measured"));
        assert!(text.contains("mean |rel|"));
        assert!(!text.contains("machine parameters"));
        let json = v.to_json();
        assert!(json.contains("\"rows\""));
        assert!(json.contains("\"residuals\"") && !json.contains("pricing"));
        assert!(!json.contains("recalibrated") && !json.contains("drift"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
