//! # `obs::oracle` — live prediction-vs-measurement validation
//!
//! The paper's second headline claim is *predictable* performance: the
//! §4 analytic model (compute = sequential / useful parallelism, comm
//! `Ct = L·m + G·b + H·c`) tracks the measured phase and redistribution
//! times across node counts (Figures 5–7). The plan IR supplies the
//! prediction ([`crate::predict::PerfModel`]) and the span stream
//! supplies the measurement — this module closes the loop by pairing
//! the two for **every executed plan node**, and keeps closing it while
//! the system runs.
//!
//! The pairing leans on a structural invariant of the virtual machine:
//! executing a [`PhaseGraph`] charges exactly one trace event per plan
//! node, in program order, so `graph.nodes` and the hour's slice of
//! `machine.trace.events()` zip 1:1. For each pair the oracle computes
//! two residuals:
//!
//! * the **model residual** — the §4 closed form (even division with
//!   the ceil rule; the [`comm_step_costs`] equations) against the
//!   charged duration. This is the Figure 6/7 error: genuinely nonzero,
//!   dominated by the urban/rural work imbalance the simple model
//!   ignores;
//! * the **pricing residual** — the *nominal machine's own charge
//!   formula* applied to the node's planned work/loads against the
//!   charged duration. On a healthy run this is ~0 by construction;
//!   when the observed spans come from a machine whose parameters have
//!   drifted from the nominal profile, it grows. This is the
//!   stale-model signal the server's admission control watches.
//!
//! From the same observations the oracle performs **online
//! recalibration**: a hand-rolled least-squares fit of the `L`/`G`/`H`
//! communication parameters (3×3 normal equations, column-scaled, with
//! a tiny ridge toward the nominal prior so unidentified directions
//! stay put) and of the per-phase work rates (one-parameter fit through
//! the origin) — reproducing the paper's §4.3 machine-parameter table
//! from live data instead of an offline microbenchmark. The
//! recalibrated [`MachineProfile`] feeds back into server admission
//! control; [`Oracle::drift`] quantifies how far the fleet has moved
//! from its nominal datasheet.
//!
//! [`validate_profile`] runs the whole story as a sweep over node
//! counts and renders the Figures 5–7 analogue tables (`airshed
//! validate`).

use super::Obs;
use crate::driver::{HourPlans, PlanLayouts};
use crate::plan::{Op, PhaseGraph, Work};
use crate::predict::{comm_step_costs, step_seconds, PerfModel, Prediction};
use crate::profile::WorkProfile;
use crate::report::RunReport;
use airshed_hpf::redist::labels;
use airshed_machine::trace::TraceEvent;
use airshed_machine::{Machine, MachineProfile};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

/// Residuals smaller than this (in predicted seconds) are compared
/// against a floor instead of the raw prediction, so an all-but-empty
/// phase cannot produce a million-percent relative error.
const REL_FLOOR: f64 = 1e-12;
/// Ring size for the rolling p95 estimate.
const RING: usize = 512;
/// Cap on stored communication fit rows (stats keep accumulating past
/// it; the fit just stops gaining rows — by then it has seen every
/// distinct load pattern many times over).
const MAX_ROWS: usize = 4096;
/// Relative ridge strength pulling unidentified fit directions toward
/// the nominal prior (applied on the column-scaled, unit-diagonal
/// normal equations, so it biases identified parameters by ~1e-9).
const RIDGE: f64 = 1e-9;

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

/// Point-in-time residual summary for one label — what the tables and
/// the Prometheus section report.
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

/// One communication observation kept for the L/G/H fit: the measured
/// phase seconds and the distinct per-node `(m, b, c)` load triples —
/// the phase charges the argmax node, and which node that is depends on
/// the parameters being fitted, so all distinct candidates are kept and
/// the fit re-selects per iteration.
#[derive(Debug, Clone)]
struct CommObs {
    candidates: Vec<[f64; 3]>,
    seconds: f64,
}

#[derive(Debug, Clone, Copy, Default)]
struct WorkFit {
    /// Σ (charged work · measured seconds).
    wt: f64,
    /// Σ (charged work)².
    ww: f64,
}

#[derive(Default)]
struct OracleInner {
    model: BTreeMap<&'static str, ResidualStat>,
    pricing: BTreeMap<&'static str, ResidualStat>,
    comm_rows: Vec<CommObs>,
    work: BTreeMap<&'static str, WorkFit>,
    model_hist: super::metrics::Histogram,
    pricing_hist: super::metrics::Histogram,
    hours: u64,
    paired: u64,
    mismatched_hours: u64,
}

/// The communication-parameter fit result — the paper's §4.3 table
/// recovered from live spans.
#[derive(Debug, Clone, Copy)]
pub struct CommFit {
    pub latency: f64,
    pub byte_cost: f64,
    pub copy_cost: f64,
    /// Rows (observed comm phases) the fit used.
    pub rows: usize,
}

/// The prediction-vs-measurement oracle. `Send + Sync`; shared via
/// `Arc` through [`Obs::with_oracle`], observed by the driver at every
/// hour boundary, consulted by the server after each job.
pub struct Oracle {
    nominal: MachineProfile,
    inner: Mutex<OracleInner>,
}

/// Per-hour residual digest returned by [`Oracle::observe_hour`]; feeds
/// the Chrome-trace counter track.
pub struct HourReport {
    /// Mean absolute model residual per label, this hour only.
    pub residuals: Vec<(&'static str, f64)>,
}

impl HourReport {
    /// Emit one counter sample per label on the `"oracle residual"`
    /// counter track (rendered as a Chrome `ph:"C"` series, one sample
    /// per simulated hour).
    pub fn record_counters(&self, obs: &Obs, hour: u32) {
        for &(label, rel) in &self.residuals {
            obs.record_counter(label, "oracle residual", hour as f64 * 1e6, rel, Some(hour));
        }
    }
}

fn rel_err(measured: f64, predicted: f64) -> f64 {
    (measured - predicted) / predicted.abs().max(REL_FLOOR)
}

impl Oracle {
    /// An oracle validating against `nominal` — the machine profile the
    /// run *believes* it is executing on.
    pub fn new(nominal: MachineProfile) -> Oracle {
        Oracle {
            nominal,
            inner: Mutex::new(OracleInner::default()),
        }
    }

    /// The nominal machine profile predictions are priced with.
    pub fn nominal(&self) -> MachineProfile {
        self.nominal
    }

    /// Pair one executed hour's plan graph with its charged trace
    /// events and accumulate residuals and fit rows. `events` must be
    /// the trace slice produced by executing exactly this graph — one
    /// event per plan node, in program order (the machine guarantees
    /// this; a length mismatch is counted and the hour is skipped).
    pub fn observe_hour(
        &self,
        graph: &PhaseGraph,
        events: &[TraceEvent],
        _hour: u32,
    ) -> HourReport {
        let mut inner = self.inner.lock().unwrap();
        if events.len() != graph.nodes.len() {
            inner.mismatched_hours += 1;
            return HourReport {
                residuals: Vec::new(),
            };
        }
        let p = graph.p;
        let costs = comm_step_costs(&self.nominal, graph.shape, p);
        let [_, layers, columns] = graph.shape;
        let rate = self.nominal.rate;
        let mut hour_abs: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();

        for (node, ev) in graph.nodes.iter().zip(events) {
            let measured = ev.duration();
            let (label, model_pred, pricing_pred, imbalance) = match &node.op {
                Op::Compute { kind, work } => {
                    let (charged, imbalance) = work.charged(p);
                    // Pricing: what the nominal machine charges for the
                    // heaviest node — exact on a healthy run. Shared with
                    // the planner's objective fold ([`crate::predict::cost_of`]).
                    let pricing = step_seconds(graph, node, &self.nominal);
                    // Model: §4.1 even division with the ceil rule over
                    // the phase's parallel axis.
                    let model = match work {
                        Work::Replicated { work, .. } => work / rate,
                        Work::Distributed { per_item, .. } => {
                            let n = per_item.len().max(1);
                            // Transport distributes layers, chemistry
                            // distributes columns; both reduce to the
                            // same ceil rule over their item count.
                            let _ = (layers, columns);
                            let par = n.min(p) as f64;
                            let ceil = (n as f64 / par).ceil();
                            work.total() / rate * ceil / n as f64
                        }
                    };
                    let fit = inner.work.entry(kind.label()).or_default();
                    fit.wt += charged * measured;
                    fit.ww += charged * charged;
                    (kind.label(), model, pricing, imbalance)
                }
                Op::Comm { edge } => {
                    let e = &graph.edges[*edge];
                    let pricing = step_seconds(graph, node, &self.nominal);
                    let model = costs.for_label(e.label).unwrap_or(pricing);
                    let per_node: Vec<f64> =
                        e.loads.iter().map(|l| self.nominal.comm_cost(l)).collect();
                    let max = per_node.iter().fold(0.0f64, |a, &b| a.max(b));
                    let mean = per_node.iter().sum::<f64>() / per_node.len().max(1) as f64;
                    let imbalance = if mean > 0.0 { max / mean } else { 1.0 };
                    if inner.comm_rows.len() < MAX_ROWS {
                        let mut candidates: Vec<[f64; 3]> = Vec::new();
                        for l in &e.loads {
                            let cand = [
                                (l.msgs_sent + l.msgs_recv) as f64,
                                l.bytes_sent.max(l.bytes_recv) as f64,
                                l.bytes_copied as f64,
                            ];
                            if cand != [0.0; 3] && !candidates.contains(&cand) {
                                candidates.push(cand);
                            }
                        }
                        if !candidates.is_empty() {
                            let seconds = measured;
                            inner.comm_rows.push(CommObs {
                                candidates,
                                seconds,
                            });
                        }
                    }
                    (e.label, model, pricing, imbalance)
                }
            };

            let model_rel = rel_err(measured, model_pred);
            let pricing_rel = rel_err(measured, pricing_pred);
            inner
                .model
                .entry(label)
                .or_default()
                .record(model_rel, imbalance, model_pred, measured);
            inner.pricing.entry(label).or_default().record(
                pricing_rel,
                imbalance,
                pricing_pred,
                measured,
            );
            inner
                .model_hist
                .record(std::time::Duration::from_secs_f64(model_rel.abs().min(1e3)));
            inner
                .pricing_hist
                .record(std::time::Duration::from_secs_f64(
                    pricing_rel.abs().min(1e3),
                ));
            let slot = hour_abs.entry(label).or_insert((0.0, 0));
            slot.0 += model_rel.abs();
            slot.1 += 1;
            inner.paired += 1;
        }
        inner.hours += 1;
        HourReport {
            residuals: hour_abs
                .into_iter()
                .map(|(label, (sum, n))| (label, sum / n.max(1) as f64))
                .collect(),
        }
    }

    /// Hours successfully paired so far.
    pub fn hours_observed(&self) -> u64 {
        self.inner.lock().unwrap().hours
    }

    /// Plan-node/span pairs accumulated so far.
    pub fn observations(&self) -> u64 {
        self.inner.lock().unwrap().paired
    }

    /// Hours whose event count did not match the plan (should stay 0).
    pub fn mismatched_hours(&self) -> u64 {
        self.inner.lock().unwrap().mismatched_hours
    }

    /// Communication observations available to the L/G/H fit.
    pub fn comm_observations(&self) -> usize {
        self.inner.lock().unwrap().comm_rows.len()
    }

    /// Model residual summaries (closed-form §4 vs charged spans) per
    /// phase/edge label — the Figure 6/7 error, live.
    pub fn model_residuals(&self) -> Vec<(&'static str, ResidualSummary)> {
        let inner = self.inner.lock().unwrap();
        inner.model.iter().map(|(&l, s)| (l, s.summary())).collect()
    }

    /// Pricing residual summaries (nominal charge formula vs charged
    /// spans) per label — ~0 unless the observed machine has drifted
    /// from the nominal profile.
    pub fn pricing_residuals(&self) -> Vec<(&'static str, ResidualSummary)> {
        let inner = self.inner.lock().unwrap();
        inner
            .pricing
            .iter()
            .map(|(&l, s)| (l, s.summary()))
            .collect()
    }

    /// Mean absolute pricing residual over all observations — the
    /// scalar stale-model drift signal.
    pub fn pricing_mare(&self) -> f64 {
        let inner = self.inner.lock().unwrap();
        let (sum, n) = inner
            .pricing
            .values()
            .fold((0.0, 0u64), |(s, n), st| (s + st.sum_abs_rel, n + st.count));
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Fit the L/G/H communication parameters from the observed comm
    /// phases: iteratively re-selected argmax rows, column-scaled 3×3
    /// normal equations, Gaussian elimination with partial pivoting, and
    /// a tiny ridge toward the nominal prior for directions the observed
    /// loads do not excite (a copy-only edge says nothing about `L`).
    pub fn fit_comm(&self) -> CommFit {
        let inner = self.inner.lock().unwrap();
        let prior = [
            self.nominal.latency,
            self.nominal.byte_cost,
            self.nominal.copy_cost,
        ];
        let x = fit_comm_from_rows(&inner.comm_rows, prior);
        CommFit {
            latency: x[0],
            byte_cost: x[1],
            copy_cost: x[2],
            rows: inner.comm_rows.len(),
        }
    }

    /// Pooled fitted compute rate over every compute observation.
    pub fn fitted_rate(&self) -> f64 {
        let inner = self.inner.lock().unwrap();
        let (wt, ww) = inner
            .work
            .values()
            .fold((0.0, 0.0), |(a, b), f| (a + f.wt, b + f.ww));
        if wt > 0.0 && ww > 0.0 {
            ww / wt
        } else {
            self.nominal.rate
        }
    }

    /// The nominal profile with every parameter replaced by its fitted
    /// value — the paper's machine table, recovered live. Parameters the
    /// observations cannot identify stay nominal (the ridge prior).
    pub fn recalibrated(&self) -> MachineProfile {
        let fit = self.fit_comm();
        MachineProfile {
            rate: self.fitted_rate(),
            latency: fit.latency,
            byte_cost: fit.byte_cost,
            copy_cost: fit.copy_cost,
            ..self.nominal
        }
    }

    /// Stale-model drift: the largest relative deviation of any
    /// recalibrated parameter (rate, L, G, H) from its nominal value.
    /// ~0 while the nominal profile still describes the observed spans.
    pub fn drift(&self) -> f64 {
        let r = self.recalibrated();
        let n = self.nominal;
        [
            (r.rate, n.rate),
            (r.latency, n.latency),
            (r.byte_cost, n.byte_cost),
            (r.copy_cost, n.copy_cost),
        ]
        .iter()
        .map(|&(fitted, nominal)| (fitted - nominal).abs() / nominal.abs().max(REL_FLOOR))
        .fold(0.0, f64::max)
    }

    /// Publish the oracle's Prometheus section through `obs`: the drift
    /// gauge, per-label mean residual gauges, and the model/pricing
    /// residual histograms (bucket `le` values are *relative errors*,
    /// not seconds — a residual of 0.1 lands in the 0.131072 bucket).
    pub fn publish_to(&self, obs: &Obs) {
        use super::prom::{label, PromWriter};
        let mut w = PromWriter::new();
        w.header(
            "airshed_oracle_drift",
            "Largest relative deviation of a recalibrated machine parameter from nominal.",
            "gauge",
        );
        w.sample(
            "airshed_oracle_drift",
            &label("machine", self.nominal.name),
            self.drift(),
        );
        w.header(
            "airshed_oracle_hours",
            "Simulated hours paired by the oracle.",
            "gauge",
        );
        w.sample("airshed_oracle_hours", "", self.hours_observed() as f64);
        w.header(
            "airshed_oracle_residual_mean",
            "Mean absolute relative error per phase, by residual kind (model = \
             closed-form prediction, pricing = nominal charge formula).",
            "gauge",
        );
        for (kind, stats) in [
            ("model", self.model_residuals()),
            ("pricing", self.pricing_residuals()),
        ] {
            for (phase, s) in stats {
                w.sample(
                    "airshed_oracle_residual_mean",
                    &format!("{},{}", label("kind", kind), label("phase", phase)),
                    s.mean_abs_rel,
                );
            }
        }
        {
            let inner = self.inner.lock().unwrap();
            w.header(
                "airshed_oracle_residual",
                "Absolute relative error distribution (le is relative error, not seconds).",
                "histogram",
            );
            w.histogram(
                "airshed_oracle_residual",
                &label("kind", "model"),
                &inner.model_hist.snapshot(),
            );
            w.histogram(
                "airshed_oracle_residual",
                &label("kind", "pricing"),
                &inner.pricing_hist.snapshot(),
            );
        }
        let r = self.recalibrated();
        w.header(
            "airshed_oracle_param",
            "Machine parameters, nominal vs recalibrated from spans.",
            "gauge",
        );
        for (param, nominal, fitted) in [
            ("rate", self.nominal.rate, r.rate),
            ("latency", self.nominal.latency, r.latency),
            ("byte_cost", self.nominal.byte_cost, r.byte_cost),
            ("copy_cost", self.nominal.copy_cost, r.copy_cost),
        ] {
            for (source, v) in [("nominal", nominal), ("fitted", fitted)] {
                w.sample(
                    "airshed_oracle_param",
                    &format!("{},{}", label("param", param), label("source", source)),
                    v,
                );
            }
        }
        obs.publish("oracle", w.finish());
    }
}

fn dot(a: &[f64; 3], x: &[f64; 3]) -> f64 {
    a[0] * x[0] + a[1] * x[1] + a[2] * x[2]
}

/// Solve `m y = r` (small k) by Gaussian elimination with partial
/// pivoting. Returns `None` on a (numerically) singular system. Shared
/// with the surrogate tier's per-cell least squares
/// (`crate::surrogate`), which solves the same small ridge-stabilised
/// normal equations.
pub(crate) fn solve_dense(mut m: Vec<Vec<f64>>, mut r: Vec<f64>) -> Option<Vec<f64>> {
    let k = r.len();
    for col in 0..k {
        let pivot = (col..k).max_by(|&a, &b| m[a][col].abs().total_cmp(&m[b][col].abs()))?;
        if m[pivot][col].abs() < 1e-12 {
            return None;
        }
        m.swap(col, pivot);
        r.swap(col, pivot);
        let pivot_row = m[col].clone();
        for row in col + 1..k {
            let f = m[row][col] / pivot_row[col];
            for (v, p) in m[row][col..].iter_mut().zip(&pivot_row[col..]) {
                *v -= f * p;
            }
            r[row] -= f * r[col];
        }
    }
    let mut y = vec![0.0; k];
    for col in (0..k).rev() {
        let mut v = r[col];
        for j in col + 1..k {
            v -= m[col][j] * y[j];
        }
        y[col] = v / m[col][col];
    }
    Some(y)
}

fn fit_comm_from_rows(rows: &[CommObs], prior: [f64; 3]) -> [f64; 3] {
    if rows.is_empty() {
        return prior;
    }
    let mut x = prior;
    // The measured phase time is the *argmax-node* cost under the true
    // parameters; which node that is depends on the parameters, so
    // select with the current estimate and iterate — with exact data
    // this settles after one or two rounds.
    for _ in 0..4 {
        let mut ata = [[0.0f64; 3]; 3];
        let mut atb = [0.0f64; 3];
        for row in rows {
            let a = row
                .candidates
                .iter()
                .max_by(|u, v| dot(u, &x).total_cmp(&dot(v, &x)))
                .expect("rows are non-empty by construction");
            for i in 0..3 {
                for j in 0..3 {
                    ata[i][j] += a[i] * a[j];
                }
                atb[i] += a[i] * row.seconds;
            }
        }
        // Active columns: parameters the observed loads actually excite.
        let act: Vec<usize> = (0..3).filter(|&j| ata[j][j] > 0.0).collect();
        if act.is_empty() {
            return prior;
        }
        // Column-scaled system (unit diagonal) with a relative ridge
        // toward the prior, so collinear directions cannot run away.
        let s: Vec<f64> = act.iter().map(|&j| ata[j][j].sqrt()).collect();
        let k = act.len();
        let mut m = vec![vec![0.0; k]; k];
        let mut r = vec![0.0; k];
        for ii in 0..k {
            for jj in 0..k {
                m[ii][jj] = ata[act[ii]][act[jj]] / (s[ii] * s[jj]);
            }
            m[ii][ii] += RIDGE;
            r[ii] = atb[act[ii]] / s[ii] + RIDGE * prior[act[ii]] * s[ii];
        }
        let Some(y) = solve_dense(m, r) else {
            return x;
        };
        let mut next = prior;
        for ii in 0..k {
            next[act[ii]] = (y[ii] / s[ii]).max(0.0);
        }
        if next == x {
            break;
        }
        x = next;
    }
    x
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

/// The outcome of [`validate_profile`]: rows per node count, pooled
/// per-label residual statistics, and the recalibrated parameter table.
#[derive(Debug, Clone)]
pub struct Validation {
    pub dataset: String,
    pub machine: MachineProfile,
    pub hours: usize,
    pub rows: Vec<ValidationRow>,
    pub residuals: Vec<(&'static str, ResidualSummary)>,
    pub recalibrated: MachineProfile,
    pub drift: f64,
    pub pricing_mare: f64,
}

/// Run the Figures 5–7 experiment on a captured profile: for each node
/// count, execute every hour's plan graph on a traced machine, pair
/// every span with its prediction through one shared [`Oracle`], and
/// collect the predicted-vs-measured rows.
pub fn validate_profile(
    profile: &WorkProfile,
    machine: MachineProfile,
    nodes: &[usize],
) -> Validation {
    let model = PerfModel::from_profile(profile);
    let oracle = Oracle::new(machine);
    let mut rows = Vec::with_capacity(nodes.len());
    for &p in nodes {
        let plans = HourPlans::shared(&profile.shape, p, PlanLayouts::default());
        let mut m = Machine::new(machine, p);
        m.trace.enable();
        let mut mark = 0usize;
        for (h, hp) in profile.hours.iter().enumerate() {
            let graph = PhaseGraph::for_hour(hp, &plans, p);
            graph.execute(&mut m);
            let events = m.trace.events();
            oracle.observe_hour(&graph, &events[mark..], h as u32);
            mark = events.len();
        }
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
        residuals: oracle.model_residuals(),
        recalibrated: oracle.recalibrated(),
        drift: oracle.drift(),
        pricing_mare: oracle.pricing_mare(),
    }
}

impl Validation {
    /// Mean absolute relative error per phase/edge label.
    pub fn phase_mare(&self) -> Vec<(&'static str, f64)> {
        self.residuals
            .iter()
            .map(|&(l, s)| (l, s.mean_abs_rel))
            .collect()
    }

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
        let _ = writeln!(
            out,
            "\nmachine parameters — nominal vs recalibrated from spans \
             (drift {:.2e}, pricing residual {:.2e})",
            self.drift, self.pricing_mare
        );
        let _ = writeln!(
            out,
            "{:<10} {:>14} {:>14} {:>10}",
            "param", "nominal", "fitted", "rel diff"
        );
        let n = &self.machine;
        let r = &self.recalibrated;
        for (param, nominal, fitted) in [
            ("rate", n.rate, r.rate),
            ("L", n.latency, r.latency),
            ("G", n.byte_cost, r.byte_cost),
            ("H", n.copy_cost, r.copy_cost),
        ] {
            let _ = writeln!(
                out,
                "{:<10} {:>14.6e} {:>14.6e} {:>10.2e}",
                param,
                nominal,
                fitted,
                (fitted - nominal).abs() / nominal.abs().max(REL_FLOOR)
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
        out.push_str("  ],\n");
        let n = &self.machine;
        let r = &self.recalibrated;
        let _ = writeln!(
            out,
            "  \"nominal\": {{\"rate\": {}, \"latency\": {}, \"byte_cost\": {}, \
             \"copy_cost\": {}}},",
            n.rate, n.latency, n.byte_cost, n.copy_cost
        );
        let _ = writeln!(
            out,
            "  \"recalibrated\": {{\"rate\": {}, \"latency\": {}, \"byte_cost\": {}, \
             \"copy_cost\": {}}},",
            r.rate, r.latency, r.byte_cost, r.copy_cost
        );
        let _ = writeln!(out, "  \"drift\": {},", self.drift);
        let _ = writeln!(out, "  \"pricing_mare\": {}", self.pricing_mare);
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{SpanSink, Track};
    use crate::testsupport::tiny_profile;
    use std::sync::Arc;

    /// Execute every hour of the tiny profile at each node count on
    /// `planted`, feeding the spans to an oracle whose *nominal* is
    /// `nominal` — the synthetic span stream of the recalibration tests.
    fn observe_planted(nominal: MachineProfile, planted: MachineProfile, ps: &[usize]) -> Oracle {
        let profile = tiny_profile();
        let oracle = Oracle::new(nominal);
        for &p in ps {
            let plans = HourPlans::new(&profile.shape, p);
            let mut m = Machine::new(planted, p);
            m.trace.enable();
            let mut mark = 0usize;
            for (h, hp) in profile.hours.iter().enumerate() {
                let graph = PhaseGraph::for_hour(hp, &plans, p);
                graph.execute(&mut m);
                let events = m.trace.events();
                let hr = oracle.observe_hour(&graph, &events[mark..], h as u32);
                assert!(!hr.residuals.is_empty());
                mark = events.len();
            }
        }
        assert_eq!(oracle.mismatched_hours(), 0);
        oracle
    }

    #[test]
    fn self_observation_prices_exactly_and_recovers_nominal() {
        // Residuals of a self-predicted run are ~0: the nominal machine
        // generated the spans, so its own charge formula reproduces
        // every duration and the fit lands back on the §4.3 table.
        let t3e = MachineProfile::t3e();
        let oracle = observe_planted(t3e, t3e, &[4, 16, 64]);
        for (label, s) in oracle.pricing_residuals() {
            assert!(
                s.mean_abs_rel < 1e-9,
                "{label}: pricing residual {} should be ~0",
                s.mean_abs_rel
            );
        }
        assert!(oracle.pricing_mare() < 1e-9);
        let fit = oracle.fit_comm();
        assert!((fit.latency - t3e.latency).abs() / t3e.latency < 1e-6);
        assert!((fit.byte_cost - t3e.byte_cost).abs() / t3e.byte_cost < 1e-6);
        assert!((fit.copy_cost - t3e.copy_cost).abs() / t3e.copy_cost < 1e-6);
        assert!((oracle.fitted_rate() - t3e.rate).abs() / t3e.rate < 1e-9);
        assert!(oracle.drift() < 1e-6, "drift {}", oracle.drift());
    }

    #[test]
    fn planted_parameters_are_recovered_within_5_percent() {
        // Property sweep over machine × perturbation combos: spans
        // generated from planted L/G/H (and rate) must be recovered by
        // the fit even when the oracle's prior is a different machine.
        let nominals = [MachineProfile::t3e(), MachineProfile::t3d()];
        let planted_bases = [
            MachineProfile::t3e(),
            MachineProfile::t3d(),
            MachineProfile::paragon(),
        ];
        let perturbations: [[f64; 4]; 3] = [
            [1.0, 1.0, 1.0, 1.0],
            [0.8, 1.7, 0.6, 1.4],
            [1.3, 0.5, 2.0, 0.7],
        ];
        for nominal in nominals {
            for base in planted_bases {
                for [fr, fl, fg, fh] in perturbations {
                    let planted = MachineProfile {
                        rate: base.rate * fr,
                        latency: base.latency * fl,
                        byte_cost: base.byte_cost * fg,
                        copy_cost: base.copy_cost * fh,
                        ..base
                    };
                    let oracle = observe_planted(nominal, planted, &[4, 16, 64]);
                    let fit = oracle.fit_comm();
                    let ctx = format!(
                        "nominal {} planted {}×[{fr},{fl},{fg},{fh}]",
                        nominal.name, base.name
                    );
                    let within = |fitted: f64, truth: f64, what: &str| {
                        let rel = (fitted - truth).abs() / truth;
                        assert!(rel < 0.05, "{ctx}: {what} {fitted} vs {truth} (rel {rel})");
                    };
                    within(fit.latency, planted.latency, "L");
                    within(fit.byte_cost, planted.byte_cost, "G");
                    within(fit.copy_cost, planted.copy_cost, "H");
                    within(oracle.fitted_rate(), planted.rate, "rate");
                    // Drift flags the divergence whenever one was planted.
                    if [fr, fl, fg, fh].iter().any(|&f| f != 1.0) || base.name != nominal.name {
                        assert!(oracle.drift() > 0.05, "{ctx}: drift {}", oracle.drift());
                    }
                }
            }
        }
    }

    #[test]
    fn model_residuals_match_figure_6_7_error_structure() {
        // The §4 closed form's error is the Figure 6/7 story: exact on
        // the replicated phases, imbalance-bounded elsewhere.
        let t3e = MachineProfile::t3e();
        let oracle = observe_planted(t3e, t3e, &[4, 16, 64]);
        let stats: std::collections::BTreeMap<_, _> =
            oracle.model_residuals().into_iter().collect();
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
    fn hour_reports_feed_the_counter_track() {
        let sink = Arc::new(SpanSink::new());
        let obs = Obs::new(sink.clone());
        let t3e = MachineProfile::t3e();
        let profile = tiny_profile();
        let oracle = Oracle::new(t3e);
        let plans = HourPlans::new(&profile.shape, 4);
        let mut m = Machine::new(t3e, 4);
        m.trace.enable();
        let graph = PhaseGraph::for_hour(&profile.hours[0], &plans, 4);
        graph.execute(&mut m);
        let hr = oracle.observe_hour(&graph, m.trace.events(), 5);
        hr.record_counters(&obs, 5);
        oracle.publish_to(&obs);
        obs.flush();
        let counters: Vec<_> = sink
            .events()
            .into_iter()
            .filter(|e| matches!(e.track, Track::Counter(_)))
            .collect();
        assert!(!counters.is_empty());
        assert!(counters.iter().all(|e| e.hour == Some(5)));
        let prom = sink.prometheus();
        assert!(prom.contains("airshed_oracle_drift"));
        assert!(prom.contains("airshed_oracle_residual_bucket{kind=\"model\",le=\"+Inf\"}"));
    }

    #[test]
    fn mismatched_event_count_is_skipped_not_mispaired() {
        let t3e = MachineProfile::t3e();
        let profile = tiny_profile();
        let oracle = Oracle::new(t3e);
        let plans = HourPlans::new(&profile.shape, 4);
        let graph = PhaseGraph::for_hour(&profile.hours[0], &plans, 4);
        let hr = oracle.observe_hour(&graph, &[], 0);
        assert!(hr.residuals.is_empty());
        assert_eq!(oracle.mismatched_hours(), 1);
        assert_eq!(oracle.hours_observed(), 0);
    }

    #[test]
    fn validation_sweep_builds_tables() {
        let profile = tiny_profile();
        let v = validate_profile(profile, MachineProfile::t3e(), &[4, 16]);
        assert_eq!(v.rows.len(), 2);
        assert!(v.rows[0].measured_total > v.rows[1].measured_total);
        assert!(!v.residuals.is_empty());
        assert!(v.pricing_mare < 1e-9);
        assert!(v.drift < 1e-6);
        let text = v.text();
        assert!(text.contains("predicted vs measured"));
        assert!(text.contains("mean |rel|"));
        assert!(text.contains("recalibrated"));
        let json = v.to_json();
        assert!(json.contains("\"rows\""));
        assert!(json.contains("\"recalibrated\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let mare = v.phase_mare();
        assert_eq!(mare.len(), v.residuals.len());
    }

    #[test]
    fn solver_handles_singular_and_regular_systems() {
        // Regular 2×2.
        let y = solve_dense(vec![vec![2.0, 0.0], vec![0.0, 4.0]], vec![2.0, 8.0]).unwrap();
        assert!((y[0] - 1.0).abs() < 1e-12 && (y[1] - 2.0).abs() < 1e-12);
        // Singular.
        assert!(solve_dense(vec![vec![1.0, 1.0], vec![1.0, 1.0]], vec![1.0, 2.0]).is_none());
    }
}
