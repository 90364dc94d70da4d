//! The execution-plan IR — one declarative description of an hour's work
//! that every backend derives its view from.
//!
//! The paper's central economy is that *one* description of an hour —
//! phase work shares plus the redistribution message sets — explains the
//! simulated run (Figure 4), the pipelined run (Figure 9) and the
//! analytic prediction (Figures 6/7) alike. Here that description is
//! written once, as `hour_nodes`'s program order:
//!
//! * **Nodes** ([`PhaseNode`]) are compute phases, each identified by its
//!   IR [`PhaseKind`] and carrying its work as either replicated
//!   (sequential) or distributed-per-item with an [`ItemLayout`], plus a
//!   pipeline [`Stage`] annotation; or references to comm edges.
//! * **Edges** are the planned redistributions themselves (a
//!   [`HourPlans`] set): each [`RedistPlan`] carries the per-node
//!   `(m, b, c)` loads.
//!
//! Three folds read that order:
//!
//! 1. [`charge_hours`], the one loop that charges a [`Machine`]: each
//!    node priced through `Prices`, the machine's one price list, under
//!    its label, with an optional observer that hears each node's
//!    virtual `(start, end)`. A live hour (`driver::Episode`,
//!    `driver::charge_hour`), the oracle's residuals and the `timeline`
//!    Gantt charge each distributed node at its heaviest node; a replay
//!    ([`Placement::charge`] — [`replay_profile_with`], the server's and
//!    the optimizer's) charges the units a [`Placement`] folded once per
//!    `(profile, P, layouts)`. A server looks in its result cache, then
//!    its profile store, then its placement memo. Every bit of the
//!    charge is pinned by the goldens under `tests/golden/plan/`;
//! 2. `taskpar::hourly_stage_durations` folds the stage annotations into
//!    the three pipeline stage durations `taskpar` schedules — for §5's
//!    Figure 9 and, with PopExp as a fourth stage, §6's Figures 12/13;
//! 3. `predict::PerfModel::from_profile` folds node work totals and edge
//!    occurrence counts into the §4 closed-form model inputs.

use crate::driver::{copy_bytes_for_hour, HourPlans, PlanLayouts};
use crate::profile::{HourProfile, WorkProfile};
use crate::report::{CopyBytes, RunReport};
use airshed_hpf::redist::RedistPlan;
use airshed_machine::{Machine, MachineProfile, PhaseCategory, PhaseKind};
use std::borrow::Cow;

pub mod optimize;

pub use optimize::{optimize_plan, PlanChoice};

/// Pipeline stage a phase node belongs to (§5's three-stage split). The
/// data-parallel lowering ignores the annotation; the task-parallel
/// lowering assigns each stage to its node subgroup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// `inputhour` + `pretrans` — runs ahead on the input subgroup.
    Input,
    /// The main step loop, including every redistribution.
    Main,
    /// `outputhour` — runs behind on the output subgroup.
    Output,
}

/// How a distributed phase lays its items out over nodes: the HPF
/// layout of its parallel axis, [`airshed_hpf::dist::Layout`] — one
/// type and one ownership rule for the plan, the planner and the host
/// pool. The plan optimizer picks one per distributed phase.
pub use airshed_hpf::dist::Layout as ItemLayout;

/// The work a compute node carries. A node borrows its per-item work
/// from the captured profile; a module that prices its own work (PopExp)
/// owns it.
#[derive(Debug, Clone)]
pub enum Work<'a> {
    /// Replicated (sequential) work: every node performs `work` units, so
    /// the phase cost is P-independent. `parallelism` is the useful
    /// parallelism a subgroup lowering may divide the work by (1 for the
    /// truly sequential I/O phases; `pretrans` parallelises across
    /// layers within the input subgroup).
    Replicated { work: f64, parallelism: usize },
    /// Work distributed along the phase's parallel axis: item `i` costs
    /// `per_item[i]` units and `layout` maps items to nodes.
    Distributed {
        per_item: Cow<'a, [f64]>,
        layout: ItemLayout,
    },
}

impl Work<'_> {
    /// Total (sequential-equivalent) work units.
    pub fn total(&self) -> f64 {
        match self {
            Work::Replicated { work, .. } => *work,
            Work::Distributed { per_item, .. } => per_item.iter().sum(),
        }
    }

    /// The units the machine charges for this work on `p` nodes:
    /// replicated work in full, distributed work its heaviest node
    /// under the layout ([`ItemLayout::heaviest`]).
    pub(crate) fn heaviest(&self, p: usize) -> f64 {
        match self {
            Work::Replicated { work, .. } => *work,
            Work::Distributed { per_item, layout } => layout.heaviest(per_item, p),
        }
    }

    /// What the machine charges for this work on `p` nodes, and how
    /// unbalanced the charge is: `(charged_units, imbalance)`.
    ///
    /// Replicated work charges in full on every node (imbalance 1).
    /// Distributed work charges its heaviest node under the layout;
    /// imbalance is heaviest/mean, ≥ 1, and exactly the factor by which
    /// the §4.1 even-division model underestimates the phase. The mean
    /// is the node-order `Iterator::sum` of the one walk.
    pub fn charged(&self, p: usize) -> (f64, f64) {
        match self {
            Work::Replicated { work, .. } => (*work, 1.0),
            Work::Distributed { per_item, layout } => {
                let mut max = 0.0f64;
                let sum: f64 = layout
                    .node_sums(per_item, p)
                    .inspect(|&w| max = max.max(w))
                    .sum();
                let mean = sum / p.max(1) as f64;
                let imbalance = if mean > 0.0 { max / mean } else { 1.0 };
                (max, imbalance)
            }
        }
    }

    /// Seconds this work takes on a subgroup of `p_stage` nodes — a
    /// pipeline stage off the main machine (§5's input and output
    /// subgroups, §6's PopExp module). Replicated work divides by its
    /// useful parallelism, capped by the subgroup size; distributed work
    /// charges its heaviest node under its layout.
    pub fn subgroup_seconds(&self, mp: &MachineProfile, p_stage: usize) -> f64 {
        match self {
            Work::Replicated { work, parallelism } => {
                let par = (*parallelism).min(p_stage) as f64;
                work / (mp.rate * par)
            }
            Work::Distributed { .. } => self.heaviest(p_stage) / mp.rate,
        }
    }
}

/// What a plan node does: compute, or a redistribution over one of the
/// plan set's four comm edges.
#[derive(Debug, Clone)]
pub enum Op<'a> {
    Compute {
        kind: PhaseKind,
        work: Work<'a>,
    },
    /// Index into the plan set's four edges: `D_Repl->D_Trans`,
    /// `D_Trans->D_Chem`, `D_Chem->D_Repl`, `D_Trans->D_Repl`.
    Comm {
        edge: usize,
    },
}

/// One node of the execution plan.
#[derive(Debug, Clone)]
pub struct PhaseNode<'a> {
    pub stage: Stage,
    pub op: Op<'a>,
}

// The four edges' indexes, in the order `edges` lists them.
pub(crate) const EDGE_REPL_TO_TRANS: usize = 0;
pub(crate) const EDGE_TRANS_TO_CHEM: usize = 1;
pub(crate) const EDGE_CHEM_TO_REPL: usize = 2;
pub(crate) const EDGE_TRANS_TO_REPL: usize = 3;

/// One hour's charge on `p` nodes, kept only because the benchmark
/// times building and executing it (`core.plan.lower_us`,
/// `machine.execute_hour_us`); ROADMAP item 2 deletes it with those
/// call sites. Everything else charges through [`charge_hours`].
#[derive(Debug, Clone)]
pub struct PhaseGraph<'a> {
    hour: &'a HourProfile,
    plans: &'a HourPlans,
    /// The plan set's four redistribution edges, in the order
    /// [`Op::Comm`] indexes.
    pub edges: [&'a RedistPlan; 4],
}

impl<'a> PhaseGraph<'a> {
    /// The charge of one captured hour on the `p` nodes `plans` were
    /// built for.
    pub fn for_hour(hp: &'a HourProfile, plans: &'a HourPlans, p: usize) -> PhaseGraph<'a> {
        let edges = edges(plans);
        for e in edges {
            assert_eq!(e.loads.len(), p, "plans were built for a different P");
        }
        PhaseGraph {
            hour: hp,
            plans,
            edges,
        }
    }

    /// [`charge_hours`] of the hour, each distributed node at its
    /// heaviest node. Returns the elapsed virtual time.
    pub fn execute(&self, machine: &mut Machine) -> f64 {
        let hour = std::slice::from_ref(self.hour);
        charge_hours(machine, hour, self.plans, None, |_, _, _, _| {})
    }
}

/// The label and phase category a node is charged under: its kind's,
/// or its edge's as a `Communication` phase.
fn label(op: &Op, edges: &[&RedistPlan; 4]) -> (&'static str, PhaseCategory) {
    match op {
        Op::Compute { kind, .. } => (kind.label(), kind.category()),
        Op::Comm { edge } => (edges[*edge].label, PhaseCategory::Communication),
    }
}

/// One machine's prices for the nodes over one plan set — the machine's
/// only charge, which [`charge_hours`] and the §5 stage fold price
/// through: a compute node's charged units at the rate, a comm node's
/// edge priced once.
pub(crate) struct Prices {
    edge_seconds: [f64; 4],
    machine: MachineProfile,
}

impl Prices {
    /// Price a plan set's four `edges` on `machine`.
    pub(crate) fn new(edges: &[&RedistPlan; 4], machine: MachineProfile) -> Prices {
        Prices {
            edge_seconds: edges.map(|e| machine.comm_phase_seconds(&e.loads)),
            machine,
        }
    }

    /// The seconds `op` costs: a compute node at the units its work
    /// charges, `units(work)`; a comm node at its edge's price.
    pub(crate) fn seconds(&self, op: &Op, units: impl FnOnce(&Work) -> f64) -> f64 {
        match op {
            Op::Compute { work, .. } => self.machine.compute_seconds(units(work)),
            Op::Comm { edge } => self.edge_seconds[*edge],
        }
    }
}

/// A plan set's four edges, in the order [`Op::Comm`] indexes.
pub(crate) fn edges(plans: &HourPlans) -> [&RedistPlan; 4] {
    [
        &plans.main.repl_to_trans,
        &plans.main.trans_to_chem,
        &plans.main.chem_to_repl,
        &plans.trans_to_repl,
    ]
}

/// The one loop that charges a machine: every node of `hours` in
/// program order (`hour_nodes` over `plans`), priced through `Prices`
/// (each edge once per call) and charged under its label. A distributed
/// node charges the next of the `cached` units (a [`Placement`]'s) or,
/// without them, its heaviest node on `machine.p()`
/// ([`ItemLayout::heaviest`]). `observe` hears every node with its
/// label and the virtual `(start, end)` the machine just charged it —
/// the one source of a node's place on the virtual timeline; a no-op
/// observer compiles away. Returns the elapsed virtual time.
pub fn charge_hours<'h>(
    machine: &mut Machine,
    hours: &'h [HourProfile],
    plans: &HourPlans,
    cached: Option<&[f64]>,
    mut observe: impl FnMut(&PhaseNode<'h>, &'static str, f64, f64),
) -> f64 {
    let p = machine.p();
    let edges = edges(plans);
    for e in edges {
        assert_eq!(e.loads.len(), p, "plans were built for a different P");
    }
    let prices = Prices::new(&edges, machine.profile);
    let mut cached = cached.map(<[f64]>::iter);
    let mut units = |work: &Work| match (work, cached.as_mut()) {
        (Work::Distributed { .. }, Some(units)) => {
            *units.next().expect("placement is for another profile")
        }
        _ => work.heaviest(p),
    };
    let start = machine.elapsed();
    for hp in hours {
        hour_nodes(hp, plans, |node| {
            let (label, category) = label(&node.op, &edges);
            let at = machine.elapsed();
            machine.charge(label, category, prices.seconds(&node.op, &mut units));
            observe(&node, label, at, machine.elapsed());
        });
    }
    assert!(
        cached.is_none_or(|mut rest| rest.next().is_none()),
        "placement is for another profile"
    );
    machine.elapsed() - start
}

/// Hand `visit` one hour's nodes in program order, mirroring Figure 1's
/// loop: `inputhour`, `pretrans`, then per step Transport →
/// `D_Trans->D_Chem` → Chemistry → `D_Chem->D_Repl` → Aerosol →
/// `D_Repl->D_Trans` → Transport, with the entry `D_Repl->D_Trans`
/// before the first step and the hour-boundary `D_Trans->D_Repl` before
/// `outputhour`. The one place that order is written: [`charge_hours`]
/// charges it, a [`Placement`] folds it, and the §5 stages and the §4
/// model inputs are folds of it.
pub(crate) fn hour_nodes<'a>(
    hp: &'a HourProfile,
    plans: &HourPlans,
    mut visit: impl FnMut(PhaseNode<'a>),
) {
    let layers = plans.shape[1];
    let PlanLayouts {
        transport: trans_layout,
        chemistry: chem_layout,
    } = plans.layouts;
    let compute = |stage, kind, work| PhaseNode {
        stage,
        op: Op::Compute { kind, work },
    };
    let comm = |edge| PhaseNode {
        stage: Stage::Main,
        op: Op::Comm { edge },
    };
    let distributed = |per_item: &'a Vec<f64>, layout| Work::Distributed {
        per_item: Cow::Borrowed(per_item),
        layout,
    };
    let replicated = |work, parallelism| Work::Replicated { work, parallelism };

    visit(compute(
        Stage::Input,
        PhaseKind::InputHour,
        replicated(hp.input_work, 1),
    ));
    let pretrans = replicated(hp.pretrans_work, layers.max(1));
    visit(compute(Stage::Input, PhaseKind::PreTrans, pretrans));
    for (k, step) in hp.steps.iter().enumerate() {
        if k == 0 {
            // Entering the first step from the replicated (I/O) state.
            visit(comm(EDGE_REPL_TO_TRANS));
        }
        let transport1 = distributed(&step.transport1, trans_layout);
        visit(compute(Stage::Main, PhaseKind::Transport, transport1));
        visit(comm(EDGE_TRANS_TO_CHEM));
        let chemistry = distributed(&step.chemistry, chem_layout);
        visit(compute(Stage::Main, PhaseKind::Chemistry, chemistry));
        visit(comm(EDGE_CHEM_TO_REPL));
        // Aerosol: sequential over the replicated array; grouped with
        // chemistry in the paper's phase accounting (via its kind).
        let aerosol = replicated(step.aerosol, 1);
        visit(compute(Stage::Main, PhaseKind::Aerosol, aerosol));
        visit(comm(EDGE_REPL_TO_TRANS));
        let transport2 = distributed(&step.transport2, trans_layout);
        visit(compute(Stage::Main, PhaseKind::Transport, transport2));
    }
    // Hour boundary: back to replicated for outputhour/inputhour.
    visit(comm(EDGE_TRANS_TO_REPL));
    let output = replicated(hp.output_work, 1);
    visit(compute(Stage::Output, PhaseKind::OutputHour, output));
}

/// The machine-independent half of a replay, a pure function of
/// `(profile, P, layouts)`: the heaviest-node units of every distributed
/// compute node in program order and the copy traffic. A replay on any
/// machine is then [`charge_hours`] charging those units.
/// [`replay_profile_with`] is
/// `Placement::of(..).replay(..)`.
///
/// It keeps no `O(P)` plan set, which a memo of placements would pin
/// past the plan memo's bounds: its fold and each charge take the set
/// from [`HourPlans::shared`].
#[derive(Debug)]
pub struct Placement {
    p: usize,
    shape: [usize; 3],
    layouts: PlanLayouts,
    /// [`Work::heaviest`] of each distributed node, hour after hour.
    units: Box<[f64]>,
    copy_bytes: CopyBytes,
}

impl Placement {
    /// Fold `profile`'s distributed work over `p` nodes under `layouts`.
    pub fn of(profile: &WorkProfile, p: usize, layouts: PlanLayouts) -> Placement {
        let plans = HourPlans::shared(&profile.shape, p, layouts);
        // Two transport halves and one chemistry step are distributed.
        let distributed = profile.hours.iter().map(|hp| 3 * hp.steps.len()).sum();
        let mut units = Vec::with_capacity(distributed);
        let mut copy_bytes = CopyBytes::default();
        for hp in &profile.hours {
            hour_nodes(hp, &plans, |node| match &node.op {
                Op::Compute { work, .. } if matches!(work, Work::Distributed { .. }) => {
                    units.push(work.heaviest(p))
                }
                _ => {}
            });
            let steps = hp.steps.len();
            copy_bytes.add(&copy_bytes_for_hour(&plans, steps, hp.surface.len()));
        }
        Placement {
            p,
            shape: profile.shape,
            layouts,
            units: units.into_boxed_slice(),
            copy_bytes,
        }
    }

    /// Charge `profile`'s hours to `machine`: [`charge_hours`] with this
    /// placement's units; returns their copy traffic. `profile` must be
    /// the one this placement was folded from (or one with the same
    /// numerics).
    pub fn charge(&self, profile: &WorkProfile, machine: &mut Machine) -> CopyBytes {
        assert_eq!(profile.shape, self.shape, "placement is for another shape");
        let plans = HourPlans::shared(&self.shape, self.p, self.layouts);
        charge_hours(
            machine,
            &profile.hours,
            &plans,
            Some(&self.units),
            |_, _, _, _| {},
        );
        self.copy_bytes
    }

    /// The report of `profile` replayed on a fresh `machine_profile`
    /// machine: [`Placement::charge`] and the profile's science summaries.
    pub fn replay(&self, profile: &WorkProfile, machine_profile: MachineProfile) -> RunReport {
        let mut machine = Machine::new(machine_profile, self.p);
        let copy_bytes = self.charge(profile, &mut machine);
        let mut report = RunReport::from_machine(
            profile.dataset,
            &machine,
            profile.hours.len(),
            profile.summaries.clone(),
        );
        report.copy_bytes = Some(copy_bytes);
        report
    }
}

/// Replay a captured profile through the plan layer on a fresh machine.
/// This is the single replay implementation behind the figure binaries
/// and the server's pricing/execution path.
pub fn replay_profile(
    profile: &WorkProfile,
    machine_profile: MachineProfile,
    p: usize,
    layout: ItemLayout,
) -> RunReport {
    replay_profile_with(profile, machine_profile, p, PlanLayouts::chem(layout))
}

/// [`replay_profile`] with an explicit per-phase layout choice — the
/// execution path for optimizer-chosen plans. Science summaries carry
/// over from the profile untouched, so an optimized plan is
/// bit-identical to the default plan in everything but virtual time.
pub fn replay_profile_with(
    profile: &WorkProfile,
    machine_profile: MachineProfile,
    p: usize,
    layouts: PlanLayouts,
) -> RunReport {
    Placement::of(profile, p, layouts).replay(profile, machine_profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::tiny_profile;
    use airshed_machine::MachineProfile;

    #[test]
    fn hour_nodes_mirror_figure1() {
        let prof = tiny_profile();
        let plans = HourPlans::new(&prof.shape, 4);
        let mut nodes = Vec::new();
        hour_nodes(&prof.hours[0], &plans, |node| nodes.push(node));
        let steps = prof.hours[0].steps.len();
        // 2 input nodes + entry comm + 7 per step + exit comm + 1 output.
        assert_eq!(nodes.len(), 5 + 7 * steps);
        let count = |s: Stage| nodes.iter().filter(|n| n.stage == s).count();
        assert_eq!(count(Stage::Input), 2);
        assert_eq!(count(Stage::Output), 1);
        assert_eq!(count(Stage::Main), 2 + 7 * steps);
        // Per-step comm pattern: 3 comm references per step + entry + exit.
        let comms = nodes
            .iter()
            .filter(|n| matches!(n.op, Op::Comm { .. }))
            .count();
        assert_eq!(comms, 2 + 3 * steps);
    }

    #[test]
    fn edges_conserve_bytes() {
        let prof = tiny_profile();
        for p in [2usize, 4, 16, 64] {
            let plans = HourPlans::new(&prof.shape, p);
            for e in edges(&plans) {
                assert!(e.conserves_bytes(), "{} at p={p}", e.label);
            }
        }
    }

    /// The one-walk property: on every paper machine, a live charge
    /// (each distributed node at its heaviest node) and a placement's
    /// charge of the same profile stand at the same bits in every
    /// category, and the observed spans tile the timeline — each node
    /// starts where the one before it ended.
    fn assert_one_walk(profile: &WorkProfile) {
        for mp in MachineProfile::paper_machines() {
            for p in [1usize, 3, 16, 128] {
                let plans = HourPlans::new(&profile.shape, p);
                let mut live = Machine::new(mp, p);
                let mut at = 0.0f64;
                let elapsed =
                    charge_hours(&mut live, &profile.hours, &plans, None, |_, _, s, e| {
                        assert_eq!(s.to_bits(), at.to_bits(), "{} p={p}", mp.name);
                        at = e;
                    });
                assert_eq!(elapsed.to_bits(), live.elapsed().to_bits());
                assert_eq!(at.to_bits(), live.elapsed().to_bits());
                let mut replayed = Machine::new(mp, p);
                Placement::of(profile, p, PlanLayouts::default()).charge(profile, &mut replayed);
                let bits = |m: &Machine| {
                    let mut bits = vec![m.elapsed().to_bits()];
                    bits.extend(PhaseCategory::ALL.map(|c| m.breakdown.get(c).to_bits()));
                    bits
                };
                assert_eq!(bits(&replayed), bits(&live), "{} p={p}", mp.name);
            }
        }
    }

    #[test]
    fn a_live_charge_and_a_replay_are_one_walk() {
        assert_one_walk(tiny_profile());
    }

    #[test]
    #[ignore = "runs two hours of the LA numerics"]
    fn a_live_charge_and_a_replay_are_one_walk_on_la() {
        let config = crate::SimConfig {
            hours: 2,
            ..crate::SimConfig::la_t3e(4)
        };
        let (_, profile) = crate::driver::run_with_profile_on(&config, Default::default());
        assert_one_walk(&profile);
    }

    #[test]
    #[should_panic(expected = "placement is for another profile")]
    fn a_placement_refuses_a_longer_profile() {
        let prof = tiny_profile();
        let one_hour = WorkProfile {
            hours: prof.hours[..1].to_vec(),
            ..prof.clone()
        };
        let placement = Placement::of(&one_hour, 4, PlanLayouts::default());
        placement.charge(prof, &mut Machine::new(MachineProfile::t3e(), 4));
    }

    #[test]
    fn charged_work_is_the_heaviest_node() {
        let w = Work::Distributed {
            per_item: vec![3.0, 1.0, 4.0, 1.0, 5.0].into(),
            layout: ItemLayout::Block,
        };
        // BLOCK over 2 nodes: [3+1+4, 1+5] = [8, 6]; mean 7.
        let (charged, imbalance) = w.charged(2);
        assert_eq!(charged, 8.0);
        assert!((imbalance - 8.0 / 7.0).abs() < 1e-12);
        let r = Work::Replicated {
            work: 9.0,
            parallelism: 1,
        };
        assert_eq!(r.charged(16), (9.0, 1.0));
    }
}
