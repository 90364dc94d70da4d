//! The execution-plan IR — one declarative description of an hour's work
//! that every backend lowers from.
//!
//! The paper's central economy is that *one* description of an hour —
//! phase work shares plus the redistribution message sets — explains the
//! simulated run (Figure 4), the pipelined run (Figure 9) and the
//! analytic prediction (Figures 6/7) alike. Before this module that
//! description lived implicitly in four hand-kept-in-sync code paths
//! (`driver::charge_hour`, `taskpar::replay_taskparallel`,
//! `predict::PerfModel::from_profile`, and the server's replay). The
//! [`PhaseGraph`] makes it explicit:
//!
//! * **Nodes** ([`PhaseNode`]) are compute phases, each identified by its
//!   IR [`PhaseKind`] and carrying its work as either replicated
//!   (sequential) or distributed-per-item with an [`ItemLayout`], plus a
//!   pipeline [`Stage`] annotation; or references to comm edges.
//! * **Edges** are the planned redistributions themselves: each
//!   [`RedistPlan`] carries the per-node `(m, b, c)` loads.
//!
//! Four lowerings consume the graph:
//!
//! 1. [`PhaseGraph::execute`] charges it to a [`Machine`], each node
//!    at its [`step_seconds`] through `Prices`, the machine's one price
//!    list (admission and the router price with the calibrated
//!    [`PerfModel`](crate::predict::PerfModel)). This *is* `driver::charge_hour` (every bit of it pinned by
//!    the goldens under `tests/golden/plan/`). [`PhaseGraph::execute_with`]
//!    also hands each node its virtual `(start, end)` as it is charged:
//!    the trace rows, the oracle's residuals and the `timeline` Gantt
//!    chart are all read from there;
//! 2. [`PhaseGraph::stage_durations`] folds the stage annotations into
//!    the three pipeline stage durations `taskpar` schedules — for §5's
//!    Figure 9 and, with PopExp as a fourth stage, §6's Figures 12/13.
//!    I/O stages charge [`Work::subgroup_seconds`] on their subgroup and
//!    a handoff is the machine's `comm_cost` of one message;
//! 3. `predict::PerfModel::from_profile` folds node work totals and edge
//!    occurrence counts into the §4 closed-form model inputs;
//! 4. a replay ([`replay_profile_with`], the server's and the
//!    optimizer's) folds a profile over `P` nodes once, a [`Placement`]
//!    in the graph's program order, and charges it to any machine
//!    through the same `Prices`. A server looks in its result cache,
//!    then its profile store, then its placement memo.

use crate::driver::{copy_bytes_for_hour, HourPlans, PlanLayouts};
use crate::predict::step_seconds;
use crate::profile::{HourProfile, WorkProfile};
use crate::report::{CopyBytes, RunReport};
use airshed_hpf::redist::RedistPlan;
use airshed_machine::{Machine, MachineProfile, NodeCommLoad, PhaseCategory, PhaseKind};
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

/// The work a compute node carries. A graph borrows its per-item work
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

/// What a graph node does: compute, or a redistribution over one of the
/// graph's comm edges.
#[derive(Debug, Clone)]
pub enum Op<'a> {
    Compute {
        kind: PhaseKind,
        work: Work<'a>,
    },
    /// Index into [`PhaseGraph::edges`].
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

/// The execution plan for one simulated hour on `p` nodes: a linear
/// graph of compute phases and redistribution edges, annotated with
/// pipeline stages. Built once per hour from the captured profile and
/// the pre-planned redistributions, which it borrows rather than copies;
/// every backend lowers from it.
#[derive(Debug, Clone)]
pub struct PhaseGraph<'a> {
    /// Array shape `[species, layers, nodes]`.
    pub shape: [usize; 3],
    /// Node count the comm edges were planned for.
    pub p: usize,
    /// The four distinct redistribution edges (deduplicated; nodes refer
    /// to them by index). Order: `D_Repl->D_Trans`, `D_Trans->D_Chem`,
    /// `D_Chem->D_Repl`, `D_Trans->D_Repl`.
    pub edges: [&'a RedistPlan; 4],
    /// Phase nodes in program order.
    pub nodes: Vec<PhaseNode<'a>>,
    /// Bytes handed from the input stage to the compute stage (decoded
    /// inputs + assembled operators, ~3× the raw hourly input).
    pub input_handoff_bytes: usize,
    /// Elements handed from the compute stage to the output stage (the
    /// full concentration array).
    pub output_handoff_elems: usize,
}

impl<'a> PhaseGraph<'a> {
    /// Index of the `D_Repl->D_Trans` edge in [`PhaseGraph::edges`].
    pub const EDGE_REPL_TO_TRANS: usize = 0;
    /// Index of the `D_Trans->D_Chem` edge in [`PhaseGraph::edges`].
    pub const EDGE_TRANS_TO_CHEM: usize = 1;
    /// Index of the `D_Chem->D_Repl` edge in [`PhaseGraph::edges`].
    pub const EDGE_CHEM_TO_REPL: usize = 2;
    /// Index of the hour-boundary `D_Trans->D_Repl` edge in
    /// [`PhaseGraph::edges`].
    pub const EDGE_TRANS_TO_REPL: usize = 3;

    /// Build the plan graph for one captured hour: Figure 1's loop, in
    /// the program order `hour_nodes` writes.
    pub fn for_hour(hp: &'a HourProfile, plans: &'a HourPlans, p: usize) -> PhaseGraph<'a> {
        let edges = edges(plans);
        for e in edges {
            assert_eq!(e.loads.len(), p, "plans were built for a different P");
        }
        let mut nodes = Vec::with_capacity(4 + 7 * hp.steps.len());
        hour_nodes(hp, plans, |node| nodes.push(node));
        PhaseGraph {
            shape: plans.shape,
            p,
            edges,
            nodes,
            input_handoff_bytes: 3 * hp.input_bytes,
            output_handoff_elems: plans.shape.iter().product(),
        }
    }

    /// The label and phase category a node is charged under: its kind's,
    /// or its edge's as a `Communication` phase.
    pub fn label(&self, node: &PhaseNode) -> (&'static str, PhaseCategory) {
        label(&node.op, &self.edges)
    }

    /// Data-parallel lowering: charge every node of the graph to the
    /// machine in program order. Returns the elapsed virtual time.
    pub fn execute(&self, machine: &mut Machine) -> f64 {
        self.execute_with(machine, |_, _, _| {})
    }

    /// Every node in program order with its [`step_seconds`] on `mp`.
    pub(crate) fn priced<'g>(
        &'g self,
        mp: &MachineProfile,
    ) -> impl Iterator<Item = (&'g PhaseNode<'a>, f64)> + 'g {
        let prices = Prices::new(&self.edges, *mp);
        self.nodes
            .iter()
            .map(move |node| (node, prices.seconds(&node.op, |work| work.heaviest(self.p))))
    }

    /// [`execute`](PhaseGraph::execute), each node with [`step_seconds`]
    /// on the machine's own profile (each edge priced once) under its
    /// [`label`](PhaseGraph::label), handing it to `charged` with the
    /// virtual `(start, end)` the machine just charged it — the one
    /// source of a node's place on the virtual timeline.
    pub fn execute_with(
        &self,
        machine: &mut Machine,
        mut charged: impl FnMut(&PhaseNode<'a>, f64, f64),
    ) -> f64 {
        assert_eq!(machine.p(), self.p, "graph was planned for a different P");
        let start = machine.elapsed();
        let mp = machine.profile;
        for (node, seconds) in self.priced(&mp) {
            let (label, cat) = self.label(node);
            let at = machine.elapsed();
            machine.charge(label, cat, seconds);
            charged(node, at, machine.elapsed());
        }
        machine.elapsed() - start
    }

    /// Task-parallel lowering: the three §5 pipeline stage durations
    /// `[input, compute, output]` for this hour, with `p_in` input nodes,
    /// `self.p` compute nodes and `p_out` output nodes.
    ///
    /// The input stage charges its nodes on the input subgroup
    /// ([`Work::subgroup_seconds`]) then hands the decoded inputs
    /// ([`PhaseGraph::input_handoff_bytes`]) to the compute subgroup; the
    /// compute stage is the running sum of its nodes' [`step_seconds`],
    /// which is where a fresh machine charging them would stand; the
    /// output stage receives the concentration array
    /// ([`PhaseGraph::output_handoff_elems`]) and charges its nodes. A
    /// handoff is one message of its bytes, priced by the machine.
    pub fn stage_durations(&self, mp: MachineProfile, p_in: usize, p_out: usize) -> [f64; 3] {
        let on_subgroup = |stage: Stage, p_stage: usize| {
            self.nodes
                .iter()
                .filter(move |n| n.stage == stage)
                .map(move |n| match &n.op {
                    Op::Compute { work, .. } => work.subgroup_seconds(&mp, p_stage),
                    Op::Comm { .. } => step_seconds(self, n, &mp),
                })
        };
        let handoff = |bytes| {
            mp.comm_cost(&NodeCommLoad {
                msgs_sent: 1,
                bytes_sent: bytes,
                ..Default::default()
            })
        };
        let input = on_subgroup(Stage::Input, p_in).fold(0.0, |t, s| t + s)
            + handoff(self.input_handoff_bytes);
        let compute = self
            .priced(&mp)
            .filter(|(n, _)| n.stage == Stage::Main)
            .fold(0.0, |t, (_, s)| t + s);
        let output = on_subgroup(Stage::Output, p_out)
            .fold(handoff(self.output_handoff_elems * mp.word_size), |t, s| {
                t + s
            });
        [input, compute, output]
    }
}

/// [`PhaseGraph::label`] of `op` over a plan set's four `edges`.
fn label(op: &Op, edges: &[&RedistPlan; 4]) -> (&'static str, PhaseCategory) {
    match op {
        Op::Compute { kind, .. } => (kind.label(), kind.category()),
        Op::Comm { edge } => (edges[*edge].label, PhaseCategory::Communication),
    }
}

/// One machine's prices for the nodes over one plan set — the machine's
/// only charge, which a graph's execution, [`step_seconds`] and a
/// [`Placement`]'s replay all price through: a compute node's charged
/// units at the rate, a comm node's edge priced once.
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

/// A plan set's four edges in [`PhaseGraph::edges`] order.
fn edges(plans: &HourPlans) -> [&RedistPlan; 4] {
    [
        &plans.main.repl_to_trans,
        &plans.main.trans_to_chem,
        &plans.main.chem_to_repl,
        &plans.trans_to_repl,
    ]
}

/// Hand `visit` one hour's nodes in program order, mirroring Figure 1's
/// loop: `inputhour`, `pretrans`, then per step Transport →
/// `D_Trans->D_Chem` → Chemistry → `D_Chem->D_Repl` → Aerosol →
/// `D_Repl->D_Trans` → Transport, with the entry `D_Repl->D_Trans`
/// before the first step and the hour-boundary `D_Trans->D_Repl` before
/// `outputhour`. The one place that order is written: a graph collects
/// it and a [`Placement`] folds and replays it.
fn hour_nodes<'a>(hp: &'a HourProfile, plans: &HourPlans, mut visit: impl FnMut(PhaseNode<'a>)) {
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
            visit(comm(PhaseGraph::EDGE_REPL_TO_TRANS));
        }
        let transport1 = distributed(&step.transport1, trans_layout);
        visit(compute(Stage::Main, PhaseKind::Transport, transport1));
        visit(comm(PhaseGraph::EDGE_TRANS_TO_CHEM));
        let chemistry = distributed(&step.chemistry, chem_layout);
        visit(compute(Stage::Main, PhaseKind::Chemistry, chemistry));
        visit(comm(PhaseGraph::EDGE_CHEM_TO_REPL));
        // Aerosol: sequential over the replicated array; grouped with
        // chemistry in the paper's phase accounting (via its kind).
        let aerosol = replicated(step.aerosol, 1);
        visit(compute(Stage::Main, PhaseKind::Aerosol, aerosol));
        visit(comm(PhaseGraph::EDGE_REPL_TO_TRANS));
        let transport2 = distributed(&step.transport2, trans_layout);
        visit(compute(Stage::Main, PhaseKind::Transport, transport2));
    }
    // Hour boundary: back to replicated for outputhour/inputhour.
    visit(comm(PhaseGraph::EDGE_TRANS_TO_REPL));
    let output = replicated(hp.output_work, 1);
    visit(compute(Stage::Output, PhaseKind::OutputHour, output));
}

/// The machine-independent half of a replay, a pure function of
/// `(profile, P, layouts)`: the heaviest-node units of every distributed
/// compute node in program order and the copy traffic. A replay on any
/// machine is then one walk of the node order charging those units
/// through `Prices`. [`replay_profile_with`] is
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

    /// Charge `profile`'s hours to `machine` in program order, each node
    /// at exactly its [`step_seconds`], each edge priced once; returns
    /// their copy traffic. `profile` must be the one this placement was
    /// folded from (or one with the same numerics).
    pub fn charge(&self, profile: &WorkProfile, machine: &mut Machine) -> CopyBytes {
        assert_eq!(machine.p(), self.p, "placement is for a different P");
        assert_eq!(profile.shape, self.shape, "placement is for another shape");
        let plans = HourPlans::shared(&self.shape, self.p, self.layouts);
        let edges = edges(&plans);
        let prices = Prices::new(&edges, machine.profile);
        let mut units = self.units.iter();
        let mut charged = |work: &Work<'_>| match work {
            Work::Distributed { .. } => *units.next().expect("placement is for another profile"),
            Work::Replicated { .. } => work.heaviest(self.p),
        };
        for hp in &profile.hours {
            hour_nodes(hp, &plans, |node| {
                let (label, category) = label(&node.op, &edges);
                machine.charge(label, category, prices.seconds(&node.op, &mut charged));
            });
        }
        assert!(units.next().is_none(), "placement is for another profile");
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

    /// The first tiny hour's graph; its plan set lives as long as the
    /// test binary.
    fn graph_for(p: usize) -> PhaseGraph<'static> {
        let prof = tiny_profile();
        let plans = Box::leak(Box::new(HourPlans::new(&prof.shape, p)));
        PhaseGraph::for_hour(&prof.hours[0], plans, p)
    }

    #[test]
    fn graph_structure_mirrors_figure1() {
        let prof = tiny_profile();
        let g = graph_for(4);
        let steps = prof.hours[0].steps.len();
        // 2 input nodes + entry comm + 7 per step + exit comm + 1 output.
        assert_eq!(g.nodes.len(), 5 + 7 * steps);
        assert_eq!(g.edges.len(), 4);
        let count = |s: Stage| g.nodes.iter().filter(|n| n.stage == s).count();
        assert_eq!(count(Stage::Input), 2);
        assert_eq!(count(Stage::Output), 1);
        assert_eq!(count(Stage::Main), 2 + 7 * steps);
        // Per-step comm pattern: 3 comm references per step + entry + exit.
        let comms = g
            .nodes
            .iter()
            .filter(|n| matches!(n.op, Op::Comm { .. }))
            .count();
        assert_eq!(comms, 2 + 3 * steps);
    }

    #[test]
    fn edges_conserve_bytes() {
        for p in [2usize, 4, 16, 64] {
            let g = graph_for(p);
            for e in &g.edges {
                assert!(e.conserves_bytes(), "{} at p={p}", e.label);
            }
        }
    }

    #[test]
    fn execute_matches_driver_charge_hour() {
        let prof = tiny_profile();
        for p in [2usize, 4, 16] {
            let plans = HourPlans::new(&prof.shape, p);
            let mut direct = Machine::new(MachineProfile::t3e(), p);
            for hp in &prof.hours {
                crate::driver::charge_hour(&mut direct, hp, &plans);
            }
            let mut via_graph = Machine::new(MachineProfile::t3e(), p);
            for hp in &prof.hours {
                PhaseGraph::for_hour(hp, &plans, p).execute(&mut via_graph);
            }
            assert_eq!(direct.elapsed(), via_graph.elapsed(), "p={p}");
        }
    }

    /// The one-fold property: on every paper machine, a fresh machine
    /// that executes the hours' graphs stands at exactly the running sum
    /// of `step_seconds` over their nodes.
    fn assert_one_fold(profile: &WorkProfile) {
        for mp in MachineProfile::paper_machines() {
            for p in [1usize, 3, 16, 128] {
                let plans = HourPlans::new(&profile.shape, p);
                let mut machine = Machine::new(mp, p);
                let mut sum = 0.0f64;
                for hp in &profile.hours {
                    let graph = PhaseGraph::for_hour(hp, &plans, p);
                    graph.execute(&mut machine);
                    for node in &graph.nodes {
                        sum += step_seconds(&graph, node, &mp);
                    }
                    assert_eq!(
                        machine.elapsed().to_bits(),
                        sum.to_bits(),
                        "{} p={p}",
                        mp.name
                    );
                }
            }
        }
    }

    #[test]
    fn execute_is_the_running_sum_of_step_seconds() {
        assert_one_fold(tiny_profile());
    }

    #[test]
    #[ignore = "runs two hours of the LA numerics"]
    fn execute_is_the_running_sum_of_step_seconds_on_la() {
        let config = crate::SimConfig {
            hours: 2,
            ..crate::SimConfig::la_t3e(4)
        };
        let (_, profile) = crate::driver::run_with_profile_on(&config, Default::default());
        assert_one_fold(&profile);
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

    #[test]
    fn stage_totals_cover_all_work() {
        let g = graph_for(4);
        let all: f64 = g
            .nodes
            .iter()
            .filter_map(|n| match &n.op {
                Op::Compute { work, .. } => Some(work.total()),
                Op::Comm { .. } => None,
            })
            .sum();
        assert!(all > 0.0);
        // The compute stage is exactly what a machine charging only the
        // graph's Main nodes stands at.
        let mut main_only = g.clone();
        main_only.nodes.retain(|n| n.stage == Stage::Main);
        let mut m = Machine::new(MachineProfile::t3e(), 4);
        main_only.execute(&mut m);
        let [_, compute, _] = g.stage_durations(MachineProfile::t3e(), 1, 1);
        assert_eq!(compute.to_bits(), m.elapsed().to_bits());
    }

    #[test]
    fn stage_durations_put_io_in_io_stages() {
        let prof = tiny_profile();
        let plans = HourPlans::new(&prof.shape, 6);
        let g = PhaseGraph::for_hour(&prof.hours[0], &plans, 6);
        let [input, compute, output] = g.stage_durations(MachineProfile::t3e(), 1, 1);
        assert!(input > 0.0 && compute > 0.0 && output > 0.0);
        // A larger input subgroup parallelises pretrans (5 layers).
        let [input5, _, _] = g.stage_durations(MachineProfile::t3e(), 5, 1);
        assert!(input5 < input);
        // Output is sequential: extra output nodes change nothing.
        let [_, _, output4] = g.stage_durations(MachineProfile::t3e(), 1, 4);
        assert_eq!(output, output4);
    }
}
