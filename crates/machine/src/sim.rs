//! The [`Machine`] façade: a virtual parallel computer that the HPF-style
//! runtime drives. Computation and communication phases advance per-node
//! virtual clocks and attribute their cost to phase categories.

use crate::accounting::{CommLog, PhaseBreakdown, PhaseCategory, PhaseKind};
use crate::clock::NodeClocks;
use crate::cost::NodeCommLoad;
use crate::profiles::MachineProfile;
use crate::trace::Trace;

/// One pre-lowered step of an execution plan — the instruction set the
/// machine exposes to plan lowerings (`airshed-core`'s `plan` module
/// compiles a `PhaseGraph` down to a sequence of these).
///
/// Compute steps are identified by their IR [`PhaseKind`], from which
/// both the accounting category and the trace label derive; comm steps
/// carry the per-node loads of a planned redistribution edge.
#[derive(Debug, Clone)]
pub enum PlanStep<'a> {
    /// Distributed computation: node `i` performs `per_node[i]` units.
    Compute { kind: PhaseKind, per_node: Vec<f64> },
    /// Replicated (sequential) computation: every node does `work` units.
    Sequential { kind: PhaseKind, work: f64 },
    /// A redistribution with per-node `(m, b, c)` loads.
    Comm {
        label: &'static str,
        loads: &'a [NodeCommLoad],
    },
}

/// A virtual distributed-memory machine with `p` nodes.
#[derive(Debug, Clone)]
pub struct Machine {
    pub profile: MachineProfile,
    pub clocks: NodeClocks,
    pub breakdown: PhaseBreakdown,
    pub comm_log: CommLog,
    /// Optional phase trace (see [`Trace::enable`]).
    pub trace: Trace,
}

impl Machine {
    pub fn new(profile: MachineProfile, p: usize) -> Machine {
        Machine {
            profile,
            clocks: NodeClocks::new(p),
            breakdown: PhaseBreakdown::new(),
            comm_log: CommLog::new(),
            trace: Trace::default(),
        }
    }

    /// Number of nodes.
    pub fn p(&self) -> usize {
        self.clocks.p()
    }

    /// Run a data-parallel computation phase: node `i` performs
    /// `per_node_work[i]` units, then all nodes barrier. Returns the phase
    /// wall time (slowest node).
    pub fn compute(&mut self, cat: PhaseCategory, per_node_work: &[f64]) -> f64 {
        assert_eq!(per_node_work.len(), self.p());
        let group: Vec<usize> = (0..self.p()).collect();
        self.compute_group(cat, &group, per_node_work)
    }

    /// Computation phase restricted to a node subgroup; only subgroup
    /// clocks advance and barrier. `per_node_work[i]` applies to
    /// `group[i]`.
    pub fn compute_group(
        &mut self,
        cat: PhaseCategory,
        group: &[usize],
        per_node_work: &[f64],
    ) -> f64 {
        self.compute_labeled(cat.label(), cat, group, per_node_work)
    }

    /// Computation phase identified by its IR [`PhaseKind`]: the
    /// accounting category and the trace label both derive from the
    /// kind, so the Gantt timeline cannot drift from the Figure 4
    /// breakdown. This is the entry point the plan executor uses.
    pub fn compute_phase(&mut self, kind: PhaseKind, per_node_work: &[f64]) -> f64 {
        let group: Vec<usize> = (0..self.p()).collect();
        self.compute_labeled(kind.label(), kind.category(), &group, per_node_work)
    }

    /// Replicated computation identified by its IR [`PhaseKind`].
    pub fn sequential_phase(&mut self, kind: PhaseKind, work: f64) -> f64 {
        let per_node = vec![work; self.p()];
        self.compute_phase(kind, &per_node)
    }

    /// Execute one pre-lowered plan step.
    pub fn execute_step(&mut self, step: &PlanStep<'_>) -> f64 {
        match step {
            PlanStep::Compute { kind, per_node } => self.compute_phase(*kind, per_node),
            PlanStep::Sequential { kind, work } => self.sequential_phase(*kind, *work),
            PlanStep::Comm { label, loads } => self.communicate(label, loads),
        }
    }

    fn compute_labeled(
        &mut self,
        label: &'static str,
        cat: PhaseCategory,
        group: &[usize],
        per_node_work: &[f64],
    ) -> f64 {
        assert_eq!(per_node_work.len(), group.len());
        let start = self
            .clocks_group_max(group)
            .max(self.clocks_group_min(group));
        // All members must reach the phase start before working (phases
        // begin after the previous barrier, so clocks are already equal
        // within a group in normal operation).
        for (&n, &w) in group.iter().zip(per_node_work) {
            self.clocks.advance(n, self.profile.compute_seconds(w));
        }
        let end = self.clocks.barrier_group(group);
        let dt = end - start;
        self.breakdown.add(cat, dt);
        self.trace.record(label, cat, start, end);
        dt
    }

    /// Sequential (replicated) computation: every node in the group does
    /// the same `work`, so the phase costs `work/rate` regardless of the
    /// group size — the paper's constant I/O processing time.
    pub fn sequential_group(&mut self, cat: PhaseCategory, group: &[usize], work: f64) -> f64 {
        let per_node = vec![work; group.len()];
        self.compute_group(cat, group, &per_node)
    }

    /// Sequential computation over all nodes.
    pub fn sequential(&mut self, cat: PhaseCategory, work: f64) -> f64 {
        let group: Vec<usize> = (0..self.p()).collect();
        self.sequential_group(cat, &group, work)
    }

    /// Run a communication (redistribution) phase over all nodes, with a
    /// per-node load vector, attributing the cost to `Communication` and
    /// logging it under `label`. Returns the phase wall time.
    pub fn communicate(&mut self, label: &'static str, loads: &[NodeCommLoad]) -> f64 {
        let group: Vec<usize> = (0..self.p()).collect();
        self.communicate_group(label, &group, loads)
    }

    /// Communication phase within a node subgroup.
    pub fn communicate_group(
        &mut self,
        label: &'static str,
        group: &[usize],
        loads: &[NodeCommLoad],
    ) -> f64 {
        assert_eq!(loads.len(), group.len());
        let start = self.clocks_group_max(group);
        for (&n, load) in group.iter().zip(loads) {
            self.clocks.advance(n, self.profile.comm_cost(load));
        }
        let end = self.clocks.barrier_group(group);
        let dt = end - start;
        self.breakdown.add(PhaseCategory::Communication, dt);
        self.comm_log.record(label, dt);
        self.trace
            .record(label, PhaseCategory::Communication, start, end);
        dt
    }

    /// Elapsed virtual time (slowest node).
    pub fn elapsed(&self) -> f64 {
        self.clocks.max()
    }

    fn clocks_group_max(&self, group: &[usize]) -> f64 {
        group
            .iter()
            .map(|&n| self.clocks.time(n))
            .fold(f64::NEG_INFINITY, f64::max)
    }

    fn clocks_group_min(&self, group: &[usize]) -> f64 {
        group
            .iter()
            .map(|&n| self.clocks.time(n))
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine(p: usize) -> Machine {
        Machine::new(MachineProfile::t3e(), p)
    }

    #[test]
    fn compute_phase_costs_slowest_node() {
        let mut m = machine(4);
        let rate = m.profile.rate;
        let dt = m.compute(
            PhaseCategory::Chemistry,
            &[rate, 2.0 * rate, rate, 0.5 * rate],
        );
        assert!((dt - 2.0).abs() < 1e-12);
        assert!((m.elapsed() - 2.0).abs() < 1e-12);
        assert!((m.breakdown.get(PhaseCategory::Chemistry) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sequential_phase_is_p_independent() {
        let w = 1.0e8;
        let mut m4 = machine(4);
        let mut m64 = machine(64);
        let t4 = m4.sequential(PhaseCategory::IoProc, w);
        let t64 = m64.sequential(PhaseCategory::IoProc, w);
        assert!(
            (t4 - t64).abs() < 1e-12,
            "I/O time must not scale: {t4} vs {t64}"
        );
    }

    #[test]
    fn perfect_parallel_scaling() {
        let total = 8.0e9;
        let run = |p: usize| {
            let mut m = machine(p);
            let per = vec![total / p as f64; p];
            m.compute(PhaseCategory::Chemistry, &per)
        };
        let t4 = run(4);
        let t8 = run(8);
        assert!((t4 / t8 - 2.0).abs() < 1e-9, "{t4} vs {t8}");
    }

    #[test]
    fn communication_attributed_and_logged() {
        let mut m = machine(2);
        let loads = [
            NodeCommLoad {
                msgs_sent: 2,
                bytes_sent: 1000,
                ..Default::default()
            },
            NodeCommLoad {
                msgs_recv: 2,
                bytes_recv: 1000,
                ..Default::default()
            },
        ];
        let dt = m.communicate("D_Trans->D_Chem", &loads);
        assert!(dt > 0.0);
        assert_eq!(m.breakdown.get(PhaseCategory::Communication), dt);
        assert_eq!(m.comm_log.total_for("D_Trans->D_Chem"), dt);
    }

    #[test]
    fn subgroups_overlap_in_virtual_time() {
        // Two disjoint groups each compute 1 s: total elapsed is 1 s, not
        // 2 s — the foundation of the pipelined task parallelism.
        let mut m = machine(4);
        let rate = m.profile.rate;
        m.compute_group(PhaseCategory::IoProc, &[0, 1], &[rate, rate]);
        m.compute_group(PhaseCategory::Chemistry, &[2, 3], &[rate, rate]);
        assert!((m.elapsed() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn group_barrier_syncs_members_only() {
        let mut m = machine(3);
        let rate = m.profile.rate;
        m.compute_group(PhaseCategory::Transport, &[0, 1], &[2.0 * rate, rate]);
        assert_eq!(m.clocks.time(0), m.clocks.time(1));
        assert_eq!(m.clocks.time(2), 0.0);
    }
}
