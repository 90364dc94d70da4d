//! The [`Machine`] façade: a virtual parallel computer that the HPF-style
//! runtime drives. Every phase of the Airshed loop ends in a barrier over
//! all nodes, so the machine's virtual time is one number: a phase
//! advances it by the seconds of its most loaded node and attributes
//! them to a phase category.

use crate::accounting::{CommLog, PhaseBreakdown, PhaseCategory};
use crate::profiles::MachineProfile;

/// A virtual distributed-memory machine with `p` nodes.
#[derive(Debug, Clone)]
pub struct Machine {
    pub profile: MachineProfile,
    p: usize,
    /// Virtual seconds since construction — every node's clock, since
    /// all of them stand at the last phase's barrier.
    now: f64,
    pub breakdown: PhaseBreakdown,
    pub comm_log: CommLog,
}

impl Machine {
    pub fn new(profile: MachineProfile, p: usize) -> Machine {
        assert!(p > 0, "need at least one node");
        Machine {
            profile,
            p,
            now: 0.0,
            breakdown: PhaseBreakdown::new(),
            comm_log: CommLog::new(),
        }
    }

    /// Number of nodes.
    pub fn p(&self) -> usize {
        self.p
    }

    /// Elapsed virtual time.
    pub fn elapsed(&self) -> f64 {
        self.now
    }

    /// Charge one phase: `seconds` is what its most loaded node takes,
    /// after which all nodes barrier. This is the machine's only way to
    /// spend time: the caller prices the phase (the plan layer's one
    /// charge loop, `core::plan::charge_hours`, through its one price
    /// list, `core::plan::Prices`) and the clock advances here alone.
    /// The time goes to `cat` in the breakdown (and, for a
    /// `Communication` phase, to `label` in the comm log). Returns the
    /// phase wall time.
    pub fn charge(&mut self, label: &'static str, cat: PhaseCategory, seconds: f64) -> f64 {
        let start = self.now;
        self.now = start + seconds;
        let dt = self.now - start;
        self.breakdown.add(cat, dt);
        if cat == PhaseCategory::Communication {
            self.comm_log.record(label, dt);
        }
        dt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::NodeCommLoad;

    fn machine(p: usize) -> Machine {
        Machine::new(MachineProfile::t3e(), p)
    }

    /// Charge a data-parallel phase as the per-node machine would: node
    /// `i` does `per_node_work[i]` units, then all nodes barrier.
    fn compute(m: &mut Machine, cat: PhaseCategory, per_node_work: &[f64]) -> f64 {
        assert_eq!(per_node_work.len(), m.p());
        let heaviest = per_node_work.iter().fold(0.0f64, |a, &b| a.max(b));
        let seconds = m.profile.compute_seconds(heaviest);
        m.charge("compute", cat, seconds)
    }

    #[test]
    fn compute_phase_costs_slowest_node() {
        let mut m = machine(4);
        let rate = m.profile.rate;
        let dt = compute(
            &mut m,
            PhaseCategory::Chemistry,
            &[rate, 2.0 * rate, rate, 0.5 * rate],
        );
        assert!((dt - 2.0).abs() < 1e-12);
        assert!((m.elapsed() - 2.0).abs() < 1e-12);
        assert!((m.breakdown.get(PhaseCategory::Chemistry) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sequential_phase_is_p_independent() {
        // Every node does the same work: the phase costs `work/rate`
        // whatever the node count — the paper's constant I/O time.
        let w = 1.0e8;
        let mut m4 = machine(4);
        let mut m64 = machine(64);
        let t4 = compute(&mut m4, PhaseCategory::IoProc, &[w; 4]);
        let t64 = compute(&mut m64, PhaseCategory::IoProc, &[w; 64]);
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
            compute(&mut m, PhaseCategory::Chemistry, &per)
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
        let seconds = m.profile.comm_phase_seconds(&loads);
        let dt = m.charge("D_Trans->D_Chem", PhaseCategory::Communication, seconds);
        assert!(dt > 0.0);
        assert_eq!(m.breakdown.get(PhaseCategory::Communication), dt);
        let rows = m.comm_log.records();
        assert_eq!(rows.len(), 1);
        assert_eq!(
            (rows[0].label, rows[0].total_seconds),
            ("D_Trans->D_Chem", dt)
        );
    }
}
