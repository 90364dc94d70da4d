//! Property-based tests for the virtual machine: the scalar clock
//! against a per-node reference, cost-model monotonicity and phase
//! accounting consistency.

use airshed_machine::accounting::PhaseCategory;
use airshed_machine::cost::NodeCommLoad;
use airshed_machine::{Machine, MachineProfile};
use proptest::prelude::*;

fn load_strategy() -> impl Strategy<Value = NodeCommLoad> {
    (
        0usize..100,
        0usize..100,
        0usize..1_000_000,
        0usize..1_000_000,
        0usize..1_000_000,
    )
        .prop_map(|(ms, mr, bs, br, bc)| NodeCommLoad {
            msgs_sent: ms,
            msgs_recv: mr,
            bytes_sent: bs,
            bytes_recv: br,
            bytes_copied: bc,
        })
}

/// The phase kinds `scalar_clock_is_the_per_node_machine` draws from:
/// a sequential phase, two data-parallel ones and a redistribution.
const CATS: [PhaseCategory; 4] = [
    PhaseCategory::IoProc,
    PhaseCategory::Transport,
    PhaseCategory::Chemistry,
    PhaseCategory::Communication,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The scalar clock is the per-node machine: advance every node by
    /// its own seconds, barrier to the maximum. Charging each phase's
    /// slowest node once, `elapsed`, the breakdown and every phase's
    /// `(start, end)` — `elapsed` read before and after its charge —
    /// agree bit for bit — which they stop doing the
    /// moment a phase charges a sum or a mean of its nodes instead of
    /// the slowest one.
    #[test]
    fn scalar_clock_is_the_per_node_machine(
        p in 1usize..12,
        phases in prop::collection::vec(
            (
                0usize..4,
                prop::collection::vec(0.0f64..1e12, 12),
                prop::collection::vec(load_strategy(), 12),
            ),
            1..24,
        ),
    ) {
        let profile = MachineProfile::t3d();
        let mut m = Machine::new(profile, p);
        let mut charged = Vec::new();
        let mut clocks = vec![0.0f64; p];
        let mut spans = Vec::new();
        let mut seconds = [0.0f64; 4];
        for (kind, work, loads) in &phases {
            let cat = CATS[*kind];
            // Each node's own seconds: replicated work, a redistribution
            // load, or its share of a data-parallel phase.
            let per_node: Vec<f64> = match kind {
                0 => vec![profile.compute_seconds(work[0]); p],
                3 => loads[..p].iter().map(|l| profile.comm_cost(l)).collect(),
                _ => work[..p].iter().map(|&w| profile.compute_seconds(w)).collect(),
            };
            let slowest = per_node.iter().cloned().fold(0.0f64, f64::max);
            let before = m.elapsed();
            m.charge("phase", cat, slowest);
            charged.push((before.to_bits(), m.elapsed().to_bits()));
            let start = clocks[0];
            for (t, dt) in clocks.iter_mut().zip(per_node) {
                *t += dt;
            }
            let end = clocks.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            clocks.fill(end);
            seconds[*kind] += end - start;
            spans.push((start.to_bits(), end.to_bits()));
        }
        prop_assert_eq!(m.elapsed().to_bits(), clocks[0].to_bits());
        for (cat, secs) in CATS.into_iter().zip(seconds) {
            prop_assert_eq!(m.breakdown.get(cat).to_bits(), secs.to_bits());
        }
        let logged: f64 = m.comm_log.records().iter().map(|r| r.total_seconds).sum();
        prop_assert_eq!(logged, seconds[3]);
        prop_assert_eq!(charged, spans);
    }

    /// The communication cost is monotone: adding load never makes a
    /// phase cheaper, on any machine.
    #[test]
    fn comm_cost_is_monotone(base in load_strategy(), extra in load_strategy()) {
        for m in MachineProfile::paper_machines() {
            let c0 = m.comm_cost(&base);
            let mut bigger = base;
            bigger.absorb(extra);
            prop_assert!(m.comm_cost(&bigger) >= c0 - 1e-15);
        }
    }

    /// Faster machines are... faster: the T3E never loses to the Paragon
    /// on the same communication load or compute work.
    #[test]
    fn machine_ordering_is_respected(load in load_strategy(), work in 0.0f64..1e12) {
        let t3e = MachineProfile::t3e();
        let paragon = MachineProfile::paragon();
        prop_assert!(t3e.comm_cost(&load) <= paragon.comm_cost(&load) + 1e-15);
        prop_assert!(t3e.compute_seconds(work) <= paragon.compute_seconds(work) + 1e-15);
    }

    /// Phase accounting: the breakdown total equals the elapsed time for
    /// any sequence of whole-machine phases.
    #[test]
    fn accounting_adds_up(
        p in 1usize..12,
        phases in prop::collection::vec((0usize..3, prop::collection::vec(0.0f64..1e9, 12)), 1..20),
    ) {
        let mut m = Machine::new(MachineProfile::t3d(), p);
        for (kind, work) in phases {
            let cat = [PhaseCategory::IoProc, PhaseCategory::Transport, PhaseCategory::Chemistry][kind];
            let heaviest = work[..p].iter().cloned().fold(0.0f64, f64::max);
            m.charge("phase", cat, m.profile.compute_seconds(heaviest));
        }
        let total: f64 = PhaseCategory::ALL.iter().map(|&c| m.breakdown.get(c)).sum();
        prop_assert!((total - m.elapsed()).abs() < 1e-9 * m.elapsed().max(1.0));
    }

    /// Splitting the same total work over more nodes never slows a
    /// compute phase down (with balanced shares).
    #[test]
    fn balanced_scaling_is_monotone(total in 1.0f64..1e12, p1 in 1usize..64, p2 in 1usize..64) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let run = |p: usize| {
            let mut m = Machine::new(MachineProfile::t3e(), p);
            let seconds = m.profile.compute_seconds(total / p as f64);
            m.charge("chemistry", PhaseCategory::Chemistry, seconds);
            m.elapsed()
        };
        prop_assert!(run(hi) <= run(lo) + 1e-12);
    }
}
