//! Foreign-module coupling — the paper's §6 and Figure 11.
//!
//! A foreign module is an independently-parallelised executable (here: a
//! PVM program hosted by [`crate::pvm`]) that appears to the native Fx
//! program as a task on a node subgroup. Data moves from native variables
//! to the module through one of three coupling scenarios of increasing
//! implementation complexity and decreasing cost:
//!
//! * **A — interface node**: native representative → module interface
//!   node → internal broadcast (the paper's prototype, and ours);
//! * **B — direct to nodes**: native representative sends each module
//!   node its portion directly;
//! * **C — variable to variable**: every native node ships its local
//!   portion straight to the right module nodes.
//!
//! `coupling_loads` produces the per-node communication loads of each
//! scenario so the virtual machine can price them; the ablation benchmark
//! compares the three.

use airshed_machine::cost::NodeCommLoad;

/// The three coupling data paths of Figure 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CouplingScenario {
    /// Scenario A: through the representative and an interface node.
    InterfaceNode,
    /// Scenario B: representative sends directly to all module nodes.
    DirectToNodes,
    /// Scenario C: native variables to module variables, all-to-all.
    VarToVar,
}

/// Communication loads for moving `bytes` of coupled data from the native
/// program (represented by `rep_node`, which holds the data — in Airshed
/// the array is replicated at the coupling point) into the foreign module
/// running on `foreign` (first entry = interface node). `native_p` is the
/// size of the native group, used by scenario C.
///
/// Returns `(node, load)` pairs to apply in one communication phase.
pub fn coupling_loads(
    scenario: CouplingScenario,
    rep_node: usize,
    native: &[usize],
    foreign: &[usize],
    bytes: usize,
) -> Vec<(usize, NodeCommLoad)> {
    assert!(!foreign.is_empty());
    let pf = foreign.len();
    let sent = |msgs, bytes| NodeCommLoad {
        msgs_sent: msgs,
        bytes_sent: bytes,
        ..Default::default()
    };
    let recv = |msgs, bytes| NodeCommLoad {
        msgs_recv: msgs,
        bytes_recv: bytes,
        ..Default::default()
    };
    let mut out = Vec::new();
    match scenario {
        CouplingScenario::InterfaceNode => {
            // rep -> interface (full payload), interface -> others (full
            // payload each: the prototype broadcasts the whole array).
            let mut interface = recv(1, bytes);
            interface.absorb(sent(pf - 1, bytes * (pf - 1)));
            out.push((rep_node, sent(1, bytes)));
            out.push((foreign[0], interface));
            out.extend(foreign[1..].iter().map(|&n| (n, recv(1, bytes))));
        }
        CouplingScenario::DirectToNodes => {
            // rep -> each module node, its block only.
            out.push((rep_node, sent(pf, bytes)));
            out.extend(foreign.iter().map(|&n| (n, recv(1, bytes.div_ceil(pf)))));
        }
        CouplingScenario::VarToVar => {
            // Every native node sends its slice of each module node's
            // block: pn × pf messages, total volume `bytes`.
            let pn = native.len().max(1);
            out.extend(native.iter().map(|&n| (n, sent(pf, bytes.div_ceil(pn)))));
            out.extend(foreign.iter().map(|&n| (n, recv(pn, bytes.div_ceil(pf)))));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use airshed_machine::MachineProfile;

    const BYTES: usize = 35 * 700 * 8; // one surface-layer species set

    fn native() -> Vec<usize> {
        (0..12).collect()
    }

    fn foreign() -> Vec<usize> {
        (12..16).collect()
    }

    fn phase_cost(loads: &[(usize, NodeCommLoad)]) -> f64 {
        let m = MachineProfile::paragon();
        loads
            .iter()
            .map(|(_, l)| m.comm_cost(l))
            .fold(0.0, f64::max)
    }

    #[test]
    fn scenario_a_routes_through_interface() {
        let loads = coupling_loads(
            CouplingScenario::InterfaceNode,
            0,
            &native(),
            &foreign(),
            BYTES,
        );
        let interface = loads.iter().find(|(n, _)| *n == 12).unwrap();
        assert_eq!(interface.1.msgs_recv, 1);
        assert_eq!(interface.1.msgs_sent, 3);
        assert_eq!(interface.1.bytes_sent, 3 * BYTES);
        // Every module node ends up with the payload.
        for &n in &foreign()[1..] {
            let l = loads.iter().find(|(m, _)| *m == n).unwrap();
            assert_eq!(l.1.bytes_recv, BYTES);
        }
    }

    #[test]
    fn scenario_costs_are_ordered() {
        // A (double-handled broadcast) costs more than B (direct blocks),
        // which costs more than C (spread over native senders).
        let a = phase_cost(&coupling_loads(
            CouplingScenario::InterfaceNode,
            0,
            &native(),
            &foreign(),
            BYTES,
        ));
        let b = phase_cost(&coupling_loads(
            CouplingScenario::DirectToNodes,
            0,
            &native(),
            &foreign(),
            BYTES,
        ));
        let c = phase_cost(&coupling_loads(
            CouplingScenario::VarToVar,
            0,
            &native(),
            &foreign(),
            BYTES,
        ));
        assert!(a > b, "A {a} !> B {b}");
        assert!(b > c, "B {b} !> C {c}");
    }

    #[test]
    fn conservation_in_b_and_c() {
        for scenario in [CouplingScenario::DirectToNodes, CouplingScenario::VarToVar] {
            let loads = coupling_loads(scenario, 0, &native(), &foreign(), BYTES);
            let sent: usize = loads.iter().map(|(_, l)| l.bytes_sent).sum();
            let recv: usize = loads.iter().map(|(_, l)| l.bytes_recv).sum();
            // Ceil-division shares may pad either side slightly.
            assert!(recv.abs_diff(sent) <= 64, "{scenario:?}: {sent} vs {recv}");
        }
    }

    #[test]
    fn single_node_module_degenerates() {
        let loads = coupling_loads(CouplingScenario::InterfaceNode, 3, &native(), &[9], 1000);
        let interface = loads.iter().find(|(n, _)| *n == 9).unwrap();
        assert_eq!(interface.1.msgs_sent, 0);
        assert_eq!(interface.1.bytes_recv, 1000);
    }
}
