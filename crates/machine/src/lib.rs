//! # airshed-machine — the virtual distributed-memory machine
//!
//! The paper measures Airshed on an Intel Paragon, a Cray T3D and a Cray
//! T3E. We do not have those machines, so the reproduction executes the
//! *numerics* on the host while charging *virtual time* to a simulated
//! machine whose behaviour is the model the paper itself validated (§4):
//!
//! * a **computation** phase costs `work / rate` on each node, and the
//!   phase completes when the slowest node does;
//! * a **communication** phase costs `Ct = L·m + G·b + H·c` per node —
//!   latency per message, per-byte processing at the endpoints, and
//!   per-byte local copying — again settled by the most loaded node.
//!
//! Every phase ends in a barrier over all nodes, so the nodes' clocks
//! are equal at every phase boundary and the machine keeps one: a phase
//! advances it by its most loaded node's seconds. (Rounded `+` and
//! `/ rate` are monotone, so the maximum commutes with both and this is
//! the per-node machine, bit for bit — `tests/proptest_machine.rs` keeps
//! the per-node reference.) [`Machine::charge`] is the machine's only
//! way to spend time: callers price a phase with the [`cost`] and
//! [`profiles`] primitives (the plan layer does it for every phase) and
//! charge its slowest node's seconds. Task-parallel subgroups are
//! separate machines of subgroup size scheduled by `airshed-hpf`'s
//! pipeline.
//!
//! The T3E parameter set is the one the paper reports
//! (`L = 5.2e-5 s/msg`, `G = 2.47e-8 s/B`, `H = 2.04e-8 s/B`, 8-byte
//! words); Paragon and T3D compute rates follow the paper's observed
//! ratios (T3D ≈ 2× Paragon, T3E ≈ 10× Paragon).
//!
//! Modules: [`profiles`] (machine parameter sets), [`cost`] (the
//! communication cost model), [`accounting`] (per-phase time
//! attribution), [`sim`] (the [`Machine`] façade the runtime drives).
//! The machine keeps totals, not a timeline: where each phase sits in
//! virtual time is reported by the plan layer's one charge loop as it
//! charges (`airshed_core::plan::charge_hours`).

pub mod accounting;
pub mod cost;
pub mod profiles;
pub mod sim;

pub use accounting::{PhaseBreakdown, PhaseCategory, PhaseKind};
pub use cost::NodeCommLoad;
pub use profiles::{MachineKey, MachineProfile};
pub use sim::Machine;
