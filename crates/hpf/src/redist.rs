//! Redistribution planning — the communication an HPF compiler generates
//! for a distribution change.
//!
//! Semantics: each element's *sender* is its unique owner under the source
//! distribution (if the source is replicated, every receiver already holds
//! the data and only pays a local copy to the new layout). Each receiver
//! needs its owned region under the destination distribution.
//!
//! Cost of planning. A node's region is the full extent of every
//! dimension but the distributed one, so when source and destination
//! distribute *different* dimensions (every redistribution of the Airshed
//! hour: layers ↔ columns ↔ replicated) the overlap of sender `s` and
//! receiver `r` is `len_s · len_r · (the other extents)` in
//! `pieces_s · pieces_r` fragments, and each node's load is a closed form
//! of its own `(len, pieces)` and the totals: planning is `O(P · ndims)`
//! arithmetic, builds no range list and is independent of the array size
//! for every layout, `CYCLIC` included. Only a change of layout *within*
//! one dimension (`BLOCK` → `CYCLIC` on the same axis — nothing Airshed
//! asks for) intersects range lists pairwise: `O(P_owning² · n/P)`, where
//! the lists of a `CYCLIC` layout grow with the extent `n`.
//!
//! The resulting per-node loads reproduce the paper's three §4.2
//! redistribution cost equations exactly (see the tests).

use crate::dist::{overlap, Distribution};
use airshed_machine::cost::NodeCommLoad;

/// Canonical labels of the Airshed redistribution edges. The driver, the
/// plan graph and the predictor all match on these, so they live in one
/// place.
pub mod labels {
    /// Replicated (I/O) state to the transport layer distribution.
    pub const REPL_TO_TRANS: &str = "D_Repl->D_Trans";
    /// Transport layer distribution to the chemistry column distribution.
    pub const TRANS_TO_CHEM: &str = "D_Trans->D_Chem";
    /// Chemistry column distribution back to the replicated state.
    pub const CHEM_TO_REPL: &str = "D_Chem->D_Repl";
    /// Transport distribution to replicated at the hour boundary.
    pub const TRANS_TO_REPL: &str = "D_Trans->D_Repl";
}

/// One pairwise transfer, for diagnostics and tests ([`transfers`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    pub from: usize,
    pub to: usize,
    pub elems: usize,
}

/// A planned redistribution: what each node sends, receives and copies.
/// The pairwise detail (a list that grows with P²) is not part of a
/// plan; [`transfers`] derives it on request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RedistPlan {
    /// Per-node communication loads (index = node id).
    pub loads: Vec<NodeCommLoad>,
    /// Human-readable label, e.g. `"D_Trans->D_Chem"`.
    pub label: &'static str,
}

impl RedistPlan {
    /// Total bytes crossing the network.
    pub fn total_bytes_sent(&self) -> usize {
        self.loads.iter().map(|l| l.bytes_sent).sum()
    }

    /// Total bytes received.
    pub fn total_bytes_recv(&self) -> usize {
        self.loads.iter().map(|l| l.bytes_recv).sum()
    }

    /// Total messages.
    pub fn total_messages(&self) -> usize {
        self.loads.iter().map(|l| l.msgs_sent).sum()
    }

    /// Total bytes copied node-locally (the `c` term of `Ct = L·m +
    /// G·b + H·c`) — the copies the zero-copy roadmap item wants
    /// eliminated, and what the copy-traffic counters account per
    /// execution of this plan.
    pub fn total_bytes_copied(&self) -> usize {
        self.loads.iter().map(|l| l.bytes_copied).sum()
    }

    /// Byte conservation: everything sent is received. Holds for every
    /// planner lowering (flat pairwise, pure-copy, relayed broadcast).
    pub fn conserves_bytes(&self) -> bool {
        self.total_bytes_sent() == self.total_bytes_recv()
    }
}

/// How [`plan`] lowers a distribution change.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Lowering {
    /// Same distribution: nothing moves.
    NoOp,
    /// Replicated source: every node already holds all data and re-lays
    /// its new owned region out locally (the paper's D_Repl -> D_Trans
    /// case, pure H cost).
    LocalCopy,
    /// Replication from few sources, relayed (see [`Lowering::of`]).
    Broadcast,
    /// Unique owners send each receiver what it lacks, pair by pair.
    Flat,
}

impl Lowering {
    fn of(shape: &[usize], src: &Distribution, dst: &Distribution, p: usize) -> Lowering {
        assert_eq!(src.ndims(), shape.len());
        assert_eq!(dst.ndims(), shape.len());
        if src == dst {
            return Lowering::NoOp;
        }
        if src.is_replicated() {
            return Lowering::LocalCopy;
        }
        // Replication from few sources: a flat pairwise plan would make
        // each source send P copies of its whole block — no compiler
        // generates that. Fx-style collective communication lowers it to
        // a relayed (segmented binomial) broadcast: every node receives
        // the array once and relays roughly what it received, paying
        // ~log2(P) message startups. Gathers with ~P sources (e.g.
        // D_Chem -> D_Repl) keep the flat plan, whose cost is the paper's
        // `2LP + G·volume` equation.
        if dst.is_replicated() {
            let owners = (0..p)
                .filter(|&n| src.owned_volume(shape, p, n) > 0)
                .count();
            if owners * 2 <= p {
                return Lowering::Broadcast;
            }
        }
        Lowering::Flat
    }
}

/// Plan the redistribution of a `shape`-sized array from `src` to `dst`
/// over `p` nodes with `word_size`-byte elements.
pub fn plan(
    shape: &[usize],
    src: &Distribution,
    dst: &Distribution,
    p: usize,
    word_size: usize,
) -> RedistPlan {
    let mut loads = vec![NodeCommLoad::default(); p];
    let label = match Lowering::of(shape, src, dst, p) {
        Lowering::NoOp => "no-op",
        Lowering::LocalCopy => {
            for (node, load) in loads.iter_mut().enumerate() {
                load.bytes_copied = dst.owned_volume(shape, p, node) * word_size;
            }
            "repl->dist"
        }
        Lowering::Broadcast => {
            let total_bytes: usize = shape.iter().product::<usize>() * word_size;
            let rounds = p.next_power_of_two().trailing_zeros().max(1) as usize;
            for (node, load) in loads.iter_mut().enumerate() {
                let own = src.owned_volume(shape, p, node) * word_size;
                let moved = total_bytes - own;
                load.bytes_recv = moved;
                load.bytes_sent = moved; // relay share
                load.msgs_sent = rounds;
                load.msgs_recv = rounds;
                load.bytes_copied = own;
            }
            "dist->repl (broadcast)"
        }
        Lowering::Flat => {
            plan_flat(shape, src, dst, word_size, &mut loads);
            "dist->dist"
        }
    };
    RedistPlan { loads, label }
}

/// The flat pairwise lowering of a distributed source: each receiver `r`
/// needs its `dst` region; the part it already owns under `src` is a
/// local copy, the rest arrives from the unique `src` owners, one
/// message per contiguous piece (a BLOCK↔BLOCK overlap is one message,
/// while interleaved `CYCLIC` ownership shatters the same bytes into
/// strided pieces, each paying its own `L`).
fn plan_flat(
    shape: &[usize],
    src: &Distribution,
    dst: &Distribution,
    word_size: usize,
    loads: &mut [NodeCommLoad],
) {
    let p = loads.len();
    let sd = src.distributed_dim().expect("flat plans have owners");
    let dd = dst.distributed_dim();
    // Elements (then bytes) per index pair of the (up to two)
    // distributed dimensions.
    let other: usize = (0..shape.len())
        .filter(|&d| d != sd && Some(d) != dd)
        .map(|d| shape[d])
        .product();
    if other == 0 {
        return;
    }
    let pair_bytes = other * word_size;

    if dd == Some(sd) {
        // A layout change within one dimension: overlaps are genuine
        // range-list intersections, one walk per pair of owning nodes.
        let n = shape[sd];
        let owned = |dist: &Distribution| -> Vec<_> {
            (0..p)
                .map(|node| (node, dist.owned_dim(sd, n, p, node)))
                .filter(|(_, ranges)| !ranges.is_empty())
                .collect()
        };
        let (senders, receivers) = (owned(src), owned(dst));
        for (s, a) in &senders {
            for (r, b) in &receivers {
                let (len, pieces) = overlap(a, b);
                let bytes = len * pair_bytes;
                if s == r {
                    loads[*r].bytes_copied += bytes;
                } else {
                    loads[*s].msgs_sent += pieces;
                    loads[*s].bytes_sent += bytes;
                    loads[*r].msgs_recv += pieces;
                    loads[*r].bytes_recv += bytes;
                }
            }
        }
        return;
    }

    // Different dimensions (or a replicated destination, which is one
    // whole "index" per node): sender `s` and receiver `r` overlap in
    // `len_s * len_r` index pairs and `pieces_s * pieces_r` fragments, so
    // every load is its node's own extents against the totals.
    let extents = |dist: &Distribution, dim: Option<usize>| -> Vec<(usize, usize)> {
        (0..p)
            .map(|node| dim.map_or((1, 1), |d| dist.owned_extent(d, shape[d], p, node)))
            .collect()
    };
    let (from, to) = (extents(src, Some(sd)), extents(dst, dd));
    let sum = |e: &[(usize, usize)]| e.iter().fold((0, 0), |t, x| (t.0 + x.0, t.1 + x.1));
    let ((from_len, from_pieces), (to_len, to_pieces)) = (sum(&from), sum(&to));
    for (node, load) in loads.iter_mut().enumerate() {
        let ((s_len, s_pieces), (r_len, r_pieces)) = (from[node], to[node]);
        load.msgs_sent = s_pieces * (to_pieces - r_pieces);
        load.bytes_sent = s_len * (to_len - r_len) * pair_bytes;
        load.msgs_recv = r_pieces * (from_pieces - s_pieces);
        load.bytes_recv = r_len * (from_len - s_len) * pair_bytes;
        load.bytes_copied = s_len * r_len * pair_bytes;
    }
}

/// The pairwise transfers (`from != to`) behind a flat plan — the detail
/// [`plan`] folds into per-node loads without materialising it; empty
/// for the lowerings that are not pairwise (no-op, replicated source,
/// relayed broadcast). Diagnostic: `O(P²)` range-list intersections.
pub fn transfers(
    shape: &[usize],
    src: &Distribution,
    dst: &Distribution,
    p: usize,
) -> Vec<Transfer> {
    if Lowering::of(shape, src, dst, p) != Lowering::Flat {
        return Vec::new();
    }
    let src_regions: Vec<_> = (0..p).map(|n| src.owned(shape, p, n)).collect();
    let dst_regions: Vec<_> = (0..p).map(|n| dst.owned(shape, p, n)).collect();
    let mut out = Vec::new();
    for (from, s) in src_regions.iter().enumerate() {
        for (to, r) in dst_regions.iter().enumerate() {
            let elems = s.intersection_volume(r);
            if from != to && elems > 0 {
                out.push(Transfer { from, to, elems });
            }
        }
    }
    out
}

/// Convenience: the three Airshed redistributions for a concentration
/// array `A(species, layers, nodes)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AirshedRedists {
    pub repl_to_trans: RedistPlan,
    pub trans_to_chem: RedistPlan,
    pub chem_to_repl: RedistPlan,
}

/// Plan all three main-loop redistribution steps for the given array
/// shape and node count.
pub fn airshed_redists(shape: &[usize; 3], p: usize, word_size: usize) -> AirshedRedists {
    let d_repl = Distribution::replicated(3);
    let d_trans = Distribution::block(3, 1);
    let d_chem = Distribution::block(3, 2);
    let mut repl_to_trans = plan(shape, &d_repl, &d_trans, p, word_size);
    repl_to_trans.label = labels::REPL_TO_TRANS;
    let mut trans_to_chem = plan(shape, &d_trans, &d_chem, p, word_size);
    trans_to_chem.label = labels::TRANS_TO_CHEM;
    let mut chem_to_repl = plan(shape, &d_chem, &d_repl, p, word_size);
    chem_to_repl.label = labels::CHEM_TO_REPL;
    AirshedRedists {
        repl_to_trans,
        trans_to_chem,
        chem_to_repl,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airshed_machine::MachineProfile;

    const SHAPE: [usize; 3] = [35, 5, 700]; // the LA data set
    const W: usize = 8;

    #[test]
    fn conservation_sent_equals_received() {
        for p in [2usize, 4, 8, 16, 64] {
            let r = airshed_redists(&SHAPE, p, W);
            for plan in [&r.repl_to_trans, &r.trans_to_chem, &r.chem_to_repl] {
                assert_eq!(
                    plan.total_bytes_sent(),
                    plan.total_bytes_recv(),
                    "{} at p={p}",
                    plan.label
                );
            }
        }
    }

    #[test]
    fn every_receiver_gets_its_region() {
        // For a distributed source: sum of inbound transfer volumes plus
        // the local copy must equal the receiver's destination volume.
        let p = 8;
        let src = Distribution::block(3, 1);
        let dst = Distribution::block(3, 2);
        let plan = plan(&SHAPE, &src, &dst, p, W);
        let transfers = transfers(&SHAPE, &src, &dst, p);
        for r in 0..p {
            let inbound: usize = transfers
                .iter()
                .filter(|t| t.to == r)
                .map(|t| t.elems)
                .sum();
            let local = plan.loads[r].bytes_copied / W;
            let need = dst.owned_volume(&SHAPE, p, r);
            assert_eq!(inbound + local, need, "receiver {r}");
        }
    }

    #[test]
    fn repl_to_trans_is_pure_local_copy() {
        // Paper: "This causes a local data copy but no actual transfer of
        // data across nodes", Ct = H·ceil(layers/min(layers,P))·species·nodes·W.
        for p in [4usize, 8, 32, 128] {
            let r = airshed_redists(&SHAPE, p, W);
            let plan = &r.repl_to_trans;
            assert_eq!(plan.total_messages(), 0, "p={p}");
            assert_eq!(plan.total_bytes_sent(), 0);
            let local_layers = SHAPE[1].div_ceil(SHAPE[1].min(p));
            let expect = local_layers * SHAPE[0] * SHAPE[2] * W;
            let max_copy = plan.loads.iter().map(|l| l.bytes_copied).max().unwrap();
            assert_eq!(max_copy, expect, "p={p}");
        }
    }

    #[test]
    fn trans_to_chem_is_sender_dominated() {
        // Paper: Ct = L·P + G·ceil(layers/min(layers,P))·species·nodes·W.
        // Senders are the layer holders; each sends to every chem node.
        for p in [8usize, 32, 128] {
            let r = airshed_redists(&SHAPE, p, W);
            let plan = &r.trans_to_chem;
            // A layer holder sends to every other node that owns a chem
            // block (all of them for moderate P; ceil blocks can leave
            // trailing nodes empty at large P).
            let chem = Distribution::block(3, 2);
            let owners = (0..p)
                .filter(|&n| chem.owned_volume(&SHAPE, p, n) > 0)
                .count();
            let max_msgs_sent = plan.loads.iter().map(|l| l.msgs_sent).max().unwrap();
            assert_eq!(max_msgs_sent, owners - 1, "p={p}");
            // Max bytes sent per node ~ the holder's full layer minus the
            // part it keeps locally.
            let layer_bytes = SHAPE[0] * SHAPE[2] * W;
            let max_sent = plan.loads.iter().map(|l| l.bytes_sent).max().unwrap();
            assert!(
                max_sent <= layer_bytes && max_sent >= layer_bytes * 4 / 5,
                "p={p}: sent {max_sent} vs layer {layer_bytes}"
            );
        }
    }

    #[test]
    fn chem_to_repl_receives_whole_array() {
        // Paper: Ct = 2L·P + G·layers·species·nodes·W — every node must
        // end up with the entire array.
        let p = 16;
        let r = airshed_redists(&SHAPE, p, W);
        let plan = &r.chem_to_repl;
        let array_bytes = SHAPE.iter().product::<usize>() * W;
        for (node, load) in plan.loads.iter().enumerate() {
            let own = Distribution::block(3, 2).owned_volume(&SHAPE, p, node) * W;
            assert_eq!(
                load.bytes_recv + load.bytes_copied,
                array_bytes,
                "node {node} must assemble the full array"
            );
            assert_eq!(load.bytes_copied, own);
            // Sends its block to everyone else, receives from everyone.
            if own > 0 {
                assert_eq!(load.msgs_sent, p - 1);
            }
        }
    }

    #[test]
    fn paper_cost_equations_reproduced_on_t3e() {
        // Cross-check the planned loads against the paper's closed-form
        // cost equations for the LA data set on the T3E.
        let m = MachineProfile::t3e();
        let (species, layers, nodes) = (35f64, 5f64, 700f64);
        for p in [4usize, 8, 16, 32, 64, 128] {
            let r = airshed_redists(&SHAPE, p, W);
            let pf = p as f64;
            let local_layers = (layers / layers.min(pf)).ceil();

            // D_Repl -> D_Trans: H * ceil * species * nodes * W.
            let c1_model = m.copy_cost * local_layers * species * nodes * W as f64;
            let c1_plan = m.comm_phase_seconds(&r.repl_to_trans.loads);
            assert!(
                (c1_plan - c1_model).abs() / c1_model < 1e-9,
                "p={p}: D_Repl->D_Trans plan {c1_plan} vs model {c1_model}"
            );

            // D_Trans -> D_Chem: L*P + G*ceil*species*nodes*W (model uses
            // the full layer volume; the plan subtracts the locally-kept
            // part, so allow the small difference).
            let c2_model = m.latency * pf + m.byte_cost * local_layers * species * nodes * W as f64;
            let c2_plan = m.comm_phase_seconds(&r.trans_to_chem.loads);
            assert!(
                (c2_plan - c2_model).abs() / c2_model < 0.35,
                "p={p}: D_Trans->D_Chem plan {c2_plan} vs model {c2_model}"
            );

            // D_Chem -> D_Repl: 2LP + G*layers*species*nodes*W.
            let c3_model = 2.0 * m.latency * pf + m.byte_cost * layers * species * nodes * W as f64;
            let c3_plan = m.comm_phase_seconds(&r.chem_to_repl.loads);
            assert!(
                (c3_plan - c3_model).abs() / c3_model < 0.35,
                "p={p}: D_Chem->D_Repl plan {c3_plan} vs model {c3_model}"
            );
        }
    }

    #[test]
    fn few_source_replication_uses_broadcast_lowering() {
        // D_Trans -> D_Repl at large P: 5 layer holders replicating to
        // 128 nodes must not cost 128 full-layer sends per holder.
        let m = MachineProfile::t3e();
        let src = Distribution::block(3, 1);
        let dst = Distribution::replicated(3);
        let p128 = plan(&SHAPE, &src, &dst, 128, W);
        let cost = m.comm_phase_seconds(&p128.loads);
        // Must be the same order as the balanced D_Chem -> D_Repl gather,
        // not ~P/owners times larger.
        let gather = airshed_redists(&SHAPE, 128, W).chem_to_repl;
        let gather_cost = m.comm_phase_seconds(&gather.loads);
        assert!(
            cost < 3.0 * gather_cost,
            "broadcast {cost} vs gather {gather_cost}"
        );
        // Every node ends up with the full array volume.
        let total = SHAPE.iter().product::<usize>() * W;
        for l in &p128.loads {
            assert_eq!(l.bytes_recv + l.bytes_copied, total);
        }
        // Small P with many owners keeps the flat plan (paper equation).
        let p8 = plan(&SHAPE, &src, &dst, 8, W);
        assert_eq!(p8.label, "dist->dist");
    }

    #[test]
    fn noop_redistribution_is_free() {
        let d = Distribution::block(3, 2);
        let p = plan(&SHAPE, &d.clone(), &d, 8, W);
        assert!(p.loads.iter().all(|l| l.is_idle()));
        assert!(transfers(&SHAPE, &d, &d, 8).is_empty());
    }

    #[test]
    fn cost_ordering_matches_figure5() {
        // Figure 5: D_Chem->D_Repl is the most expensive step;
        // D_Repl->D_Trans and D_Trans->D_Chem are cheaper (beyond the
        // small-P regime).
        let m = MachineProfile::t3e();
        for p in [16usize, 32, 64, 128] {
            let r = airshed_redists(&SHAPE, p, W);
            let c1 = m.comm_phase_seconds(&r.repl_to_trans.loads);
            let c2 = m.comm_phase_seconds(&r.trans_to_chem.loads);
            let c3 = m.comm_phase_seconds(&r.chem_to_repl.loads);
            assert!(c3 > c2, "p={p}: {c3} !> {c2}");
            assert!(c3 > c1, "p={p}: {c3} !> {c1}");
        }
    }
}
