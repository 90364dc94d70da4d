//! Message-passing redistribution executor.
//!
//! [`crate::redist::plan`] computes what a redistribution *should* cost;
//! this module actually performs one over the [`crate::pvm`] substrate:
//! one task per node, each holding only its local tile, exchanging real
//! messages. It returns the destination tiles **and** the per-node
//! message/byte counts observed on the wire, so tests can verify that the
//! planner's loads equal what a real execution moves — the plan-vs-
//! reality check behind the whole virtual-time methodology.

use crate::array::{for_each_index, DistributedArray};
use crate::dist::Distribution;
use crate::pvm;
use airshed_machine::cost::NodeCommLoad;

/// Observed per-node traffic from an executed redistribution.
#[derive(Debug, Clone)]
pub struct ExecStats {
    pub per_node: Vec<NodeCommLoad>,
}

/// Execute `src_array -> dst` with real per-node message passing.
///
/// Every node walks its *destination* region in canonical order; elements
/// it owns under the source are copied locally, the rest arrive from
/// their unique source owners. Senders walk their *source* tile once,
/// bucketing outgoing elements per receiver — both sides visit each
/// intersection in global row-major order, so streams match without
/// per-element headers, exactly how compiler-generated redistribution
/// code works.
///
/// Supports distributed sources (unique owners). For replicated sources
/// use [`DistributedArray::redistribute`] — there is nothing to send.
pub fn execute_redistribution(
    src_array: &DistributedArray,
    dst: &Distribution,
    word_size: usize,
) -> (DistributedArray, ExecStats) {
    let src = src_array.dist().clone();
    assert!(
        !src.is_replicated(),
        "replicated sources redistribute locally; use DistributedArray::redistribute"
    );
    let shape = src_array.shape().to_vec();
    let p = src_array.p();

    const TAG_DATA: u32 = 7;

    let results: Vec<(Vec<f64>, NodeCommLoad)> = pvm::spawn_group(p, |task| {
        let me = task.id;
        let mut load = NodeCommLoad::default();

        // --- send side: walk my source tile, bucket per receiver. ---
        let src_region = src.owned(&shape, p, me);
        let mut outgoing: Vec<Vec<f64>> = vec![Vec::new(); p];
        let mut local_copy: Vec<f64> = Vec::new();
        {
            let tile = src_array.tile(me);
            let mut k = 0usize;
            for_each_index(&src_region, |idx| {
                let v = tile[k];
                k += 1;
                if dst.is_replicated() {
                    // Everyone needs it (including me, locally).
                    local_copy.push(v);
                    for (r, bucket) in outgoing.iter_mut().enumerate() {
                        if r != me {
                            bucket.push(v);
                        }
                    }
                } else {
                    let r = dst
                        .owner_of(&shape, p, idx)
                        .expect("dst has a distributed dim");
                    if r == me {
                        local_copy.push(v);
                    } else {
                        outgoing[r].push(v);
                    }
                }
            });
        }
        for (r, bucket) in outgoing.iter().enumerate() {
            if r != me && !bucket.is_empty() {
                load.msgs_sent += 1;
                load.bytes_sent += bucket.len() * word_size;
                task.send(r, TAG_DATA, bucket.clone());
            }
        }
        load.bytes_copied = local_copy.len() * word_size;

        // --- receive side: walk my destination region, splice streams. --
        let dst_region = dst.owned(&shape, p, me);
        // Which senders will deliver, and how many elements each.
        let mut expect: Vec<usize> = vec![0; p];
        for_each_index(&dst_region, |idx| {
            let s = src.owner_of(&shape, p, idx).expect("src distributed");
            expect[s] += 1;
        });
        let mut streams: Vec<std::collections::VecDeque<f64>> =
            (0..p).map(|_| Default::default()).collect();
        streams[me] = local_copy.into();
        for (s, &n) in expect.iter().enumerate() {
            if s != me && n > 0 {
                let msg = task.recv_from_tag(s, TAG_DATA);
                assert_eq!(msg.data.len(), n, "stream length mismatch from {s}");
                load.msgs_recv += 1;
                load.bytes_recv += msg.data.len() * word_size;
                streams[s] = msg.data.into();
            }
        }
        let mut tile = Vec::with_capacity(dst_region.volume());
        for_each_index(&dst_region, |idx| {
            let s = src.owner_of(&shape, p, idx).expect("src distributed");
            tile.push(streams[s].pop_front().expect("stream underrun"));
        });
        (tile, load)
    });

    let (tiles, loads): (Vec<Vec<f64>>, Vec<NodeCommLoad>) = results.into_iter().unzip();
    let out = DistributedArray::from_tiles(&shape, dst.clone(), tiles);
    (out, ExecStats { per_node: loads })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Layout;
    use crate::redist::plan;

    fn global(shape: &[usize]) -> Vec<f64> {
        (0..shape.iter().product::<usize>())
            .map(|i| (i as f64).sin() * 10.0 + i as f64)
            .collect()
    }

    #[test]
    fn executed_redistribution_moves_data_correctly() {
        let shape = [4usize, 5, 9];
        let g = global(&shape);
        for (src, dst) in [
            (Distribution::block(3, 1), Distribution::block(3, 2)),
            (
                Distribution::block(3, 2),
                Distribution::new(3, 2, Layout::Cyclic),
            ),
            (
                Distribution::new(3, 2, Layout::Cyclic),
                Distribution::block(3, 1),
            ),
            (
                Distribution::new(3, 2, Layout::BlockCyclic(2)),
                Distribution::block(3, 2),
            ),
        ] {
            let arr = DistributedArray::scatter(&g, &shape, src, 6);
            let (out, _) = execute_redistribution(&arr, &dst, 8);
            assert_eq!(out.gather(), g);
            out.check_consistent().unwrap();
        }
    }

    #[test]
    fn observed_traffic_matches_the_plan_exactly() {
        // The plan-vs-reality check: the planner's per-node loads equal
        // the bytes and messages a real execution moves.
        let shape = [35usize, 5, 70];
        let g = global(&shape);
        for p in [2usize, 4, 8] {
            let src = Distribution::block(3, 1);
            let dst = Distribution::block(3, 2);
            let planned = plan(&shape, &src, &dst, p, 8);
            let arr = DistributedArray::scatter(&g, &shape, src, p);
            let (_, stats) = execute_redistribution(&arr, &dst, 8);
            for n in 0..p {
                assert_eq!(
                    stats.per_node[n], planned.loads[n],
                    "node {n} at p={p}: observed vs planned"
                );
            }
        }
    }

    #[test]
    fn gather_to_replicated_delivers_everything_everywhere() {
        let shape = [3usize, 4, 7];
        let g = global(&shape);
        let arr = DistributedArray::scatter(&g, &shape, Distribution::block(3, 2), 5);
        let (out, stats) = execute_redistribution(&arr, &Distribution::replicated(3), 8);
        for n in 0..5 {
            assert_eq!(out.tile(n).len(), g.len(), "node {n} holds the full array");
        }
        assert_eq!(out.gather(), g);
        // Every node receives; nodes with a non-empty source block send
        // it to everyone else (ceil blocks leave node 4 empty here).
        let src = Distribution::block(3, 2);
        for (n, l) in stats.per_node.iter().enumerate() {
            assert!(l.msgs_recv > 0, "node {n} received nothing");
            if src.owned_volume(&shape, 5, n) > 0 {
                assert_eq!(l.msgs_sent, 4, "node {n}");
            } else {
                assert_eq!(l.msgs_sent, 0, "node {n}");
            }
        }
    }

    #[test]
    fn executor_agrees_with_gather_scatter_reference() {
        let shape = [2usize, 6, 10];
        let g = global(&shape);
        let src = Distribution::new(3, 1, Layout::Cyclic);
        let dst = Distribution::new(3, 2, Layout::BlockCyclic(3));
        let mut reference = DistributedArray::scatter(&g, &shape, src.clone(), 4);
        let arr = reference.clone();
        reference.redistribute(dst.clone(), 8);
        let (out, _) = execute_redistribution(&arr, &dst, 8);
        for n in 0..4 {
            assert_eq!(out.tile(n), reference.tile(n), "tile {n}");
        }
    }
}
