//! Property-based tests for distributions and redistribution planning.

use airshed_hpf::array::DistributedArray;
use airshed_hpf::dist::{Distribution, Layout};
use airshed_hpf::redist::{plan, transfers};
use airshed_machine::cost::NodeCommLoad;
use proptest::prelude::*;

/// Strategy: an arbitrary single-dim distribution kind.
fn dim_kind() -> impl Strategy<Value = Layout> {
    prop_oneof![
        Just(Layout::Block),
        Just(Layout::Cyclic),
        (1usize..5).prop_map(Layout::BlockCyclic),
    ]
}

/// Strategy: a distribution over `ndims` dims with zero or one
/// distributed dim.
fn distribution(ndims: usize) -> impl Strategy<Value = Distribution> {
    prop_oneof![
        Just(Distribution::replicated(ndims)),
        (0..ndims, dim_kind()).prop_map(move |(dim, kind)| Distribution::new(ndims, dim, kind)),
    ]
}

/// The planner as it was before it went linear in P: every ordered pair
/// of nodes, overlaps by range-list intersection. Kept here as the
/// reference the closed-form planner must reproduce load for load.
fn pairwise_reference(
    shape: &[usize],
    src: &Distribution,
    dst: &Distribution,
    p: usize,
    word_size: usize,
) -> Vec<NodeCommLoad> {
    let mut loads = vec![NodeCommLoad::default(); p];
    if src == dst {
        return loads;
    }
    if src.is_replicated() {
        for (node, load) in loads.iter_mut().enumerate() {
            load.bytes_copied = dst.owned(shape, p, node).volume() * word_size;
        }
        return loads;
    }
    let src_regions: Vec<_> = (0..p).map(|n| src.owned(shape, p, n)).collect();
    let dst_regions: Vec<_> = (0..p).map(|n| dst.owned(shape, p, n)).collect();
    let owners = src_regions.iter().filter(|r| r.volume() > 0).count();
    if dst.is_replicated() && owners * 2 <= p {
        let total_bytes = shape.iter().product::<usize>() * word_size;
        let rounds = p.next_power_of_two().trailing_zeros().max(1) as usize;
        for (load, region) in loads.iter_mut().zip(&src_regions) {
            let own = region.volume() * word_size;
            *load = NodeCommLoad {
                msgs_sent: rounds,
                msgs_recv: rounds,
                bytes_sent: total_bytes - own,
                bytes_recv: total_bytes - own,
                bytes_copied: own,
            };
        }
        return loads;
    }
    for s in 0..p {
        for r in 0..p {
            let vol = src_regions[s].intersection_volume(&dst_regions[r]);
            if vol == 0 {
                continue;
            }
            let bytes = vol * word_size;
            if s == r {
                loads[r].bytes_copied += bytes;
            } else {
                let msgs = src_regions[s].intersection_fragments(&dst_regions[r]);
                loads[s].msgs_sent += msgs;
                loads[s].bytes_sent += bytes;
                loads[r].msgs_recv += msgs;
                loads[r].bytes_recv += bytes;
            }
        }
    }
    loads
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any distributed dimension's ownership is an exact partition of
    /// the extent: every index owned exactly once.
    #[test]
    fn ownership_partitions_extent(
        n in 1usize..200,
        p in 1usize..20,
        kind in dim_kind(),
    ) {
        let d = Distribution::new(1, 0, kind);
        let mut owned = vec![0u32; n];
        for node in 0..p {
            for r in d.owned_dim(0, n, p, node) {
                for i in r {
                    owned[i] += 1;
                }
            }
        }
        prop_assert!(owned.iter().all(|&c| c == 1), "{owned:?}");
    }

    /// Owned volumes over all nodes sum to the array size for distributed
    /// layouts (and to p × size for replicated ones).
    #[test]
    fn volumes_account_for_every_element(
        s0 in 1usize..8,
        s1 in 1usize..8,
        s2 in 1usize..30,
        p in 1usize..12,
        dist in distribution(3),
    ) {
        let shape = [s0, s1, s2];
        let total: usize = shape.iter().product();
        let sum: usize = (0..p).map(|n| dist.owned_volume(&shape, p, n)).sum();
        if dist.is_replicated() {
            prop_assert_eq!(sum, total * p);
        } else {
            prop_assert_eq!(sum, total);
        }
    }

    /// A redistribution plan conserves bytes: total sent == total
    /// received, and per-receiver inbound + local copy covers its region.
    #[test]
    fn plans_conserve_data(
        s0 in 1usize..6,
        s1 in 1usize..6,
        s2 in 1usize..25,
        p in 1usize..10,
        src in distribution(3),
        dst in distribution(3),
    ) {
        let shape = [s0, s1, s2];
        let pl = plan(&shape, &src, &dst, p, 8);
        prop_assert_eq!(pl.total_bytes_sent(), pl.total_bytes_recv());
        // For the flat pairwise case, check per-receiver coverage.
        let pairs = transfers(&shape, &src, &dst, p);
        if pl.label == "dist->dist" {
            for r in 0..p {
                let inbound: usize = pairs.iter().filter(|t| t.to == r).map(|t| t.elems).sum();
                let local = pl.loads[r].bytes_copied / 8;
                prop_assert_eq!(inbound + local, dst.owned_volume(&shape, p, r));
            }
        } else {
            prop_assert!(pairs.is_empty(), "{} is not pairwise", pl.label);
        }
    }

    /// Scatter → gather is the identity for any distribution, and a full
    /// redistribution cycle preserves every element.
    #[test]
    fn array_roundtrip_preserves_data(
        s0 in 1usize..5,
        s1 in 1usize..5,
        s2 in 1usize..20,
        p in 1usize..8,
        a in distribution(3),
        b in distribution(3),
        seed in 0u64..1000,
    ) {
        let shape = [s0, s1, s2];
        let total: usize = shape.iter().product();
        // Deterministic pseudo-random data from the seed.
        let global: Vec<f64> = (0..total)
            .map(|i| ((i as u64).wrapping_mul(6364136223846793005).wrapping_add(seed) % 1000) as f64)
            .collect();
        let mut arr = DistributedArray::scatter(&global, &shape, a, p);
        prop_assert_eq!(arr.gather(), global.clone());
        arr.redistribute(b, 8);
        prop_assert_eq!(arr.gather(), global.clone());
        arr.check_consistent().map_err(TestCaseError::fail)?;
    }

    /// The useful-parallelism formula is min(extent, p) on the
    /// distributed dim and monotone in p.
    #[test]
    fn useful_parallelism_properties(
        extent in 1usize..100,
        p1 in 1usize..64,
        p2 in 1usize..64,
    ) {
        let d = Distribution::block(1, 0);
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        prop_assert!(d.useful_parallelism(&[extent], lo) <= d.useful_parallelism(&[extent], hi));
        prop_assert_eq!(d.useful_parallelism(&[extent], hi), extent.min(hi));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The planner's loads are the pairwise reference's, integer for
    /// integer: every ordered pair of replicated / BLOCK / CYCLIC /
    /// CYCLIC(b) on any dimension, up to P = 130 (past every extent, so
    /// trailing nodes own nothing and the broadcast lowering is reached),
    /// zero extents included.
    #[test]
    fn planner_reproduces_the_pairwise_reference(
        s0 in 0usize..40,
        s1 in 0usize..8,
        s2 in 0usize..150,
        p in 1usize..131,
        word in 1usize..9,
        src in distribution(3),
        dst in distribution(3),
    ) {
        let shape = [s0, s1, s2];
        let pl = plan(&shape, &src, &dst, p, word);
        prop_assert_eq!(&pl.loads, &pairwise_reference(&shape, &src, &dst, p, word));
        prop_assert_eq!(pl.total_bytes_sent(), pl.total_bytes_recv());
        let (sent, recv): (usize, usize) = pl
            .loads
            .iter()
            .fold((0, 0), |t, l| (t.0 + l.msgs_sent, t.1 + l.msgs_recv));
        prop_assert_eq!(sent, recv);
    }
}
