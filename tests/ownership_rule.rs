//! The ownership rule of every layout, checked against the textbook
//! owners written out here: BLOCK gives item `i` of `n` on `p` nodes to
//! node `i / ⌈n/p⌉`, CYCLIC to `i mod p`, CYCLIC(b) to `⌊i/b⌋ mod p`.
//!
//! Every public view of a layout must agree with that table: the owned
//! ranges of the HPF distribution on each dimension of `A(species,
//! layers, nodes)`, their closed-form extent, the owner of an index, the
//! per-node work sums (as bits) and the host-pool partition.

use airshed::core::plan::ItemLayout;

const SIZES: [usize; 13] = [0, 1, 2, 3, 4, 5, 7, 8, 13, 16, 31, 64, 100];
const NODES: [usize; 9] = [1, 2, 3, 4, 7, 8, 16, 64, 130];

fn layouts() -> Vec<ItemLayout> {
    [1, 2, 3, 5, 8, 64]
        .into_iter()
        .map(ItemLayout::BlockCyclic)
        .chain([ItemLayout::Block, ItemLayout::Cyclic])
        .collect()
}

/// The run length of the rule: `⌈n/p⌉` for BLOCK, 1 for CYCLIC, `b` for
/// CYCLIC(b).
fn textbook_run(layout: ItemLayout, n: usize, p: usize) -> usize {
    match layout {
        ItemLayout::Block => n.div_ceil(p).max(1),
        ItemLayout::Cyclic => 1,
        ItemLayout::BlockCyclic(b) => b,
    }
}

fn textbook_owner(layout: ItemLayout, n: usize, p: usize, i: usize) -> usize {
    match layout {
        ItemLayout::Block => i / n.div_ceil(p),
        ItemLayout::Cyclic => i % p,
        ItemLayout::BlockCyclic(b) => (i / b) % p,
    }
}

/// Node `k`'s items in ascending order, for every `k`.
fn textbook_items(layout: ItemLayout, n: usize, p: usize) -> Vec<Vec<usize>> {
    let mut items = vec![Vec::new(); p];
    for i in 0..n {
        items[textbook_owner(layout, n, p, i)].push(i);
    }
    items
}

/// Per-item work whose sum shows its order: magnitudes spread over many
/// exponents, with zeros among them.
fn work(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            if i % 5 == 3 {
                0.0
            } else {
                (1.0 + (i as f64 * 0.61).sin().abs()) * 2f64.powi((i % 9) as i32 * 7 - 28)
            }
        })
        .collect()
}

fn check(layout: ItemLayout, n: usize, p: usize) {
    let case = format!("{layout} n={n} p={p}");
    let items = textbook_items(layout, n, p);
    let run = textbook_run(layout, n, p);

    for dim in 0..3 {
        let d = layout.distribution_on(dim);
        let mut shape = [1usize; 3];
        shape[dim] = n;
        for (k, mine) in items.iter().enumerate() {
            let ranges = d.owned_dim(dim, n, p, k);
            assert!(ranges.iter().all(|r| !r.is_empty()), "{case} node {k}");
            let flat: Vec<usize> = ranges.iter().flat_map(|r| r.clone()).collect();
            assert_eq!(&flat, mine, "owned_dim {case} dim {dim} node {k}");
            let mut runs: Vec<usize> = mine.iter().map(|i| i / run).collect();
            runs.dedup();
            assert_eq!(ranges.len(), runs.len(), "runs {case} node {k}");
            assert_eq!(
                d.owned_extent(dim, n, p, k),
                (mine.len(), runs.len()),
                "owned_extent {case} dim {dim} node {k}"
            );
        }
        for i in 0..n {
            let mut idx = [0usize; 3];
            idx[dim] = i;
            assert_eq!(
                d.owner_of(&shape, p, &idx),
                Some(textbook_owner(layout, n, p, i)),
                "owner_of {case} dim {dim} index {i}"
            );
        }
    }

    let per_item = work(n);
    let expected: Vec<u64> = items
        .iter()
        .map(|mine| mine.iter().fold(0.0, |a, &i| a + per_item[i]).to_bits())
        .collect();
    let per_node: Vec<u64> = layout
        .per_node(&per_item, p)
        .iter()
        .map(|w| w.to_bits())
        .collect();
    assert_eq!(per_node, expected, "per_node {case}");

    assert_eq!(layout.partition(n, p), items, "partition {case}");
}

#[test]
fn every_view_of_every_layout_matches_the_textbook_owners() {
    for layout in layouts() {
        for n in SIZES {
            for p in NODES {
                check(layout, n, p);
            }
        }
    }
}

/// Runs so long that `p·b` overflows: every index is owned exactly once,
/// the extents sum to `n`, and everything lands on node 0.
#[test]
fn runs_whose_products_overflow_leave_everything_on_node_zero() {
    let p = 64;
    for layout in [
        ItemLayout::BlockCyclic(1 << 62),
        ItemLayout::BlockCyclic(usize::MAX),
    ] {
        for n in SIZES {
            check(layout, n, p);
            let d = layout.distribution_on(2);
            let extents: Vec<usize> = (0..p).map(|k| d.owned_extent(2, n, p, k).0).collect();
            assert_eq!(extents.iter().sum::<usize>(), n, "{layout} n={n}");
            assert_eq!(extents[0], n, "{layout} n={n}");
        }
    }
}
