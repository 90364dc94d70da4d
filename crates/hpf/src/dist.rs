//! HPF data distributions and the one ownership rule behind them.
//!
//! A distribution assigns each dimension of an array either `*`
//! (collapsed — every node holds the full extent) or a [`Layout`] over
//! the node set: `BLOCK`, `CYCLIC` or `CYCLIC(b)`. At most one dimension
//! is distributed (the 1-D processor arrangements Airshed uses); a
//! distribution with no distributed dimension is fully replicated.
//!
//! Airshed's three distributions of the concentration array
//! `A(species, layers, nodes)` are:
//!
//! * `D_Repl  = A(*, *, *)`      — I/O processing and aerosol;
//! * `D_Trans = A(*, BLOCK, *)`  — transport (parallel over layers);
//! * `D_Chem  = A(*, *, BLOCK)`  — chemistry (parallel over columns).
//!
//! Every view of ownership — the owned ranges, their closed-form
//! extent, the owner of an index, the per-node work walk and the
//! host-pool partition — is derived here from [`Layout`]'s single rule.

use std::ops::Range;

/// How the indices `0..n` of a distributed dimension (or the items of a
/// distributed phase) are laid out over `p` nodes. Fx supports block,
/// cyclic and block-cyclic layouts; the paper's Airshed used `BLOCK`
/// everywhere (the `Default`). `CYCLIC` balances the urban/rural
/// chemistry load imbalance; `CYCLIC(b)` trades imbalance against
/// redistribution message counts.
///
/// **The rule.** Node `k` owns runs of `b` consecutive indices starting
/// at `k·b`, `k·b + p·b`, `k·b + 2·p·b`, …, cut short at `n`, where the
/// run length `b` is `⌈n/p⌉` for `BLOCK` (one run per node, trailing
/// nodes possibly empty), 1 for `CYCLIC` and `b` for `CYCLIC(b)`; index
/// `i` is owned by node `⌊i/b⌋ mod p`. Products saturate, so a run
/// longer than any extent leaves every index on node 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Layout {
    /// `BLOCK`: contiguous ceil-sized blocks.
    #[default]
    Block,
    /// `CYCLIC`: round-robin single indices.
    Cyclic,
    /// `CYCLIC(b)`: round-robin runs of `b` (`CYCLIC(0)` reads as
    /// `CYCLIC(1)`).
    BlockCyclic(usize),
}

impl Layout {
    /// The run length `b` of the rule for `n` indices on `p` nodes.
    fn run(self, n: usize, p: usize) -> usize {
        match self {
            Layout::Block => n.div_ceil(p.max(1)).max(1),
            Layout::Cyclic => 1,
            Layout::BlockCyclic(b) => b.max(1),
        }
    }

    /// The runs `node` owns of `0..n` on `p` nodes, in ascending order;
    /// none is empty.
    pub fn runs(self, n: usize, p: usize, node: usize) -> impl Iterator<Item = Range<usize>> {
        runs_of(self.run(n, p), n, p, node)
    }

    /// What `node` owns of `0..n` on `p` nodes, counted in closed form:
    /// `(indices, runs)` — the total length and the count of
    /// [`Layout::runs`].
    fn extent(self, n: usize, p: usize, node: usize) -> (usize, usize) {
        let b = self.run(n, p);
        let first = node.saturating_mul(b);
        if first >= n {
            return (0, 0);
        }
        // Runs after the first, each a stride of `p·b` further on; the
        // last is cut short at `n`.
        let stride = b.saturating_mul(p);
        let later = (n - first - 1) / stride;
        let last_start = first + later * stride;
        (later * b + b.min(n - last_start), later + 1)
    }

    /// The node owning index `i` of `0..n` on `p` nodes.
    fn owner(self, n: usize, p: usize, i: usize) -> usize {
        (i / self.run(n, p)) % p
    }

    /// Each node's share of per-item work in node order — the one walk
    /// every per-node fold takes, allocating nothing. A node adds its
    /// items in ascending order from `+0.0` (not `Iterator::sum`'s
    /// `-0.0`), so an empty node yields `+0.0` under every layout. A
    /// unit run strides through the items by `p`, several times faster
    /// than slicing one-item runs; longer runs fold slice by slice.
    pub fn node_sums<'w>(self, per_item: &'w [f64], p: usize) -> impl Iterator<Item = f64> + 'w {
        let n = per_item.len();
        let b = self.run(n, p);
        (0..p).map(move |node| {
            if b == 1 {
                per_item
                    .get(node..)
                    .map_or(0.0, |mine| mine.iter().step_by(p).fold(0.0, |a, &w| a + w))
            } else {
                runs_of(b, n, p, node)
                    .fold(0.0, |a, run| per_item[run].iter().fold(a, |a, &w| a + w))
            }
        })
    }

    /// [`Layout::node_sums`] collected: per-item work reduced to
    /// per-node work under this layout.
    ///
    /// ```
    /// use airshed_hpf::dist::Layout;
    /// let per_item = [3.0, 1.0, 4.0, 1.0, 5.0];
    /// // BLOCK: ceil-sized contiguous blocks of 3 + 2 items.
    /// assert_eq!(Layout::Block.per_node(&per_item, 2), vec![8.0, 6.0]);
    /// // CYCLIC: items 0,2,4 on node 0; items 1,3 on node 1.
    /// assert_eq!(Layout::Cyclic.per_node(&per_item, 2), vec![12.0, 2.0]);
    /// ```
    pub fn per_node(self, per_item: &[f64], p: usize) -> Vec<f64> {
        self.node_sums(per_item, p).collect()
    }

    /// The heaviest node's work under this layout: the largest of
    /// [`Layout::node_sums`], `+0.0` when every node is empty.
    pub fn heaviest(self, per_item: &[f64], p: usize) -> f64 {
        self.node_sums(per_item, p).fold(0.0f64, f64::max)
    }

    /// Partition item *indices* into per-part ownership lists — the
    /// index-level counterpart of [`Layout::per_node`]: summing
    /// `per_item` over `partition(n, p)[k]` gives `per_node(per_item,
    /// p)[k]`. The virtual machine charges the per-node sums; the real
    /// execution backend runs the index lists. Each list ascends.
    ///
    /// ```
    /// use airshed_hpf::dist::Layout;
    /// assert_eq!(Layout::Cyclic.partition(5, 2), vec![vec![0, 2, 4], vec![1, 3]]);
    /// ```
    pub fn partition(self, n_items: usize, parts: usize) -> Vec<Vec<usize>> {
        (0..parts)
            .map(|k| self.runs(n_items, parts, k).flatten().collect())
            .collect()
    }

    /// The HPF distribution of a three-dimensional array (Airshed's
    /// `A(species, layers, nodes)`) with this layout on dimension `dim`.
    pub fn distribution_on(self, dim: usize) -> Distribution {
        Distribution::new(3, dim, self)
    }
}

/// The rule itself: the runs of length `b` that `node` of `p` owns in
/// `0..n`, starting at `node·b` and strided by `p·b`.
fn runs_of(b: usize, n: usize, p: usize, node: usize) -> impl Iterator<Item = Range<usize>> {
    (node.saturating_mul(b)..n)
        .step_by(b.saturating_mul(p))
        .map(move |start| start..start.saturating_add(b).min(n))
}

impl std::fmt::Display for Layout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Layout::Block => write!(f, "BLOCK"),
            Layout::Cyclic => write!(f, "CYCLIC"),
            Layout::BlockCyclic(b) => write!(f, "CYCLIC({b})"),
        }
    }
}

/// Distribution of a whole array: its rank and, if any, the one
/// distributed dimension with its layout.
///
/// ```
/// use airshed_hpf::dist::Distribution;
///
/// // Airshed's transport distribution: A(*, BLOCK, *).
/// let d_trans = Distribution::block(3, 1);
/// let shape = [35, 5, 700];
/// // 5 layers over 8 nodes: the first five own one layer each.
/// assert_eq!(d_trans.owned_volume(&shape, 8, 0), 35 * 1 * 700);
/// assert_eq!(d_trans.owned_volume(&shape, 8, 7), 0);
/// assert_eq!(d_trans.useful_parallelism(&shape, 64), 5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Distribution {
    ndims: usize,
    distributed: Option<(usize, Layout)>,
}

impl Distribution {
    /// `layout` on dimension `dim` of an `ndims`-dimensional array,
    /// collapsed elsewhere.
    pub fn new(ndims: usize, dim: usize, layout: Layout) -> Distribution {
        assert!(dim < ndims, "dimension {dim} of a rank-{ndims} array");
        Distribution {
            ndims,
            distributed: Some((dim, layout)),
        }
    }

    /// Fully replicated array of `ndims` dimensions: `A(*, ..., *)`.
    pub fn replicated(ndims: usize) -> Distribution {
        Distribution {
            ndims,
            distributed: None,
        }
    }

    /// `BLOCK` on dimension `dim`, collapsed elsewhere.
    pub fn block(ndims: usize, dim: usize) -> Distribution {
        Distribution::new(ndims, dim, Layout::Block)
    }

    pub fn ndims(&self) -> usize {
        self.ndims
    }

    /// Index of the distributed dimension, if any.
    pub fn distributed_dim(&self) -> Option<usize> {
        self.distributed.map(|(dim, _)| dim)
    }

    /// The layout of dimension `dim`, `None` if it is collapsed.
    fn layout_of(&self, dim: usize) -> Option<Layout> {
        assert!(dim < self.ndims);
        self.distributed
            .and_then(|(d, layout)| (d == dim).then_some(layout))
    }

    /// True if no dimension is distributed.
    pub fn is_replicated(&self) -> bool {
        self.distributed.is_none()
    }

    /// Index ranges of dimension `dim` (extent `n`) owned by `node` out
    /// of `p`: [`Layout::runs`]. Collapsed dimensions are fully owned by
    /// everyone.
    pub fn owned_dim(&self, dim: usize, n: usize, p: usize, node: usize) -> Vec<Range<usize>> {
        assert!(node < p);
        match self.layout_of(dim) {
            None => vec![0..n],
            Some(layout) => layout.runs(n, p, node).collect(),
        }
    }

    /// Full owned region of a `shape`-sized array for `node`: one range
    /// list per dimension (the owned set is their Cartesian product).
    pub fn owned(&self, shape: &[usize], p: usize, node: usize) -> OwnedRegion {
        assert_eq!(shape.len(), self.ndims());
        OwnedRegion {
            per_dim: (0..self.ndims())
                .map(|d| self.owned_dim(d, shape[d], p, node))
                .collect(),
        }
    }

    /// What `node` owns of dimension `dim` (extent `n`), counted without
    /// building the range list: `(indices, contiguous ranges)` — the
    /// total length and the entry count of [`Distribution::owned_dim`].
    pub fn owned_extent(&self, dim: usize, n: usize, p: usize, node: usize) -> (usize, usize) {
        assert!(node < p);
        match self.layout_of(dim) {
            None => (n, usize::from(n > 0)),
            Some(layout) => layout.extent(n, p, node),
        }
    }

    /// Number of elements `node` owns.
    pub fn owned_volume(&self, shape: &[usize], p: usize, node: usize) -> usize {
        assert_eq!(shape.len(), self.ndims());
        (0..self.ndims())
            .map(|d| self.owned_extent(d, shape[d], p, node).0)
            .product()
    }

    /// Unique owner of a global index under this distribution, or `None`
    /// if the distribution is replicated (every node owns it).
    pub fn owner_of(&self, shape: &[usize], p: usize, idx: &[usize]) -> Option<usize> {
        debug_assert_eq!(idx.len(), self.ndims());
        let (d, layout) = self.distributed?;
        debug_assert!(idx[d] < shape[d]);
        Some(layout.owner(shape[d], p, idx[d]))
    }

    /// The degree of useful parallelism this distribution offers for a
    /// `shape`-sized array on `p` nodes: `min(extent, p)` in the
    /// distributed dimension, 1 if replicated. This is the quantity in
    /// the paper's computation performance model (§4.1).
    pub fn useful_parallelism(&self, shape: &[usize], p: usize) -> usize {
        match self.distributed_dim() {
            None => 1,
            Some(d) => shape[d].min(p),
        }
    }
}

/// The Cartesian-product region a node owns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnedRegion {
    pub per_dim: Vec<Vec<Range<usize>>>,
}

impl OwnedRegion {
    /// Element count.
    pub fn volume(&self) -> usize {
        self.per_dim
            .iter()
            .map(|ranges| ranges.iter().map(|r| r.len()).sum::<usize>())
            .product()
    }

    /// Whether a global index is inside the region.
    pub fn contains(&self, idx: &[usize]) -> bool {
        idx.len() == self.per_dim.len()
            && idx
                .iter()
                .zip(&self.per_dim)
                .all(|(&i, ranges)| ranges.iter().any(|r| r.contains(&i)))
    }

    /// Volume of the intersection with another region (dimension-wise
    /// range intersection, then product).
    pub fn intersection_volume(&self, other: &OwnedRegion) -> usize {
        assert_eq!(self.per_dim.len(), other.per_dim.len());
        self.per_dim
            .iter()
            .zip(&other.per_dim)
            .map(|(a, b)| overlap(a, b).0)
            .product()
    }

    /// Number of contiguous pieces in the intersection with another
    /// region (dimension-wise piece count, then product). A BLOCK↔BLOCK
    /// overlap is a single piece; interleaved (`CYCLIC`) ownership
    /// shatters the same volume into strided pieces, each paying its own
    /// message startup when the transfer is lowered.
    pub fn intersection_fragments(&self, other: &OwnedRegion) -> usize {
        assert_eq!(self.per_dim.len(), other.per_dim.len());
        self.per_dim
            .iter()
            .zip(&other.per_dim)
            .map(|(a, b)| overlap(a, b).1)
            .product()
    }
}

/// Intersection of two sorted, disjoint range lists in one walk:
/// `(total overlap length, nonempty pieces)`.
pub(crate) fn overlap(a: &[Range<usize>], b: &[Range<usize>]) -> (usize, usize) {
    let (mut len, mut pieces) = (0, 0);
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let lo = a[i].start.max(b[j].start);
        let hi = a[i].end.min(b[j].end);
        if lo < hi {
            len += hi - lo;
            pieces += 1;
        }
        if a[i].end <= b[j].end {
            i += 1;
        } else {
            j += 1;
        }
    }
    (len, pieces)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn airshed_distributions() {
        let shape = [35usize, 5, 700];
        let d_repl = Distribution::replicated(3);
        let d_trans = Distribution::block(3, 1);
        let d_chem = Distribution::block(3, 2);
        assert!(d_repl.is_replicated());
        assert_eq!(d_trans.distributed_dim(), Some(1));
        assert_eq!(d_chem.distributed_dim(), Some(2));
        // Useful parallelism: 1, min(5, P), min(700, P).
        assert_eq!(d_repl.useful_parallelism(&shape, 64), 1);
        assert_eq!(d_trans.useful_parallelism(&shape, 64), 5);
        assert_eq!(d_trans.useful_parallelism(&shape, 4), 4);
        assert_eq!(d_chem.useful_parallelism(&shape, 64), 64);
        assert_eq!(d_chem.useful_parallelism(&shape, 1024), 700);
    }

    #[test]
    fn block_uses_ceil_blocks() {
        // Paper: "the ceil operation is required ... since the node with
        // the largest amount of data should be considered".
        let d = Distribution::block(1, 0);
        // 5 layers on 4 nodes: blocks of 2 -> nodes own 2,2,1,0.
        let sizes: Vec<usize> = (0..4)
            .map(|node| d.owned_dim(0, 5, 4, node).iter().map(|r| r.len()).sum())
            .collect();
        assert_eq!(sizes, vec![2, 2, 1, 0]);
        // 5 layers on 8 nodes: 1 each for the first five.
        let sizes: Vec<usize> = (0..8)
            .map(|node| d.owned_dim(0, 5, 8, node).iter().map(|r| r.len()).sum())
            .collect();
        assert_eq!(sizes, vec![1, 1, 1, 1, 1, 0, 0, 0]);
    }

    #[test]
    fn block_cyclic_ownership() {
        let d = Distribution::new(1, 0, Layout::BlockCyclic(3));
        // n=10, p=2, b=3: node0 gets [0..3),[6..9); node1 [3..6),[9..10).
        assert_eq!(d.owned_dim(0, 10, 2, 0), vec![0..3, 6..9]);
        assert_eq!(d.owned_dim(0, 10, 2, 1), vec![3..6, 9..10]);
    }

    #[test]
    fn replicated_every_node_owns_all() {
        let d = Distribution::replicated(3);
        let shape = [4usize, 5, 6];
        for node in 0..7 {
            assert_eq!(d.owned_volume(&shape, 7, node), 120);
        }
        assert_eq!(d.owner_of(&shape, 4, &[0, 0, 0]), None);
    }

    #[test]
    fn region_contains_and_volume() {
        let d = Distribution::block(2, 1);
        let r = d.owned(&[3, 10], 2, 0);
        assert_eq!(r.volume(), 15);
        assert!(r.contains(&[0, 0]));
        assert!(r.contains(&[2, 4]));
        assert!(!r.contains(&[2, 5]));
    }

    #[test]
    fn intersection_volume_symmetry() {
        let shape = [35usize, 5, 700];
        let a = Distribution::block(3, 1).owned(&shape, 8, 2);
        let b = Distribution::block(3, 2).owned(&shape, 8, 5);
        assert_eq!(a.intersection_volume(&b), b.intersection_volume(&a));
        // Layer 2 of 5 on 8 nodes -> node 2 owns layer {2}; chem node 5
        // owns columns [440..528) of 700 (ceil block 88).
        assert_eq!(a.intersection_volume(&b), 35 * 88);
    }

    #[test]
    fn overlap_cases() {
        assert_eq!(overlap(&[0..5], &[3..8]), (2, 1));
        assert_eq!(overlap(&[0..2, 4..6], &[1..5]), (2, 2));
        assert_eq!(overlap(&[0..2], &[2..4]), (0, 0));
        assert_eq!(overlap(&[], &[0..10]), (0, 0));
    }

    #[test]
    fn owned_extent_counts_what_owned_dim_lists() {
        for kind in [
            None,
            Some(Layout::Block),
            Some(Layout::Cyclic),
            Some(Layout::BlockCyclic(1)),
            Some(Layout::BlockCyclic(3)),
            Some(Layout::BlockCyclic(8)),
            Some(Layout::BlockCyclic(1 << 62)),
            Some(Layout::BlockCyclic(usize::MAX)),
        ] {
            let d = kind.map_or(Distribution::replicated(1), |l| Distribution::new(1, 0, l));
            for n in 0..40 {
                for p in 1..12 {
                    for node in 0..p {
                        let ranges = d.owned_dim(0, n, p, node);
                        let listed = (
                            ranges.iter().map(|r| r.len()).sum::<usize>(),
                            ranges.iter().filter(|r| !r.is_empty()).count(),
                        );
                        assert_eq!(
                            d.owned_extent(0, n, p, node),
                            listed,
                            "{kind:?} n={n} p={p} node={node}"
                        );
                    }
                }
            }
        }
    }
}
