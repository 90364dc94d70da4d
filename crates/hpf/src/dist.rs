//! HPF data distributions and ownership maps.
//!
//! A distribution assigns each dimension of an array either `*`
//! (collapsed — every node holds the full extent) or one of `BLOCK`,
//! `CYCLIC`, `CYCLIC(b)` over the node set. At most one dimension may be
//! distributed (the 1-D processor arrangements Airshed uses); a
//! distribution with no distributed dimension is fully replicated.
//!
//! Airshed's three distributions of the concentration array
//! `A(species, layers, nodes)` are:
//!
//! * `D_Repl  = A(*, *, *)`      — I/O processing and aerosol;
//! * `D_Trans = A(*, BLOCK, *)`  — transport (parallel over layers);
//! * `D_Chem  = A(*, *, BLOCK)`  — chemistry (parallel over columns).

use std::ops::Range;

/// Distribution of one array dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DimDist {
    /// `*`: collapsed; all nodes hold the whole extent.
    Collapsed,
    /// `BLOCK`: contiguous ceil-sized blocks.
    Block,
    /// `CYCLIC`: round-robin single elements.
    Cyclic,
    /// `CYCLIC(b)`: round-robin blocks of `b`.
    BlockCyclic(usize),
}

/// Distribution of a whole array.
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
    dims: Vec<DimDist>,
}

impl Distribution {
    /// Build a distribution, checking that at most one dimension is
    /// distributed.
    pub fn new(dims: Vec<DimDist>) -> Distribution {
        let distributed = dims
            .iter()
            .filter(|d| !matches!(d, DimDist::Collapsed))
            .count();
        assert!(
            distributed <= 1,
            "at most one distributed dimension is supported (got {distributed})"
        );
        if let Some(DimDist::BlockCyclic(b)) =
            dims.iter().find(|d| matches!(d, DimDist::BlockCyclic(_)))
        {
            assert!(*b > 0, "block-cyclic block size must be positive");
        }
        Distribution { dims }
    }

    /// Fully replicated array of `ndims` dimensions: `A(*, ..., *)`.
    pub fn replicated(ndims: usize) -> Distribution {
        Distribution::new(vec![DimDist::Collapsed; ndims])
    }

    /// `BLOCK` on dimension `dim`, collapsed elsewhere.
    pub fn block(ndims: usize, dim: usize) -> Distribution {
        let mut dims = vec![DimDist::Collapsed; ndims];
        dims[dim] = DimDist::Block;
        Distribution::new(dims)
    }

    /// `CYCLIC` on dimension `dim`.
    pub fn cyclic(ndims: usize, dim: usize) -> Distribution {
        let mut dims = vec![DimDist::Collapsed; ndims];
        dims[dim] = DimDist::Cyclic;
        Distribution::new(dims)
    }

    /// `CYCLIC(b)` on dimension `dim`.
    pub fn block_cyclic(ndims: usize, dim: usize, b: usize) -> Distribution {
        let mut dims = vec![DimDist::Collapsed; ndims];
        dims[dim] = DimDist::BlockCyclic(b);
        Distribution::new(dims)
    }

    pub fn ndims(&self) -> usize {
        self.dims.len()
    }

    pub fn dims(&self) -> &[DimDist] {
        &self.dims
    }

    /// Index of the distributed dimension, if any.
    pub fn distributed_dim(&self) -> Option<usize> {
        self.dims
            .iter()
            .position(|d| !matches!(d, DimDist::Collapsed))
    }

    /// True if no dimension is distributed.
    pub fn is_replicated(&self) -> bool {
        self.distributed_dim().is_none()
    }

    /// Index ranges of dimension `dim` (extent `n`) owned by `node` out
    /// of `p`. Collapsed dimensions are fully owned by everyone.
    pub fn owned_dim(&self, dim: usize, n: usize, p: usize, node: usize) -> Vec<Range<usize>> {
        assert!(node < p);
        match self.dims[dim] {
            DimDist::Collapsed => vec![0..n],
            DimDist::Block => {
                let b = n.div_ceil(p).max(1);
                let lo = (node * b).min(n);
                let hi = ((node + 1) * b).min(n);
                if lo < hi {
                    vec![lo..hi]
                } else {
                    vec![]
                }
            }
            DimDist::Cyclic => (0..n).skip(node).step_by(p).map(|i| i..i + 1).collect(),
            DimDist::BlockCyclic(b) => {
                let mut out = Vec::new();
                let mut start = node * b;
                while start < n {
                    out.push(start..(start + b).min(n));
                    start += b * p;
                }
                out
            }
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
        match self.dims[dim] {
            DimDist::Collapsed => (n, usize::from(n > 0)),
            DimDist::Block => {
                let b = n.div_ceil(p).max(1);
                let len = ((node + 1) * b).min(n) - (node * b).min(n);
                (len, usize::from(len > 0))
            }
            DimDist::Cyclic => {
                let count = n.saturating_sub(node).div_ceil(p);
                (count, count)
            }
            DimDist::BlockCyclic(b) => {
                // Ranges start at `node*b + k*b*p`; all are `b` long but
                // possibly the last, which the extent cuts short.
                let ranges = n.saturating_sub(node * b).div_ceil(b * p);
                let Some(full) = ranges.checked_sub(1) else {
                    return (0, 0);
                };
                let last_start = node * b + full * b * p;
                (full * b + b.min(n - last_start), ranges)
            }
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
        let d = self.distributed_dim()?;
        let i = idx[d];
        debug_assert!(i < shape[d]);
        Some(match self.dims[d] {
            DimDist::Collapsed => unreachable!(),
            DimDist::Block => {
                let b = shape[d].div_ceil(p).max(1);
                i / b
            }
            DimDist::Cyclic => i % p,
            DimDist::BlockCyclic(b) => (i / b) % p,
        })
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
    fn block_ownership_partitions_extent() {
        for (n, p) in [(700usize, 16usize), (5, 8), (10, 3), (1, 4)] {
            let d = Distribution::block(1, 0);
            let mut seen = vec![false; n];
            for node in 0..p {
                for r in d.owned_dim(0, n, p, node) {
                    for i in r {
                        assert!(!seen[i], "index {i} owned twice (n={n}, p={p})");
                        seen[i] = true;
                    }
                }
            }
            assert!(seen.iter().all(|&s| s), "not all owned (n={n}, p={p})");
        }
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
    fn cyclic_ownership_partitions_extent() {
        let d = Distribution::cyclic(1, 0);
        let (n, p) = (13usize, 4usize);
        let mut owned_count = 0;
        for node in 0..p {
            let v: usize = d.owned_dim(0, n, p, node).iter().map(|r| r.len()).sum();
            owned_count += v;
            // Cyclic is maximally balanced.
            assert!(v == n / p || v == n / p + 1);
        }
        assert_eq!(owned_count, n);
    }

    #[test]
    fn block_cyclic_ownership() {
        let d = Distribution::block_cyclic(1, 0, 3);
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
    fn owner_of_agrees_with_owned_regions() {
        let shape = [3usize, 5, 11];
        for p in [1usize, 2, 4, 7] {
            for dist in [
                Distribution::block(3, 1),
                Distribution::cyclic(3, 2),
                Distribution::block_cyclic(3, 2, 3),
            ] {
                let regions: Vec<_> = (0..p).map(|n| dist.owned(&shape, p, n)).collect();
                for a in 0..shape[0] {
                    for b in 0..shape[1] {
                        for c in 0..shape[2] {
                            let idx = [a, b, c];
                            let owner = dist.owner_of(&shape, p, &idx).unwrap();
                            assert!(regions[owner].contains(&idx), "{idx:?} p={p}");
                            for (n, r) in regions.iter().enumerate() {
                                assert_eq!(r.contains(&idx), n == owner);
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(
            Distribution::replicated(3).owner_of(&shape, 4, &[0, 0, 0]),
            None
        );
    }

    #[test]
    #[should_panic(expected = "at most one distributed dimension")]
    fn two_distributed_dims_rejected() {
        Distribution::new(vec![DimDist::Block, DimDist::Block]);
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
            DimDist::Collapsed,
            DimDist::Block,
            DimDist::Cyclic,
            DimDist::BlockCyclic(1),
            DimDist::BlockCyclic(3),
            DimDist::BlockCyclic(8),
        ] {
            let d = Distribution::new(vec![kind]);
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
