//! Parallel-loop helpers: owned index ranges.
//!
//! Fx expresses loop parallelism with a parallel-loop construct over the
//! distributed dimension; the runtime equivalent is: split the iteration
//! space by ownership, execute each node's share (on the host), and
//! charge each node the work its share actually cost.

use std::ops::Range;

/// Ceil-sized block ranges — the `BLOCK` ownership of `0..extent` over
/// `p` nodes. Trailing nodes may get empty ranges (`lo == hi`).
pub fn block_ranges(extent: usize, p: usize) -> Vec<Range<usize>> {
    let b = extent.div_ceil(p).max(1);
    (0..p)
        .map(|node| {
            let lo = (node * b).min(extent);
            let hi = ((node + 1) * b).min(extent);
            lo..hi
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_ranges_partition() {
        for (n, p) in [(700usize, 16usize), (5, 8), (7, 3), (1, 5)] {
            let rs = block_ranges(n, p);
            assert_eq!(rs.len(), p);
            let mut next = 0;
            for r in &rs {
                assert_eq!(r.start, next.min(n));
                next = r.end.max(r.start);
            }
            assert_eq!(rs.iter().map(|r| r.len()).sum::<usize>(), n);
        }
    }
}
