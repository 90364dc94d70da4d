//! Compressed-sparse-row matrices.
//!
//! Finite element assembly produces duplicate (row, col) contributions;
//! [`CsrBuilder`] accumulates triplets and merges them on `build`. The
//! matrix layout is the classic three-array CSR, which keeps the
//! mat-vec — the inner loop of every transport solve — contiguous and
//! branch-free.

use airshed_simd::F64x4;

/// A square sparse matrix in CSR format.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    n: usize,
    row_ptr: Vec<usize>,
    col: Vec<u32>,
    val: Vec<f64>,
}

/// Triplet accumulator for assembly.
#[derive(Debug, Clone)]
pub struct CsrBuilder {
    n: usize,
    triplets: Vec<(u32, u32, f64)>,
}

impl CsrBuilder {
    pub fn new(n: usize) -> CsrBuilder {
        assert!(n < u32::MAX as usize, "matrix too large for u32 indices");
        CsrBuilder {
            n,
            triplets: Vec::new(),
        }
    }

    /// Reserve space for `nnz` expected entries.
    pub fn with_capacity(n: usize, nnz: usize) -> CsrBuilder {
        let mut b = CsrBuilder::new(n);
        b.triplets.reserve(nnz);
        b
    }

    /// Add `v` to entry `(i, j)` (duplicates are merged at build time).
    #[inline]
    pub fn add(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.n && j < self.n);
        if v != 0.0 {
            self.triplets.push((i as u32, j as u32, v));
        }
    }

    /// Sort, merge duplicates, and produce the CSR matrix.
    pub fn build(mut self) -> Csr {
        self.triplets.sort_unstable_by_key(|a| (a.0, a.1));
        let mut row_ptr = vec![0usize; self.n + 1];
        let mut col: Vec<u32> = Vec::with_capacity(self.triplets.len());
        let mut val: Vec<f64> = Vec::with_capacity(self.triplets.len());
        for &(i, j, v) in &self.triplets {
            if let (Some(&lc), Some(lv)) = (col.last(), val.last_mut()) {
                if row_ptr[i as usize + 1] > 0
                    && col.len() > row_ptr[i as usize] // current row non-empty
                    && lc == j
                    && row_ptr[i as usize + 1] == col.len()
                {
                    *lv += v;
                    continue;
                }
            }
            // New entry. Close out any skipped rows first.
            col.push(j);
            val.push(v);
            row_ptr[i as usize + 1] = col.len();
        }
        // Prefix-max to make row_ptr monotone over empty rows.
        for r in 1..=self.n {
            if row_ptr[r] < row_ptr[r - 1] {
                row_ptr[r] = row_ptr[r - 1];
            }
        }
        Csr {
            n: self.n,
            row_ptr,
            col,
            val,
        }
    }
}

impl Csr {
    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Csr {
        let mut b = CsrBuilder::with_capacity(n, n);
        for i in 0..n {
            b.add(i, i, 1.0);
        }
        b.build()
    }

    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.val.len()
    }

    /// `y = A·x`.
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.n);
        debug_assert_eq!(y.len(), self.n);
        for i in 0..self.n {
            let mut acc = 0.0;
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                acc += self.val[k] * x[self.col[k] as usize];
            }
            y[i] = acc;
        }
    }

    /// Four mat-vecs at once, the operands held node-major: lane `l` of
    /// `x[j]` is entry `j` of right-hand side `l`. Each stored value and
    /// column index is read once per four right-hand sides and meets one
    /// contiguous 32-byte load — no gather. Every lane sums its row from
    /// `0.0` in storage order as [`matvec`](Csr::matvec) does, so lane `l`
    /// of the result is bit for bit `matvec` of right-hand side `l`.
    /// `row(i, acc)` receives each finished row, so the caller can store
    /// it and fold it into a dot product in the same pass.
    #[inline(always)]
    pub fn matvec_lanes(&self, x: &[F64x4], mut row: impl FnMut(usize, F64x4)) {
        debug_assert_eq!(x.len(), self.n);
        for i in 0..self.n {
            let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
            let mut acc = F64x4::zero();
            for (&v, &j) in self.val[lo..hi].iter().zip(&self.col[lo..hi]) {
                acc += F64x4::splat(v) * x[j as usize];
            }
            row(i, acc);
        }
    }

    /// Extract the diagonal (zeros where absent).
    pub fn diagonal(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.n];
        for i in 0..self.n {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                if self.col[k] as usize == i {
                    d[i] = self.val[k];
                }
            }
        }
        d
    }

    /// Entry lookup (O(row nnz)); for tests and debugging.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        for k in self.row_ptr[i]..self.row_ptr[i + 1] {
            if self.col[k] as usize == j {
                return self.val[k];
            }
        }
        0.0
    }

    /// Row-sum vector — `A·1`; equals zero for a pure advection operator
    /// on interior rows (constant fields have no transport tendency).
    pub fn row_sums(&self) -> Vec<f64> {
        let ones = vec![1.0; self.n];
        let mut y = vec![0.0; self.n];
        self.matvec(&ones, &mut y);
        y
    }

    /// Replace a row with `e_i` (identity row). Used for Dirichlet
    /// boundary conditions. Requires the diagonal entry to be present.
    pub fn set_identity_row(&mut self, i: usize) {
        let mut has_diag = false;
        for k in self.row_ptr[i]..self.row_ptr[i + 1] {
            if self.col[k] as usize == i {
                self.val[k] = 1.0;
                has_diag = true;
            } else {
                self.val[k] = 0.0;
            }
        }
        assert!(has_diag, "row {i} has no stored diagonal entry");
    }

    /// `self + alpha * other`, requiring identical sparsity patterns
    /// (true for matrices assembled from the same mesh connectivity).
    pub fn add_scaled_same_pattern(&self, alpha: f64, other: &Csr) -> Csr {
        assert_eq!(self.row_ptr, other.row_ptr, "pattern mismatch");
        assert_eq!(self.col, other.col, "pattern mismatch");
        let mut out = self.clone();
        for (v, w) in out.val.iter_mut().zip(&other.val) {
            *v += alpha * w;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // [2 0 1]
        // [0 3 0]
        // [4 0 5]
        let mut b = CsrBuilder::new(3);
        b.add(0, 0, 2.0);
        b.add(0, 2, 1.0);
        b.add(1, 1, 3.0);
        b.add(2, 0, 4.0);
        b.add(2, 2, 5.0);
        b.build()
    }

    #[test]
    fn matvec_correct() {
        let a = sample();
        let mut y = vec![0.0; 3];
        a.matvec(&[1.0, 2.0, 3.0], &mut y);
        assert_eq!(y, vec![5.0, 6.0, 19.0]);
    }

    #[test]
    fn duplicates_are_merged() {
        let mut b = CsrBuilder::new(2);
        b.add(0, 0, 1.0);
        b.add(0, 0, 2.5);
        b.add(1, 0, 1.0);
        b.add(1, 0, -1.0);
        let a = b.build();
        assert_eq!(a.get(0, 0), 3.5);
        assert_eq!(a.get(1, 0), 0.0);
        // Note: cancelled entries remain stored as explicit zeros.
        assert!(a.nnz() <= 2);
    }

    #[test]
    fn empty_rows_are_handled() {
        let mut b = CsrBuilder::new(4);
        b.add(0, 0, 1.0);
        b.add(3, 3, 2.0);
        let a = b.build();
        let mut y = vec![0.0; 4];
        a.matvec(&[1.0, 1.0, 1.0, 1.0], &mut y);
        assert_eq!(y, vec![1.0, 0.0, 0.0, 2.0]);
    }

    #[test]
    fn diagonal_extraction() {
        let a = sample();
        assert_eq!(a.diagonal(), vec![2.0, 3.0, 5.0]);
    }

    #[test]
    fn identity() {
        let i = Csr::identity(3);
        let mut y = vec![0.0; 3];
        i.matvec(&[4.0, 5.0, 6.0], &mut y);
        assert_eq!(y, vec![4.0, 5.0, 6.0]);
        assert_eq!(i.nnz(), 3);
    }

    #[test]
    fn set_identity_row_for_dirichlet() {
        let mut a = sample();
        a.set_identity_row(2);
        assert_eq!(a.get(2, 0), 0.0);
        assert_eq!(a.get(2, 2), 1.0);
        assert_eq!(a.get(0, 2), 1.0, "columns untouched");
    }

    #[test]
    fn add_scaled_same_pattern() {
        let a = sample();
        let b = sample();
        let c = a.add_scaled_same_pattern(0.5, &b);
        assert_eq!(c.get(0, 0), 3.0);
        assert_eq!(c.get(2, 2), 7.5);
    }

    #[test]
    fn row_sums() {
        let a = sample();
        assert_eq!(a.row_sums(), vec![3.0, 3.0, 9.0]);
    }
}
