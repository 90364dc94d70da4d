//! Portable 4-lane `f64` SIMD primitives for the numerics' lane kernels.
//!
//! Stable Rust has no `std::simd`, so the vector type is a hand-rolled
//! newtype over `[f64; 4]` with 32-byte alignment and `#[inline(always)]`
//! lanewise arithmetic. Inside a function compiled with
//! `#[target_feature(enable = "avx2,fma")]` LLVM lowers the lanewise
//! loops to single `vaddpd`/`vmulpd`/`vfmadd…pd` instructions; outside
//! one it still emits (slower, but correct) scalar or SSE2 code. Hot
//! kernels therefore follow the standard dispatch pattern:
//!
//! * a generic `#[inline(always)]` body;
//! * a non-generic `#[target_feature(enable = "avx2,fma")]` wrapper
//!   instantiating it;
//! * a safe portable wrapper instantiating the same body;
//! * one runtime [`fma_available`] check per kernel entry.
//!
//! A kernel that must also exist for one value at a time is written once
//! over [`Lanes`] (`f64` or [`F64x4`]), so the two cannot drift apart.
//!
//! Lanewise semantics are exactly scalar `f64` semantics — each lane of
//! `a + b`, `a * b`, `a.max(b)`, `a.mul_add(b, c)`, … is bit-for-bit the
//! corresponding scalar operation, including `-0.0` and NaN propagation
//! (pinned by `tests/proptest_lanes.rs`). That includes the fused
//! multiply-add: `f64::mul_add` is correctly rounded everywhere — one
//! `vfmadd` inside the `avx2,fma` instantiation, libm's software `fma`
//! in the portable one — so the two instantiations of a kernel differ in
//! speed and never in bits, and there is one arithmetic to choose from.

use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// Four `f64` lanes, 32-byte aligned so an AVX `vmovapd` load/store is
/// legal on the in-memory representation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C, align(32))]
pub struct F64x4(pub [f64; 4]);

impl F64x4 {
    pub const LANES: usize = 4;

    /// All four lanes set to `v`.
    #[inline(always)]
    pub fn splat(v: f64) -> F64x4 {
        F64x4([v; 4])
    }

    /// All-zero vector.
    #[inline(always)]
    pub fn zero() -> F64x4 {
        F64x4([0.0; 4])
    }

    #[inline(always)]
    pub fn new(a: f64, b: f64, c: f64, d: f64) -> F64x4 {
        F64x4([a, b, c, d])
    }

    /// Load the first four elements of `s` (panics if `s.len() < 4`).
    #[inline(always)]
    pub fn from_slice(s: &[f64]) -> F64x4 {
        F64x4([s[0], s[1], s[2], s[3]])
    }

    /// Store the lanes into the first four elements of `out`.
    #[inline(always)]
    pub fn write_to(self, out: &mut [f64]) {
        out[..4].copy_from_slice(&self.0);
    }

    /// Read one lane.
    #[inline(always)]
    pub fn lane(self, i: usize) -> f64 {
        self.0[i]
    }

    /// Write one lane.
    #[inline(always)]
    pub fn set_lane(&mut self, i: usize, v: f64) {
        self.0[i] = v;
    }

    /// Lanewise `f64::max` (scalar NaN semantics per lane).
    #[inline(always)]
    pub fn max(self, o: F64x4) -> F64x4 {
        F64x4([
            self.0[0].max(o.0[0]),
            self.0[1].max(o.0[1]),
            self.0[2].max(o.0[2]),
            self.0[3].max(o.0[3]),
        ])
    }

    /// Lanewise `f64::min`.
    #[inline(always)]
    pub fn min(self, o: F64x4) -> F64x4 {
        F64x4([
            self.0[0].min(o.0[0]),
            self.0[1].min(o.0[1]),
            self.0[2].min(o.0[2]),
            self.0[3].min(o.0[3]),
        ])
    }

    /// Lanewise absolute value.
    #[inline(always)]
    pub fn abs(self) -> F64x4 {
        F64x4([
            self.0[0].abs(),
            self.0[1].abs(),
            self.0[2].abs(),
            self.0[3].abs(),
        ])
    }

    /// Lanewise `if self > o { a } else { b }` — a true select (compare
    /// and blend), so a NaN or infinity in the lane not chosen never
    /// reaches the result. A NaN in `self` or `o` chooses `b`.
    #[inline(always)]
    pub fn select_gt(self, o: F64x4, a: F64x4, b: F64x4) -> F64x4 {
        let pick = |i: usize| if self.0[i] > o.0[i] { a.0[i] } else { b.0[i] };
        F64x4([pick(0), pick(1), pick(2), pick(3)])
    }

    /// Whether any lane of `self` exceeds the same lane of `o` (one
    /// compare and a mask test; NaN lanes count as not greater).
    #[inline(always)]
    pub fn any_gt(self, o: F64x4) -> bool {
        (self.0[0] > o.0[0]) | (self.0[1] > o.0[1]) | (self.0[2] > o.0[2]) | (self.0[3] > o.0[3])
    }

    /// Lanewise fused multiply-add `self * b + c` (one rounding per
    /// lane). Compiles to `vfmadd…pd` when the calling function carries
    /// the `fma` target feature; elsewhere it is the libm software `fma`
    /// — the same bits, slowly.
    #[inline(always)]
    pub fn mul_add(self, b: F64x4, c: F64x4) -> F64x4 {
        F64x4([
            self.0[0].mul_add(b.0[0], c.0[0]),
            self.0[1].mul_add(b.0[1], c.0[1]),
            self.0[2].mul_add(b.0[2], c.0[2]),
            self.0[3].mul_add(b.0[3], c.0[3]),
        ])
    }

    /// Pairwise horizontal sum `(l0 + l1) + (l2 + l3)` — the fixed
    /// reduction tree every simd dot product uses, so reductions are
    /// deterministic for a given vectorisation (but reassociated with
    /// respect to the sequential scalar sum).
    #[inline(always)]
    pub fn reduce_add(self) -> f64 {
        (self.0[0] + self.0[1]) + (self.0[2] + self.0[3])
    }

    /// Horizontal max over the lanes.
    #[inline(always)]
    pub fn reduce_max(self) -> f64 {
        self.0[0].max(self.0[1]).max(self.0[2].max(self.0[3]))
    }
}

macro_rules! lanewise_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for F64x4 {
            type Output = F64x4;
            #[inline(always)]
            fn $method(self, o: F64x4) -> F64x4 {
                F64x4([
                    self.0[0] $op o.0[0],
                    self.0[1] $op o.0[1],
                    self.0[2] $op o.0[2],
                    self.0[3] $op o.0[3],
                ])
            }
        }
    };
}

lanewise_binop!(Add, add, +);
lanewise_binop!(Sub, sub, -);
lanewise_binop!(Mul, mul, *);
lanewise_binop!(Div, div, /);

impl AddAssign for F64x4 {
    #[inline(always)]
    fn add_assign(&mut self, o: F64x4) {
        *self = *self + o;
    }
}

impl SubAssign for F64x4 {
    #[inline(always)]
    fn sub_assign(&mut self, o: F64x4) {
        *self = *self - o;
    }
}

impl MulAssign for F64x4 {
    #[inline(always)]
    fn mul_assign(&mut self, o: F64x4) {
        *self = *self * o;
    }
}

impl Neg for F64x4 {
    type Output = F64x4;
    #[inline(always)]
    fn neg(self) -> F64x4 {
        F64x4([-self.0[0], -self.0[1], -self.0[2], -self.0[3]])
    }
}

/// One `f64` or four: what a kernel written once for both needs of its
/// values. Every method is the lanewise scalar operation, so the
/// instantiation of a kernel at `f64` computes, bit for bit, each lane of
/// its instantiation at [`F64x4`].
pub trait Lanes:
    Copy
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
{
    /// Every lane set to `v`.
    fn splat(v: f64) -> Self;
    /// Lanewise `f64::max`.
    fn max(self, o: Self) -> Self;
    /// Lanewise `if self > o { a } else { b }` (see [`F64x4::select_gt`]).
    fn select_gt(self, o: Self, a: Self, b: Self) -> Self;
    /// Whether every lane of `self` exceeds the same lane of `o` (NaN
    /// lanes count as not greater).
    fn all_gt(self, o: Self) -> bool;
    /// `f` applied to every lane.
    fn map(self, f: impl Fn(f64) -> f64) -> Self;
    /// Lanewise `f64::mul_add`: `self * b + c`, rounded once.
    fn mul_add(self, b: Self, c: Self) -> Self;
}

impl Lanes for f64 {
    #[inline(always)]
    fn splat(v: f64) -> f64 {
        v
    }
    #[inline(always)]
    fn max(self, o: f64) -> f64 {
        f64::max(self, o)
    }
    #[inline(always)]
    fn select_gt(self, o: f64, a: f64, b: f64) -> f64 {
        if self > o {
            a
        } else {
            b
        }
    }
    #[inline(always)]
    fn all_gt(self, o: f64) -> bool {
        self > o
    }
    #[inline(always)]
    fn map(self, f: impl Fn(f64) -> f64) -> f64 {
        f(self)
    }
    #[inline(always)]
    fn mul_add(self, b: f64, c: f64) -> f64 {
        f64::mul_add(self, b, c)
    }
}

impl Lanes for F64x4 {
    #[inline(always)]
    fn splat(v: f64) -> F64x4 {
        F64x4::splat(v)
    }
    #[inline(always)]
    fn max(self, o: F64x4) -> F64x4 {
        F64x4::max(self, o)
    }
    #[inline(always)]
    fn select_gt(self, o: F64x4, a: F64x4, b: F64x4) -> F64x4 {
        F64x4::select_gt(self, o, a, b)
    }
    #[inline(always)]
    fn all_gt(self, o: F64x4) -> bool {
        (self.0[0] > o.0[0]) & (self.0[1] > o.0[1]) & (self.0[2] > o.0[2]) & (self.0[3] > o.0[3])
    }
    #[inline(always)]
    fn map(self, f: impl Fn(f64) -> f64) -> F64x4 {
        F64x4([f(self.0[0]), f(self.0[1]), f(self.0[2]), f(self.0[3])])
    }
    #[inline(always)]
    fn mul_add(self, b: F64x4, c: F64x4) -> F64x4 {
        F64x4::mul_add(self, b, c)
    }
}

/// Whether the host supports the AVX2+FMA fast path (checked once,
/// cached). Kernels dispatch on this before calling their
/// `#[target_feature]` instantiation.
pub fn fma_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static AVAIL: OnceLock<bool> = OnceLock::new();
        *AVAIL.get_or_init(|| {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The vector CPU features detected on this host, for bench reports.
pub fn cpu_features() -> Vec<&'static str> {
    #[cfg(target_arch = "x86_64")]
    {
        let mut out = Vec::new();
        macro_rules! probe {
            ($($name:tt),*) => {
                $(if std::arch::is_x86_feature_detected!($name) {
                    out.push($name);
                })*
            };
        }
        probe!("sse2", "avx", "avx2", "fma", "avx512f");
        out
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanewise_ops_match_scalar() {
        let a = F64x4::new(1.5, -2.0, 0.0, 1e-300);
        let b = F64x4::new(3.0, 0.5, -0.0, 1e300);
        assert_eq!((a + b).0, [4.5, -1.5, 0.0, 1e300]);
        assert_eq!((a * b).0, [4.5, -1.0, -0.0, 1e-300 * 1e300]);
        assert_eq!((a - b).lane(1), -2.5);
        assert_eq!((a / b).lane(0), 0.5);
        assert_eq!(a.max(b).0, [3.0, 0.5, 0.0, 1e300]);
        assert_eq!((-a).lane(1), 2.0);
    }

    #[test]
    fn select_gt_blends_per_lane_and_never_leaks_the_other_side() {
        let x = F64x4::new(2.0, 1.0, f64::NAN, 1.0 + f64::EPSILON);
        let a = F64x4::new(10.0, f64::NAN, 30.0, 40.0);
        let b = F64x4::new(f64::INFINITY, -2.0, -3.0, f64::NAN);
        let got = x.select_gt(F64x4::splat(1.0), a, b);
        assert_eq!(got.0, [10.0, -2.0, -3.0, 40.0]);
        assert!(x.any_gt(F64x4::splat(1.5)));
        assert!(!x.any_gt(F64x4::splat(2.0)));
        assert!(!F64x4::splat(f64::NAN).any_gt(F64x4::zero()));
    }

    #[test]
    fn splat_load_store_roundtrip() {
        let src = [1.0, 2.0, 3.0, 4.0, 5.0];
        let v = F64x4::from_slice(&src);
        let mut out = [0.0; 4];
        v.write_to(&mut out);
        assert_eq!(out, [1.0, 2.0, 3.0, 4.0]);
        assert_eq!(F64x4::splat(7.0).0, [7.0; 4]);
        let mut w = F64x4::zero();
        w.set_lane(2, 9.0);
        assert_eq!(w.lane(2), 9.0);
        assert_eq!(w.lane(0), 0.0);
    }

    #[test]
    fn alignment_is_32_bytes() {
        assert_eq!(std::mem::align_of::<F64x4>(), 32);
        assert_eq!(std::mem::size_of::<F64x4>(), 32);
    }

    #[test]
    fn reductions_use_the_pairwise_tree() {
        let v = F64x4::new(1e16, 1.0, -1e16, 1.0);
        // (1e16 + 1) + (-1e16 + 1) — the pairwise tree, not sequential.
        assert_eq!(v.reduce_add(), (1e16 + 1.0) + (-1e16 + 1.0));
        assert_eq!(v.reduce_max(), 1e16);
    }

    #[test]
    fn mul_add_rounds_once() {
        // A case where one rounding differs from two.
        let (a, b, c) = (1.0 + 2f64.powi(-30), 1.0 + 2f64.powi(-30), -1.0);
        assert!(a.mul_add(b, c) != a * b + c);
        let got = F64x4::splat(a).mul_add(F64x4::splat(b), F64x4::splat(c));
        assert_eq!(got.0, [a.mul_add(b, c); 4]);
    }

    #[test]
    fn one_lane_and_four_run_the_same_generic_kernel() {
        fn kernel<V: Lanes>(x: V) -> V {
            let one = V::splat(1.0);
            let y = (-x).max(V::splat(0.25)).mul_add(x, one / x);
            // A shortcut three of the lanes take on their own and the
            // four together do not.
            if y.all_gt(one) {
                return y - x;
            }
            y.select_gt(one, y - x, y.map(f64::sqrt))
        }
        let x = F64x4::new(0.3, -2.0, 1.0 + 2f64.powi(-30), 7.5);
        assert!(!x.all_gt(F64x4::splat(-2.0)) && x.all_gt(F64x4::splat(-2.5)));
        assert!(!F64x4::new(1.0, f64::NAN, 1.0, 1.0).all_gt(F64x4::zero()));
        let four = kernel(x);
        for lane in 0..4 {
            assert_eq!(four.lane(lane).to_bits(), kernel(x.lane(lane)).to_bits());
        }
    }

    #[test]
    fn detection_is_consistent() {
        // fma_available implies the features show up in the report.
        let feats = cpu_features();
        if fma_available() {
            assert!(feats.contains(&"avx2") && feats.contains(&"fma"));
        }
    }

    #[test]
    fn nan_and_signed_zero_propagate_like_scalar() {
        let nan = f64::NAN;
        let a = F64x4::new(nan, -0.0, 0.0, 1.0);
        let b = F64x4::new(1.0, 0.0, -0.0, nan);
        let sum = a + b;
        assert!(sum.lane(0).is_nan() && sum.lane(3).is_nan());
        assert_eq!(sum.lane(1).to_bits(), (-0.0f64 + 0.0).to_bits());
        let prod = a * b;
        assert_eq!(prod.lane(1).to_bits(), (-0.0f64 * 0.0).to_bits());
        assert_eq!(prod.lane(2).to_bits(), (0.0f64 * -0.0).to_bits());
    }
}
