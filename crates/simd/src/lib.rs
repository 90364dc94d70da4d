//! Portable `f64` lane vectors for the numerics' lane kernels: four lanes
//! ([`F64x4`], one 256-bit register) and eight ([`F64x8`], one 512-bit
//! register).
//!
//! Stable Rust has no `std::simd`, so each vector is a hand-rolled newtype
//! over `[f64; N]`, aligned to its size, with `#[inline(always)]` lanewise
//! arithmetic; one macro writes both. Inside a function compiled with
//! `#[target_feature(enable = "avx2,fma")]` (four lanes) or
//! `#[target_feature(enable = "avx512f,avx2,fma")]` (eight) LLVM lowers the
//! lanewise expressions to single `vaddpd`/`vmulpd`/`vfmadd…pd` instructions;
//! outside one it still emits (slower, but correct) scalar or SSE2 code.
//! Hot kernels therefore follow the standard dispatch pattern:
//!
//! * a generic `#[inline(always)]` body, written over [`Lanes`];
//! * a non-generic `#[target_feature]` wrapper per vector width
//!   instantiating it;
//! * a safe portable wrapper instantiating the same body at four lanes;
//! * one runtime check per kernel entry — [`avx512_available`], then
//!   [`fma_available`] — which picks the **width** as well as the
//!   instructions: eight lanes where one register holds them, four
//!   elsewhere (on the one CPU timed, a Sapphire Rapids Xeon, eight lanes
//!   as pairs of 256-bit registers ran slower than four).
//!
//! A kernel that must also exist for one value at a time is written once
//! over [`Lanes`] (`f64`, [`F64x4`] or [`F64x8`]), so its instantiations
//! cannot drift apart.
//!
//! Lanewise semantics are exactly scalar `f64` semantics — each lane of
//! `a + b`, `a * b`, `a.max(b)`, `a.mul_add(b, c)`, … is bit-for-bit the
//! corresponding scalar operation, including `-0.0` and NaN propagation
//! (pinned by `tests/proptest_lanes.rs`, at both widths). That includes
//! the fused multiply-add: `f64::mul_add` is correctly rounded everywhere
//! — one `vfmadd` inside a `fma` instantiation, libm's software `fma` in
//! the portable one — so the instantiations of a kernel differ in speed
//! and never in bits, and there is one arithmetic to choose from.

use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// The lanewise type, its arithmetic and its [`Lanes`] impl, for one
/// width: `$n` lanes aligned to `$align` bytes, so a vector load or store
/// of the in-memory representation is an aligned one. Every lanewise
/// operation is spelled out lane by lane (`$i` runs over the lanes), the
/// form the optimiser turns into one vector instruction; a loop over the
/// lanes lets it vectorise across the vectors of an array instead.
macro_rules! lane_vector {
    ($(#[$doc:meta])* $name:ident, $n:literal, $align:literal, [$($i:literal)*]) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Default)]
        #[repr(C, align($align))]
        pub struct $name(pub [f64; $n]);

        impl $name {
            pub const LANES: usize = $n;

            /// Every lane set to `v`.
            #[inline(always)]
            pub fn splat(v: f64) -> $name {
                $name([v; $n])
            }

            /// All-zero vector.
            #[inline(always)]
            pub fn zero() -> $name {
                $name([0.0; $n])
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
            pub fn max(self, o: $name) -> $name {
                $name([$(self.0[$i].max(o.0[$i])),*])
            }

            /// Lanewise absolute value.
            #[inline(always)]
            pub fn abs(self) -> $name {
                $name([$(self.0[$i].abs()),*])
            }

            /// Lanewise `if self > o { a } else { b }` — a true select
            /// (compare and blend), so a NaN or infinity in the lane not
            /// chosen never reaches the result. A NaN in `self` or `o`
            /// chooses `b`.
            #[inline(always)]
            pub fn select_gt(self, o: $name, a: $name, b: $name) -> $name {
                $name([$(if self.0[$i] > o.0[$i] { a.0[$i] } else { b.0[$i] }),*])
            }

            /// Whether any lane of `self` exceeds the same lane of `o`
            /// (one compare and a mask test; NaN lanes count as not
            /// greater).
            #[inline(always)]
            pub fn any_gt(self, o: $name) -> bool {
                false $(| (self.0[$i] > o.0[$i]))*
            }

            /// Whether every lane of `self` exceeds the same lane of `o`.
            #[inline(always)]
            pub fn all_gt(self, o: $name) -> bool {
                true $(& (self.0[$i] > o.0[$i]))*
            }

            /// Lanewise fused multiply-add `self * b + c` (one rounding
            /// per lane). Compiles to `vfmadd…pd` when the calling
            /// function carries the `fma` target feature; elsewhere it is
            /// the libm software `fma` — the same bits, slowly.
            #[inline(always)]
            pub fn mul_add(self, b: $name, c: $name) -> $name {
                $name([$(self.0[$i].mul_add(b.0[$i], c.0[$i])),*])
            }
        }

        lane_vector!(@binop $name [$($i)*] Add add AddAssign add_assign +);
        lane_vector!(@binop $name [$($i)*] Sub sub SubAssign sub_assign -);
        lane_vector!(@binop $name [$($i)*] Mul mul MulAssign mul_assign *);
        lane_vector!(@binop $name [$($i)*] Div div DivAssign div_assign /);

        impl Neg for $name {
            type Output = $name;
            #[inline(always)]
            fn neg(self) -> $name {
                $name([$(-self.0[$i]),*])
            }
        }

        impl Lanes for $name {
            const LANES: usize = $n;
            #[inline(always)]
            fn splat(v: f64) -> $name {
                $name::splat(v)
            }
            #[inline(always)]
            fn lane(self, i: usize) -> f64 {
                self.0[i]
            }
            #[inline(always)]
            fn set_lane(&mut self, i: usize, v: f64) {
                self.0[i] = v;
            }
            #[inline(always)]
            fn max(self, o: $name) -> $name {
                $name::max(self, o)
            }
            #[inline(always)]
            fn abs(self) -> $name {
                $name::abs(self)
            }
            #[inline(always)]
            fn select_gt(self, o: $name, a: $name, b: $name) -> $name {
                $name::select_gt(self, o, a, b)
            }
            #[inline(always)]
            fn any_gt(self, o: $name) -> bool {
                $name::any_gt(self, o)
            }
            #[inline(always)]
            fn all_gt(self, o: $name) -> bool {
                $name::all_gt(self, o)
            }
            #[inline(always)]
            fn map(self, f: impl Fn(f64) -> f64) -> $name {
                $name([$(f(self.0[$i])),*])
            }
            #[inline(always)]
            fn mul_add(self, b: $name, c: $name) -> $name {
                $name::mul_add(self, b, c)
            }
        }
    };
    (@binop $name:ident [$($i:literal)*] $trait:ident $method:ident $assign:ident $assign_method:ident $op:tt) => {
        impl $trait for $name {
            type Output = $name;
            #[inline(always)]
            fn $method(self, o: $name) -> $name {
                $name([$(self.0[$i] $op o.0[$i]),*])
            }
        }

        impl $assign for $name {
            #[inline(always)]
            fn $assign_method(&mut self, o: $name) {
                *self = *self $op o;
            }
        }
    };
}

lane_vector!(
    /// Four `f64` lanes, 32-byte aligned so an AVX `vmovapd` load/store is
    /// legal on the in-memory representation.
    F64x4,
    4,
    32,
    [0 1 2 3]
);

lane_vector!(
    /// Eight `f64` lanes, 64-byte aligned: one AVX-512 `zmm` register.
    F64x8,
    8,
    64,
    [0 1 2 3 4 5 6 7]
);

impl F64x4 {
    #[inline(always)]
    pub fn new(a: f64, b: f64, c: f64, d: f64) -> F64x4 {
        F64x4([a, b, c, d])
    }
}

/// One `f64`, four or eight: what a kernel written once for every width
/// needs of its values. Every method is the lanewise scalar operation, so
/// the instantiation of a kernel at `f64` computes, bit for bit, each lane
/// of its instantiations at [`F64x4`] and [`F64x8`].
pub trait Lanes:
    Copy
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
{
    /// Lanes per value: 1, 4 or 8.
    const LANES: usize;
    /// Every lane set to `v`.
    fn splat(v: f64) -> Self;
    /// Lane `i` (`i < LANES`).
    fn lane(self, i: usize) -> f64;
    /// Set lane `i` to `v`.
    fn set_lane(&mut self, i: usize, v: f64);
    /// Lanewise `f64::max`.
    fn max(self, o: Self) -> Self;
    /// Lanewise `f64::abs`.
    fn abs(self) -> Self;
    /// Lanewise `if self > o { a } else { b }` (see [`F64x4::select_gt`]).
    fn select_gt(self, o: Self, a: Self, b: Self) -> Self;
    /// Whether any lane of `self` exceeds the same lane of `o` (NaN lanes
    /// count as not greater).
    fn any_gt(self, o: Self) -> bool;
    /// Whether every lane of `self` exceeds the same lane of `o` (NaN
    /// lanes count as not greater).
    fn all_gt(self, o: Self) -> bool;
    /// `f` applied to every lane.
    fn map(self, f: impl Fn(f64) -> f64) -> Self;
    /// Lanewise `f64::mul_add`: `self * b + c`, rounded once.
    fn mul_add(self, b: Self, c: Self) -> Self;
}

impl Lanes for f64 {
    const LANES: usize = 1;
    #[inline(always)]
    fn splat(v: f64) -> f64 {
        v
    }
    #[inline(always)]
    fn lane(self, _: usize) -> f64 {
        self
    }
    #[inline(always)]
    fn set_lane(&mut self, _: usize, v: f64) {
        *self = v;
    }
    #[inline(always)]
    fn max(self, o: f64) -> f64 {
        f64::max(self, o)
    }
    #[inline(always)]
    fn abs(self) -> f64 {
        f64::abs(self)
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
    fn any_gt(self, o: f64) -> bool {
        self > o
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

/// The fast paths this host runs, probed once and cached: `[avx2 + fma,
/// avx512f + avx2 + fma]`. The one place a CPU feature is detected.
fn detected() -> [bool; 2] {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::is_x86_feature_detected as has;
        use std::sync::OnceLock;
        static DETECTED: OnceLock<[bool; 2]> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            let fma = has!("avx2") && has!("fma");
            [fma, fma && has!("avx512f")]
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        [false; 2]
    }
}

/// Whether the host supports the AVX2+FMA fast path of four lanes.
/// Kernels dispatch on this before calling their `avx2,fma` instantiation.
pub fn fma_available() -> bool {
    detected()[0]
}

/// Whether the host supports the AVX-512 fast path of eight lanes
/// (`avx512f` as well as avx2 and fma). Kernels dispatch on this before
/// calling their `avx512f,avx2,fma` instantiation.
pub fn avx512_available() -> bool {
    detected()[1]
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
        let mut c = F64x8([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        c += F64x8::splat(1.0);
        c -= F64x8::splat(0.5);
        c *= F64x8::splat(2.0);
        assert_eq!(c.0, [3.0, 5.0, 7.0, 9.0, 11.0, 13.0, 15.0, 17.0]);
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
        // Eight lanes: only the last one is greater.
        let mut y = F64x8::zero();
        assert!(!y.any_gt(F64x8::zero()));
        y.set_lane(7, 1.0);
        assert!(y.any_gt(F64x8::zero()) && !y.all_gt(F64x8::zero()));
    }

    #[test]
    fn splat_and_lane_access() {
        assert_eq!(F64x4::splat(7.0).0, [7.0; 4]);
        assert_eq!(F64x8::splat(7.0).0, [7.0; 8]);
        let mut w = F64x4::zero();
        w.set_lane(2, 9.0);
        assert_eq!(w.lane(2), 9.0);
        assert_eq!(w.lane(0), 0.0);
    }

    #[test]
    fn alignment_is_the_vector_size() {
        assert_eq!(std::mem::align_of::<F64x4>(), 32);
        assert_eq!(std::mem::size_of::<F64x4>(), 32);
        assert_eq!(std::mem::align_of::<F64x8>(), 64);
        assert_eq!(std::mem::size_of::<F64x8>(), 64);
        assert_eq!((F64x4::LANES, F64x8::LANES), (4, 8));
        assert_eq!(
            (
                <f64 as Lanes>::LANES,
                <F64x4 as Lanes>::LANES,
                <F64x8 as Lanes>::LANES
            ),
            (1, 4, 8)
        );
    }

    #[test]
    fn mul_add_rounds_once() {
        // A case where one rounding differs from two.
        let (a, b, c) = (1.0 + 2f64.powi(-30), 1.0 + 2f64.powi(-30), -1.0);
        assert!(a.mul_add(b, c) != a * b + c);
        let got = F64x4::splat(a).mul_add(F64x4::splat(b), F64x4::splat(c));
        assert_eq!(got.0, [a.mul_add(b, c); 4]);
        let got = F64x8::splat(a).mul_add(F64x8::splat(b), F64x8::splat(c));
        assert_eq!(got.0, [a.mul_add(b, c); 8]);
    }

    #[test]
    fn one_lane_four_and_eight_run_the_same_generic_kernel() {
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
        let x8 = F64x8(
            [x.0, [-0.0, 1e-300, f64::NAN, 3.0]]
                .concat()
                .try_into()
                .unwrap(),
        );
        let eight = kernel(x8);
        for lane in 0..8 {
            let want = kernel(x8.lane(lane)).to_bits();
            assert_eq!(eight.lane(lane).to_bits(), want, "lane {lane}");
            if lane < 4 {
                assert_eq!(four.lane(lane).to_bits(), want, "lane {lane}");
            }
        }
    }

    #[test]
    fn detection_is_consistent() {
        // Each fast path implies the features show up in the report, and
        // the wide one implies the narrow one.
        let feats = cpu_features();
        if fma_available() {
            assert!(feats.contains(&"avx2") && feats.contains(&"fma"));
        }
        if avx512_available() {
            assert!(fma_available() && feats.contains(&"avx512f"));
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
