//! Property tests: every `F64x4` and `F64x8` lane operation is *exactly*
//! the scalar `f64` operation applied per lane. Operands come from raw
//! `u64` bit patterns, so the samples include negative zero, NaNs (with
//! varied payloads), infinities and subnormals — the cases where "close
//! enough" semantics would hide a divergence. Comparisons are on
//! `to_bits`, not `==`, so `-0.0` vs `0.0` and NaN propagation are
//! checked, not excused.

use airshed_simd::{F64x4, F64x8, Lanes};
use proptest::prelude::*;

fn f(bits: u64) -> f64 {
    f64::from_bits(bits)
}

fn assert_bits(op: &str, lane: usize, got: f64, want: f64) {
    assert!(
        got.to_bits() == want.to_bits(),
        "{op} lane {lane}: {got:e} ({:#018x}) vs scalar {want:e} ({:#018x})",
        got.to_bits(),
        want.to_bits()
    );
}

/// The vector whose lane `i` is `x[i]`.
fn load<V: Lanes>(x: &[f64]) -> V {
    let mut v = V::splat(f64::NAN);
    for (i, &x) in x.iter().enumerate().take(V::LANES) {
        v.set_lane(i, x);
    }
    v
}

/// Every operation of the [`Lanes`] trait — the ones the generic kernels
/// call — against the scalar operation, lane by lane, at width `V`.
fn lanes_match_scalar<V: Lanes>(a: &[f64], b: &[f64], c: &[f64]) {
    let (va, vb, vc) = (load::<V>(a), load::<V>(b), load::<V>(c));
    let n = V::LANES;
    let (sum, diff, prod, quot) = (va + vb, va - vb, va * vb, va / vb);
    let picked = va.select_gt(vb, vc, -vc);
    for lane in 0..n {
        let (a, b, c) = (a[lane], b[lane], c[lane]);
        assert_bits("add", lane, sum.lane(lane), a + b);
        assert_bits("sub", lane, diff.lane(lane), a - b);
        assert_bits("mul", lane, prod.lane(lane), a * b);
        assert_bits("div", lane, quot.lane(lane), a / b);
        assert_bits("neg", lane, (-va).lane(lane), -a);
        assert_bits("abs", lane, va.abs().lane(lane), a.abs());
        assert_bits("max", lane, va.max(vb).lane(lane), a.max(b));
        assert_bits("map", lane, va.map(f64::sqrt).lane(lane), a.sqrt());
        let want = f64::mul_add(a, b, c);
        assert_bits("mul_add", lane, va.mul_add(vb, vc).lane(lane), want);
        assert_bits("mul_add x1", lane, Lanes::mul_add(a, b, c), want);
        // A NaN on either side of the compare picks the second operand.
        let pick = if a > b { c } else { -c };
        assert_bits("select_gt", lane, picked.lane(lane), pick);
        assert_bits("select_gt x1", lane, a.select_gt(b, c, -c), pick);
    }
    let gt = |i: usize| a[i] > b[i];
    assert_eq!(va.any_gt(vb), (0..n).any(gt), "any_gt");
    assert_eq!(va.all_gt(vb), (0..n).all(gt), "all_gt");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lane_ops_match_scalar_f64(bits in prop::collection::vec(any::<u64>(), 24)) {
        let x: Vec<f64> = bits.into_iter().map(f).collect();
        let (a, b, c) = (&x[..8], &x[8..16], &x[16..]);
        lanes_match_scalar::<F64x4>(a, b, c);
        lanes_match_scalar::<F64x8>(a, b, c);
        // The inherent multiply-add beside the trait's.
        let (a4, b4) = (F64x4::new(a[0], a[1], a[2], a[3]), F64x4::new(b[0], b[1], b[2], b[3]));
        for lane in 0..4 {
            let want = a[lane].mul_add(b[lane], a[lane]);
            assert_bits("inherent mul_add x4", lane, a4.mul_add(b4, a4).lane(lane), want);
        }
    }

    #[test]
    fn lane_accessors_roundtrip_any_bit_pattern(bits in any::<u64>(), lane in 0usize..8) {
        let v = f(bits);
        // splat puts the exact pattern in every lane.
        let (s4, s8) = (F64x4::splat(v), F64x8::splat(v));
        for l in 0..8 {
            assert_bits("splat x8", l, s8.lane(l), v);
            if l < 4 {
                assert_bits("splat x4", l, s4.lane(l), v);
            }
        }
        // set_lane touches exactly one lane.
        let mut z = F64x8::zero();
        z.set_lane(lane, v);
        for l in 0..F64x8::LANES {
            let want = if l == lane { v } else { 0.0 };
            assert_bits("set_lane", l, z.lane(l), want);
        }
        let mut z = F64x4::zero();
        z.set_lane(lane % 4, v);
        assert_bits("set_lane x4", lane % 4, z.lane(lane % 4), v);
        // The tuple field holds the patterns verbatim.
        let src = [v, -v, v, f(bits ^ (1 << 63)), -v, v, f(!bits), 0.0];
        let v8 = F64x8(src);
        for (l, &want) in src.iter().enumerate() {
            assert_bits("F64x8(..)", l, v8.lane(l), want);
        }
    }
}
