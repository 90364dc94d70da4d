//! Property tests: every `F64x4` lane operation is *exactly* the scalar
//! `f64` operation applied per lane. Operands come from raw `u64` bit
//! patterns, so the samples include negative zero, NaNs (with varied
//! payloads), infinities and subnormals — the cases where "close
//! enough" semantics would hide a divergence. Comparisons are on
//! `to_bits`, not `==`, so `-0.0` vs `0.0` and NaN propagation are
//! checked, not excused.

use airshed_simd::{F64x4, Lanes};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lane_ops_match_scalar_f64(bits in prop::collection::vec(any::<u64>(), 12)) {
        let a = [f(bits[0]), f(bits[1]), f(bits[2]), f(bits[3])];
        let b = [f(bits[4]), f(bits[5]), f(bits[6]), f(bits[7])];
        let c = [f(bits[8]), f(bits[9]), f(bits[10]), f(bits[11])];
        let va = F64x4::new(a[0], a[1], a[2], a[3]);
        let vb = F64x4::new(b[0], b[1], b[2], b[3]);
        let vc = F64x4::new(c[0], c[1], c[2], c[3]);
        for lane in 0..F64x4::LANES {
            assert_bits("add", lane, (va + vb).lane(lane), a[lane] + b[lane]);
            assert_bits("sub", lane, (va - vb).lane(lane), a[lane] - b[lane]);
            assert_bits("mul", lane, (va * vb).lane(lane), a[lane] * b[lane]);
            assert_bits("div", lane, (va / vb).lane(lane), a[lane] / b[lane]);
            assert_bits("neg", lane, (-va).lane(lane), -a[lane]);
            assert_bits("abs", lane, va.abs().lane(lane), a[lane].abs());
            assert_bits("max", lane, va.max(vb).lane(lane), a[lane].max(b[lane]));
            assert_bits("min", lane, va.min(vb).lane(lane), a[lane].min(b[lane]));
            assert_bits(
                "mul_add",
                lane,
                va.mul_add(vb, vc).lane(lane),
                a[lane].mul_add(b[lane], c[lane]),
            );
            // The trait's method, which the generic kernels call, at
            // both of its instantiations.
            let want = f64::mul_add(a[lane], b[lane], c[lane]);
            assert_bits("Lanes::mul_add x4", lane, Lanes::mul_add(va, vb, vc).lane(lane), want);
            assert_bits("Lanes::mul_add x1", lane, Lanes::mul_add(a[lane], b[lane], c[lane]), want);
        }
        // Reductions follow their documented association exactly.
        assert_bits("reduce_add", 0, va.reduce_add(), (a[0] + a[1]) + (a[2] + a[3]));
        assert_bits(
            "reduce_max",
            0,
            va.reduce_max(),
            a[0].max(a[1]).max(a[2].max(a[3])),
        );
    }

    #[test]
    fn lane_accessors_roundtrip_any_bit_pattern(bits in any::<u64>(), lane in 0usize..4) {
        let v = f(bits);
        // splat puts the exact pattern in every lane.
        let s = F64x4::splat(v);
        for l in 0..F64x4::LANES {
            assert_bits("splat", l, s.lane(l), v);
        }
        // set_lane touches exactly one lane.
        let mut z = F64x4::zero();
        z.set_lane(lane, v);
        for l in 0..F64x4::LANES {
            let want = if l == lane { v } else { 0.0 };
            assert_bits("set_lane", l, z.lane(l), want);
        }
        // from_slice / write_to preserve patterns verbatim.
        let src = [v, -v, v, f(bits ^ (1 << 63))];
        let mut out = [0.0f64; 4];
        F64x4::from_slice(&src).write_to(&mut out);
        for l in 0..F64x4::LANES {
            assert_bits("from_slice/write_to", l, out[l], src[l]);
        }
    }
}
