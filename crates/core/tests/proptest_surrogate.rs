//! Property-based tests for the surrogate response surface.
//!
//! The surface's contract is *measured*, not modelled: `error_bound()`
//! is the max absolute residual over the training members, computed
//! through the same `predict()` path queries use. These properties pin
//! that contract over arbitrary per-cell polynomial data with noise.

use airshed_core::surrogate::{FallbackReason, ResponseSurface, SurrogateAnswer};
use proptest::prelude::*;

/// Deterministic pseudo-noise in [-amp, amp] — keeps the generated
/// field shapes decoupled from proptest's vector-length strategies.
fn noise(seed: u64, member: usize, cell: usize, amp: f64) -> f64 {
    let mut x = seed ^ ((member as u64) << 32) ^ (cell as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    amp * ((x % 2_000_001) as f64 / 1_000_000.0 - 1.0)
}

fn synthetic_fields(
    coeffs: &[(f64, f64, f64)],
    scales: &[f64],
    seed: u64,
    amp: f64,
) -> Vec<Vec<f64>> {
    scales
        .iter()
        .enumerate()
        .map(|(m, &s)| {
            coeffs
                .iter()
                .enumerate()
                .map(|(c, &(a, b, q))| a + b * s + q * s * s + noise(seed, m, c, amp))
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The headline contract: for every training member, the surface's
    /// prediction at that member's scale deviates from the member's
    /// field by at most the reported error bound.
    #[test]
    fn training_member_predictions_respect_the_reported_bound(
        coeffs in prop::collection::vec(
            (-10.0f64..10.0, -5.0f64..5.0, -2.0f64..2.0), 1..12),
        members in 3usize..7,
        lo in 0.1f64..1.0,
        step in 0.05f64..0.5,
        seed in any::<u64>(),
        amp in 0.0f64..0.5,
    ) {
        let scales: Vec<f64> = (0..members).map(|i| lo + step * i as f64).collect();
        let fields = synthetic_fields(&coeffs, &scales, seed, amp);
        let surface = ResponseSurface::fit(&scales, &fields).expect("distinct scales fit");
        let bound = surface.error_bound();
        for (m, &s) in scales.iter().enumerate() {
            let pred = surface.predict(s);
            for (c, (&p, &y)) in pred.iter().zip(&fields[m]).enumerate() {
                let err = (p - y).abs();
                prop_assert!(
                    err <= bound * (1.0 + 1e-12) + 1e-12,
                    "member {m} cell {c}: residual {err} exceeds bound {bound}"
                );
            }
        }
    }

    /// Query routing is exactly the documented contract: out-of-range
    /// scales fall back with `OutOfRange`, in-range queries hit iff the
    /// tolerance covers the bound, and a hit's field is `predict()`.
    #[test]
    fn query_contract_holds(
        coeffs in prop::collection::vec(
            (-10.0f64..10.0, -5.0f64..5.0, -2.0f64..2.0), 1..8),
        members in 3usize..6,
        seed in any::<u64>(),
        amp in 0.0f64..0.3,
        t in 0.0f64..1.0,
    ) {
        let scales: Vec<f64> = (0..members).map(|i| 0.5 + 0.25 * i as f64).collect();
        let fields = synthetic_fields(&coeffs, &scales, seed, amp);
        let surface = ResponseSurface::fit(&scales, &fields).unwrap();
        let bound = surface.error_bound();
        let (rlo, rhi) = surface.range();
        let inside = rlo + t * (rhi - rlo);

        // Tolerance at (or above) the bound: hit, field == predict().
        match surface.query(inside, bound * (1.0 + 1e-9) + 1e-15) {
            SurrogateAnswer::Hit { field, bound: b } => {
                prop_assert_eq!(b.to_bits(), bound.to_bits());
                let pred = surface.predict(inside);
                for (p, f) in pred.iter().zip(&field) {
                    prop_assert_eq!(p.to_bits(), f.to_bits());
                }
            }
            SurrogateAnswer::Fallback(r) => {
                prop_assert!(false, "in-tolerance query fell back: {r}");
            }
        }

        // Tolerance below the bound: fallback naming both numbers.
        if bound > 0.0 {
            match surface.query(inside, bound * 0.5) {
                SurrogateAnswer::Fallback(
                    FallbackReason::BoundExceedsTolerance { bound: b, tolerance }) => {
                    prop_assert_eq!(b.to_bits(), bound.to_bits());
                    prop_assert!((tolerance - bound * 0.5).abs() < 1e-15);
                }
                other => prop_assert!(false, "expected bound fallback, got {:?}",
                    matches!(other, SurrogateAnswer::Hit { .. })),
            }
        }

        // Outside the trained range: always a fallback, however loose
        // the tolerance — extrapolation is never trusted.
        match surface.query(rhi + 1.0, f64::INFINITY) {
            SurrogateAnswer::Fallback(FallbackReason::OutOfRange { scale, lo, hi }) => {
                prop_assert!((scale - (rhi + 1.0)).abs() < 1e-12);
                prop_assert_eq!(lo.to_bits(), rlo.to_bits());
                prop_assert_eq!(hi.to_bits(), rhi.to_bits());
            }
            _ => prop_assert!(false, "extrapolating query must fall back"),
        }

        // A NaN scale or tolerance satisfies neither guard: never a hit,
        // however well the surface fits.
        prop_assert!(matches!(
            surface.query(f64::NAN, f64::INFINITY),
            SurrogateAnswer::Fallback(FallbackReason::OutOfRange { .. })
        ));
        prop_assert!(matches!(
            surface.query(inside, f64::NAN),
            SurrogateAnswer::Fallback(FallbackReason::BoundExceedsTolerance { .. })
        ));
    }

    /// Noise-free data of degree <= 2 is reproduced essentially exactly
    /// (the least-squares fit is unbiased: no always-on ridge).
    #[test]
    fn exact_polynomial_data_fits_tightly(
        coeffs in prop::collection::vec(
            (-10.0f64..10.0, -5.0f64..5.0, -2.0f64..2.0), 1..10),
        members in 3usize..7,
    ) {
        let scales: Vec<f64> = (0..members).map(|i| 0.4 + 0.3 * i as f64).collect();
        let fields = synthetic_fields(&coeffs, &scales, 0, 0.0);
        let surface = ResponseSurface::fit(&scales, &fields).unwrap();
        prop_assert_eq!(surface.degree(), 2);
        prop_assert!(
            surface.error_bound() < 1e-6,
            "exact quadratic data must fit to numerical noise, bound {}",
            surface.error_bound()
        );
    }
}
