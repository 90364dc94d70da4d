//! The response surface's bits, pinned as one hash.
//!
//! Fits of 1, 2, 3 and 6 members (degrees 0, 1 and 2) over fields of 1,
//! 7 and 232 cells are queried at their training scales, between them,
//! outside the range and at ±∞ and NaN; the hash covers each fit's
//! degree, `error_bound()` and every predicted bit. The 232-cell fields
//! are the `tiny:60` emission sweep the `ensemble_whatif` benchmark
//! fits; the synthetic ones include a fit whose intercept is `-0.0` and
//! a near-duplicate pair of scales that takes the ridged solve. A change
//! to how the surface is stored, fitted or evaluated must keep the hash.

use airshed_core::config::{DatasetChoice, SimConfig};
use airshed_core::ensemble::{run_ensemble, EnsembleJob};
use airshed_core::surrogate::ResponseSurface;
use airshed_core::{ExecSpec, Obs};

/// The `ensemble_whatif` sweep's scales.
const SWEEP: [f64; 6] = [0.5, 0.7, 0.9, 1.1, 1.3, 1.5];

/// FNV-1a over 64-bit words, a byte at a time.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, bits: u64) {
        for i in 0..8 {
            self.0 ^= (bits >> (8 * i)) & 0xff;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Member `m` of the seven synthetic cells at scale `s`: a line of
/// slope −1 (whose two-member fit over negative scales has a `-0.0`
/// intercept), a negative-zero constant, a line, a parabola and three
/// curves no quadratic fits exactly.
fn synthetic(s: f64) -> Vec<f64> {
    vec![
        -s,
        -0.0,
        3.0 - 2.0 * s,
        0.5 * s * s - s + 0.25,
        s.sin(),
        1e-3 * (7.0 * s).cos(),
        1e-2 * s.exp(),
    ]
}

/// Fold one fit (or its error) and its predictions into the hash.
fn fold(hash: &mut Fnv, scales: &[f64], fields: &[Vec<f64>]) {
    let surface = match ResponseSurface::fit(scales, fields) {
        Ok(surface) => surface,
        Err(e) => {
            hash.word(u64::MAX);
            hash.word(e.to_string().len() as u64);
            return;
        }
    };
    hash.word(surface.degree() as u64);
    hash.word(surface.error_bound().to_bits());
    let (lo, hi) = surface.range();
    let mut queries = scales.to_vec();
    queries.extend([
        0.0,
        -0.0,
        0.5 * (lo + hi),
        lo + 0.25 * (hi - lo),
        -1.0,
        2.0,
        1e300,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ]);
    for x in queries {
        for y in surface.predict(x) {
            hash.word(y.to_bits());
        }
    }
}

/// The 1-, 2-, 3- and 6-member subsets of `members` the hash fits.
fn subsets<T: Clone>(members: &[T]) -> [Vec<T>; 4] {
    let pick = |idx: &[usize]| idx.iter().map(|&i| members[i].clone()).collect();
    [
        pick(&[3]),
        pick(&[2, 3]),
        pick(&[0, 2, 5]),
        pick(&[0, 1, 2, 3, 4, 5]),
    ]
}

fn hash_of_every_fit() -> u64 {
    let mut hash = Fnv(0xcbf2_9ce4_8422_2325);

    let mut base = SimConfig::test_tiny(16, 1);
    base.dataset = DatasetChoice::Tiny(60);
    base.start_hour = 5;
    let job = EnsembleJob::emission_sweep(base, &SWEEP);
    let result = run_ensemble(&job, ExecSpec::serial(), &Obs::off(), true);
    let sweep: Vec<Vec<f64>> = result
        .members
        .iter()
        .map(|m| m.surface().to_vec())
        .collect();
    assert_eq!(sweep[0].len(), 232, "the tiny:60 surface has 232 cells");
    for (scales, fields) in subsets(&SWEEP).iter().zip(subsets(&sweep)) {
        fold(&mut hash, scales, &fields);
    }

    let scale_sets: [&[f64]; 6] = [
        &[0.7],
        &[-1.0, -2.0],
        &[0.5, 1.0, 1.5],
        &[-1.5, -1.0, -0.5, 0.5, 1.0, 1.5],
        &[0.5, 0.5, 1.5],
        &[1.0, 1.0 + 1e-9],
    ];
    for scales in scale_sets {
        let seven: Vec<Vec<f64>> = scales.iter().map(|&s| synthetic(s)).collect();
        let one: Vec<Vec<f64>> = seven.iter().map(|f| vec![f[0]]).collect();
        fold(&mut hash, scales, &one);
        fold(&mut hash, scales, &seven);
    }
    hash.0
}

#[test]
fn every_predicted_bit_and_bound_match_the_pinned_hash() {
    assert_eq!(
        hash_of_every_fit(),
        0x8293_550d_fec5_d671,
        "a surface's error bound or a predicted bit moved"
    );
}
