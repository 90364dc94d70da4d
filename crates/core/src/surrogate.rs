//! The surrogate answer tier: a per-cell polynomial response surface
//! fitted over completed ensemble members.
//!
//! Most operational "what-if" queries are small perturbations of an
//! episode someone already simulated — *what if emissions were cut
//! another 10 %?* After an emission-scaling [`EnsembleJob`] completes,
//! every surface cell has been observed at N scaling factors; fitting a
//! low-degree polynomial per cell (least squares over the member
//! scales, solved by the same ridge-stabilised Gaussian elimination the
//! performance oracle uses — no ML dependencies) gives an instant
//! approximate answer for *any* scale in the trained range.
//!
//! The tier is honest about its error: the fit records the **maximum
//! absolute training residual** over all cells and members, and
//! [`ResponseSurface::query`] answers only when that bound is within
//! the caller's tolerance and the queried scale is inside the trained
//! range — otherwise it reports *why* and the caller falls back to
//! exact simulation (`airshed_server::ScenarioServer::what_if`, the one
//! what-if router, runs that fallback). Predictions
//! on the training members themselves always respect the reported
//! bound (pinned by `crates/core/tests/proptest_surrogate.rs`).
//!
//! A hit is one pass over fixed-width coefficient rows with the number
//! of terms a compile-time constant; each cell sums exactly
//! `((0 + a·1) + b·x) + d·x²` up to its degree, so answers and bounds keep
//! their bits (pinned by `crates/core/tests/surrogate_bits.rs`).
//!
//! ```
//! use airshed_core::surrogate::{ResponseSurface, SurrogateAnswer};
//!
//! // Two cells observed at three emission scales; responses are linear
//! // in the scale, so the quadratic fit is exact.
//! let scales = [0.5, 1.0, 1.5];
//! let fields: Vec<Vec<f64>> = scales.iter().map(|s| vec![2.0 * s, 10.0 - s]).collect();
//! let surface = ResponseSurface::fit(&scales, &fields).unwrap();
//! assert!(surface.error_bound() < 1e-9);
//!
//! // In range, bound within tolerance: answered instantly.
//! match surface.query(0.75, 1e-6) {
//!     SurrogateAnswer::Hit { field, .. } => assert!((field[0] - 1.5).abs() < 1e-9),
//!     SurrogateAnswer::Fallback(reason) => panic!("unexpected fallback: {reason}"),
//! }
//! // Out of the trained range: the surrogate refuses and the caller
//! // runs the simulator instead.
//! assert!(matches!(
//!     surface.query(3.0, 1e-6),
//!     SurrogateAnswer::Fallback(_)
//! ));
//! ```
//!
//! [`EnsembleJob`]: crate::ensemble::EnsembleJob

use crate::ensemble::EnsembleResult;
use crate::report::RunReport;
use std::fmt;

/// Relative ridge on the normal-equation diagonal, applied only when
/// the unridged solve is singular (duplicate or near-duplicate scales):
/// exact fits stay exact, degenerate designs stay solvable. The error
/// bound is measured after any ridge, so the contract holds regardless.
const RIDGE: f64 = 1e-10;

/// Why a surrogate could not be fitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FitError {
    /// No training members.
    NoMembers,
    /// Members disagree on the response-field length.
    MismatchedFields,
    /// Members differ in weather or day, not only in emission scale.
    MixedInputs,
    /// The normal equations were singular even with the ridge.
    Singular,
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::NoMembers => write!(f, "no training members"),
            FitError::MismatchedFields => write!(f, "members have different field lengths"),
            FitError::MixedInputs => write!(
                f,
                "members differ in weather or day, not only in emission scale"
            ),
            FitError::Singular => write!(f, "singular normal equations"),
        }
    }
}

impl std::error::Error for FitError {}

/// Why a query fell back to exact simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FallbackReason {
    /// The fit's error bound exceeds the caller's tolerance.
    BoundExceedsTolerance { bound: f64, tolerance: f64 },
    /// The queried scale is outside the trained range — the polynomial
    /// would extrapolate, and the training residuals say nothing about
    /// extrapolation error.
    OutOfRange { scale: f64, lo: f64, hi: f64 },
}

impl fmt::Display for FallbackReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FallbackReason::BoundExceedsTolerance { bound, tolerance } => {
                write!(
                    f,
                    "error bound {bound:.3e} exceeds tolerance {tolerance:.3e}"
                )
            }
            FallbackReason::OutOfRange { scale, lo, hi } => {
                write!(f, "scale {scale} outside trained range [{lo}, {hi}]")
            }
        }
    }
}

/// A [`ResponseSurface::query`] outcome.
#[derive(Debug, Clone)]
pub enum SurrogateAnswer {
    /// Answered from the fit, without touching the simulator. `bound`
    /// is the max-residual error bound the answer is good to.
    Hit { field: Vec<f64>, bound: f64 },
    /// The caller must run the exact simulation.
    Fallback(FallbackReason),
}

/// A per-cell polynomial response surface over the emission scale.
///
/// Cell `c`'s response is modelled as
/// `y_c(x) = a_c + b_c·x (+ d_c·x²)` with the degree chosen from the
/// number of distinct training scales (capped at 2); the coefficients
/// come from per-cell least squares over the members.
#[derive(Debug, Clone)]
pub struct ResponseSurface {
    /// Training scales, in member order.
    scales: Vec<f64>,
    /// Polynomial degree (0, 1 or 2).
    degree: usize,
    /// One `[a, b, d]` row per response cell. Terms above the degree are
    /// zero and never evaluated: `0·∞` is NaN, so padding the sum would
    /// change `predict(±∞)`.
    coeffs: Vec<[f64; 3]>,
    /// Max |prediction − observation| over all cells and members.
    max_residual: f64,
    lo: f64,
    hi: f64,
}

impl ResponseSurface {
    /// Fit a surface from member scales and their response fields (one
    /// field per member, all the same length — e.g. each member's
    /// final-hour surface concentrations). The polynomial degree is
    /// `min(2, distinct scales − 1)`.
    pub fn fit(scales: &[f64], fields: &[Vec<f64>]) -> Result<ResponseSurface, FitError> {
        if scales.is_empty() || scales.len() != fields.len() {
            return Err(FitError::NoMembers);
        }
        let cells = fields[0].len();
        if fields.iter().any(|f| f.len() != cells) {
            return Err(FitError::MismatchedFields);
        }
        let mut distinct: Vec<f64> = Vec::new();
        for &s in scales {
            if !distinct.contains(&s) {
                distinct.push(s);
            }
        }
        let degree = (distinct.len() - 1).min(2);
        let k = degree + 1;

        // Normal equations share one matrix across cells (the design
        // depends only on the scales), so it is eliminated once; only
        // the right-hand side is per-cell.
        let mut ata = [[0.0f64; 3]; 3];
        for &x in scales {
            let basis = powers(x, k);
            for i in 0..k {
                for j in 0..k {
                    ata[i][j] += basis[i] * basis[j];
                }
            }
        }
        let mut ridged = ata;
        for (i, row) in ridged.iter_mut().enumerate().take(k) {
            row[i] *= 1.0 + RIDGE;
            if row[i] == 0.0 {
                row[i] = RIDGE;
            }
        }
        let elimination = eliminate(ata, k).or_else(|| eliminate(ridged, k));

        let mut coeffs = vec![[0.0f64; 3]; cells];
        for (c, row) in coeffs.iter_mut().enumerate() {
            let mut atb = [0.0f64; 3];
            for (m, &x) in scales.iter().enumerate() {
                let basis = powers(x, k);
                for i in 0..k {
                    atb[i] += basis[i] * fields[m][c];
                }
            }
            *row = solve(elimination.as_ref().ok_or(FitError::Singular)?, k, atb);
        }

        let (lo, hi) = scales
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &s| {
                (lo.min(s), hi.max(s))
            });
        let mut surface = ResponseSurface {
            scales: scales.to_vec(),
            degree,
            coeffs,
            max_residual: 0.0,
            lo,
            hi,
        };
        // The error bound is *measured*, not assumed: evaluate the fit
        // on every training member through the same `predict` path a
        // query uses, so queries at training scales reproduce exactly
        // the residuals bounded here.
        let mut max_residual = 0.0f64;
        for (m, &x) in scales.iter().enumerate() {
            let pred = surface.predict(x);
            for c in 0..cells {
                max_residual = max_residual.max((pred[c] - fields[m][c]).abs());
            }
        }
        surface.max_residual = max_residual;
        Ok(surface)
    }

    /// Fit from a completed emission-scaling ensemble, using each
    /// member's final-hour surface concentrations as the response
    /// field. Members must share weather and day (one input group) —
    /// otherwise the scale is not the only thing varying and a
    /// one-variable surface would conflate the axes.
    pub fn from_ensemble(result: &EnsembleResult) -> Result<ResponseSurface, FitError> {
        if result.members.is_empty() {
            return Err(FitError::NoMembers);
        }
        let first = &result.members[0].spec;
        if result
            .members
            .iter()
            .any(|m| m.spec.weather != first.weather || m.spec.day != first.day)
        {
            return Err(FitError::MixedInputs);
        }
        let scales = result.scales();
        let fields: Vec<Vec<f64>> = result
            .members
            .iter()
            .map(|m| m.surface().to_vec())
            .collect();
        ResponseSurface::fit(&scales, &fields)
    }

    /// Evaluate the surface at `scale`, unconditionally (no range or
    /// tolerance check — use [`ResponseSurface::query`] for the guarded
    /// path).
    pub fn predict(&self, scale: f64) -> Vec<f64> {
        match self.degree {
            0 => self.evaluate::<1>(scale),
            1 => self.evaluate::<2>(scale),
            _ => self.evaluate::<3>(scale),
        }
    }

    /// Every cell's `((0 + a·1) + b·x) + d·x²` cut to its first `K`
    /// terms, in one pass collected into the answer's one allocation.
    fn evaluate<const K: usize>(&self, x: f64) -> Vec<f64> {
        let basis = powers(x, K);
        self.coeffs
            .iter()
            .map(|c| (0..K).fold(0.0, |y, i| y + c[i] * basis[i]))
            .collect()
    }

    /// The guarded query: answer instantly when the queried scale is
    /// inside the trained range **and** the fit's error bound is within
    /// `tolerance`; otherwise report why the caller must fall back to
    /// exact simulation. Both guards are written in the positive, so a
    /// NaN scale or tolerance (the numbers are caller-supplied on the
    /// serving path) fails them and falls back.
    pub fn query(&self, scale: f64, tolerance: f64) -> SurrogateAnswer {
        if !(self.lo..=self.hi).contains(&scale) {
            return SurrogateAnswer::Fallback(FallbackReason::OutOfRange {
                scale,
                lo: self.lo,
                hi: self.hi,
            });
        }
        if self.max_residual <= tolerance {
            SurrogateAnswer::Hit {
                field: self.predict(scale),
                bound: self.max_residual,
            }
        } else {
            SurrogateAnswer::Fallback(FallbackReason::BoundExceedsTolerance {
                bound: self.max_residual,
                tolerance,
            })
        }
    }

    /// Max |prediction − observation| over all training members and
    /// cells — what a [`SurrogateAnswer::Hit`] is good to.
    pub fn error_bound(&self) -> f64 {
        self.max_residual
    }

    /// Number of training members.
    pub fn members(&self) -> usize {
        self.scales.len()
    }

    /// Polynomial degree of the fit.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Response cells per field.
    pub fn cells(&self) -> usize {
        self.coeffs.len()
    }

    /// Trained scale range.
    pub fn range(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }
}

/// `[1, x, x²]` up to the `k ≤ 3` terms a fit of degree ≤ 2 uses.
fn powers(x: f64, k: usize) -> [f64; 3] {
    let mut b = [0.0; 3];
    let mut v = 1.0;
    for slot in &mut b[..k] {
        *slot = v;
        v *= x;
    }
    b
}

/// How `airshed_server::ScenarioServer::what_if` answered a query.
#[derive(Debug, Clone)]
pub enum WhatIfOutcome {
    /// Answered from the surrogate — the simulator never ran.
    Surrogate { field: Vec<f64>, bound: f64 },
    /// Fell back to exact simulation (or no surface was available).
    Exact {
        field: Vec<f64>,
        report: Box<RunReport>,
        /// Why the surrogate declined, `None` when there was no
        /// fitted surface at all.
        reason: Option<FallbackReason>,
    },
}

impl WhatIfOutcome {
    /// The answered surface field, whichever tier produced it.
    pub fn field(&self) -> &[f64] {
        match self {
            WhatIfOutcome::Surrogate { field, .. } => field,
            WhatIfOutcome::Exact { field, .. } => field,
        }
    }

    pub fn is_surrogate(&self) -> bool {
        matches!(self, WhatIfOutcome::Surrogate { .. })
    }
}

/// Gaussian elimination with partial pivoting of the `k × k` normal
/// matrix (`k ≤ 3`), once for every cell: the upper triangle with each
/// row's multiple stored in the entry it eliminated (later swaps carry
/// it along), and the row each column swapped in. `None` on a
/// (numerically) singular matrix.
fn eliminate(mut m: [[f64; 3]; 3], k: usize) -> Option<([[f64; 3]; 3], [usize; 3])> {
    let mut swaps = [0; 3];
    for col in 0..k {
        let pivot = (col..k).max_by(|&a, &b| m[a][col].abs().total_cmp(&m[b][col].abs()))?;
        if m[pivot][col].abs() < 1e-12 {
            return None;
        }
        m.swap(col, pivot);
        swaps[col] = pivot;
        let pivot_row = m[col];
        for row in &mut m[col + 1..k] {
            let f = row[col] / pivot_row[col];
            for (v, p) in row[col + 1..k].iter_mut().zip(&pivot_row[col + 1..k]) {
                *v -= f * p;
            }
            row[col] = f;
        }
    }
    Some((m, swaps))
}

/// `y` with `m y = r`: [`eliminate`]'s swaps, then its multiples, each
/// entry taking the same subtractions in the same order as when the two
/// interleave, then back-substitution.
fn solve((m, swaps): &([[f64; 3]; 3], [usize; 3]), k: usize, mut r: [f64; 3]) -> [f64; 3] {
    for (col, &pivot) in swaps[..k].iter().enumerate() {
        r.swap(col, pivot);
    }
    for col in 0..k {
        for row in col + 1..k {
            r[row] -= m[row][col] * r[col];
        }
    }
    let mut y = [0.0; 3];
    for col in (0..k).rev() {
        let mut v = r[col];
        for (u, y) in m[col][col + 1..k].iter().zip(&y[col + 1..k]) {
            v -= u * y;
        }
        y[col] = v / m[col][col];
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ExecSpec;
    use crate::config::SimConfig;
    use crate::driver::Episode;
    use crate::ensemble::{run_ensemble, EnsembleJob};
    use crate::obs::Obs;

    /// The per-cell solve the fit ran before it shared one elimination:
    /// `m y = r` by Gaussian elimination with partial pivoting, `None`
    /// on a (numerically) singular system.
    fn solve_dense(mut m: Vec<Vec<f64>>, mut r: Vec<f64>) -> Option<Vec<f64>> {
        let k = r.len();
        for col in 0..k {
            let pivot = (col..k).max_by(|&a, &b| m[a][col].abs().total_cmp(&m[b][col].abs()))?;
            if m[pivot][col].abs() < 1e-12 {
                return None;
            }
            m.swap(col, pivot);
            r.swap(col, pivot);
            let pivot_row = m[col].clone();
            for row in col + 1..k {
                let f = m[row][col] / pivot_row[col];
                for (v, p) in m[row][col..].iter_mut().zip(&pivot_row[col..]) {
                    *v -= f * p;
                }
                r[row] -= f * r[col];
            }
        }
        let mut y = vec![0.0; k];
        for col in (0..k).rev() {
            let mut v = r[col];
            for j in col + 1..k {
                v -= m[col][j] * y[j];
            }
            y[col] = v / m[col][col];
        }
        Some(y)
    }

    /// Fits of five cells, `fields` at each of their scales, that cover
    /// every degree, a `-0.0` intercept (the first cell over negative
    /// scales) and the ridged solve (near-duplicate scales).
    fn fits() -> Vec<(ResponseSurface, Vec<Vec<f64>>)> {
        let scale_sets: [&[f64]; 6] = [
            &[0.7],
            &[-1.0, -2.0],
            &[0.5, 1.0, 1.5],
            &[-1.5, -1.0, -0.5, 0.5, 1.0, 1.5],
            &[0.5, 0.5, 1.5],
            &[1.0, 1.0 + 1e-9],
        ];
        scale_sets
            .iter()
            .map(|scales| {
                let fields: Vec<Vec<f64>> = scales
                    .iter()
                    .map(|&s| vec![-s, -0.0, 3.0 - 2.0 * s, s.sin(), 1e-2 * s.exp()])
                    .collect();
                (ResponseSurface::fit(scales, &fields).unwrap(), fields)
            })
            .collect()
    }

    #[test]
    fn shared_elimination_matches_the_per_cell_solve() {
        let fits = fits();
        assert!(fits
            .iter()
            .any(|(s, _)| s.coeffs[0][0].to_bits() == (-0.0f64).to_bits()));
        for (surface, fields) in &fits {
            let k = surface.degree + 1;
            let mut ata = vec![vec![0.0f64; k]; k];
            for &x in &surface.scales {
                let basis = powers(x, k);
                for i in 0..k {
                    for j in 0..k {
                        ata[i][j] += basis[i] * basis[j];
                    }
                }
            }
            let mut ridged = ata.clone();
            for (i, row) in ridged.iter_mut().enumerate() {
                row[i] *= 1.0 + RIDGE;
                if row[i] == 0.0 {
                    row[i] = RIDGE;
                }
            }
            for (c, row) in surface.coeffs.iter().enumerate() {
                let mut atb = vec![0.0f64; k];
                for (m, &x) in surface.scales.iter().enumerate() {
                    let basis = powers(x, k);
                    for i in 0..k {
                        atb[i] += basis[i] * fields[m][c];
                    }
                }
                let want = solve_dense(ata.clone(), atb.clone())
                    .or_else(|| solve_dense(ridged.clone(), atb))
                    .unwrap();
                let bits = |v: &[f64]| v.iter().map(|y| y.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&row[..k]),
                    bits(&want),
                    "{:?} cell {c}",
                    surface.scales
                );
                assert!(row[k..].iter().all(|&t| t.to_bits() == 0));
            }
        }
    }

    #[test]
    fn one_pass_evaluation_matches_the_cell_major_loop() {
        for (surface, _) in fits() {
            let k = surface.degree + 1;
            let flat: Vec<f64> = surface
                .coeffs
                .iter()
                .flat_map(|c| c[..k].to_vec())
                .collect();
            for x in [
                0.0,
                -0.0,
                0.6,
                -1.0,
                1e300,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NAN,
            ] {
                let basis = powers(x, k);
                let want: Vec<u64> = (0..surface.cells())
                    .map(|c| {
                        let co = &flat[c * k..(c + 1) * k];
                        let mut y = 0.0;
                        for i in 0..k {
                            y += co[i] * basis[i];
                        }
                        y.to_bits()
                    })
                    .collect();
                let got: Vec<u64> = surface.predict(x).iter().map(|y| y.to_bits()).collect();
                assert_eq!(got, want, "{:?} at {x}", surface.scales);
            }
        }
    }

    #[test]
    fn linear_data_fits_exactly() {
        let scales = [0.4, 0.8, 1.2, 1.6];
        let fields: Vec<Vec<f64>> = scales
            .iter()
            .map(|&s| vec![3.0 * s + 1.0, -2.0 * s, 0.5])
            .collect();
        let surface = ResponseSurface::fit(&scales, &fields).unwrap();
        assert_eq!(surface.degree(), 2);
        assert!(surface.error_bound() < 1e-9, "{}", surface.error_bound());
        let pred = surface.predict(1.0);
        assert!((pred[0] - 4.0).abs() < 1e-9);
        assert!((pred[1] + 2.0).abs() < 1e-9);
        assert!((pred[2] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn degree_follows_distinct_scales() {
        let one = ResponseSurface::fit(&[1.0], &[vec![5.0]]).unwrap();
        assert_eq!(one.degree(), 0);
        assert!((one.predict(1.0)[0] - 5.0).abs() < 1e-12);
        let two = ResponseSurface::fit(&[0.5, 1.0], &[vec![1.0], vec![2.0]]).unwrap();
        assert_eq!(two.degree(), 1);
    }

    #[test]
    fn query_falls_back_out_of_range_and_over_tolerance() {
        // Cubic-ish data a quadratic cannot fit exactly.
        let scales = [0.25, 0.5, 1.0, 2.0];
        let fields: Vec<Vec<f64>> = scales.iter().map(|&s| vec![s * s * s]).collect();
        let surface = ResponseSurface::fit(&scales, &fields).unwrap();
        assert!(surface.error_bound() > 0.0);
        match surface.query(4.0, 1.0) {
            SurrogateAnswer::Fallback(FallbackReason::OutOfRange { .. }) => {}
            other => panic!("expected out-of-range fallback, got {other:?}"),
        }
        match surface.query(1.0, surface.error_bound() / 2.0) {
            SurrogateAnswer::Fallback(FallbackReason::BoundExceedsTolerance { .. }) => {}
            other => panic!("expected tolerance fallback, got {other:?}"),
        }
        match surface.query(1.0, surface.error_bound() * 2.0) {
            SurrogateAnswer::Hit { bound, .. } => assert_eq!(bound, surface.error_bound()),
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn nan_scale_and_nan_tolerance_fall_back() {
        let surface = ResponseSurface::fit(&[0.5, 1.0, 1.5], &[vec![1.0], vec![2.0], vec![3.0]])
            .expect("distinct scales fit");
        assert!(matches!(
            surface.query(f64::NAN, f64::INFINITY),
            SurrogateAnswer::Fallback(FallbackReason::OutOfRange { .. })
        ));
        assert!(matches!(
            surface.query(1.0, f64::NAN),
            SurrogateAnswer::Fallback(FallbackReason::BoundExceedsTolerance { .. })
        ));
        assert!(matches!(
            surface.query(1.0, f64::INFINITY),
            SurrogateAnswer::Hit { .. }
        ));
    }

    #[test]
    fn ensemble_fit_interpolates_the_real_model() {
        let mut base = SimConfig::test_tiny(4, 1);
        base.dataset = crate::config::DatasetChoice::Tiny(40);
        base.start_hour = 10;
        let job = EnsembleJob::emission_sweep(base.clone(), &[0.5, 0.75, 1.0, 1.25]);
        let result = run_ensemble(&job, ExecSpec::default(), &Obs::off(), true);
        let surface = ResponseSurface::from_ensemble(&result).unwrap();
        assert_eq!(surface.members(), 4);
        assert_eq!(surface.cells(), result.members[0].surface().len());
        // Training members respect the bound through the query path.
        for m in &result.members {
            let pred = surface.predict(m.spec.emission_scale);
            for (p, y) in pred.iter().zip(m.surface()) {
                assert!((p - y).abs() <= surface.error_bound() + 1e-15);
            }
        }
        // An interior scale predicts between its neighbours for the
        // bulk of cells (the response is smooth in the scale).
        let mut interior = base.clone();
        interior.emission_scale = 0.875;
        let (_, profile, _) =
            Episode::new(&interior, None, ExecSpec::serial(), &Obs::off()).run(interior.hours);
        let exact = &profile.hours.last().expect("one hour ran").surface;
        let approx = surface.predict(0.875);
        let (mut close, mut total) = (0usize, 0usize);
        for (p, y) in approx.iter().zip(exact) {
            total += 1;
            if (p - y).abs() <= 5e-3 * y.abs().max(1e-6) + 1e-6 {
                close += 1;
            }
        }
        assert!(
            close * 10 >= total * 9,
            "only {close}/{total} cells within the smoothness band"
        );
    }

    #[test]
    fn a_sweep_over_two_days_is_refused_as_mixed_inputs() {
        let mut base = SimConfig::test_tiny(4, 1);
        base.dataset = crate::config::DatasetChoice::Tiny(40);
        base.start_hour = 10;
        let mut job = EnsembleJob::emission_sweep(base, &[0.5, 1.0]);
        job.members[1].day = 1;
        let result = run_ensemble(&job, ExecSpec::default(), &Obs::off(), true);
        let refused = ResponseSurface::from_ensemble(&result).unwrap_err();
        assert_eq!(refused, FitError::MixedInputs);
        assert_eq!(
            refused.to_string(),
            "members differ in weather or day, not only in emission scale"
        );
    }

    #[test]
    fn solver_handles_singular_and_regular_systems() {
        // Regular 2×2.
        let y = solve_dense(vec![vec![2.0, 0.0], vec![0.0, 4.0]], vec![2.0, 8.0]).unwrap();
        assert!((y[0] - 1.0).abs() < 1e-12 && (y[1] - 2.0).abs() < 1e-12);
        // Singular.
        assert!(solve_dense(vec![vec![1.0, 1.0], vec![1.0, 1.0]], vec![1.0, 2.0]).is_none());
    }
}
