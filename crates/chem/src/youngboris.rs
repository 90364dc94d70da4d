//! Hybrid stiff ODE integrator after Young & Boris (1977).
//!
//! The paper solves the chemistry/vertical-transport operator with "the
//! hybrid scheme of Young and Boris for stiff systems of ordinary
//! differential equations". The scheme partitions species *per substep* by
//! stiffness: species whose loss frequency `L` makes `L·h` large are
//! advanced with an asymptotic quasi-steady-state update of
//! `dc/dt = P − L·c` (treating `P` and `τ = 1/L` as locally constant),
//! while the rest use an explicit predictor–corrector. A single
//! predictor/corrector difference drives the adaptive substep size.
//!
//! Two asymptotic forms are provided:
//!
//! * [`AsymptoticForm::Rational`] — Young & Boris's original Padé(1,1)
//!   form `c₁ = (c₀(2τ−h) + 2Pτh)/(2τ+h)`, cheap but not L-stable (it
//!   rings for `h ≫ τ`);
//! * [`AsymptoticForm::Exponential`] — the exact constant-coefficient
//!   solution `c₁ = Pτ + (c₀−Pτ)e^{−h/τ}`, L-stable. This is the default;
//!   the benchmark suite includes an ablation comparing the two.
//!
//! [`integrate_cell_with_k`] is the *definition* of the chemistry: the
//! production code integrates four cells at a time
//! ([`crate::simd::integrate_stream`]), and each of its lanes is held,
//! bit for bit, to what this function computes for that cell. Three
//! choices here exist for that reason — the arithmetic is the lanes' —
//! and all use correctly rounded operations only, so the bits are the
//! same on every host: loss frequencies come in the reciprocal form
//! (`Mechanism::prod_loss`), the stiff update's exponential is the
//! polynomial `exp_poly`, not libm's, and the production/loss sums, the
//! Euler and trapezoid updates and `exp_poly` take `f64::mul_add` where
//! the lanes take `vfmadd` (outside an `fma` function that is libm's
//! software `fma`: the same bits, slowly — this function is the oracle,
//! not the production path).

use crate::mechanism::Mechanism;
use airshed_simd::Lanes;

/// Which asymptotic update the stiff branch uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AsymptoticForm {
    Rational,
    Exponential,
}

/// Integrator options.
#[derive(Debug, Clone, Copy)]
pub struct YbOptions {
    /// Relative accuracy target for the predictor/corrector difference.
    pub eps: f64,
    /// Absolute concentration floor entering the error denominator (ppm).
    pub atol: f64,
    /// Smallest substep (minutes); the step is accepted unconditionally
    /// at this size to guarantee progress.
    pub h_min: f64,
    /// Largest substep (minutes).
    pub h_max: f64,
    /// A species is treated as stiff when `L·h > stiff_ratio`.
    pub stiff_ratio: f64,
    /// Asymptotic update form for stiff species.
    pub form: AsymptoticForm,
}

impl Default for YbOptions {
    fn default() -> Self {
        YbOptions {
            // 0.002 keeps fast NOx cycling accurate enough that nitrogen
            // drifts < ~0.1 %/h; daytime substeps land near 5-10 s, the
            // range production QSSA-type solvers use.
            eps: 0.002,
            atol: 1e-8,
            h_min: 1e-6,
            h_max: 5.0,
            stiff_ratio: 1.0,
            form: AsymptoticForm::Exponential,
        }
    }
}

/// Work statistics from one cell integration. `substeps` is the natural
/// work unit for the performance model: chemistry cost per cell is
/// proportional to accepted substeps × mechanism size.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct YbStats {
    /// Accepted substeps.
    pub substeps: u64,
    /// Rejected (re-tried) substeps.
    pub rejected: u64,
    /// Production/loss evaluations.
    pub evals: u64,
}

impl YbStats {
    /// Merge statistics from another integration.
    pub fn absorb(&mut self, other: YbStats) {
        self.substeps += other.substeps;
        self.rejected += other.rejected;
        self.evals += other.evals;
    }
}

/// Scratch buffers reused across cells to avoid per-cell allocation (the
/// chemistry loop visits every grid cell every time step).
pub struct YbWorkspace {
    k: Vec<f64>,
    p0: Vec<f64>,
    l0: Vec<f64>,
    pp: Vec<f64>,
    lp: Vec<f64>,
    cp: Vec<f64>,
    c1: Vec<f64>,
}

impl YbWorkspace {
    pub fn new(n_species: usize) -> Self {
        YbWorkspace {
            k: Vec::new(),
            p0: vec![0.0; n_species],
            l0: vec![0.0; n_species],
            pp: vec![0.0; n_species],
            lp: vec![0.0; n_species],
            cp: vec![0.0; n_species],
            c1: vec![0.0; n_species],
        }
    }
}

/// Advance one cell's concentration vector by `dt_min` minutes at fixed
/// temperature and actinic factor. `conc` is updated in place; all entries
/// remain finite and non-negative.
///
/// Evaluates the rate constants for this one cell; callers integrating
/// many cells at the same `(T, sun)` — every cell of a layer shares
/// them — should evaluate once and use [`integrate_cell_with_k`].
pub fn integrate_cell(
    mech: &Mechanism,
    conc: &mut [f64],
    t_kelvin: f64,
    sun: f64,
    dt_min: f64,
    opts: &YbOptions,
    ws: &mut YbWorkspace,
) -> YbStats {
    let mut k = std::mem::take(&mut ws.k);
    mech.rate_constants(t_kelvin, sun, &mut k);
    let stats = integrate_cell_with_k(mech, conc, &k, dt_min, opts, ws);
    ws.k = k;
    stats
}

/// [`integrate_cell`] with the rate constants already evaluated —
/// `k[r]` for reaction `r` at the cell's `(T, sun)`. Rate-constant
/// evaluation is pure, so hoisting it out of the cell loop is
/// bit-identical to evaluating per cell.
pub fn integrate_cell_with_k(
    mech: &Mechanism,
    conc: &mut [f64],
    k: &[f64],
    dt_min: f64,
    opts: &YbOptions,
    ws: &mut YbWorkspace,
) -> YbStats {
    debug_assert_eq!(conc.len(), mech.n_species());
    debug_assert_eq!(k.len(), mech.n_reactions());
    let mut stats = YbStats::default();
    if dt_min <= 0.0 {
        return stats;
    }

    let n = mech.n_species();
    let mut t = 0.0;

    // Initial P/L evaluation; reused across rejected retries.
    mech.prod_loss(conc, k, &mut ws.p0, &mut ws.l0);
    stats.evals += 1;
    let state = (0..n).map(|i| (conc[i], ws.p0[i], ws.l0[i]));
    let mut h = initial_substep(state, dt_min, opts);

    let mut fresh_pl = true;
    let mut after_reject = false;
    while t < dt_min {
        h = h.min(dt_min - t).max(opts.h_min);
        if !fresh_pl {
            mech.prod_loss(conc, k, &mut ws.p0, &mut ws.l0);
            stats.evals += 1;
            fresh_pl = true;
        }

        // Predictor.
        for i in 0..n {
            ws.cp[i] = advance(conc[i], ws.p0[i], ws.l0[i], h, opts).max(0.0);
        }
        // Corrector: stiff species re-run the asymptotic update with
        // step-averaged production/loss; non-stiff species use the
        // trapezoidal rule (second slope evaluated at the predictor).
        mech.prod_loss(&ws.cp, k, &mut ws.pp, &mut ws.lp);
        stats.evals += 1;
        for i in 0..n {
            let lbar = 0.5 * (ws.l0[i] + ws.lp[i]);
            ws.c1[i] = if lbar * h <= opts.stiff_ratio {
                let f0 = ws.p0[i] - ws.l0[i] * conc[i];
                let fp = ws.pp[i] - ws.lp[i] * ws.cp[i];
                (0.5 * h).mul_add(f0 + fp, conc[i])
            } else {
                let pbar = 0.5 * (ws.p0[i] + ws.pp[i]);
                asymptotic(conc[i], pbar, lbar, h, opts.form)
            }
            .max(0.0);
        }

        // Error estimate: predictor/corrector difference, plus — for
        // stiff species — the drift of the quasi-equilibrium P/L across
        // the substep. The second term matters because for a species
        // pinned to its equilibrium, predictor and corrector agree even
        // when the equilibrium itself is moving too fast to track.
        let mut err = 0.0f64;
        for i in 0..n {
            let mut e = (ws.c1[i] - ws.cp[i]).abs() / (ws.c1[i] + opts.atol);
            let lbar = 0.5 * (ws.l0[i] + ws.lp[i]);
            if lbar * h > opts.stiff_ratio && ws.l0[i] > 0.0 && ws.lp[i] > 0.0 {
                let eq0 = ws.p0[i] / ws.l0[i];
                let eqp = ws.pp[i] / ws.lp[i];
                e = e.max(0.5 * (eqp - eq0).abs() / (ws.c1[i] + opts.atol));
            }
            err = err.max(e);
        }

        let (accepted, h_next) = step_control(err, h, after_reject, opts);
        after_reject = !accepted;
        if accepted {
            conc.copy_from_slice(&ws.c1);
            t += h;
            stats.substeps += 1;
            fresh_pl = false;
        } else {
            // p0/l0 still valid for the same starting state.
            stats.rejected += 1;
        }
        h = h_next;
    }
    stats
}

/// The first substep of a cell, from its state as `(c, p, l)` per
/// species: `eps` over the fastest non-stiff relative rate, within
/// `[h_min, h_max]` and `dt_min`. Shared with the lanes of
/// `simd::integrate_stream`, which seed each cell with it.
pub(crate) fn initial_substep(
    state: impl Iterator<Item = (f64, f64, f64)>,
    dt_min: f64,
    opts: &YbOptions,
) -> f64 {
    let mut max_rel = 0.0f64;
    for (c, p, l) in state {
        let rel = (p - l * c).abs() / (c + opts.atol);
        // Ignore ultra-stiff species: they go through the asymptotic
        // branch and do not constrain the step.
        if l * opts.h_max < 1e4 {
            max_rel = max_rel.max(rel);
        }
    }
    let h = if max_rel > 0.0 {
        (opts.eps / max_rel).clamp(opts.h_min, opts.h_max)
    } else {
        opts.h_max
    };
    h.min(dt_min)
}

/// The substep controller: whether an attempt of size `h` with error
/// estimate `err` is accepted (always at `h_min`, to guarantee progress),
/// and the size of the next attempt. An accepted attempt that directly
/// follows a rejection (`after_reject`) does not grow the step (Hairer &
/// Wanner, *Solving ODEs II*, §IV.8): growing it would head straight
/// back to the size that just failed. Shared with the lanes of
/// `simd::integrate_stream`, each of which runs it on its own `err`, `h`.
#[inline]
pub(crate) fn step_control(err: f64, h: f64, after_reject: bool, opts: &YbOptions) -> (bool, f64) {
    if err <= opts.eps || h <= opts.h_min * (1.0 + 1e-12) {
        let grow = if err > 0.0 {
            (0.9 * (opts.eps / err).sqrt()).clamp(0.5, 2.0)
        } else {
            2.0
        };
        let grow = if after_reject { grow.min(1.0) } else { grow };
        (true, (h * grow).clamp(opts.h_min, opts.h_max))
    } else {
        let shrink = (0.9 * (opts.eps / err).sqrt()).clamp(0.1, 0.5);
        (false, (h * shrink).max(opts.h_min))
    }
}

/// Predictor update for a single species: explicit Euler when non-stiff,
/// asymptotic when `l·h` exceeds the threshold.
#[inline]
fn advance(c0: f64, p: f64, l: f64, h: f64, opts: &YbOptions) -> f64 {
    if l * h <= opts.stiff_ratio {
        h.mul_add(p - l * c0, c0)
    } else {
        asymptotic(c0, p, l, h, opts.form)
    }
}

/// Asymptotic update of `dc/dt = P − L·c` over a step `h`, treating `P`
/// and `τ = 1/L` as constant: one source for the scalar integrator
/// (`V = f64`) and the lanes of `simd::integrate_stream` (`F64x4`,
/// `F64x8`).
/// Lanes with `l == 0` come out NaN or infinite — callers select them
/// away.
#[inline(always)]
pub(crate) fn asymptotic<V: Lanes>(c0: V, p: V, l: V, h: V, form: AsymptoticForm) -> V {
    match form {
        AsymptoticForm::Rational => {
            let two = V::splat(2.0);
            let tau = V::splat(1.0) / l;
            (c0 * (two * tau - h) + two * p * tau * h) / (two * tau + h)
        }
        AsymptoticForm::Exponential => {
            let lh = l * h;
            let ceq = p / l;
            // Past `l·h = 50` the gap to equilibrium has decayed below
            // 2e-22 of itself: those lanes are at equilibrium, and when
            // all are the exponential is not needed.
            let fifty = V::splat(50.0);
            if lh.all_gt(fifty) {
                return ceq;
            }
            let decay = exp_poly((-lh).max(-fifty));
            lh.select_gt(fifty, ceq, ceq + (c0 - ceq) * decay)
        }
    }
}

/// `exp(x)` per lane for `x` in `[-50, 0]` — the stiff update's only
/// transcendental, and not libm's: Cody–Waite reduction `x = n·ln2 + r`
/// with a two-part `ln2`, the degree-13 Taylor polynomial of `exp(r)` on
/// `|r| ≤ ln2/2` in Horner form, and the exponent `n` added into the
/// result's bits. Within 2 ulp of `f64::exp`, exactly `1.0` at `0.0`,
/// and made of correctly rounded operations only (the multiply-adds are
/// fused), so the same bits on every host and at every lane count. A NaN
/// lane yields an unspecified finite or NaN value (callers select such
/// lanes away).
#[inline(always)]
pub(crate) fn exp_poly<V: Lanes>(x: V) -> V {
    // 1.5·2^52: adding it rounds to an integer and leaves that integer
    // in the low mantissa bits.
    const SHIFT: f64 = 6_755_399_441_055_744.0;
    // ln2 in two parts (fdlibm's): the high part's low 32 bits are zero,
    // so `n · LN2_HI` is exact for the small `n` here.
    const LN2_HI: f64 = f64::from_bits(0x3FE6_2E42_FEE0_0000);
    const LN2_LO: f64 = f64::from_bits(0x3DEA_39EF_3579_3C76);
    // 1/13!, 1/12!, ..., 1/2!
    const TAYLOR: [f64; 12] = [
        1.0 / 6_227_020_800.0,
        1.0 / 479_001_600.0,
        1.0 / 39_916_800.0,
        1.0 / 3_628_800.0,
        1.0 / 362_880.0,
        1.0 / 40_320.0,
        1.0 / 5_040.0,
        1.0 / 720.0,
        1.0 / 120.0,
        1.0 / 24.0,
        1.0 / 6.0,
        0.5,
    ];
    let shift = V::splat(SHIFT);
    let shifted = x.mul_add(V::splat(std::f64::consts::LOG2_E), shift);
    let n = shifted - shift;
    let r = n.mul_add(V::splat(-LN2_HI), x);
    let r = n.mul_add(V::splat(-LN2_LO), r);
    let mut q = V::splat(TAYLOR[0]);
    for c in &TAYLOR[1..] {
        q = q.mul_add(r, V::splat(*c));
    }
    let e = (r * r).mul_add(q, r) + V::splat(1.0);
    // 2^n: `n + 1023` moved into the exponent field. `n` is in
    // [-73, 0] here, so the biased exponent stays normal.
    e * shifted.map(|s| f64::from_bits(s.to_bits().wrapping_add(1023) << 52))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::{Mechanism, RateLaw, Reaction};
    use crate::species::{self as sp, background_vector, N_SPECIES};
    use airshed_simd::F64x4;
    use proptest::prelude::*;

    /// One-species linear decay mechanism: A -> (nothing), k per minute.
    fn decay_mech(k: f64) -> Mechanism {
        Mechanism::from_table(
            vec![Reaction {
                label: "A->",
                rate_law: RateLaw::Arrhenius {
                    a: k,
                    t_exp: 0.0,
                    ea_over_r: 0.0,
                },
                rate_order: vec![0],
                consume: vec![(0, 1.0)],
                produce: vec![],
            }],
            1,
        )
    }

    /// Production + stiff loss: (source) -> A at p, A -> at l.
    /// Source is modelled as a slow reaction of an abundant, nearly
    /// constant reservoir species B.
    fn prod_loss_mech(l: f64) -> Mechanism {
        Mechanism::from_table(
            vec![
                Reaction {
                    label: "B->A",
                    rate_law: RateLaw::Arrhenius {
                        a: 1e-3,
                        t_exp: 0.0,
                        ea_over_r: 0.0,
                    },
                    rate_order: vec![1],
                    consume: vec![(1, 1.0)],
                    produce: vec![(0, 1.0)],
                },
                Reaction {
                    label: "A->",
                    rate_law: RateLaw::Arrhenius {
                        a: l,
                        t_exp: 0.0,
                        ea_over_r: 0.0,
                    },
                    rate_order: vec![0],
                    consume: vec![(0, 1.0)],
                    produce: vec![],
                },
            ],
            2,
        )
    }

    fn ulps_apart(a: f64, b: f64) -> u64 {
        // Both positive and finite here, so the bit patterns are ordered.
        a.to_bits().abs_diff(b.to_bits())
    }

    /// `exp_poly` on four lanes, after checking that each lane is the
    /// one-lane instantiation, bit for bit.
    fn exp_poly4(x: F64x4) -> F64x4 {
        let got = exp_poly(x);
        for lane in 0..4 {
            let x = x.lane(lane);
            assert_eq!(got.lane(lane).to_bits(), exp_poly(x).to_bits(), "x {x}");
        }
        got
    }

    #[test]
    fn exp_poly_is_within_two_ulp_on_a_dense_grid() {
        let steps = 200_000;
        for i in (0..=steps).step_by(4) {
            let at = |j: usize| -50.0 * (i + j).min(steps) as f64 / steps as f64;
            let x = F64x4::new(at(0), at(1), at(2), at(3));
            let got = exp_poly4(x);
            for lane in 0..4 {
                let want = x.lane(lane).exp();
                let d = ulps_apart(got.lane(lane), want);
                assert!(d <= 2, "exp_poly({}) is {d} ulp off", x.lane(lane));
            }
        }
        let got = exp_poly4(F64x4::new(0.0, -0.0, -50.0, -1e-300));
        assert_eq!(got.lane(0), 1.0);
        assert_eq!(got.lane(1), 1.0);
        assert!(ulps_apart(got.lane(2), (-50.0f64).exp()) <= 2);
        assert_eq!(got.lane(3), 1.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn exp_poly_is_within_two_ulp_on_random_arguments(
            x in prop::collection::vec(-50.0f64..0.0, 4),
        ) {
            let got = exp_poly4(F64x4::new(x[0], x[1], x[2], x[3]));
            for lane in 0..4 {
                let d = ulps_apart(got.lane(lane), x[lane].exp());
                prop_assert!(d <= 2, "exp_poly({}) is {d} ulp off", x[lane]);
            }
        }
    }

    #[test]
    fn asymptotic_on_four_lanes_is_the_scalar_update_lane_for_lane() {
        let c0 = F64x4::new(1e-3, 0.0, 2e-9, 0.5);
        let p = F64x4::new(1e-2, 3e-7, 0.0, 1e-30);
        let l = F64x4::new(1e4, 3.0, 80.0, 1e-2);
        let h = F64x4::new(0.7, 0.7, 1.3, 2.0);
        for form in [AsymptoticForm::Rational, AsymptoticForm::Exponential] {
            let got = asymptotic(c0, p, l, h, form);
            for lane in 0..4 {
                let (c0, p, l, h) = (c0.lane(lane), p.lane(lane), l.lane(lane), h.lane(lane));
                let want = asymptotic(c0, p, l, h, form);
                assert_eq!(
                    got.lane(lane).to_bits(),
                    want.to_bits(),
                    "{form:?} lane {lane}"
                );
                // The exponential form against libm (which it cuts off
                // past `l·h = 50`), the rational one against its formula.
                let reference = match form {
                    AsymptoticForm::Exponential => p / l + (c0 - p / l) * (-l * h).exp(),
                    AsymptoticForm::Rational => {
                        (c0 * (2.0 / l - h) + 2.0 * p / l * h) / (2.0 / l + h)
                    }
                };
                assert!(
                    (want - reference).abs() <= 1e-14 * reference.abs() + 1e-30,
                    "{form:?} lane {lane}"
                );
            }
        }
    }

    #[test]
    fn linear_decay_matches_analytic() {
        let m = decay_mech(0.3);
        let mut ws = YbWorkspace::new(1);
        let mut c = vec![2.0];
        let opts = YbOptions {
            eps: 1e-4,
            ..Default::default()
        };
        integrate_cell(&m, &mut c, 298.0, 0.0, 10.0, &opts, &mut ws);
        let exact = 2.0 * (-0.3f64 * 10.0).exp();
        assert!(
            (c[0] - exact).abs() / exact < 5e-3,
            "got {} want {}",
            c[0],
            exact
        );
    }

    #[test]
    fn stiff_species_relaxes_to_equilibrium() {
        // l = 1e6/min: equilibrium P/L with P = 1·[B], B ≈ 1.
        let m = prod_loss_mech(1e6);
        let mut ws = YbWorkspace::new(2);
        let mut c = vec![0.0, 100.0];
        let opts = YbOptions::default();
        let stats = integrate_cell(&m, &mut c, 298.0, 0.0, 1.0, &opts, &mut ws);
        let eq = 1e-3 * c[1] / 1e6;
        assert!((c[0] - eq).abs() / eq < 2e-3, "A = {} vs eq {}", c[0], eq);
        // The asymptotic branch means this must NOT need ~l·dt substeps.
        assert!(stats.substeps < 1000, "took {} substeps", stats.substeps);
    }

    #[test]
    fn exponential_form_is_monotone_where_rational_rings() {
        // From c0 = 0 with constant P, L and a step h >> tau, the rational
        // form overshoots equilibrium (to ~2 P/L); the exponential form
        // lands on it from below.
        let opts_exp = YbOptions {
            form: AsymptoticForm::Exponential,
            ..Default::default()
        };
        let opts_rat = YbOptions {
            form: AsymptoticForm::Rational,
            ..Default::default()
        };
        let (p, l, h) = (1.0, 1e4, 1.0);
        let ce = super::advance(0.0, p, l, h, &opts_exp);
        let cr = super::advance(0.0, p, l, h, &opts_rat);
        let eq = p / l;
        assert!((ce - eq).abs() / eq < 1e-9, "exp form {ce} vs eq {eq}");
        assert!(cr > 1.5 * eq, "rational form should overshoot: {cr}");
    }

    #[test]
    fn the_step_right_after_a_rejection_does_not_grow() {
        let opts = YbOptions::default();
        let small = opts.eps / 100.0;
        // A small error grows an ordinary accepted step twofold ...
        assert_eq!(step_control(small, 1.0, false, &opts), (true, 2.0));
        // ... but not the accepted step that follows a rejection.
        let (accepted, retry) = step_control(4.0 * opts.eps, 1.0, false, &opts);
        assert!(!accepted && retry <= 0.5);
        assert_eq!(step_control(small, retry, true, &opts), (true, retry));
        assert_eq!(step_control(0.0, retry, true, &opts), (true, retry));
        // It may still shrink, and the clamps are unchanged.
        let (accepted, next) = step_control(0.95 * opts.eps, retry, true, &opts);
        assert!(accepted && next < retry);
        let (accepted, next) = step_control(100.0 * opts.eps, 1.0, true, &opts);
        assert!(!accepted && next == 0.1);
    }

    #[test]
    fn tighter_tolerance_costs_more_substeps() {
        let m = Mechanism::carbon_bond();
        let mut polluted = background_vector();
        polluted[sp::NO] = 0.08;
        polluted[sp::NO2] = 0.04;
        polluted[sp::PAR] = 0.8;
        polluted[sp::OLE] = 0.03;
        polluted[sp::FORM] = 0.02;

        let run = |eps: f64| {
            let mut ws = YbWorkspace::new(N_SPECIES);
            let mut c = polluted.clone();
            let opts = YbOptions {
                eps,
                ..Default::default()
            };
            integrate_cell(&m, &mut c, 298.0, 0.9, 30.0, &opts, &mut ws)
        };
        let loose = run(0.05);
        let tight = run(0.002);
        assert!(
            tight.substeps > loose.substeps,
            "tight {} vs loose {}",
            tight.substeps,
            loose.substeps
        );
    }

    #[test]
    fn full_mechanism_daytime_produces_ozone() {
        let m = Mechanism::carbon_bond();
        let mut ws = YbWorkspace::new(N_SPECIES);
        let mut c = background_vector();
        // Polluted morning urban mix.
        c[sp::NO] = 0.06;
        c[sp::NO2] = 0.03;
        c[sp::CO] = 2.0;
        c[sp::PAR] = 1.0;
        c[sp::OLE] = 0.04;
        c[sp::ETH] = 0.03;
        c[sp::TOL] = 0.03;
        c[sp::XYL] = 0.02;
        c[sp::FORM] = 0.015;
        c[sp::ALD2] = 0.01;
        let o3_start = c[sp::O3];
        let n_start = Mechanism::total_nitrogen(&c);
        // Integrate 3 daylight hours.
        let opts = YbOptions::default();
        let mut stats = YbStats::default();
        for _ in 0..18 {
            stats.absorb(integrate_cell(
                &m, &mut c, 300.0, 0.85, 10.0, &opts, &mut ws,
            ));
        }
        assert!(c.iter().all(|&x| x.is_finite() && x >= 0.0));
        assert!(
            c[sp::O3] > o3_start + 0.02,
            "expected photochemical O3 formation: {} -> {}",
            o3_start,
            c[sp::O3]
        );
        // OH should be present at realistic daytime levels (sub-ppt..ppt).
        assert!(c[sp::OH] > 1e-9 && c[sp::OH] < 1e-4, "OH = {}", c[sp::OH]);
        // Nitrogen conservation (gas phase only moves N between species).
        let n_end = Mechanism::total_nitrogen(&c);
        assert!(
            (n_end - n_start).abs() / n_start < 0.02,
            "N drift: {n_start} -> {n_end}"
        );
        assert!(stats.substeps > 10);
    }

    #[test]
    fn night_chemistry_titrates_ozone_with_no() {
        let m = Mechanism::carbon_bond();
        let mut ws = YbWorkspace::new(N_SPECIES);
        let mut c = background_vector();
        c[sp::NO] = 0.10; // strong fresh NO plume at night
        c[sp::O3] = 0.05;
        let opts = YbOptions::default();
        for _ in 0..6 {
            integrate_cell(&m, &mut c, 290.0, 0.0, 10.0, &opts, &mut ws);
        }
        assert!(
            c[sp::O3] < 0.005,
            "NO titration should consume O3 at night: O3 = {}",
            c[sp::O3]
        );
        assert!(c[sp::NO2] > 0.04, "NO2 formed: {}", c[sp::NO2]);
    }

    #[test]
    fn zero_dt_is_a_noop() {
        let m = Mechanism::carbon_bond();
        let mut ws = YbWorkspace::new(N_SPECIES);
        let mut c = background_vector();
        let before = c.clone();
        let stats = integrate_cell(&m, &mut c, 298.0, 0.5, 0.0, &YbOptions::default(), &mut ws);
        assert_eq!(c, before);
        assert_eq!(stats, YbStats::default());
    }
}
