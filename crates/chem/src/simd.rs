//! 4-column lockstep chemistry kernels for the `--backend simd`
//! executor.
//!
//! The scalar chemistry phase integrates one grid cell at a time. This
//! module integrates **four columns of the same layer in lockstep**:
//! the cells share temperature, actinic factor (and therefore rate
//! constants) and the substep controller, so the whole Young–Boris
//! predictor/corrector runs on [`F64x4`] vectors — one lane per column.
//! The shared substep is governed by the *strictest* lane (`err` is the
//! max over lanes), so every lane is integrated at least as accurately
//! as its scalar counterpart, but the accept/reject history differs —
//! which is why the simd chemistry contract is epsilon-bounded, not
//! bit-identical (see DESIGN.md "SIMD backend").
//!
//! Three deliberate departures from the scalar arithmetic beyond the
//! lockstep stepping:
//!
//! * [`prod_loss4`] computes `1 / max(c, FLOOR)` once per species and
//!   multiplies, instead of dividing per consume entry (32 divides per
//!   evaluation instead of 126);
//! * fused multiply-adds ([`Madd`] with [`Fused`]) round once where the
//!   scalar kernel rounds twice — in the production/loss sums and in the
//!   Euler/trapezoid updates, also for the non-stiff lanes of a species
//!   another lane of which is stiff;
//! * the stiff asymptotic update takes its exponential from the vector
//!   polynomial `exp4` (within 2 ulp of `f64::exp`), not from libm.
//!
//! Production/loss is the four-lane kernel `build.rs` generates from the
//! carbon-bond table (see [`crate::mechanism`]): straight-line, one
//! register accumulator per species. The integrator around it has no
//! branch that depends on stiffness: predictor and corrector each run a
//! vector pass over every species, then a vector asymptotic pass over
//! the short list of species with a stiff lane.
//!
//! The vertical solve ([`diffuse_column4`]) uses none of this: its
//! coefficients are lane-shared scalars and its lanewise arithmetic is
//! exactly [`crate::vertical::diffuse_column`]'s, so each lane of the
//! vertical solve is bit-identical to the scalar path.
//!
//! Dispatch: every public kernel checks [`fma_available`] once and runs
//! a `#[target_feature(enable = "avx2,fma")]` instantiation ([`Fused`])
//! or the portable one ([`Unfused`]). Those two calls are this module's
//! only `unsafe`; their precondition is the CPU feature check on the
//! line above each. The generated kernels contain none, and index only
//! fixed-size arrays with constants.

use crate::mechanism::{kernels, Mechanism, N_REACTIONS};
use crate::species::N_SPECIES;
use crate::vertical::ColumnGeometry;
use crate::youngboris::{AsymptoticForm, YbOptions, YbStats};
use airshed_simd::{fma_available, F64x4, Fused, Madd, Unfused};

/// Scratch for the lockstep integrator — the [`F64x4`] mirror of
/// `YbWorkspace`, plus the list of species with a stiff lane.
pub struct Yb4Workspace {
    p0: Vec<F64x4>,
    l0: Vec<F64x4>,
    pp: Vec<F64x4>,
    lp: Vec<F64x4>,
    cp: Vec<F64x4>,
    c1: Vec<F64x4>,
    stiff: Vec<usize>,
}

impl Yb4Workspace {
    pub fn new(n_species: usize) -> Yb4Workspace {
        Yb4Workspace {
            p0: vec![F64x4::zero(); n_species],
            l0: vec![F64x4::zero(); n_species],
            pp: vec![F64x4::zero(); n_species],
            lp: vec![F64x4::zero(); n_species],
            cp: vec![F64x4::zero(); n_species],
            c1: vec![F64x4::zero(); n_species],
            stiff: vec![0; n_species],
        }
    }
}

/// Vectorised production/loss evaluation: lane `j` of `p[s]`/`l[s]` is
/// the production rate / loss frequency of species `s` in column `j`.
/// For the carbon-bond mechanism this is the generated four-lane kernel,
/// which matches `Mechanism::prod_loss` per lane up to the reciprocal
/// reassociation (`rate * (1/c)` instead of `rate / c`) and the fused
/// multiply-adds; a table-only mechanism is evaluated lane by lane by
/// `Mechanism::prod_loss` itself.
pub fn prod_loss4(mech: &Mechanism, conc: &[F64x4], k: &[f64], p: &mut [F64x4], l: &mut [F64x4]) {
    let sized = [conc.len(), p.len(), l.len()] == [N_SPECIES; 3];
    let Some(ck) = mech.compiled_k(k).filter(|_| sized) else {
        return prod_loss4_lanes(mech, conc, k, p, l);
    };
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: `prod_loss4_fma` requires avx2 and fma, which
        // `fma_available` has just detected on this CPU.
        unsafe { prod_loss4_fma(conc, ck, p, l) };
        return;
    }
    prod_loss4_unfused(conc, ck, p, l);
}

/// The species-sized arrays the generated kernel takes. The callers hand
/// in slices cut to `n_species` of a compiled mechanism, so a mismatch
/// is a bug in this module — a panic, never an out-of-bounds access.
#[inline(always)]
fn species_arrays<'a>(
    conc: &'a [F64x4],
    p: &'a mut [F64x4],
    l: &'a mut [F64x4],
) -> (
    &'a [F64x4; N_SPECIES],
    &'a mut [F64x4; N_SPECIES],
    &'a mut [F64x4; N_SPECIES],
) {
    match (conc.try_into(), p.try_into(), l.try_into()) {
        (Ok(c), Ok(p), Ok(l)) => (c, p, l),
        _ => panic!("compiled four-lane kernel called with slices of another length"),
    }
}

/// The one [`Fused`] instantiation of the generated kernel. Requires
/// avx2 and fma: call it only after [`fma_available`] returned true.
#[cfg(target_arch = "x86_64")]
#[inline(never)]
#[target_feature(enable = "avx2,fma")]
fn prod_loss4_fma(conc: &[F64x4], k: &[f64; N_REACTIONS], p: &mut [F64x4], l: &mut [F64x4]) {
    debug_assert!(fma_available());
    let (c, p, l) = species_arrays(conc, p, l);
    kernels::prod_loss_x4::<Fused>(c, k, p, l);
}

/// The one [`Unfused`] (portable) instantiation of the generated kernel.
#[inline(never)]
pub(crate) fn prod_loss4_unfused(
    conc: &[F64x4],
    k: &[f64; N_REACTIONS],
    p: &mut [F64x4],
    l: &mut [F64x4],
) {
    let (c, p, l) = species_arrays(conc, p, l);
    kernels::prod_loss_x4::<Unfused>(c, k, p, l);
}

/// Four-lane production/loss of a table-only mechanism: each lane goes
/// through the scalar table walk. No production caller — it serves the
/// hand-built mechanisms of tests.
fn prod_loss4_lanes(mech: &Mechanism, conc: &[F64x4], k: &[f64], p: &mut [F64x4], l: &mut [F64x4]) {
    let n = conc.len();
    let (mut c1, mut p1, mut l1) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    for lane in 0..F64x4::LANES {
        for s in 0..n {
            c1[s] = conc[s].lane(lane);
        }
        mech.prod_loss(&c1, k, &mut p1, &mut l1);
        for s in 0..n {
            p[s].set_lane(lane, p1[s]);
            l[s].set_lane(lane, l1[s]);
        }
    }
}

/// Advance four same-layer cells (one per lane of `conc[s]`) by
/// `dt_min` minutes in lockstep, with shared, pre-evaluated rate
/// constants `k`. Returns the batch's stats: `evals`/`substeps` count
/// each lockstep operation once (all four lanes participate in every
/// evaluation).
pub fn integrate_cell4(
    mech: &Mechanism,
    conc: &mut [F64x4],
    k: &[f64],
    dt_min: f64,
    opts: &YbOptions,
    ws: &mut Yb4Workspace,
) -> YbStats {
    debug_assert_eq!(conc.len(), mech.n_species());
    debug_assert_eq!(k.len(), mech.n_reactions());
    let Some(ck) = mech.compiled_k(k).filter(|_| conc.len() == N_SPECIES) else {
        return integrate_cell4_impl::<Unfused>(conc, dt_min, opts, ws, |c, p, l| {
            prod_loss4_lanes(mech, c, k, p, l)
        });
    };
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: `integrate_cell4_fma` requires avx2 and fma, which
        // `fma_available` has just detected on this CPU.
        return unsafe { integrate_cell4_fma(conc, ck, dt_min, opts, ws) };
    }
    integrate_cell4_unfused(conc, ck, dt_min, opts, ws)
}

/// The [`Fused`] instantiation of the lockstep integrator. Requires avx2
/// and fma: call it only after [`fma_available`] returned true.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn integrate_cell4_fma(
    conc: &mut [F64x4],
    k: &[f64; N_REACTIONS],
    dt_min: f64,
    opts: &YbOptions,
    ws: &mut Yb4Workspace,
) -> YbStats {
    debug_assert!(fma_available());
    integrate_cell4_impl::<Fused>(conc, dt_min, opts, ws, |c, p, l| prod_loss4_fma(c, k, p, l))
}

/// The [`Unfused`] (portable) instantiation of the lockstep integrator
/// on the compiled mechanism.
pub(crate) fn integrate_cell4_unfused(
    conc: &mut [F64x4],
    k: &[f64; N_REACTIONS],
    dt_min: f64,
    opts: &YbOptions,
    ws: &mut Yb4Workspace,
) -> YbStats {
    integrate_cell4_impl::<Unfused>(conc, dt_min, opts, ws, |c, p, l| {
        prod_loss4_unfused(c, k, p, l)
    })
}

/// [`exp_poly`](crate::youngboris::exp_poly) on four lanes: the same
/// reduction, polynomial and exponent insertion, with the multiply-adds
/// under `M`. Each lane of the [`Unfused`] instantiation is `exp_poly`
/// bit for bit; [`Fused`] is
/// within 2 ulp of `f64::exp` as well. A NaN lane yields an unspecified
/// finite or NaN value (the caller's select discards such lanes).
#[inline(always)]
fn exp4<M: Madd>(x: F64x4) -> F64x4 {
    use crate::youngboris::exp_consts::{LN2_HI, LN2_LO, SHIFT, TAYLOR};
    let shift = F64x4::splat(SHIFT);
    let shifted = M::madd4(x, F64x4::splat(std::f64::consts::LOG2_E), shift);
    let n = shifted - shift;
    let r = M::madd4(n, F64x4::splat(-LN2_HI), x);
    let r = M::madd4(n, F64x4::splat(-LN2_LO), r);
    let mut q = F64x4::splat(TAYLOR[0]);
    for c in &TAYLOR[1..] {
        q = M::madd4(q, r, F64x4::splat(*c));
    }
    let e = M::madd4(r * r, q, r) + F64x4::splat(1.0);
    let pow2 = |lane: usize| f64::from_bits(shifted.0[lane].to_bits().wrapping_add(1023) << 52);
    e * F64x4([pow2(0), pow2(1), pow2(2), pow2(3)])
}

/// `youngboris::asymptotic` on four lanes — the scalar arithmetic lane
/// for lane in both forms under [`Unfused`]; under [`Fused`] the
/// exponential form differs by [`exp4`]'s fused multiply-adds. Lanes with
/// `l == 0` come out NaN or infinite — the caller selects them away.
#[inline(always)]
fn asymptotic4<M: Madd>(c0: F64x4, p: F64x4, l: F64x4, h4: F64x4, form: AsymptoticForm) -> F64x4 {
    match form {
        AsymptoticForm::Rational => {
            let two = F64x4::splat(2.0);
            let tau = F64x4::splat(1.0) / l;
            (c0 * (two * tau - h4) + two * p * tau * h4) / (two * tau + h4)
        }
        AsymptoticForm::Exponential => {
            let lh = l * h4;
            let ceq = p / l;
            let decay = exp4::<M>((-lh).max(F64x4::splat(-50.0)));
            lh.select_gt(F64x4::splat(50.0), ceq, ceq + (c0 - ceq) * decay)
        }
    }
}

/// The lockstep integrator, over a multiply-add strategy and the
/// production/loss evaluation `pl(conc, p, l)` of the mechanism.
///
/// Predictor and corrector each run as two passes: a branch-free vector
/// Euler / trapezoid over every species, which also lists the species
/// with a stiff lane, then the vector asymptotic update of the listed
/// few, blended per lane over the first pass's value. No branch depends
/// on a species' stiffness.
#[inline(always)]
fn integrate_cell4_impl<M: Madd>(
    conc: &mut [F64x4],
    dt_min: f64,
    opts: &YbOptions,
    ws: &mut Yb4Workspace,
    pl: impl Fn(&[F64x4], &mut [F64x4], &mut [F64x4]),
) -> YbStats {
    let mut stats = YbStats::default();
    if dt_min <= 0.0 {
        return stats;
    }
    // Every buffer cut to the same length once, so the loops below carry
    // no bounds checks.
    let n = conc.len();
    let (p0, l0) = (&mut ws.p0[..n], &mut ws.l0[..n]);
    let (pp, lp) = (&mut ws.pp[..n], &mut ws.lp[..n]);
    let (cp, c1) = (&mut ws.cp[..n], &mut ws.c1[..n]);
    let stiff = &mut ws.stiff[..n];
    let zero = F64x4::zero();
    let atol4 = F64x4::splat(opts.atol);
    let half = F64x4::splat(0.5);
    let ratio4 = F64x4::splat(opts.stiff_ratio);

    pl(conc, p0, l0);
    stats.evals += 1;

    // Initial substep from the fastest non-stiff relative rate — the
    // strictest over all four lanes, mirroring the scalar seeding per
    // lane.
    let mut h = {
        let mut max_rel = 0.0f64;
        for i in 0..n {
            for lane in 0..F64x4::LANES {
                let c = conc[i].lane(lane);
                let l = l0[i].lane(lane);
                let f = (p0[i].lane(lane) - l * c).abs();
                if l * opts.h_max < 1e4 {
                    max_rel = max_rel.max(f / (c + opts.atol));
                }
            }
        }
        if max_rel > 0.0 {
            (opts.eps / max_rel).clamp(opts.h_min, opts.h_max)
        } else {
            opts.h_max
        }
    }
    .min(dt_min);

    let mut t = 0.0;
    let mut fresh_pl = true;
    while t < dt_min {
        h = h.min(dt_min - t).max(opts.h_min);
        if !fresh_pl {
            pl(conc, p0, l0);
            stats.evals += 1;
            fresh_pl = true;
        }
        let h4 = F64x4::splat(h);

        // Predictor, pass 1: explicit Euler for every species, and the
        // list of those with a stiff lane (appended without a branch).
        let mut n_stiff = 0;
        for i in 0..n {
            let f = p0[i] - l0[i] * conc[i];
            cp[i] = M::madd4(h4, f, conc[i]).max(zero);
            stiff[n_stiff] = i;
            n_stiff += usize::from((l0[i] * h4).any_gt(ratio4));
        }
        // Pass 2: the asymptotic update on the stiff lanes of the list.
        for &i in &stiff[..n_stiff] {
            let asym = asymptotic4::<M>(conc[i], p0[i], l0[i], h4, opts.form);
            cp[i] = (l0[i] * h4).select_gt(ratio4, asym.max(zero), cp[i]);
        }

        pl(cp, pp, lp);
        stats.evals += 1;

        // Corrector, pass 1: trapezoid for every species (second slope
        // at the predictor), listing the species with a stiff lane.
        let half_h4 = F64x4::splat(0.5 * h);
        let mut n_stiff = 0;
        for i in 0..n {
            let f0 = p0[i] - l0[i] * conc[i];
            let fp = pp[i] - lp[i] * cp[i];
            c1[i] = M::madd4(half_h4, f0 + fp, conc[i]).max(zero);
            let lbar = (l0[i] + lp[i]) * half;
            stiff[n_stiff] = i;
            n_stiff += usize::from((lbar * h4).any_gt(ratio4));
        }
        // Pass 2: the asymptotic update with step-averaged production
        // and loss on the stiff lanes, and — same lanes — the drift of
        // the quasi-equilibrium P/L across the substep, which is the
        // error estimate of a species pinned to its equilibrium.
        let mut err4 = zero;
        for &i in &stiff[..n_stiff] {
            let lbar = (l0[i] + lp[i]) * half;
            let pbar = half * (p0[i] + pp[i]);
            let lbar_h = lbar * h4;
            let asym = asymptotic4::<M>(conc[i], pbar, lbar, h4, opts.form);
            c1[i] = lbar_h.select_gt(ratio4, asym.max(zero), c1[i]);
            let drift = half * (pp[i] / lp[i] - p0[i] / l0[i]).abs() / (c1[i] + atol4);
            let drift = lbar_h.select_gt(ratio4, drift, zero);
            let drift = l0[i].select_gt(zero, drift, zero);
            err4 = err4.max(lp[i].select_gt(zero, drift, zero));
        }
        // Error: predictor/corrector difference; the strictest lane
        // controls the shared substep.
        for i in 0..n {
            err4 = err4.max((c1[i] - cp[i]).abs() / (c1[i] + atol4));
        }
        let err = err4.reduce_max();

        if err <= opts.eps || h <= opts.h_min * (1.0 + 1e-12) {
            conc.copy_from_slice(c1);
            t += h;
            stats.substeps += 1;
            fresh_pl = false;
            let grow = if err > 0.0 {
                (0.9 * (opts.eps / err).sqrt()).clamp(0.5, 2.0)
            } else {
                2.0
            };
            h = (h * grow).clamp(opts.h_min, opts.h_max);
        } else {
            stats.rejected += 1;
            h = (h * (0.9 * (opts.eps / err).sqrt()).clamp(0.1, 0.5)).max(opts.h_min);
        }
    }
    stats
}

/// Scratch for [`diffuse_column4`]: the lane-shared tridiagonal
/// coefficients and the Thomas elimination factors.
#[derive(Default)]
pub struct Column4Workspace {
    lower: Vec<f64>,
    diag: Vec<f64>,
    upper: Vec<f64>,
    cprime: Vec<f64>,
}

impl Column4Workspace {
    pub fn new() -> Column4Workspace {
        Column4Workspace::default()
    }
}

/// Four-column vertical diffusion: lane `j` of `c[l]` is layer `l` of
/// column `j`. Geometry, `kz` and the deposition velocity are shared
/// across lanes; only the emission flux differs per column. The
/// tridiagonal factorisation is lane-shared and the lanewise arithmetic
/// is exactly [`crate::vertical::diffuse_column`]'s (no FMA), so each
/// lane is bit-identical to the scalar solve.
pub fn diffuse_column4(
    geom: &ColumnGeometry,
    kz: &[f64],
    dep_velocity: f64,
    emis_flux: F64x4,
    dt_min: f64,
    c: &mut [F64x4],
    ws: &mut Column4Workspace,
) {
    let n = geom.n_layers();
    debug_assert_eq!(kz.len(), n - 1);
    debug_assert_eq!(c.len(), n);
    if dt_min <= 0.0 {
        return;
    }
    ws.lower.clear();
    ws.lower.resize(n, 0.0);
    ws.diag.clear();
    ws.diag.resize(n, 1.0);
    ws.upper.clear();
    ws.upper.resize(n, 0.0);
    ws.cprime.clear();
    ws.cprime.resize(n, 0.0);
    for l in 0..n {
        if l > 0 {
            let dzc = geom.zm[l] - geom.zm[l - 1];
            let a = dt_min * kz[l - 1] / (geom.dz[l] * dzc);
            ws.lower[l] = -a;
            ws.diag[l] += a;
        }
        if l + 1 < n {
            let dzc = geom.zm[l + 1] - geom.zm[l];
            let b = dt_min * kz[l] / (geom.dz[l] * dzc);
            ws.upper[l] = -b;
            ws.diag[l] += b;
        }
    }
    ws.diag[0] += dt_min * dep_velocity / geom.dz[0];
    // Same association as the scalar path: (dt · E) / dz, per lane.
    c[0] += F64x4::splat(dt_min) * emis_flux / F64x4::splat(geom.dz[0]);
    // Thomas elimination with lane-shared factors, vector RHS.
    let mut denom = ws.diag[0];
    assert!(denom.abs() > 1e-300, "singular tridiagonal system");
    ws.cprime[0] = ws.upper[0] / denom;
    c[0] = c[0] / F64x4::splat(denom);
    for l in 1..n {
        denom = ws.diag[l] - ws.lower[l] * ws.cprime[l - 1];
        assert!(denom.abs() > 1e-300, "singular tridiagonal system");
        ws.cprime[l] = ws.upper[l] / denom;
        c[l] = (c[l] - F64x4::splat(ws.lower[l]) * c[l - 1]) / F64x4::splat(denom);
    }
    for l in (0..n - 1).rev() {
        let next = c[l + 1];
        c[l] -= F64x4::splat(ws.cprime[l]) * next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::species::{self as sp, background_vector};
    use crate::vertical::diffuse_column;
    use crate::youngboris::{exp_poly, integrate_cell_with_k, YbWorkspace};
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    fn polluted(seed: usize) -> Vec<f64> {
        let mut c = background_vector();
        let f = 1.0 + 0.25 * seed as f64;
        c[sp::NO] = 0.05 * f;
        c[sp::NO2] = 0.02 * f;
        c[sp::PAR] = 0.6 * f;
        c[sp::OLE] = 0.02 * f;
        c[sp::FORM] = 0.012 * f;
        c[sp::CO] = 1.5 * f;
        c
    }

    fn pack(cols: &[Vec<f64>]) -> Vec<F64x4> {
        (0..cols[0].len())
            .map(|s| F64x4::new(cols[0][s], cols[1][s], cols[2][s], cols[3][s]))
            .collect()
    }

    /// The carbon-bond rows without the generated kernels.
    fn table_only() -> Mechanism {
        Mechanism::from_table(Mechanism::carbon_bond().reactions().to_vec(), N_SPECIES)
    }

    type Kernel4 = Box<dyn Fn(&[F64x4], &[f64], &mut [F64x4], &mut [F64x4])>;
    type Integrator4 = Box<dyn Fn(&mut [F64x4], &[f64], f64, &YbOptions) -> YbStats>;

    fn compiled(k: &[f64]) -> &[f64; N_REACTIONS] {
        k.try_into().unwrap()
    }

    /// Every way a four-lane evaluation can run: the dispatched kernel
    /// (`Fused` on an FMA host), the `Unfused` instantiation the dispatch
    /// never reaches there, and the per-lane path of a table-only
    /// mechanism.
    fn kernels4() -> Vec<(&'static str, Kernel4)> {
        vec![
            (
                "dispatched",
                Box::new(|c, k, p, l| prod_loss4(&Mechanism::carbon_bond(), c, k, p, l)),
            ),
            (
                "unfused",
                Box::new(|c, k, p, l| prod_loss4_unfused(c, compiled(k), p, l)),
            ),
            (
                "table-only",
                Box::new(|c, k, p, l| prod_loss4(&table_only(), c, k, p, l)),
            ),
        ]
    }

    /// The same three for the lockstep integrator.
    fn integrators4() -> Vec<(&'static str, Integrator4)> {
        let ws = || Yb4Workspace::new(N_SPECIES);
        vec![
            (
                "dispatched",
                Box::new(move |c, k, dt, o| {
                    integrate_cell4(&Mechanism::carbon_bond(), c, k, dt, o, &mut ws())
                }),
            ),
            (
                "unfused",
                Box::new(move |c, k, dt, o| {
                    integrate_cell4_unfused(c, compiled(k), dt, o, &mut ws())
                }),
            ),
            (
                "table-only",
                Box::new(move |c, k, dt, o| integrate_cell4(&table_only(), c, k, dt, o, &mut ws())),
            ),
        ]
    }

    #[test]
    fn prod_loss4_matches_scalar_per_lane() {
        let m = Mechanism::carbon_bond();
        let mut k = Vec::new();
        m.rate_constants(298.0, 0.8, &mut k);
        let cols: Vec<Vec<f64>> = (0..4).map(polluted).collect();
        let conc4 = pack(&cols);
        for (name, kernel) in kernels4() {
            let mut p4 = vec![F64x4::zero(); N_SPECIES];
            let mut l4 = vec![F64x4::zero(); N_SPECIES];
            kernel(&conc4, &k, &mut p4, &mut l4);
            for (lane, col) in cols.iter().enumerate() {
                let mut p = vec![0.0; N_SPECIES];
                let mut l = vec![0.0; N_SPECIES];
                m.prod_loss(col, &k, &mut p, &mut l);
                for s in 0..N_SPECIES {
                    let (gp, gl) = (p4[s].lane(lane), l4[s].lane(lane));
                    assert!(
                        (gp - p[s]).abs() <= 1e-12 * p[s].abs().max(1e-300),
                        "{name} lane {lane} species {s}: p {gp} vs {}",
                        p[s]
                    );
                    assert!(
                        (gl - l[s]).abs() <= 1e-12 * l[s].abs().max(1e-300),
                        "{name} lane {lane} species {s}: l {gl} vs {}",
                        l[s]
                    );
                }
            }
        }
    }

    /// One lane of the four-lane evaluation as a table walk: the
    /// reciprocal form and the multiply-add strategy of the generated
    /// kernel, interpreted row by row.
    fn reciprocal_form_table_walk<M: Madd>(
        m: &Mechanism,
        conc: &[f64],
        k: &[f64],
    ) -> (Vec<f64>, Vec<f64>) {
        let inv: Vec<f64> = conc.iter().map(|c| 1.0 / c.max(1e-30)).collect();
        let (mut p, mut l) = (vec![0.0; conc.len()], vec![0.0; conc.len()]);
        for (r, &kr) in m.reactions().iter().zip(k) {
            if kr == 0.0 {
                continue;
            }
            let rate = r.rate_order.iter().fold(kr, |rate, &s| rate * conc[s]);
            for &(s, nu) in &r.consume {
                l[s] = M::madd(rate * inv[s], nu, l[s]);
            }
            for &(s, nu) in &r.produce {
                p[s] = M::madd(rate, nu, p[s]);
            }
        }
        (p, l)
    }

    fn assert_lanes_equal_walk<M: Madd>(
        name: &str,
        cols: &[Vec<f64>],
        k: &[f64],
        p4: &[F64x4],
        l4: &[F64x4],
    ) -> Result<(), TestCaseError> {
        let m = Mechanism::carbon_bond();
        for (lane, col) in cols.iter().enumerate() {
            let (p, l) = reciprocal_form_table_walk::<M>(&m, col, k);
            for s in 0..N_SPECIES {
                let (gp, gl) = (p4[s].lane(lane), l4[s].lane(lane));
                prop_assert!(
                    gp.to_bits() == p[s].to_bits() && gl.to_bits() == l[s].to_bits(),
                    "{name} lane {lane} species {s}: p {gp} vs {}, l {gl} vs {}",
                    p[s],
                    l[s]
                );
            }
        }
        Ok(())
    }

    fn concentration() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            (-31.0f64..-28.0).prop_map(|e| 10f64.powf(e)),
            (-14.0f64..0.7).prop_map(|e| 10f64.powf(e)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Each lane of both instantiations of the generated four-lane
        /// kernel is, bit for bit, the table walk written in the
        /// reciprocal form — exact zeros, floor-scale radicals and the
        /// night's zeroed photolysis constants included.
        #[test]
        fn generated_four_lane_kernels_equal_the_reciprocal_table_walk(
            cols in prop::collection::vec(prop::collection::vec(concentration(), N_SPECIES), 4),
            t in 255.0f64..320.0,
            sun in prop_oneof![Just(0.0), Just(1.0), 1e-4f64..1.0],
        ) {
            let mut k = Vec::new();
            Mechanism::carbon_bond().rate_constants(t, sun, &mut k);
            let conc4 = pack(&cols);
            let mut p4 = vec![F64x4::splat(f64::NAN); N_SPECIES];
            let mut l4 = p4.clone();
            prod_loss4_unfused(&conc4, compiled(&k), &mut p4, &mut l4);
            assert_lanes_equal_walk::<Unfused>("unfused", &cols, &k, &p4, &l4)?;
            #[cfg(target_arch = "x86_64")]
            if fma_available() {
                // SAFETY: avx2 and fma were detected on the line above.
                unsafe { prod_loss4_fma(&conc4, compiled(&k), &mut p4, &mut l4) };
                assert_lanes_equal_walk::<Fused>("fused", &cols, &k, &p4, &l4)?;
            }
        }
    }

    #[test]
    fn lockstep_integration_tracks_scalar_within_tolerance() {
        let m = Mechanism::carbon_bond();
        let opts = YbOptions::default();
        let mut k = Vec::new();
        m.rate_constants(300.0, 0.85, &mut k);
        let cols: Vec<Vec<f64>> = (0..4).map(polluted).collect();

        for (name, integrate) in integrators4() {
            let mut conc4 = pack(&cols);
            let stats4 = integrate(&mut conc4, &k, 10.0, &opts);
            assert!(stats4.substeps > 0 && stats4.evals > 0);

            for (lane, col) in cols.iter().enumerate() {
                let mut ws = YbWorkspace::new(N_SPECIES);
                let mut c = col.clone();
                integrate_cell_with_k(&m, &mut c, &k, 10.0, &opts, &mut ws);
                for s in 0..N_SPECIES {
                    let got = conc4[s].lane(lane);
                    let want = c[s];
                    // Both trajectories satisfy the same eps; they may
                    // differ at the order of the local error.
                    let tol = 0.05 * want.abs() + 1e-7;
                    assert!(
                        (got - want).abs() <= tol,
                        "{name} lane {lane} species {s}: {got} vs {want}"
                    );
                    assert!(got.is_finite() && got >= 0.0);
                }
            }
        }
    }

    #[test]
    fn lockstep_identical_lanes_stay_identical() {
        // Four identical columns must produce four identical lanes —
        // lockstep cannot introduce lane cross-talk.
        let opts = YbOptions::default();
        let mut k = Vec::new();
        Mechanism::carbon_bond().rate_constants(298.0, 0.6, &mut k);
        let col = polluted(2);
        for (name, integrate) in integrators4() {
            let mut conc4: Vec<F64x4> = col.iter().map(|&v| F64x4::splat(v)).collect();
            integrate(&mut conc4, &k, 10.0, &opts);
            for s in 0..N_SPECIES {
                let v = conc4[s].lane(0);
                for lane in 1..4 {
                    assert_eq!(
                        v.to_bits(),
                        conc4[s].lane(lane).to_bits(),
                        "{name} species {s}"
                    );
                }
            }
        }
    }

    #[test]
    fn lockstep_integrates_a_hand_built_table() {
        // A one-species decay has no generated kernel: the integrator
        // evaluates its lanes through the scalar table walk.
        let m = Mechanism::from_table(
            vec![crate::mechanism::Reaction {
                label: "A->",
                rate_law: crate::mechanism::RateLaw::Arrhenius {
                    a: 0.3,
                    t_exp: 0.0,
                    ea_over_r: 0.0,
                },
                rate_order: vec![0],
                consume: vec![(0, 1.0)],
                produce: vec![],
            }],
            1,
        );
        let mut k = Vec::new();
        m.rate_constants(298.0, 0.0, &mut k);
        let mut conc4 = vec![F64x4::new(2.0, 1.0, 0.5, 0.0)];
        let opts = YbOptions {
            eps: 1e-4,
            ..Default::default()
        };
        integrate_cell4(&m, &mut conc4, &k, 10.0, &opts, &mut Yb4Workspace::new(1));
        let decay = (-0.3f64 * 10.0).exp();
        for (lane, c0) in [2.0, 1.0, 0.5, 0.0].into_iter().enumerate() {
            let (got, want) = (conc4[0].lane(lane), c0 * decay);
            assert!(
                (got - want).abs() <= 5e-3 * want,
                "lane {lane}: {got} vs {want}"
            );
        }
    }

    fn ulps_apart(a: f64, b: f64) -> u64 {
        // Both positive and finite here, so the bit patterns are ordered.
        a.to_bits().abs_diff(b.to_bits())
    }

    fn exp4_both(x: F64x4) -> [(&'static str, F64x4); 2] {
        // `Fused` outside a `target_feature` function is the software
        // `fma`: the same single rounding, so the same bits.
        [("fused", exp4::<Fused>(x)), ("unfused", exp4::<Unfused>(x))]
    }

    /// The scalar oracle's exponential is the `Unfused` lane, bit for bit.
    fn assert_unfused_lanes_are_exp_poly(x: F64x4) {
        let got = exp4::<Unfused>(x);
        for lane in 0..4 {
            let want = exp_poly(x.lane(lane));
            assert_eq!(
                got.lane(lane).to_bits(),
                want.to_bits(),
                "x {}",
                x.lane(lane)
            );
        }
    }

    #[test]
    fn exp4_is_within_two_ulp_on_a_dense_grid() {
        let steps = 200_000;
        for i in (0..=steps).step_by(4) {
            let at = |j: usize| -50.0 * (i + j).min(steps) as f64 / steps as f64;
            let x = F64x4::new(at(0), at(1), at(2), at(3));
            for (name, got) in exp4_both(x) {
                for lane in 0..4 {
                    let want = x.lane(lane).exp();
                    let d = ulps_apart(got.lane(lane), want);
                    assert!(d <= 2, "{name} exp4({}) is {d} ulp off", x.lane(lane));
                }
            }
            assert_unfused_lanes_are_exp_poly(x);
        }
        for (name, got) in exp4_both(F64x4::new(0.0, -0.0, -50.0, -1e-300)) {
            assert_eq!(got.lane(0), 1.0, "{name}");
            assert_eq!(got.lane(1), 1.0, "{name}");
            assert!(ulps_apart(got.lane(2), (-50.0f64).exp()) <= 2, "{name}");
            assert_eq!(got.lane(3), 1.0, "{name}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn exp4_is_within_two_ulp_on_random_arguments(
            x in prop::collection::vec(-50.0f64..0.0, 4),
        ) {
            let x4 = F64x4::from_slice(&x);
            for (name, got) in exp4_both(x4) {
                for lane in 0..4 {
                    let d = ulps_apart(got.lane(lane), x[lane].exp());
                    prop_assert!(d <= 2, "{name} exp4({}) is {d} ulp off", x[lane]);
                }
            }
            assert_unfused_lanes_are_exp_poly(x4);
        }
    }

    #[test]
    fn asymptotic4_matches_the_scalar_update_lane_for_lane() {
        use crate::youngboris::asymptotic;
        let c0 = F64x4::new(1e-3, 0.0, 2e-9, 0.5);
        let p = F64x4::new(1e-2, 3e-7, 0.0, 1e-30);
        let l = F64x4::new(1e4, 3.0, 80.0, 1e-2);
        let h = 0.7;
        for form in [AsymptoticForm::Rational, AsymptoticForm::Exponential] {
            let got = asymptotic4::<Unfused>(c0, p, l, F64x4::splat(h), form);
            for lane in 0..4 {
                let want = asymptotic(c0.lane(lane), p.lane(lane), l.lane(lane), h, form);
                let got = got.lane(lane);
                assert_eq!(got.to_bits(), want.to_bits(), "{form:?} lane {lane}");
            }
        }
    }

    #[test]
    fn stiff_pass_with_zero_loss_or_production_lanes_stores_only_finite_values() {
        // A is stiff in lane 0 from the start (l = 1e6). In lane 1 it
        // starts at exactly zero, so its loss frequency rate/[A] is 0
        // while B feeds it: ceq = p/0 = inf on the discarded side. Lanes
        // 2 and 3 have p == l == 0 (no C, no B): ceq = 0/0 = NaN there.
        let arr = |a: f64| crate::mechanism::RateLaw::Arrhenius {
            a,
            t_exp: 0.0,
            ea_over_r: 0.0,
        };
        let rx = |label, a, order: &[usize], consume: &[usize], produce: &[usize]| {
            crate::mechanism::Reaction {
                label,
                rate_law: arr(a),
                rate_order: order.to_vec(),
                consume: consume.iter().map(|&s| (s, 1.0)).collect(),
                produce: produce.iter().map(|&s| (s, 1.0)).collect(),
            }
        };
        // A + C -> C at 1e6 (A's loss frequency is 1e6·[C]), B -> A
        // slowly, D inert (p == l == 0 always).
        let m = Mechanism::from_table(
            vec![
                rx("A+C->C", 1e6, &[0, 2], &[0], &[]),
                rx("B->A", 1e-3, &[1], &[1], &[0]),
            ],
            4,
        );
        let mut k = Vec::new();
        m.rate_constants(298.0, 0.0, &mut k);
        for form in [AsymptoticForm::Exponential, AsymptoticForm::Rational] {
            let mut conc = vec![
                F64x4::new(1e-3, 0.0, 1e-3, 0.0),
                F64x4::new(1.0, 1.0, 0.0, 0.0),
                F64x4::new(1.0, 1e-3, 0.0, 0.0),
                F64x4::new(0.0, 1.0, 0.0, 2.0),
            ];
            let opts = YbOptions {
                form,
                ..Default::default()
            };
            let mut ws = Yb4Workspace::new(4);
            let stats = integrate_cell4(&m, &mut conc, &k, 5.0, &opts, &mut ws);
            assert!(stats.substeps > 0);
            let stored = [&conc, &ws.cp, &ws.c1, &ws.p0, &ws.l0, &ws.pp, &ws.lp];
            for (b, buf) in stored.iter().enumerate() {
                for (s, v) in buf.iter().enumerate() {
                    for lane in 0..4 {
                        let x = v.lane(lane);
                        assert!(
                            x.is_finite() && x >= 0.0,
                            "{form:?} buffer {b} species {s} lane {lane}: {x}"
                        );
                    }
                }
            }
            assert_eq!(
                conc[0].lane(3),
                0.0,
                "nothing produces or removes A in lane 3"
            );
            assert!(
                conc[0].lane(0) < 1e-6,
                "stiff lane relaxed: {}",
                conc[0].lane(0)
            );
        }
    }

    #[test]
    fn diffuse_column4_is_bit_identical_to_scalar_per_lane() {
        let geom = ColumnGeometry::from_interfaces(&[0.0, 75.0, 200.0, 450.0, 900.0, 1600.0]);
        let kz = [30.0, 25.0, 15.0, 5.0];
        let lanes: Vec<Vec<f64>> = (0..4)
            .map(|j| {
                (0..5)
                    .map(|l| 0.1 * (1.0 + j as f64) / (1.0 + l as f64))
                    .collect()
            })
            .collect();
        let emis = F64x4::new(0.0, 0.5, 1.0, 2.0);
        let mut c4: Vec<F64x4> = (0..5)
            .map(|l| F64x4::new(lanes[0][l], lanes[1][l], lanes[2][l], lanes[3][l]))
            .collect();
        let mut ws = Column4Workspace::new();
        diffuse_column4(&geom, &kz, 0.3, emis, 10.0, &mut c4, &mut ws);
        for (j, lane) in lanes.iter().enumerate() {
            let mut c = lane.clone();
            diffuse_column(&geom, &kz, 0.3, emis.lane(j), 10.0, &mut c);
            for l in 0..5 {
                assert_eq!(
                    c4[l].lane(j).to_bits(),
                    c[l].to_bits(),
                    "lane {j} layer {l}: {} vs {}",
                    c4[l].lane(j),
                    c[l]
                );
            }
        }
    }

    #[test]
    fn zero_dt_is_a_noop() {
        let m = Mechanism::carbon_bond();
        let mut k = Vec::new();
        m.rate_constants(298.0, 0.5, &mut k);
        let mut conc4: Vec<F64x4> = background_vector()
            .iter()
            .map(|&v| F64x4::splat(v))
            .collect();
        let before = conc4.clone();
        let mut ws4 = Yb4Workspace::new(N_SPECIES);
        let stats = integrate_cell4(&m, &mut conc4, &k, 0.0, &YbOptions::default(), &mut ws4);
        assert_eq!(stats, YbStats::default());
        assert_eq!(before, conc4);
    }
}
