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
//! Two deliberate reassociations beyond the lockstep stepping:
//!
//! * [`prod_loss4`] precomputes `1 / max(c, FLOOR)` once per species
//!   and multiplies, instead of dividing per consume entry (~35 divides
//!   per evaluation instead of ~110);
//! * fused multiply-adds ([`Madd`] with [`Fused`]) round once where the
//!   scalar kernel rounds twice.
//!
//! The vertical solve ([`diffuse_column4`]) uses neither: its
//! coefficients are lane-shared scalars and its lanewise arithmetic is
//! exactly [`crate::vertical::diffuse_column`]'s, so each lane of the
//! vertical solve is bit-identical to the scalar path.
//!
//! Dispatch: every public kernel checks [`fma_available`] once and runs
//! a `#[target_feature(enable = "avx2,fma")]` instantiation ([`Fused`])
//! or the portable one ([`Unfused`]).

use crate::mechanism::{kernels, Mechanism, N_REACTIONS};
use crate::species::N_SPECIES;
use crate::vertical::ColumnGeometry;
use crate::youngboris::{advance, asymptotic, YbOptions, YbStats};
use airshed_simd::{fma_available, F64x4, Fused, Madd, Unfused};

/// Scratch for the lockstep integrator — the [`F64x4`] mirror of
/// `YbWorkspace`.
pub struct Yb4Workspace {
    p0: Vec<F64x4>,
    l0: Vec<F64x4>,
    pp: Vec<F64x4>,
    lp: Vec<F64x4>,
    cp: Vec<F64x4>,
    c1: Vec<F64x4>,
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

/// The lockstep integrator, over a multiply-add strategy and the
/// production/loss evaluation `pl(conc, p, l)` of the mechanism.
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
    let n = conc.len();
    let zero = F64x4::zero();
    let atol4 = F64x4::splat(opts.atol);
    let half = F64x4::splat(0.5);

    pl(conc, &mut ws.p0, &mut ws.l0);
    stats.evals += 1;

    // Initial substep from the fastest non-stiff relative rate — the
    // strictest over all four lanes, mirroring the scalar seeding per
    // lane.
    let mut h = {
        let mut max_rel = 0.0f64;
        for i in 0..n {
            for lane in 0..F64x4::LANES {
                let c = conc[i].lane(lane);
                let l0 = ws.l0[i].lane(lane);
                let f = (ws.p0[i].lane(lane) - l0 * c).abs();
                if l0 * opts.h_max < 1e4 {
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
            pl(conc, &mut ws.p0, &mut ws.l0);
            stats.evals += 1;
            fresh_pl = true;
        }
        let h4 = F64x4::splat(h);

        // Predictor: vector explicit Euler when every lane is non-stiff
        // for this species; otherwise the scalar per-lane branch (which
        // is the only place the stiff exponential appears).
        for i in 0..n {
            let cp = if (ws.l0[i] * h4).reduce_max() <= opts.stiff_ratio {
                let f = ws.p0[i] - ws.l0[i] * conc[i];
                M::madd4(h4, f, conc[i])
            } else {
                let mut out = F64x4::zero();
                for lane in 0..F64x4::LANES {
                    out.set_lane(
                        lane,
                        advance(
                            conc[i].lane(lane),
                            ws.p0[i].lane(lane),
                            ws.l0[i].lane(lane),
                            h,
                            opts,
                        ),
                    );
                }
                out
            };
            ws.cp[i] = cp.max(zero);
        }

        pl(&ws.cp, &mut ws.pp, &mut ws.lp);
        stats.evals += 1;

        // Corrector: vector trapezoid when every lane is non-stiff;
        // mixed-stiffness species fall back to the scalar branch
        // per lane.
        for i in 0..n {
            let lbar4 = (ws.l0[i] + ws.lp[i]) * half;
            let c1 = if (lbar4 * h4).reduce_max() <= opts.stiff_ratio {
                let f0 = ws.p0[i] - ws.l0[i] * conc[i];
                let fp = ws.pp[i] - ws.lp[i] * ws.cp[i];
                M::madd4(F64x4::splat(0.5 * h), f0 + fp, conc[i])
            } else {
                let mut out = F64x4::zero();
                for lane in 0..F64x4::LANES {
                    let c0 = conc[i].lane(lane);
                    let lbar = lbar4.lane(lane);
                    let v = if lbar * h <= opts.stiff_ratio {
                        let f0 = ws.p0[i].lane(lane) - ws.l0[i].lane(lane) * c0;
                        let fp = ws.pp[i].lane(lane) - ws.lp[i].lane(lane) * ws.cp[i].lane(lane);
                        c0 + 0.5 * h * (f0 + fp)
                    } else {
                        let pbar = 0.5 * (ws.p0[i].lane(lane) + ws.pp[i].lane(lane));
                        asymptotic(c0, pbar, lbar, h, opts.form)
                    };
                    out.set_lane(lane, v);
                }
                out
            };
            ws.c1[i] = c1.max(zero);
        }

        // Error: the strictest lane controls the shared substep.
        let mut err = 0.0f64;
        for i in 0..n {
            let e4 = (ws.c1[i] - ws.cp[i]).abs() / (ws.c1[i] + atol4);
            err = err.max(e4.reduce_max());
            for lane in 0..F64x4::LANES {
                let l0 = ws.l0[i].lane(lane);
                let lp = ws.lp[i].lane(lane);
                let lbar = 0.5 * (l0 + lp);
                if lbar * h > opts.stiff_ratio && l0 > 0.0 && lp > 0.0 {
                    let eq0 = ws.p0[i].lane(lane) / l0;
                    let eqp = ws.pp[i].lane(lane) / lp;
                    let e = 0.5 * (eqp - eq0).abs() / (ws.c1[i].lane(lane) + opts.atol);
                    err = err.max(e);
                }
            }
        }

        if err <= opts.eps || h <= opts.h_min * (1.0 + 1e-12) {
            conc.copy_from_slice(&ws.c1);
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
    use crate::youngboris::{integrate_cell_with_k, YbWorkspace};
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
