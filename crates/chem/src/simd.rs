//! Chemistry's cells as independent lanes: the Young–Boris integrator
//! every run takes.
//!
//! Every grid cell's kinetics is independent of every other's, so
//! [`integrate_stream`] integrates **four cells at a time, one per
//! [`F64x4`] lane, each with its own substep controller**. It walks the
//! same-layer cells of a partition (they share temperature and actinic
//! factor, hence the rate constants `k`): a lane holds one cell with its
//! own `t`, `h` and accept/reject history, and a lane whose cell reaches
//! `dt` stores it and loads the next one, so the lanes stay full until
//! the stream runs dry. Production/loss (the four-lane kernel `build.rs`
//! generates, see [`crate::mechanism`]), predictor, corrector and the
//! stiff asymptotic pass are branch-free vector passes with `h` a vector;
//! the error maximum, accept/reject, `t += h` and the next `h` are per
//! lane, by the very functions the scalar integrator calls; an accepted
//! lane takes `c1` by a select, a rejected one keeps its state.
//!
//! **A lane does the scalar arithmetic.** Every operation is the
//! correctly rounded operation
//! [`integrate_cell_with_k`](crate::youngboris::integrate_cell_with_k)
//! performs on that cell, in the same order — loss frequencies in the
//! reciprocal form, the stiff exponential from the polynomial
//! `exp_poly`, fused multiply-adds in the production/loss sums, the
//! Euler/trapezoid updates and `exp_poly` — so each cell comes out
//! **bit-identical** to the scalar integrator in state, `substeps`,
//! `rejected` and `evals`, whatever lane it ran in, whatever its
//! neighbours were and whatever the host: `f64::mul_add` is one `vfmadd`
//! in the instantiation compiled for `avx2,fma` and libm's software `fma`
//! in the portable one, correctly rounded in both. This is the chemistry
//! of every thread count, of shards, server workers and ensembles.
//!
//! The vertical solve ([`diffuse_column4`]) has lane-shared coefficients
//! and exactly [`crate::vertical::diffuse_column`]'s lanewise arithmetic,
//! so each of its lanes is bit-identical to the scalar solve as well.
//!
//! Dispatch: [`integrate_stream`] checks [`fma_available`] once and runs a
//! `#[target_feature]` instantiation or the portable one. That call is
//! this module's only `unsafe`; its precondition is the CPU feature check
//! on the line above it, repeated as a `debug_assert!` inside each callee.
//! The integrator body and the generated kernels contain none, and the
//! kernels index only fixed-size arrays with constants.

use crate::mechanism::{kernels, Mechanism, N_REACTIONS};
use crate::species::N_SPECIES;
use crate::vertical::{diffusion_system, ColumnGeometry};
use crate::youngboris::{asymptotic, initial_substep, step_control, YbOptions, YbStats};
use airshed_simd::{fma_available, F64x4};

const LANES: usize = F64x4::LANES;

/// Scratch for [`integrate_stream`]: the lanes' state and the [`F64x4`]
/// mirror of `YbWorkspace` (`conc`, `p0`, `l0`, `pp`, `lp`, `cp`, `c1`,
/// one vector per species each), the list of species with a stiff lane,
/// and the staging cells of the [`integrate_cell4`] adapter. The kernel
/// sizes it to the mechanism it is handed.
#[derive(Default)]
pub struct Yb4Workspace {
    lanes: [Vec<F64x4>; 7],
    stiff: Vec<usize>,
    cells: Vec<f64>,
}

impl Yb4Workspace {
    /// A workspace already sized for mechanisms of `n_species`.
    pub fn new(n_species: usize) -> Yb4Workspace {
        let mut ws = Yb4Workspace::default();
        ws.fit(n_species);
        ws
    }

    fn fit(&mut self, n_species: usize) {
        for v in &mut self.lanes {
            v.resize(n_species, F64x4::zero());
        }
        self.stiff.resize(n_species, 0);
    }
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

/// The generated kernel on four lanes, compiled for avx2 and fma: the
/// bits of [`prod_loss4_portable`], in 256-bit registers with one
/// `vfmadd` per multiply-add. Call it only after [`fma_available`]
/// returned true.
#[cfg(target_arch = "x86_64")]
#[inline(never)]
#[target_feature(enable = "avx2,fma")]
fn prod_loss4_avx2(conc: &[F64x4], k: &[f64; N_REACTIONS], p: &mut [F64x4], l: &mut [F64x4]) {
    debug_assert!(fma_available());
    let (c, p, l) = species_arrays(conc, p, l);
    kernels::prod_loss(c, k, p, l);
}

/// The portable instantiation of the generated kernel, for hosts without
/// avx2 and fma.
#[inline(never)]
fn prod_loss4_portable(conc: &[F64x4], k: &[f64; N_REACTIONS], p: &mut [F64x4], l: &mut [F64x4]) {
    let (c, p, l) = species_arrays(conc, p, l);
    kernels::prod_loss(c, k, p, l);
}

/// Four-lane production/loss of a table-only mechanism: each lane goes
/// through the scalar table walk. No production caller — it serves the
/// hand-built mechanisms of tests.
fn prod_loss4_lanes(mech: &Mechanism, conc: &[F64x4], k: &[f64], p: &mut [F64x4], l: &mut [F64x4]) {
    let n = conc.len();
    let (mut c1, mut p1, mut l1) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    for lane in 0..LANES {
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

/// How full [`integrate_stream`] kept its lanes: of the
/// `LANES × vector_attempts` lane-attempts it executed, `lane_attempts`
/// advanced a cell (each is one accepted or rejected substep of that
/// cell); the rest ran in lanes waiting for the stream's last cells.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneOccupancy {
    /// Four-lane substep attempts (two production/loss evaluations each).
    pub vector_attempts: u64,
    /// Σ over cells of `substeps + rejected`.
    pub lane_attempts: u64,
}

impl LaneOccupancy {
    /// Merge the counts of another stream.
    pub fn absorb(&mut self, other: LaneOccupancy) {
        self.vector_attempts += other.vector_attempts;
        self.lane_attempts += other.lane_attempts;
    }

    /// Useful share of the executed lane-attempts, in `(0, 1]`; `None`
    /// if nothing ran.
    pub fn ratio(&self) -> Option<f64> {
        let executed = LANES as u64 * self.vector_attempts;
        (executed > 0).then(|| self.lane_attempts as f64 / executed as f64)
    }
}

/// Advance every cell of a stream by `dt_min` minutes with shared,
/// pre-evaluated rate constants `k`: cell `i` is the species vector
/// `cells[i * stride..][..n_species]` (so a stream is the same-layer
/// cells of cell-major columns laid end to end: base slice at the layer,
/// stride one column), and its work statistics are added to `stats[i]`
/// (so a caller walking the layers of a column sums it up in place);
/// `stats.len()` is the number of cells.
///
/// Every cell comes out bit-identical to
/// [`integrate_cell_with_k`](crate::youngboris::integrate_cell_with_k) —
/// concentrations and statistics — on every host, so a cell's result
/// does not depend on its position in the stream or on the other cells.
#[allow(clippy::too_many_arguments)]
pub fn integrate_stream(
    mech: &Mechanism,
    cells: &mut [f64],
    stride: usize,
    stats: &mut [YbStats],
    k: &[f64],
    dt_min: f64,
    opts: &YbOptions,
    ws: &mut Yb4Workspace,
) -> LaneOccupancy {
    debug_assert_eq!(k.len(), mech.n_reactions());
    let n = mech.n_species();
    let stream = Stream {
        cells,
        stride,
        stats,
        n,
    };
    let Some(ck) = mech.compiled_k(k).filter(|_| n == N_SPECIES) else {
        return stream.integrate(dt_min, opts, ws, |c, p, l| {
            prod_loss4_lanes(mech, c, k, p, l)
        });
    };
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: `integrate_avx2` requires avx2 and fma, which
        // `fma_available` has just detected on this CPU.
        return unsafe { integrate_avx2(stream, ck, dt_min, opts, ws) };
    }
    stream.integrate(dt_min, opts, ws, |c, p, l| prod_loss4_portable(c, ck, p, l))
}

/// The stream kernel compiled for avx2 and fma (see
/// [`prod_loss4_avx2`]). Call it only after [`fma_available`] returned
/// true.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn integrate_avx2(
    stream: Stream,
    k: &[f64; N_REACTIONS],
    dt_min: f64,
    opts: &YbOptions,
    ws: &mut Yb4Workspace,
) -> LaneOccupancy {
    debug_assert!(fma_available());
    stream.integrate(dt_min, opts, ws, |c, p, l| prod_loss4_avx2(c, k, p, l))
}

/// Four cells, one per lane of `conc[s]`, through [`integrate_stream`]:
/// a stream of exactly four cells, so no lane is ever refilled. Kept for
/// callers that hold lane-major cells.
///
/// The returned statistics count **vector iterations, not per-cell
/// work**: `substeps` is the number of four-lane attempts the kernel ran
/// (> 0 whenever `dt_min > 0`; each advances every unfinished lane by one
/// attempt, accepted or not), `evals` the four-lane production/loss
/// evaluations (two per attempt) and `rejected` is 0, since lanes accept
/// and reject on their own.
pub fn integrate_cell4(
    mech: &Mechanism,
    conc: &mut [F64x4],
    k: &[f64],
    dt_min: f64,
    opts: &YbOptions,
    ws: &mut Yb4Workspace,
) -> YbStats {
    let n = conc.len();
    debug_assert_eq!(n, mech.n_species());
    let mut cells = std::mem::take(&mut ws.cells);
    cells.resize(LANES * n, 0.0);
    for (s, c) in conc.iter().enumerate() {
        for lane in 0..LANES {
            cells[lane * n + s] = c.lane(lane);
        }
    }
    let mut stats = [YbStats::default(); LANES];
    let ran = integrate_stream(mech, &mut cells, n, &mut stats, k, dt_min, opts, ws);
    for (s, c) in conc.iter_mut().enumerate() {
        for lane in 0..LANES {
            c.set_lane(lane, cells[lane * n + s]);
        }
    }
    ws.cells = cells;
    YbStats {
        substeps: ran.vector_attempts,
        rejected: 0,
        evals: 2 * ran.vector_attempts,
    }
}

/// The cells [`integrate_stream`] walks: cell `i` is
/// `cells[i * stride..][..n]`, its statistics `stats[i]`.
struct Stream<'a> {
    cells: &'a mut [f64],
    stride: usize,
    stats: &'a mut [YbStats],
    n: usize,
}

/// One lane's control state — the locals of the scalar integrator.
#[derive(Clone, Copy, Default)]
struct Lane {
    /// The cell in this lane; `None` while the stream has no cell for it
    /// (the lane then computes on a finished cell's finite state and
    /// never stores).
    cell: Option<usize>,
    /// The cell's statistics so far.
    stats: YbStats,
    t: f64,
    h: f64,
    /// The lane's state changed since production/loss was last evaluated
    /// at it: the evaluation at the top of the next attempt is new work.
    fresh: bool,
}

impl Stream<'_> {
    /// Copy cell `i` into lane `lane` of `conc`.
    fn load(&self, i: usize, lane: usize, conc: &mut [F64x4]) {
        let cell = &self.cells[i * self.stride..][..self.n];
        for (c, &v) in conc.iter_mut().zip(cell) {
            c.set_lane(lane, v);
        }
    }

    /// Copy lane `lane` of `conc` back into cell `i`.
    fn store(&mut self, i: usize, lane: usize, conc: &[F64x4]) {
        let cell = &mut self.cells[i * self.stride..][..self.n];
        for (v, c) in cell.iter_mut().zip(conc) {
            *v = c.lane(lane);
        }
    }

    /// The stream kernel, over the four-lane production/loss evaluation
    /// `pl(conc, p, l)` of the mechanism.
    ///
    /// Every attempt evaluates production/loss at the lanes' states
    /// (new work for a lane that accepted or loaded a cell; for a lane
    /// that rejected it recomputes the same bits and is not counted),
    /// then runs predictor and corrector as two passes each: a
    /// branch-free vector Euler / trapezoid over every species, which
    /// also lists the species with a stiff lane, then the vector
    /// asymptotic update of the listed few, blended per lane over the
    /// first pass's value. The only branch on a species' stiffness is
    /// `asymptotic`'s shortcut when all four lanes are past the
    /// exponential's range; the only per-lane branches are the
    /// controller's.
    #[inline(always)]
    fn integrate(
        mut self,
        dt_min: f64,
        opts: &YbOptions,
        ws: &mut Yb4Workspace,
        pl: impl Fn(&[F64x4], &mut [F64x4], &mut [F64x4]),
    ) -> LaneOccupancy {
        let mut ran = LaneOccupancy::default();
        let n_cells = self.stats.len();
        if dt_min <= 0.0 || n_cells == 0 {
            return ran;
        }
        // Every buffer cut to the same length once, so the loops below
        // carry no bounds checks.
        let n = self.n;
        ws.fit(n);
        let [conc, p0, l0, pp, lp, cp, c1] = &mut ws.lanes;
        let (conc, cp, c1) = (&mut conc[..n], &mut cp[..n], &mut c1[..n]);
        let (p0, l0, pp, lp) = (&mut p0[..n], &mut l0[..n], &mut pp[..n], &mut lp[..n]);
        let stiff = &mut ws.stiff[..n];
        let zero = F64x4::zero();
        let atol4 = F64x4::splat(opts.atol);
        let half = F64x4::splat(0.5);
        let ratio4 = F64x4::splat(opts.stiff_ratio);

        // The first cells, one per lane; lanes beyond the stream's
        // length idle on a copy of cell 0.
        let mut next = n_cells.min(LANES);
        let mut lanes: [Lane; LANES] = std::array::from_fn(|j| {
            self.load(if j < next { j } else { 0 }, j, conc);
            Lane {
                cell: (j < next).then_some(j),
                fresh: true,
                ..Lane::default()
            }
        });
        let mut live = next as u64;
        while live > 0 {
            pl(conc, p0, l0);
            for (j, lane) in lanes.iter_mut().enumerate() {
                if lane.cell.is_none() {
                    continue;
                }
                if lane.stats.evals == 0 {
                    // A cell's first attempt: seed `h` from its state.
                    let state = (0..n).map(|i| (conc[i].lane(j), p0[i].lane(j), l0[i].lane(j)));
                    lane.h = initial_substep(state, dt_min, opts);
                }
                // The evaluation above, if it was new work, and the one
                // at the predictor below.
                lane.stats.evals += u64::from(lane.fresh) + 1;
                lane.h = lane.h.min(dt_min - lane.t).max(opts.h_min);
            }
            ran.vector_attempts += 1;
            ran.lane_attempts += live;
            let h4 = F64x4(lanes.map(|lane| lane.h));

            // Predictor, pass 1: explicit Euler for every species, and
            // the list of those with a stiff lane (appended without a
            // branch).
            let mut n_stiff = 0;
            for i in 0..n {
                let f = p0[i] - l0[i] * conc[i];
                cp[i] = h4.mul_add(f, conc[i]).max(zero);
                stiff[n_stiff] = i;
                n_stiff += usize::from((l0[i] * h4).any_gt(ratio4));
            }
            // Pass 2: the asymptotic update on the stiff lanes of the list.
            for &i in &stiff[..n_stiff] {
                let asym = asymptotic(conc[i], p0[i], l0[i], h4, opts.form);
                cp[i] = (l0[i] * h4).select_gt(ratio4, asym.max(zero), cp[i]);
            }

            pl(cp, pp, lp);

            // Corrector, pass 1: trapezoid for every species (second
            // slope at the predictor), listing the species with a stiff
            // lane.
            let half_h4 = half * h4;
            let mut n_stiff = 0;
            for i in 0..n {
                let f0 = p0[i] - l0[i] * conc[i];
                let fp = pp[i] - lp[i] * cp[i];
                c1[i] = half_h4.mul_add(f0 + fp, conc[i]).max(zero);
                let lbar = (l0[i] + lp[i]) * half;
                stiff[n_stiff] = i;
                n_stiff += usize::from((lbar * h4).any_gt(ratio4));
            }
            // Pass 2: the asymptotic update with step-averaged production
            // and loss on the stiff lanes, and — same lanes — the drift
            // of the quasi-equilibrium P/L across the substep, which is
            // the error estimate of a species pinned to its equilibrium.
            let mut err4 = zero;
            for &i in &stiff[..n_stiff] {
                let lbar = (l0[i] + lp[i]) * half;
                let pbar = half * (p0[i] + pp[i]);
                let lbar_h = lbar * h4;
                let asym = asymptotic(conc[i], pbar, lbar, h4, opts.form);
                c1[i] = lbar_h.select_gt(ratio4, asym.max(zero), c1[i]);
                let drift = half * (pp[i] / lp[i] - p0[i] / l0[i]).abs() / (c1[i] + atol4);
                let drift = lbar_h.select_gt(ratio4, drift, zero);
                let drift = l0[i].select_gt(zero, drift, zero);
                err4 = err4.max(lp[i].select_gt(zero, drift, zero));
            }
            // Error: predictor/corrector difference, per lane.
            for i in 0..n {
                err4 = err4.max((c1[i] - cp[i]).abs() / (c1[i] + atol4));
            }

            // The scalar controller, lane by lane.
            let mut accepted = zero;
            for (j, lane) in lanes.iter_mut().enumerate() {
                if lane.cell.is_none() {
                    continue;
                }
                let (accept, h_next) = step_control(err4.lane(j), lane.h, opts);
                if accept {
                    accepted.set_lane(j, 1.0);
                    lane.t += lane.h;
                    lane.stats.substeps += 1;
                } else {
                    lane.stats.rejected += 1;
                }
                lane.fresh = accept;
                lane.h = h_next;
            }
            for i in 0..n {
                conc[i] = accepted.select_gt(zero, c1[i], conc[i]);
            }
            // A lane whose cell reached `dt_min` stores it and takes the
            // stream's next cell.
            for (j, lane) in lanes.iter_mut().enumerate() {
                let Some(cell) = lane.cell.filter(|_| lane.t >= dt_min) else {
                    continue;
                };
                self.store(cell, j, conc);
                self.stats[cell].absorb(lane.stats);
                *lane = Lane::default();
                if next < n_cells {
                    self.load(next, j, conc);
                    lane.cell = Some(next);
                    lane.fresh = true;
                    next += 1;
                } else {
                    live -= 1;
                }
            }
        }
        ran
    }
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

/// Four-column vertical diffusion: lane `j` of `c[l]` is layer `l` of
/// column `j`. Geometry, `kz` and the deposition velocity are shared
/// across lanes; only the emission flux differs per column. The
/// tridiagonal system is [`crate::vertical::diffuse_column`]'s own, its
/// factorisation lane-shared, and the lanewise arithmetic exactly the
/// scalar solve's (which fuses nothing), so each lane is bit-identical
/// to it.
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
    debug_assert_eq!(c.len(), n);
    if dt_min <= 0.0 {
        return;
    }
    let system = [&mut ws.lower, &mut ws.diag, &mut ws.upper];
    diffusion_system(geom, kz, dep_velocity, dt_min, system);
    ws.cprime.clear();
    ws.cprime.resize(n, 0.0);
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
    use crate::youngboris::{integrate_cell_with_k, AsymptoticForm, YbWorkspace};
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

    fn compiled(k: &[f64]) -> &[f64; N_REACTIONS] {
        k.try_into().unwrap()
    }

    /// Each lane of `(p4, l4)` is `oracle(column)`, bit for bit.
    fn assert_lanes_equal(
        name: &str,
        cols: &[Vec<f64>],
        (p4, l4): (&[F64x4], &[F64x4]),
        oracle: impl Fn(&[f64]) -> (Vec<f64>, Vec<f64>),
    ) -> Result<(), TestCaseError> {
        for (lane, col) in cols.iter().enumerate() {
            let (p, l) = oracle(col);
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

        /// Each lane of the four-lane kernel — portable (libm's `fma`)
        /// and avx2 (`vfmadd`) — and of the per-lane path of a table-only
        /// mechanism (the table walk) is the generated scalar kernel, bit
        /// for bit. Exact zeros, floor-scale radicals and the night's
        /// zeroed photolysis constants included.
        #[test]
        fn four_lane_kernels_equal_the_scalar_kernel_lane_for_lane(
            cols in prop::collection::vec(prop::collection::vec(concentration(), N_SPECIES), 4),
            t in 255.0f64..320.0,
            sun in prop_oneof![Just(0.0), Just(1.0), 1e-4f64..1.0],
        ) {
            let m = Mechanism::carbon_bond();
            let mut k = Vec::new();
            m.rate_constants(t, sun, &mut k);
            let scalar = |col: &[f64]| {
                let (mut p, mut l) = (vec![f64::NAN; N_SPECIES], vec![f64::NAN; N_SPECIES]);
                m.prod_loss(col, &k, &mut p, &mut l);
                (p, l)
            };
            let conc4 = pack(&cols);
            let mut p4 = vec![F64x4::splat(f64::NAN); N_SPECIES];
            let mut l4 = p4.clone();
            prod_loss4_portable(&conc4, compiled(&k), &mut p4, &mut l4);
            assert_lanes_equal("portable", &cols, (&p4, &l4), scalar)?;
            let table_only = Mechanism::from_table(m.reactions().to_vec(), N_SPECIES);
            prod_loss4_lanes(&table_only, &conc4, &k, &mut p4, &mut l4);
            assert_lanes_equal("table-only", &cols, (&p4, &l4), scalar)?;
            #[cfg(target_arch = "x86_64")]
            if fma_available() {
                // SAFETY: avx2 and fma were detected on the line above.
                unsafe { prod_loss4_avx2(&conc4, compiled(&k), &mut p4, &mut l4) };
                assert_lanes_equal("avx2", &cols, (&p4, &l4), scalar)?;
            }
        }
    }

    /// A stream of `cells` through the portable instantiation — the one
    /// the dispatch never reaches on an avx2 host.
    fn integrate_portable(
        cells: &mut [f64],
        stats: &mut [YbStats],
        k: &[f64],
        dt_min: f64,
        opts: &YbOptions,
    ) -> LaneOccupancy {
        let stream = Stream {
            cells,
            stride: N_SPECIES,
            stats,
            n: N_SPECIES,
        };
        let mut ws = Yb4Workspace::new(N_SPECIES);
        stream.integrate(dt_min, opts, &mut ws, |c, p, l| {
            prod_loss4_portable(c, compiled(k), p, l)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The portable and the dispatched (avx2 where available)
        /// instantiations agree bit for bit — state, statistics and
        /// occupancy — on ragged streams of polluted and random cells:
        /// libm's `fma` against `vfmadd`, which is what makes a result
        /// independent of the host it was computed on.
        #[test]
        fn portable_and_dispatched_streams_agree_bit_for_bit(
            wild in prop::collection::vec(prop::collection::vec(concentration(), N_SPECIES), 0..3),
            n_polluted in 0usize..8,
            sun in prop_oneof![Just(0.0), 1e-3f64..1.0],
            dt in 0.5f64..10.0,
            form in prop_oneof![Just(AsymptoticForm::Exponential), Just(AsymptoticForm::Rational)],
        ) {
            let m = Mechanism::carbon_bond();
            let mut k = Vec::new();
            m.rate_constants(296.0, sun, &mut k);
            // Random states start far from any slow manifold: a coarse
            // floor keeps their transients affordable.
            let opts = YbOptions { form, h_min: 1e-3, ..Default::default() };
            let cells: Vec<f64> = (0..n_polluted).map(polluted).chain(wild).flatten().collect();
            let n_cells = cells.len() / N_SPECIES;
            let (mut a, mut b) = (cells.clone(), cells);
            let mut stats_a = vec![YbStats::default(); n_cells];
            let mut stats_b = stats_a.clone();
            let ran_a = integrate_portable(&mut a, &mut stats_a, &k, dt, &opts);
            let mut ws = Yb4Workspace::new(N_SPECIES);
            let ran_b =
                integrate_stream(&m, &mut b, N_SPECIES, &mut stats_b, &k, dt, &opts, &mut ws);
            prop_assert_eq!(ran_a, ran_b);
            prop_assert_eq!(&stats_a, &stats_b);
            prop_assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
            prop_assert!(a.iter().all(|x| x.is_finite() && *x >= 0.0));
        }
    }

    #[test]
    fn stream_cells_equal_the_scalar_integrator_and_refill_keeps_lanes_busy() {
        // Eleven cells of graded pollution: a ragged tail, lanes refilled
        // at different times. Every cell is the scalar integrator's bits,
        // and the occupancy counters add up to the per-cell statistics.
        let m = Mechanism::carbon_bond();
        let opts = YbOptions::default();
        let mut k = Vec::new();
        m.rate_constants(300.0, 0.85, &mut k);
        let cols: Vec<Vec<f64>> = (0..11).map(polluted).collect();
        let mut cells = cols.concat();
        let mut stats = vec![YbStats::default(); cols.len()];
        let mut ws4 = Yb4Workspace::new(N_SPECIES);
        let ran = integrate_stream(
            &m, &mut cells, N_SPECIES, &mut stats, &k, 10.0, &opts, &mut ws4,
        );
        let mut ws = YbWorkspace::new(N_SPECIES);
        let (mut lane_attempts, mut evals) = (0, 0);
        for (i, col) in cols.iter().enumerate() {
            let mut c = col.clone();
            let want = integrate_cell_with_k(&m, &mut c, &k, 10.0, &opts, &mut ws);
            assert_eq!(stats[i], want, "cell {i}");
            let got = &cells[i * N_SPECIES..][..N_SPECIES];
            assert!(
                got.iter().zip(&c).all(|(a, b)| a.to_bits() == b.to_bits()),
                "cell {i}"
            );
            // evals = 2·substeps + rejected: every attempt evaluates at
            // the predictor, every accepted one makes the next top
            // evaluation new work (the first stands in for the last).
            assert_eq!(want.evals, 2 * want.substeps + want.rejected);
            lane_attempts += want.substeps + want.rejected;
            evals += want.evals;
        }
        assert_eq!(ran.lane_attempts, lane_attempts);
        let occupancy = ran.ratio().unwrap();
        assert!(occupancy > 0.7 && occupancy <= 1.0, "occupancy {occupancy}");
        // Without refill the same cells in groups of four do worse; their
        // statistics are added to what `stats` holds already.
        let mut grouped = LaneOccupancy::default();
        for (group, stats) in cols.chunks(LANES).zip(stats.chunks_mut(LANES)) {
            let mut cells = group.concat();
            grouped.absorb(integrate_stream(
                &m, &mut cells, N_SPECIES, stats, &k, 10.0, &opts, &mut ws4,
            ));
        }
        assert_eq!(grouped.lane_attempts, ran.lane_attempts);
        assert!(grouped.vector_attempts > ran.vector_attempts);
        assert_eq!(stats.iter().map(|s| s.evals).sum::<u64>(), 2 * evals);
    }

    #[test]
    fn four_cell_adapter_reports_vector_iterations() {
        let m = Mechanism::carbon_bond();
        let opts = YbOptions::default();
        let mut k = Vec::new();
        m.rate_constants(300.0, 0.85, &mut k);
        let cols: Vec<Vec<f64>> = (0..4).map(polluted).collect();
        let mut conc4 = pack(&cols);
        let mut ws4 = Yb4Workspace::new(N_SPECIES);
        let got = integrate_cell4(&m, &mut conc4, &k, 10.0, &opts, &mut ws4);
        // The lanes are the stream's ...
        let mut cells = cols.concat();
        let mut stats = [YbStats::default(); 4];
        let ran = integrate_stream(
            &m, &mut cells, N_SPECIES, &mut stats, &k, 10.0, &opts, &mut ws4,
        );
        for (lane, cell) in cells.chunks(N_SPECIES).enumerate() {
            for s in 0..N_SPECIES {
                assert_eq!(conc4[s].lane(lane).to_bits(), cell[s].to_bits());
            }
        }
        // ... and the counts are the kernel's iterations: at least the
        // slowest lane's attempts, at most the sum of all four.
        assert_eq!(got.substeps, ran.vector_attempts);
        assert_eq!((got.rejected, got.evals), (0, 2 * ran.vector_attempts));
        let attempts = |s: &YbStats| s.substeps + s.rejected;
        assert_eq!(got.substeps, stats.iter().map(attempts).max().unwrap());
        assert!(got.substeps > 0);
    }

    #[test]
    fn stream_integrates_a_hand_built_table() {
        // A one-species decay has no generated kernel: the stream
        // evaluates its lanes through the scalar table walk, and each
        // cell is still the scalar integrator's bits. Five cells, spaced
        // three apart.
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
        let opts = YbOptions {
            eps: 1e-4,
            ..Default::default()
        };
        let start = [2.0, 1.0, 0.5, 0.0, 3.0];
        let mut cells = vec![-1.0; 3 * start.len()];
        for (i, c0) in start.iter().enumerate() {
            cells[3 * i] = *c0;
        }
        let mut ws4 = Yb4Workspace::new(1);
        let mut stats = [YbStats::default(); 5];
        integrate_stream(&m, &mut cells, 3, &mut stats, &k, 10.0, &opts, &mut ws4);
        let decay = (-0.3f64 * 10.0).exp();
        for (i, c0) in start.iter().enumerate() {
            let mut want = [*c0];
            let want_stats =
                integrate_cell_with_k(&m, &mut want, &k, 10.0, &opts, &mut YbWorkspace::new(1));
            assert_eq!(cells[3 * i].to_bits(), want[0].to_bits(), "cell {i}");
            assert_eq!(stats[i], want_stats, "cell {i}");
            assert!((want[0] - c0 * decay).abs() <= 5e-3 * c0 * decay);
            // The gaps between cells are not the stream's to touch.
            assert_eq!(cells[3 * i + 1..3 * i + 3], [-1.0, -1.0]);
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
            // What the lanes left behind, idle lanes' state included.
            for (b, buf) in ws.lanes.iter().chain([&conc]).enumerate() {
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
        let mut ws = Column4Workspace::default();
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
    fn zero_dt_and_empty_streams_are_noops() {
        let m = Mechanism::carbon_bond();
        let mut k = Vec::new();
        m.rate_constants(298.0, 0.5, &mut k);
        let opts = YbOptions::default();
        let mut ws4 = Yb4Workspace::new(N_SPECIES);
        let mut conc4: Vec<F64x4> = background_vector()
            .iter()
            .map(|&v| F64x4::splat(v))
            .collect();
        let before = conc4.clone();
        let stats = integrate_cell4(&m, &mut conc4, &k, 0.0, &opts, &mut ws4);
        assert_eq!(stats, YbStats::default());
        assert_eq!(before, conc4);
        let mut cells = background_vector();
        let mut stats = [YbStats::default()];
        let ran = integrate_stream(
            &m, &mut cells, N_SPECIES, &mut stats, &k, 0.0, &opts, &mut ws4,
        );
        assert_eq!((ran, stats[0]), Default::default());
        assert_eq!(cells, background_vector());
        let ran = integrate_stream(&m, &mut [], N_SPECIES, &mut [], &k, 5.0, &opts, &mut ws4);
        assert_eq!(ran.ratio(), None);
    }
}
