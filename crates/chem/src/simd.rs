//! Chemistry's cells as independent lanes: the Young–Boris integrator
//! every run takes.
//!
//! Every grid cell's kinetics is independent of every other's, so
//! [`integrate_stream`] integrates **one cell per lane of the host's
//! widest vector, each lane with its own substep controller**: eight
//! cells at a time in [`F64x8`] lanes where the CPU has AVX-512, four in
//! [`F64x4`] lanes elsewhere. It walks the same-layer cells of a
//! partition (they share temperature and actinic factor, hence the rate
//! constants `k`): a lane holds one cell with its own `t`, `h` and
//! accept/reject history, and a lane whose cell reaches `dt` stores it and
//! loads the next one, so the lanes stay full until the stream runs dry.
//! Production/loss (the kernel `build.rs` generates, see
//! [`crate::mechanism`]), predictor, corrector and the stiff asymptotic
//! pass are branch-free vector passes with `h` a vector; the error
//! maximum, accept/reject, `t += h` and the next `h` are per lane, by the
//! very functions the scalar integrator calls; an accepted lane takes `c1`
//! by a select, a rejected one keeps its state.
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
//! neighbours were, whatever the width and whatever the host:
//! `f64::mul_add` is one `vfmadd` in the instantiations compiled for
//! `fma` and libm's software `fma` in the portable one, correctly rounded
//! in all. This is the chemistry of every thread count, of shards, server
//! workers and ensembles.
//!
//! The vertical solve ([`diffuse_column4`]) has lane-shared coefficients
//! and exactly [`crate::vertical::diffuse_column`]'s lanewise arithmetic,
//! so each of its lanes is bit-identical to the scalar solve as well.
//!
//! Dispatch: the stream body is written once, generic over the lane
//! vector, and compiled three times ([`Instantiation`]): portably at four
//! lanes, for `avx2,fma` at four and for `avx512f,avx2,fma` at eight.
//! [`integrate_stream`] runs the widest the host has (one cached feature
//! check); the width decides the speed and nothing else, like the thread
//! count. The two `#[target_feature]` calls are this module's only
//! `unsafe`; their precondition is the CPU feature check asserted at the
//! top of [`integrate_stream_on`], repeated as a `debug_assert!` inside
//! each callee. The integrator body and the generated kernels contain
//! none, and the kernels index only fixed-size arrays with constants.

use crate::mechanism::{kernels, Mechanism, N_REACTIONS};
use crate::species::N_SPECIES;
use crate::vertical::{diffusion_system, ColumnGeometry};
use crate::youngboris::{asymptotic, initial_substep, step_control, YbOptions, YbStats};
use airshed_simd::{avx512_available, fma_available, F64x4, F64x8, Lanes};

/// Scratch for [`integrate_stream`]: the lanes' vectors per width (the
/// mirror of `YbWorkspace`: `conc`, `p0`, `l0`, `pp`, `lp`, `cp`, `c1`,
/// one vector per species each), allocated only for a width that runs,
/// the list of species with a stiff lane, and the staging cells of the
/// [`integrate_cell4`] adapter. The kernel sizes it to the mechanism it
/// is handed.
#[derive(Default)]
pub struct Yb4Workspace {
    x4: [Vec<F64x4>; 7],
    x8: [Vec<F64x8>; 7],
    stiff: Vec<usize>,
    cells: Vec<f64>,
}

impl Yb4Workspace {
    /// An empty workspace. The kernel fits the vectors of the width it
    /// runs to the mechanism it is handed, so `n_species` is not needed
    /// and a width that never runs is never allocated.
    pub fn new(_n_species: usize) -> Yb4Workspace {
        Yb4Workspace::default()
    }
}

/// Size each of the lanes' vectors to `n` species.
fn fit<V: Lanes>(vectors: &mut [Vec<V>; 7], n: usize) {
    for v in vectors {
        v.resize(n, V::splat(0.0));
    }
}

/// One compiled instantiation of the stream kernel: a lane width and the
/// CPU features it is compiled for. All of them compute the same bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instantiation {
    /// Four lanes, no target features (libm's `fma` per lane).
    Portable,
    /// Four lanes in 256-bit registers, compiled for `avx2,fma`.
    Avx2,
    /// Eight lanes in 512-bit registers, compiled for `avx512f,avx2,fma`.
    Avx512,
}

impl Instantiation {
    /// Whether this host's CPU runs it.
    pub fn available(self) -> bool {
        match self {
            Instantiation::Portable => true,
            Instantiation::Avx2 => fma_available(),
            Instantiation::Avx512 => avx512_available(),
        }
    }

    /// The widest instantiation this host runs: the one
    /// [`integrate_stream`] takes.
    ///
    /// The rule "avx512f ⇒ eight lanes" was timed on one CPU only, a
    /// Sapphire Rapids Xeon (family 6, model 143) where eight lanes are
    /// 15–18 % cheaper per lane-attempt than four. Other AVX-512 parts,
    /// and four lanes against an eight-lane body on an AVX2-only CPU,
    /// are unmeasured; the width moves no bit either way.
    pub fn host() -> Instantiation {
        if avx512_available() {
            Instantiation::Avx512
        } else {
            Instantiation::four_lane()
        }
    }

    /// The four-lane instantiation this host runs: avx2 where it has it,
    /// portable elsewhere.
    pub fn four_lane() -> Instantiation {
        if fma_available() {
            Instantiation::Avx2
        } else {
            Instantiation::Portable
        }
    }

    /// Cells integrated side by side.
    pub fn lanes(self) -> usize {
        match self {
            Instantiation::Avx512 => F64x8::LANES,
            _ => F64x4::LANES,
        }
    }
}

/// The generated kernel on the lanes of `V`. The callers hand in slices
/// cut to `n_species` of a compiled mechanism, so a mismatch is a bug in
/// this module — a panic, never an out-of-bounds access.
#[inline(always)]
fn prod_loss_compiled<V: Lanes>(conc: &[V], k: &[f64; N_REACTIONS], p: &mut [V], l: &mut [V]) {
    match (conc.try_into(), p.try_into(), l.try_into()) {
        (Ok(c), Ok(p), Ok(l)) => kernels::prod_loss(c, k, p, l),
        _ => panic!("compiled lane kernel called with slices of another length"),
    }
}

/// The portable instantiation of the generated kernel, four lanes, for
/// hosts without avx2 and fma.
#[inline(never)]
fn prod_loss_portable(conc: &[F64x4], k: &[f64; N_REACTIONS], p: &mut [F64x4], l: &mut [F64x4]) {
    prod_loss_compiled(conc, k, p, l);
}

/// One `#[target_feature]` instantiation: the generated kernel
/// (`$prod_loss`, the bits of [`prod_loss_portable`] in each lane, one
/// `vfmadd` per multiply-add) and the stream kernel over it (`$integrate`)
/// at the width of `$V`, whose vectors live in the workspace's `$x`, both
/// compiled for `$features`. Call them only after `$available()` returned
/// true.
macro_rules! instantiation {
    ($prod_loss:ident, $integrate:ident, $V:ty, $x:ident, $features:literal, $available:ident) => {
        #[cfg(target_arch = "x86_64")]
        #[inline(never)]
        #[target_feature(enable = $features)]
        fn $prod_loss(conc: &[$V], k: &[f64; N_REACTIONS], p: &mut [$V], l: &mut [$V]) {
            debug_assert!($available());
            prod_loss_compiled(conc, k, p, l);
        }

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = $features)]
        fn $integrate(
            stream: Stream,
            k: &[f64; N_REACTIONS],
            dt_min: f64,
            opts: &YbOptions,
            ws: &mut Yb4Workspace,
        ) -> LaneOccupancy {
            debug_assert!($available());
            let pl = |c: &[$V], p: &mut [$V], l: &mut [$V]| $prod_loss(c, k, p, l);
            stream.integrate(&mut ws.$x, &mut ws.stiff, dt_min, opts, pl)
        }
    };
}

instantiation! { prod_loss_avx2, integrate_avx2, F64x4, x4, "avx2,fma", fma_available }
instantiation! { prod_loss_avx512, integrate_avx512, F64x8, x8, "avx512f,avx2,fma", avx512_available }

/// Four-lane production/loss of a table-only mechanism: each lane goes
/// through the scalar table walk. No production caller — it serves the
/// hand-built mechanisms of tests.
fn prod_loss_table(mech: &Mechanism, conc: &[F64x4], k: &[f64], p: &mut [F64x4], l: &mut [F64x4]) {
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

/// How full [`integrate_stream`] kept its lanes: of the `lane_slots` its
/// `vector_attempts` executed, `lane_attempts` advanced a cell (each is
/// one accepted or rejected substep of that cell); the rest ran in lanes
/// waiting for the stream's last cells. Counts of streams of any width
/// add up.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneOccupancy {
    /// Vector substep attempts (two production/loss evaluations each).
    pub vector_attempts: u64,
    /// Lanes those attempts executed: `vector_attempts` × the width.
    pub lane_slots: u64,
    /// Σ over cells of `substeps + rejected`.
    pub lane_attempts: u64,
}

impl LaneOccupancy {
    /// Merge the counts of another stream.
    pub fn absorb(&mut self, other: LaneOccupancy) {
        self.vector_attempts += other.vector_attempts;
        self.lane_slots += other.lane_slots;
        self.lane_attempts += other.lane_attempts;
    }

    /// Useful share of the executed lane slots, in `(0, 1]`; `None` if
    /// nothing ran.
    pub fn ratio(&self) -> Option<f64> {
        (self.lane_slots > 0).then(|| self.lane_attempts as f64 / self.lane_slots as f64)
    }

    /// Lanes per vector attempt — the width the streams ran at; `None` if
    /// nothing ran.
    pub fn width(&self) -> Option<f64> {
        (self.vector_attempts > 0).then(|| self.lane_slots as f64 / self.vector_attempts as f64)
    }
}

/// Advance every cell of a stream by `dt_min` minutes with shared,
/// pre-evaluated rate constants `k`: cell `i` is the species vector
/// `cells[i * stride..][..n_species]` (so a stream is the same-layer
/// cells of cell-major columns laid end to end: base slice at the layer,
/// stride one column), and its work statistics are added to `stats[i]`
/// (so a caller walking the layers of a column sums it up in place);
/// `stats.len()` is the number of cells. Runs the host's widest
/// [`Instantiation`].
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
    let inst = Instantiation::host();
    integrate_stream_on(inst, mech, cells, stride, stats, k, dt_min, opts, ws)
}

/// [`integrate_stream`] through the given instantiation: the four-lane
/// one for [`integrate_cell4`], and each in turn for the tests that hold
/// them to the same bits. Panics if this host cannot run `inst`.
#[allow(clippy::too_many_arguments)]
pub fn integrate_stream_on(
    inst: Instantiation,
    mech: &Mechanism,
    cells: &mut [f64],
    stride: usize,
    stats: &mut [YbStats],
    k: &[f64],
    dt_min: f64,
    opts: &YbOptions,
    ws: &mut Yb4Workspace,
) -> LaneOccupancy {
    assert!(inst.available(), "this CPU cannot run the {inst:?} lanes");
    debug_assert_eq!(k.len(), mech.n_reactions());
    let n = mech.n_species();
    let stream = Stream {
        cells,
        stride,
        stats,
        n,
    };
    let Some(ck) = mech.compiled_k(k).filter(|_| n == N_SPECIES) else {
        // No compiled kernel to instantiate: four portable lanes walk the
        // table, whatever `inst`.
        let pl = |c: &[F64x4], p: &mut [F64x4], l: &mut [F64x4]| prod_loss_table(mech, c, k, p, l);
        return stream.integrate(&mut ws.x4, &mut ws.stiff, dt_min, opts, pl);
    };
    match inst {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `integrate_avx512` requires avx512f, avx2 and fma, which
        // `inst.available()` asserted on this CPU above.
        Instantiation::Avx512 => unsafe { integrate_avx512(stream, ck, dt_min, opts, ws) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `integrate_avx2` requires avx2 and fma, which
        // `inst.available()` asserted on this CPU above.
        Instantiation::Avx2 => unsafe { integrate_avx2(stream, ck, dt_min, opts, ws) },
        _ => stream.integrate(&mut ws.x4, &mut ws.stiff, dt_min, opts, |c, p, l| {
            prod_loss_portable(c, ck, p, l)
        }),
    }
}

/// Four cells, one per lane of `conc[s]`, through the four-lane
/// instantiation of the stream kernel (avx2, or portable without it),
/// whatever the host's widest: a stream of exactly four cells, so no lane
/// is ever refilled. Kept for callers that hold lane-major cells.
///
/// The returned statistics count **vector iterations, not per-cell
/// work**: `substeps` is the number of four-lane attempts the kernel ran
/// — the most any of the four cells took (`substeps + rejected`; > 0
/// whenever `dt_min > 0`) — `evals` the four-lane production/loss
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
    const LANES: usize = F64x4::LANES;
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
    let inst = Instantiation::four_lane();
    integrate_stream_on(inst, mech, &mut cells, n, &mut stats, k, dt_min, opts, ws);
    for (s, c) in conc.iter_mut().enumerate() {
        for lane in 0..LANES {
            c.set_lane(lane, cells[lane * n + s]);
        }
    }
    ws.cells = cells;
    let attempts = stats.iter().map(|s| s.substeps + s.rejected).max();
    let substeps = attempts.unwrap_or(0);
    YbStats {
        substeps,
        rejected: 0,
        evals: 2 * substeps,
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
    fn load<V: Lanes>(&self, i: usize, lane: usize, conc: &mut [V]) {
        let cell = &self.cells[i * self.stride..][..self.n];
        for (c, &v) in conc.iter_mut().zip(cell) {
            c.set_lane(lane, v);
        }
    }

    /// Copy lane `lane` of `conc` back into cell `i`.
    fn store<V: Lanes>(&mut self, i: usize, lane: usize, conc: &[V]) {
        let cell = &mut self.cells[i * self.stride..][..self.n];
        for (v, c) in cell.iter_mut().zip(conc) {
            *v = c.lane(lane);
        }
    }

    /// The stream kernel at the width of `V`, over the production/loss
    /// evaluation `pl(conc, p, l)` of the mechanism on those lanes, with
    /// the lanes' vectors and the stiff list as scratch.
    ///
    /// Every attempt evaluates production/loss at the lanes' states
    /// (new work for a lane that accepted or loaded a cell; for a lane
    /// that rejected it recomputes the same bits and is not counted),
    /// then runs predictor and corrector as two passes each: a
    /// branch-free vector Euler / trapezoid over every species, which
    /// also lists the species with a stiff lane, then the vector
    /// asymptotic update of the listed few, blended per lane over the
    /// first pass's value. The only branch on a species' stiffness is
    /// `asymptotic`'s shortcut when all lanes are past the exponential's
    /// range; the only per-lane branches are the controller's.
    #[inline(always)]
    fn integrate<V: Lanes>(
        mut self,
        vectors: &mut [Vec<V>; 7],
        stiff: &mut Vec<usize>,
        dt_min: f64,
        opts: &YbOptions,
        pl: impl Fn(&[V], &mut [V], &mut [V]),
    ) -> LaneOccupancy {
        let mut ran = LaneOccupancy::default();
        let n_cells = self.stats.len();
        if dt_min <= 0.0 || n_cells == 0 {
            return ran;
        }
        // Every buffer cut to the same length once, so the loops below
        // carry no bounds checks.
        let n = self.n;
        fit(vectors, n);
        stiff.resize(n, 0);
        let [conc, p0, l0, pp, lp, cp, c1] = vectors;
        let (conc, cp, c1) = (&mut conc[..n], &mut cp[..n], &mut c1[..n]);
        let (p0, l0, pp, lp) = (&mut p0[..n], &mut l0[..n], &mut pp[..n], &mut lp[..n]);
        let stiff = &mut stiff[..n];
        let zero = V::splat(0.0);
        let atol = V::splat(opts.atol);
        let half = V::splat(0.5);
        let ratio = V::splat(opts.stiff_ratio);

        // The first cells, one per lane; lanes beyond the stream's
        // length idle on a copy of cell 0. The control state lives on
        // the stack, sized for the widest vector.
        let mut next = n_cells.min(V::LANES);
        let mut slots = [Lane::default(); F64x8::LANES];
        let lanes = &mut slots[..V::LANES];
        for (j, lane) in lanes.iter_mut().enumerate() {
            self.load(if j < next { j } else { 0 }, j, conc);
            lane.cell = (j < next).then_some(j);
            lane.fresh = true;
        }
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
            ran.lane_slots += V::LANES as u64;
            ran.lane_attempts += live;
            let mut h = zero;
            for (j, lane) in lanes.iter().enumerate() {
                h.set_lane(j, lane.h);
            }

            // Predictor, pass 1: explicit Euler for every species, and
            // the list of those with a stiff lane (appended without a
            // branch).
            let mut n_stiff = 0;
            for i in 0..n {
                let f = p0[i] - l0[i] * conc[i];
                cp[i] = h.mul_add(f, conc[i]).max(zero);
                stiff[n_stiff] = i;
                n_stiff += usize::from((l0[i] * h).any_gt(ratio));
            }
            // Pass 2: the asymptotic update on the stiff lanes of the list.
            for &i in &stiff[..n_stiff] {
                let asym = asymptotic(conc[i], p0[i], l0[i], h, opts.form);
                cp[i] = (l0[i] * h).select_gt(ratio, asym.max(zero), cp[i]);
            }

            pl(cp, pp, lp);

            // Corrector, pass 1: trapezoid for every species (second
            // slope at the predictor), listing the species with a stiff
            // lane.
            let half_h = half * h;
            let mut n_stiff = 0;
            for i in 0..n {
                let f0 = p0[i] - l0[i] * conc[i];
                let fp = pp[i] - lp[i] * cp[i];
                c1[i] = half_h.mul_add(f0 + fp, conc[i]).max(zero);
                let lbar = (l0[i] + lp[i]) * half;
                stiff[n_stiff] = i;
                n_stiff += usize::from((lbar * h).any_gt(ratio));
            }
            // Pass 2: the asymptotic update with step-averaged production
            // and loss on the stiff lanes, and — same lanes — the drift
            // of the quasi-equilibrium P/L across the substep, which is
            // the error estimate of a species pinned to its equilibrium.
            let mut err = zero;
            for &i in &stiff[..n_stiff] {
                let lbar = (l0[i] + lp[i]) * half;
                let pbar = half * (p0[i] + pp[i]);
                let lbar_h = lbar * h;
                let asym = asymptotic(conc[i], pbar, lbar, h, opts.form);
                c1[i] = lbar_h.select_gt(ratio, asym.max(zero), c1[i]);
                let drift = half * (pp[i] / lp[i] - p0[i] / l0[i]).abs() / (c1[i] + atol);
                let drift = lbar_h.select_gt(ratio, drift, zero);
                let drift = l0[i].select_gt(zero, drift, zero);
                err = err.max(lp[i].select_gt(zero, drift, zero));
            }
            // Error: predictor/corrector difference, per lane.
            for i in 0..n {
                err = err.max((c1[i] - cp[i]).abs() / (c1[i] + atol));
            }

            // The scalar controller, lane by lane.
            let mut accepted = zero;
            for (j, lane) in lanes.iter_mut().enumerate() {
                if lane.cell.is_none() {
                    continue;
                }
                let (accept, h_next) = step_control(err.lane(j), lane.h, opts);
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
    c[0] /= F64x4::splat(denom);
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

    /// Species-major lanes: lane `j` of species `s` is `cols[j][s]`.
    fn pack<V: Lanes>(cols: &[Vec<f64>]) -> Vec<V> {
        (0..cols[0].len())
            .map(|s| {
                let mut v = V::splat(0.0);
                for (j, col) in cols.iter().enumerate().take(V::LANES) {
                    v.set_lane(j, col[s]);
                }
                v
            })
            .collect()
    }

    /// The host's instantiations, narrowest first.
    fn supported() -> impl Iterator<Item = Instantiation> {
        use Instantiation::{Avx2, Avx512, Portable};
        [Portable, Avx2, Avx512]
            .into_iter()
            .filter(|i| i.available())
    }

    fn compiled(k: &[f64]) -> &[f64; N_REACTIONS] {
        k.try_into().unwrap()
    }

    /// Each lane of `(p, l)` is `oracle(column)`, bit for bit.
    fn assert_lanes_equal<V: Lanes>(
        name: &str,
        cols: &[Vec<f64>],
        (pv, lv): (&[V], &[V]),
        oracle: impl Fn(&[f64]) -> (Vec<f64>, Vec<f64>),
    ) -> Result<(), TestCaseError> {
        for (lane, col) in cols.iter().enumerate().take(V::LANES) {
            let (p, l) = oracle(col);
            for s in 0..N_SPECIES {
                let (gp, gl) = (pv[s].lane(lane), lv[s].lane(lane));
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

        /// Each lane of every lane kernel — portable (libm's `fma`), avx2
        /// and avx512 (`vfmadd`), and the per-lane path of a table-only
        /// mechanism (the table walk) — is the
        /// generated scalar kernel, bit for bit. Exact zeros, floor-scale
        /// radicals and the night's zeroed photolysis constants included.
        #[test]
        fn lane_kernels_equal_the_scalar_kernel_lane_for_lane(
            cols in prop::collection::vec(prop::collection::vec(concentration(), N_SPECIES), 8),
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
            let table_only = Mechanism::from_table(m.reactions().to_vec(), N_SPECIES);
            let (conc4, conc8) = (pack::<F64x4>(&cols), pack::<F64x8>(&cols));
            let mut p4 = vec![F64x4::splat(f64::NAN); N_SPECIES];
            let mut l4 = p4.clone();
            let mut p8 = vec![F64x8::splat(f64::NAN); N_SPECIES];
            let mut l8 = p8.clone();
            prod_loss_portable(&conc4, compiled(&k), &mut p4, &mut l4);
            assert_lanes_equal("portable", &cols, (&p4, &l4), scalar)?;
            prod_loss_table(&table_only, &conc4, &k, &mut p4, &mut l4);
            assert_lanes_equal("table-only", &cols, (&p4, &l4), scalar)?;
            #[cfg(target_arch = "x86_64")]
            if fma_available() {
                // SAFETY: avx2 and fma were detected on the line above.
                unsafe { prod_loss_avx2(&conc4, compiled(&k), &mut p4, &mut l4) };
                assert_lanes_equal("avx2", &cols, (&p4, &l4), scalar)?;
            }
            #[cfg(target_arch = "x86_64")]
            if avx512_available() {
                // SAFETY: avx512f, avx2 and fma were detected on the line above.
                unsafe { prod_loss_avx512(&conc8, compiled(&k), &mut p8, &mut l8) };
                assert_lanes_equal("avx512", &cols, (&p8, &l8), scalar)?;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every instantiation the host runs — portable, avx2 and avx512,
        /// each called directly — and the dispatched stream agree bit for
        /// bit in state and per-cell statistics, and in occupancy up to
        /// the width, on ragged streams of 0–19 polluted and random cells
        /// (below, at and across a multiple of eight lanes) spaced wider
        /// than a cell: libm's `fma` against `vfmadd`, four lanes against
        /// eight, which is what makes a result independent of the host it
        /// was computed on.
        #[test]
        fn portable_and_dispatched_streams_agree_bit_for_bit(
            wild in prop::collection::vec(prop::collection::vec(concentration(), N_SPECIES), 0..4),
            n_polluted in 0usize..16,
            gap in 1usize..4,
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
            let cells: Vec<Vec<f64>> = (0..n_polluted).map(polluted).chain(wild).collect();
            let stride = N_SPECIES + gap;
            let mut start = vec![-1.0; cells.len() * stride];
            for (i, c) in cells.iter().enumerate() {
                start[i * stride..][..N_SPECIES].copy_from_slice(c);
            }
            let run = |inst: Option<Instantiation>| {
                let mut buf = start.clone();
                let mut stats = vec![YbStats::default(); cells.len()];
                let mut ws = Yb4Workspace::new(N_SPECIES);
                let ran = match inst {
                    Some(i) => integrate_stream_on(i, &m, &mut buf, stride, &mut stats, &k, dt, &opts, &mut ws),
                    None => integrate_stream(&m, &mut buf, stride, &mut stats, &k, dt, &opts, &mut ws),
                };
                (buf, stats, ran)
            };
            let (want, want_stats, want_ran) = run(Some(Instantiation::Portable));
            prop_assert!(want.iter().all(|x| x.is_finite() && (*x >= 0.0 || *x == -1.0)));
            for inst in supported() {
                let (got, stats, ran) = run(Some(inst));
                prop_assert!(got.iter().zip(&want).all(|(x, y)| x.to_bits() == y.to_bits()), "{inst:?}");
                prop_assert_eq!(&stats, &want_stats, "{:?}", inst);
                prop_assert_eq!(ran.lane_attempts, want_ran.lane_attempts, "{:?}", inst);
                prop_assert_eq!(ran.lane_slots, inst.lanes() as u64 * ran.vector_attempts);
                if inst.lanes() == 4 {
                    prop_assert_eq!(ran, want_ran, "{:?}", inst);
                }
                if inst == Instantiation::host() {
                    let (dispatched, stats, dispatched_ran) = run(None);
                    prop_assert!(dispatched.iter().zip(&got).all(|(x, y)| x.to_bits() == y.to_bits()));
                    prop_assert_eq!((&stats, dispatched_ran), (&want_stats, ran));
                }
            }
        }
    }

    #[test]
    fn stream_cells_equal_the_scalar_integrator_and_refill_keeps_lanes_busy() {
        // Nineteen cells of graded pollution: a ragged tail at four lanes
        // and at eight, lanes refilled at different times. Every cell is
        // the scalar integrator's bits at every width, and the occupancy
        // counters add up to the per-cell statistics.
        let m = Mechanism::carbon_bond();
        let opts = YbOptions::default();
        let mut k = Vec::new();
        m.rate_constants(300.0, 0.85, &mut k);
        let cols: Vec<Vec<f64>> = (0..19).map(polluted).collect();
        let mut ws = YbWorkspace::new(N_SPECIES);
        let mut lane_attempts = 0;
        let want: Vec<(Vec<f64>, YbStats)> = cols
            .iter()
            .map(|col| {
                let mut c = col.clone();
                let st = integrate_cell_with_k(&m, &mut c, &k, 10.0, &opts, &mut ws);
                // evals = 2·substeps + rejected: every attempt evaluates
                // at the predictor, every accepted one makes the next top
                // evaluation new work (the first stands in for the last).
                assert_eq!(st.evals, 2 * st.substeps + st.rejected);
                lane_attempts += st.substeps + st.rejected;
                (c, st)
            })
            .collect();
        let mut ws4 = Yb4Workspace::new(N_SPECIES);
        for inst in supported() {
            let mut cells = cols.concat();
            let mut stats = vec![YbStats::default(); cols.len()];
            let ran = integrate_stream_on(
                inst, &m, &mut cells, N_SPECIES, &mut stats, &k, 10.0, &opts, &mut ws4,
            );
            for (i, (c, st)) in want.iter().enumerate() {
                assert_eq!(stats[i], *st, "{inst:?} cell {i}");
                let got = &cells[i * N_SPECIES..][..N_SPECIES];
                assert!(
                    got.iter().zip(c).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{inst:?} cell {i}"
                );
            }
            assert_eq!(ran.lane_attempts, lane_attempts);
            assert_eq!(ran.width(), Some(inst.lanes() as f64));
            let occupancy = ran.ratio().unwrap();
            assert!(
                occupancy > 0.7 && occupancy <= 1.0,
                "{inst:?} occupancy {occupancy}"
            );
            // Without refill the same cells in groups of a vector do
            // worse; their statistics are added to what `stats` holds
            // already.
            let mut grouped = LaneOccupancy::default();
            let width = inst.lanes();
            for (group, stats) in cols.chunks(width).zip(stats.chunks_mut(width)) {
                let mut cells = group.concat();
                grouped.absorb(integrate_stream_on(
                    inst, &m, &mut cells, N_SPECIES, stats, &k, 10.0, &opts, &mut ws4,
                ));
            }
            assert_eq!(grouped.lane_attempts, ran.lane_attempts);
            assert!(grouped.vector_attempts > ran.vector_attempts, "{inst:?}");
            for (st, (_, want)) in stats.iter().zip(&want) {
                assert_eq!(st.evals, 2 * want.evals);
            }
        }
        // Counts of different widths add up slot by slot.
        let mut both = LaneOccupancy {
            vector_attempts: 10,
            lane_slots: 40,
            lane_attempts: 36,
        };
        both.absorb(LaneOccupancy {
            vector_attempts: 5,
            lane_slots: 40,
            lane_attempts: 38,
        });
        assert_eq!(
            (both.ratio(), both.width()),
            (Some(74.0 / 80.0), Some(80.0 / 15.0))
        );
    }

    #[test]
    fn four_cell_adapter_runs_four_lanes_and_reports_vector_iterations() {
        let m = Mechanism::carbon_bond();
        let opts = YbOptions::default();
        let mut k = Vec::new();
        m.rate_constants(300.0, 0.85, &mut k);
        let cols: Vec<Vec<f64>> = (0..4).map(polluted).collect();
        let mut conc4 = pack::<F64x4>(&cols);
        let mut ws4 = Yb4Workspace::new(N_SPECIES);
        let got = integrate_cell4(&m, &mut conc4, &k, 10.0, &opts, &mut ws4);
        // The lanes are the stream's, at the host's width ...
        let mut cells = cols.concat();
        let mut stats = [YbStats::default(); 4];
        integrate_stream(
            &m, &mut cells, N_SPECIES, &mut stats, &k, 10.0, &opts, &mut ws4,
        );
        for (lane, cell) in cells.chunks(N_SPECIES).enumerate() {
            for s in 0..N_SPECIES {
                assert_eq!(conc4[s].lane(lane).to_bits(), cell[s].to_bits());
            }
        }
        // ... and the counts are the four-lane kernel's iterations: the
        // slowest lane's attempts.
        let mut cells = cols.concat();
        let ran = integrate_stream_on(
            Instantiation::four_lane(),
            &m,
            &mut cells,
            N_SPECIES,
            &mut [YbStats::default(); 4],
            &k,
            10.0,
            &opts,
            &mut ws4,
        );
        assert_eq!(got.substeps, ran.vector_attempts);
        assert_eq!((got.rejected, got.evals), (0, 2 * ran.vector_attempts));
        let attempts = |s: &YbStats| s.substeps + s.rejected;
        assert_eq!(got.substeps, stats.iter().map(attempts).max().unwrap());
        assert!(got.substeps > 0);
    }

    #[test]
    fn stream_integrates_a_hand_built_table() {
        // A one-species decay has no generated kernel: the stream
        // evaluates its four lanes through the scalar table walk, whatever
        // the instantiation asked for, and each cell is still the scalar
        // integrator's bits.
        // Eleven cells, spaced three apart.
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
        let start = [2.0, 1.0, 0.5, 0.0, 3.0, 0.25, 1.5, 4.0, 0.75, 2.5, 0.1];
        let decay = (-0.3f64 * 10.0).exp();
        for inst in supported() {
            let mut cells = vec![-1.0; 3 * start.len()];
            for (i, c0) in start.iter().enumerate() {
                cells[3 * i] = *c0;
            }
            let mut ws4 = Yb4Workspace::new(1);
            let mut stats = [YbStats::default(); 11];
            integrate_stream_on(
                inst, &m, &mut cells, 3, &mut stats, &k, 10.0, &opts, &mut ws4,
            );
            for (i, c0) in start.iter().enumerate() {
                let mut want = [*c0];
                let want_stats =
                    integrate_cell_with_k(&m, &mut want, &k, 10.0, &opts, &mut YbWorkspace::new(1));
                assert_eq!(
                    cells[3 * i].to_bits(),
                    want[0].to_bits(),
                    "{inst:?} cell {i}"
                );
                assert_eq!(stats[i], want_stats, "{inst:?} cell {i}");
                assert!((want[0] - c0 * decay).abs() <= 5e-3 * c0 * decay);
                // The gaps between cells are not the stream's to touch.
                assert_eq!(cells[3 * i + 1..3 * i + 3], [-1.0, -1.0]);
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
            // What the lanes left behind, idle lanes' state included.
            for (b, buf) in ws.x4.iter().chain([&conc]).enumerate() {
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
    fn workspace_allocates_only_the_width_that_ran() {
        let m = Mechanism::carbon_bond();
        let mut k = Vec::new();
        m.rate_constants(298.0, 0.5, &mut k);
        let opts = YbOptions::default();
        let capacities = |ws: &Yb4Workspace| -> (usize, usize) {
            let x4 = ws.x4.iter().map(Vec::capacity).sum();
            (x4, ws.x8.iter().map(Vec::capacity).sum())
        };
        let sized = 7 * N_SPECIES;
        let mut ws = Yb4Workspace::new(N_SPECIES);
        assert_eq!(capacities(&ws), (0, 0));
        let mut cells = polluted(0);
        let mut stats = [YbStats::default()];
        integrate_stream(
            &m, &mut cells, N_SPECIES, &mut stats, &k, 5.0, &opts, &mut ws,
        );
        let host = match Instantiation::host().lanes() {
            8 => (0, sized),
            _ => (sized, 0),
        };
        assert_eq!(capacities(&ws), host);
        // The four-lane adapter, whatever the host's widest.
        let mut ws = Yb4Workspace::new(N_SPECIES);
        let cols: Vec<Vec<f64>> = (0..4).map(polluted).collect();
        let mut conc4 = pack::<F64x4>(&cols);
        integrate_cell4(&m, &mut conc4, &k, 5.0, &opts, &mut ws);
        assert_eq!(capacities(&ws), (sized, 0));
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
        assert_eq!((ran.ratio(), ran.width()), (None, None));
    }
}
