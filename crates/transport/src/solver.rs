//! Iterative linear solvers: Jacobi-preconditioned BiCGSTAB for the
//! nonsymmetric SUPG systems and conjugate gradient for SPD systems
//! (mass-matrix solves and tests).
//!
//! BiCGSTAB comes in two shapes with one arithmetic: [`bicgstab_with`]
//! solves one right-hand side and is the reference; [`bicgstab_lanes`]
//! solves up to four in lockstep, one per [`F64x4`] lane, each lane
//! bit-identical to the reference (`tests/proptest_transport.rs`). The
//! transport phase uses the lane form on every backend: the lanes are
//! the species that share a layer's operator.
//!
//! Iteration counts are returned to the caller because they are the
//! transport phase's *work units*: the machine model charges virtual time
//! proportional to `iterations × nnz`.

use crate::csr::Csr;
use airshed_simd::F64x4;

/// Outcome of an iterative solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveStats {
    pub iterations: usize,
    pub residual: f64,
    pub converged: bool,
}

/// What every dot product starts from, scalar and lane alike: `-0.0`,
/// the additive identity that keeps the sign of an all-`-0.0` product sum
/// (and what `Iterator::sum` folds from).
const DOT_SEED: f64 = -0.0;

fn dot(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = DOT_SEED;
    for (x, y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Jacobi (diagonal) preconditioner: `z = D⁻¹ r`. Public so callers can
/// build it once per assembled matrix and reuse it across the many
/// warm-started solves that share the operator.
pub struct Jacobi {
    inv_diag: Vec<f64>,
}

impl Jacobi {
    pub fn new(a: &Csr) -> Jacobi {
        let inv_diag = a
            .diagonal()
            .iter()
            .map(|&d| if d.abs() > 1e-300 { 1.0 / d } else { 1.0 })
            .collect();
        Jacobi { inv_diag }
    }

    #[inline]
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        for i in 0..r.len() {
            z[i] = r[i] * self.inv_diag[i];
        }
    }
}

/// Reusable scratch vectors for the one-right-hand-side solvers; one
/// workspace serves any sequence of solves.
#[derive(Default)]
pub struct SolverWorkspace {
    r: Vec<f64>,
    r0: Vec<f64>,
    v: Vec<f64>,
    p: Vec<f64>,
    phat: Vec<f64>,
    s: Vec<f64>,
    shat: Vec<f64>,
    t: Vec<f64>,
}

impl SolverWorkspace {
    pub fn new() -> SolverWorkspace {
        SolverWorkspace::default()
    }

    /// Resize every buffer to `n` (no-op when already sized).
    fn ensure(&mut self, n: usize) {
        for buf in [
            &mut self.r,
            &mut self.r0,
            &mut self.v,
            &mut self.p,
            &mut self.phat,
            &mut self.s,
            &mut self.shat,
            &mut self.t,
        ] {
            buf.resize(n, 0.0);
        }
    }
}

/// Solve `A x = b` with preconditioned BiCGSTAB, starting from the value
/// of `x` on entry (warm starts matter: successive transport steps change
/// the field slowly). Allocates a fresh preconditioner and workspace; hot
/// paths should use [`bicgstab_with`].
pub fn bicgstab(a: &Csr, b: &[f64], x: &mut [f64], rtol: f64, max_iter: usize) -> SolveStats {
    let pre = Jacobi::new(a);
    let mut ws = SolverWorkspace::new();
    bicgstab_with(a, b, x, rtol, max_iter, &pre, &mut ws)
}

/// BiCGSTAB with a caller-supplied preconditioner and scratch workspace.
/// Bit-identical to [`bicgstab`]: the arithmetic and iteration order are
/// unchanged, only the buffer lifetimes differ.
pub fn bicgstab_with(
    a: &Csr,
    b: &[f64],
    x: &mut [f64],
    rtol: f64,
    max_iter: usize,
    pre: &Jacobi,
    ws: &mut SolverWorkspace,
) -> SolveStats {
    let n = a.n();
    debug_assert_eq!(b.len(), n);
    debug_assert_eq!(x.len(), n);
    debug_assert_eq!(pre.inv_diag.len(), n);
    ws.ensure(n);

    let SolverWorkspace {
        r,
        r0,
        v,
        p,
        phat,
        s,
        shat,
        t,
    } = ws;

    a.matvec(x, r);
    for i in 0..n {
        r[i] = b[i] - r[i];
    }
    let bnorm = norm(b).max(1e-300);
    let mut rnorm = norm(r);
    if rnorm / bnorm <= rtol {
        return SolveStats {
            iterations: 0,
            residual: rnorm / bnorm,
            converged: true,
        };
    }

    r0.copy_from_slice(r);
    let mut rho = 1.0;
    let mut alpha = 1.0;
    let mut omega = 1.0;
    // The first iteration reads `p` and `v` before writing them; zero the
    // reused buffers so warm workspaces match the fresh-allocation path.
    v.fill(0.0);
    p.fill(0.0);

    for it in 1..=max_iter {
        let rho_new = dot(r0, r);
        if rho_new.abs() < 1e-300 {
            // Breakdown: restart with the current residual.
            return SolveStats {
                iterations: it,
                residual: rnorm / bnorm,
                converged: rnorm / bnorm <= rtol,
            };
        }
        let beta = (rho_new / rho) * (alpha / omega);
        rho = rho_new;
        for i in 0..n {
            p[i] = r[i] + beta * (p[i] - omega * v[i]);
        }
        pre.apply(p, phat);
        a.matvec(phat, v);
        let r0v = dot(r0, v);
        if r0v.abs() < 1e-300 {
            return SolveStats {
                iterations: it,
                residual: rnorm / bnorm,
                converged: false,
            };
        }
        alpha = rho / r0v;
        for i in 0..n {
            s[i] = r[i] - alpha * v[i];
        }
        if norm(s) / bnorm <= rtol {
            for i in 0..n {
                x[i] += alpha * phat[i];
            }
            return SolveStats {
                iterations: it,
                residual: norm(s) / bnorm,
                converged: true,
            };
        }
        pre.apply(s, shat);
        a.matvec(shat, t);
        let tt = dot(t, t);
        omega = if tt > 1e-300 { dot(t, s) / tt } else { 0.0 };
        for i in 0..n {
            x[i] += alpha * phat[i] + omega * shat[i];
            r[i] = s[i] - omega * t[i];
        }
        rnorm = norm(r);
        if rnorm / bnorm <= rtol {
            return SolveStats {
                iterations: it,
                residual: rnorm / bnorm,
                converged: true,
            };
        }
        if omega.abs() < 1e-300 {
            return SolveStats {
                iterations: it,
                residual: rnorm / bnorm,
                converged: false,
            };
        }
    }
    SolveStats {
        iterations: max_iter,
        residual: rnorm / bnorm,
        converged: false,
    }
}

/// The vectors of a [`bicgstab_lanes`] solve, each holding four
/// right-hand sides node-major, sized at construction so a solve never
/// allocates. (The right-hand side becomes `r`, `s` lives in `r` and
/// `shat` shares `hat` with `phat`.)
pub struct LaneWorkspace {
    /// The iterate: warm start in, solution out.
    pub x: Vec<F64x4>,
    /// Right-hand sides in; the solve consumes them (residual out).
    pub r: Vec<F64x4>,
    r0: Vec<F64x4>,
    p: Vec<F64x4>,
    v: Vec<F64x4>,
    hat: Vec<F64x4>,
    t: Vec<F64x4>,
}

impl LaneWorkspace {
    /// A workspace for `n`-row systems.
    pub fn new(n: usize) -> LaneWorkspace {
        let buf = || vec![F64x4::zero(); n];
        LaneWorkspace {
            x: buf(),
            r: buf(),
            r0: buf(),
            p: buf(),
            v: buf(),
            hat: buf(),
            t: buf(),
        }
    }
}

/// Which lanes of a lockstep solve are still iterating, what the
/// finished ones returned, and the step lengths of the running ones.
struct LaneState {
    active: [bool; F64x4::LANES],
    stats: [SolveStats; F64x4::LANES],
    alpha: [f64; F64x4::LANES],
    omega: [f64; F64x4::LANES],
}

impl LaneState {
    /// The lanes still iterating, as of this call.
    fn running(&self) -> impl Iterator<Item = usize> {
        let active = self.active;
        (0..F64x4::LANES).filter(move |&l| active[l])
    }

    /// Lane `l` returns here. Its step lengths drop to zero so the
    /// vectors it keeps carrying stay finite, and every later update of
    /// `x` selects its old value.
    fn stop(&mut self, l: usize, iterations: usize, residual: f64, converged: bool) {
        self.active[l] = false;
        self.alpha[l] = 0.0;
        self.omega[l] = 0.0;
        self.stats[l] = SolveStats {
            iterations,
            residual,
            converged,
        };
    }
}

/// `1.0` in the lanes flagged, `0.0` elsewhere — the left operand of a
/// `select_gt(zero, new, old)`.
fn lane_mask(flags: [bool; F64x4::LANES]) -> F64x4 {
    F64x4(flags.map(|f| f64::from(u8::from(f))))
}

/// [`bicgstab_with`] for up to four right-hand sides against one matrix,
/// in lockstep: lane `l` of `ws.r` holds right-hand side `l` and lane `l`
/// of `ws.x` its warm start on entry, its solution on return. Lanes
/// `live..` are padding: they report zero iterations and their `x` is
/// left alone.
///
/// Every live lane is **bit-identical** to `bicgstab_with` on that
/// right-hand side — `x`, iteration count and residual. Each lane runs
/// the scalar solver's operations in the scalar order and association
/// (dot products sequential over nodes from the same `-0.0`, two-rounding
/// multiply-adds), keeps its own `rho/alpha/beta/omega`, and is frozen
/// by a mask at exactly the point where the scalar code returns — the
/// initial residual test, the half-step `‖s‖` test with its
/// `x += alpha·phat`, the full-step test, each `1e-300` breakdown guard,
/// `max_iter`. The dot products are folded into the loops that produce
/// their operands, which changes no lane's summation order.
pub fn bicgstab_lanes(
    a: &Csr,
    ws: &mut LaneWorkspace,
    live: usize,
    rtol: f64,
    max_iter: usize,
    pre: &Jacobi,
) -> [SolveStats; F64x4::LANES] {
    let n = a.n();
    assert!(live <= F64x4::LANES);
    // One length for every buffer, checked here rather than per index.
    let (x, r, r0, inv) = (
        &mut ws.x[..n],
        &mut ws.r[..n],
        &mut ws.r0[..n],
        &pre.inv_diag[..n],
    );
    let (p, v, hat, t) = (
        &mut ws.p[..n],
        &mut ws.v[..n],
        &mut ws.hat[..n],
        &mut ws.t[..n],
    );
    let seed = F64x4::splat(DOT_SEED);
    let zero = F64x4::zero();

    let mut lanes = LaneState {
        active: std::array::from_fn(|l| l < live),
        stats: [SolveStats {
            iterations: 0,
            residual: 0.0,
            converged: true,
        }; F64x4::LANES],
        alpha: [1.0; F64x4::LANES],
        omega: [1.0; F64x4::LANES],
    };

    // r = b − A·x, with ‖b‖² taken before b is overwritten.
    let (mut bb, mut rr) = (seed, seed);
    a.matvec_lanes(x, |i, ax| {
        bb += r[i] * r[i];
        r[i] -= ax;
        rr += r[i] * r[i];
    });
    let bnorm = bb.0.map(|q| q.sqrt().max(1e-300));
    let mut rnorm = rr.0.map(f64::sqrt);
    for l in 0..live {
        if rnorm[l] / bnorm[l] <= rtol {
            lanes.stop(l, 0, rnorm[l] / bnorm[l], true);
        }
    }

    r0.copy_from_slice(r);
    v.fill(zero);
    p.fill(zero);
    let mut rho = [1.0; F64x4::LANES];
    // dot(r0, r) with r0 = r sums the products `rr` just summed.
    let mut rho_new = rr;

    for it in 1..=max_iter {
        let mut beta = [0.0; F64x4::LANES];
        for l in lanes.running() {
            if rho_new.0[l].abs() < 1e-300 {
                // Breakdown: restart with the current residual.
                let res = rnorm[l] / bnorm[l];
                lanes.stop(l, it, res, res <= rtol);
                continue;
            }
            beta[l] = (rho_new.0[l] / rho[l]) * (lanes.alpha[l] / lanes.omega[l]);
            rho[l] = rho_new.0[l];
        }
        if lanes.running().next().is_none() {
            break;
        }
        let (beta, omega) = (F64x4(beta), F64x4(lanes.omega));
        for i in 0..n {
            p[i] = r[i] + beta * (p[i] - omega * v[i]);
            hat[i] = p[i] * F64x4::splat(inv[i]);
        }
        let mut r0v = seed;
        a.matvec_lanes(hat, |i, av| {
            v[i] = av;
            r0v += r0[i] * av;
        });
        for l in lanes.running() {
            if r0v.0[l].abs() < 1e-300 {
                lanes.stop(l, it, rnorm[l] / bnorm[l], false);
            } else {
                lanes.alpha[l] = rho[l] / r0v.0[l];
            }
        }
        // s = r − alpha·v (held in r) and shat = s·D⁻¹.
        let alpha = F64x4(lanes.alpha);
        let mut ss = seed;
        for i in 0..n {
            r[i] -= alpha * v[i];
            ss += r[i] * r[i];
            hat[i] = r[i] * F64x4::splat(inv[i]);
        }
        let mut half = [false; F64x4::LANES];
        for l in lanes.running() {
            let res = ss.0[l].sqrt() / bnorm[l];
            if res <= rtol {
                half[l] = true;
                lanes.stop(l, it, res, true);
            }
        }
        if half.contains(&true) {
            // x += alpha·phat in the lanes that met rtol on the half step.
            let m = lane_mask(half);
            for i in 0..n {
                let phat = p[i] * F64x4::splat(inv[i]);
                x[i] = m.select_gt(zero, x[i] + alpha * phat, x[i]);
            }
            if lanes.running().next().is_none() {
                break;
            }
        }
        let (mut tt, mut ts) = (seed, seed);
        a.matvec_lanes(hat, |i, at| {
            t[i] = at;
            tt += at * at;
            ts += at * r[i];
        });
        for l in lanes.running() {
            let (tt, ts) = (tt.0[l], ts.0[l]);
            lanes.omega[l] = if tt > 1e-300 { ts / tt } else { 0.0 };
        }
        // x += alpha·phat + omega·shat and r = s − omega·t; `phat` is
        // recomputed (same bits) because `hat` now holds `shat`.
        let (alpha, omega) = (F64x4(lanes.alpha), F64x4(lanes.omega));
        let m = lane_mask(lanes.active);
        let (mut rr, mut r0r) = (seed, seed);
        for i in 0..n {
            let phat = p[i] * F64x4::splat(inv[i]);
            x[i] = m.select_gt(zero, x[i] + (alpha * phat + omega * hat[i]), x[i]);
            r[i] -= omega * t[i];
            rr += r[i] * r[i];
            r0r += r0[i] * r[i];
        }
        for l in lanes.running() {
            rnorm[l] = rr.0[l].sqrt();
            let res = rnorm[l] / bnorm[l];
            if res <= rtol {
                lanes.stop(l, it, res, true);
            } else if lanes.omega[l].abs() < 1e-300 {
                lanes.stop(l, it, res, false);
            }
        }
        rho_new = r0r;
    }
    for l in lanes.running() {
        lanes.stop(l, max_iter, rnorm[l] / bnorm[l], false);
    }
    lanes.stats
}

/// Jacobi-preconditioned conjugate gradient for SPD matrices. Allocates a
/// fresh preconditioner and workspace; hot paths should use
/// [`conjugate_gradient_with`].
pub fn conjugate_gradient(
    a: &Csr,
    b: &[f64],
    x: &mut [f64],
    rtol: f64,
    max_iter: usize,
) -> SolveStats {
    let pre = Jacobi::new(a);
    let mut ws = SolverWorkspace::new();
    conjugate_gradient_with(a, b, x, rtol, max_iter, &pre, &mut ws)
}

/// Conjugate gradient with a caller-supplied preconditioner and scratch
/// workspace; bit-identical to [`conjugate_gradient`]. The CG vectors
/// (`r`, `z`, `p`, `Ap`) alias the BiCGSTAB workspace buffers, so one
/// workspace serves both solvers.
pub fn conjugate_gradient_with(
    a: &Csr,
    b: &[f64],
    x: &mut [f64],
    rtol: f64,
    max_iter: usize,
    pre: &Jacobi,
    ws: &mut SolverWorkspace,
) -> SolveStats {
    let n = a.n();
    debug_assert_eq!(pre.inv_diag.len(), n);
    ws.ensure(n);
    let r = &mut ws.r;
    let z = &mut ws.phat;
    let p = &mut ws.p;
    let ap = &mut ws.v;

    a.matvec(x, r);
    for i in 0..n {
        r[i] = b[i] - r[i];
    }
    let bnorm = norm(b).max(1e-300);
    pre.apply(r, z);
    p.copy_from_slice(z);
    let mut rz = dot(r, z);
    for it in 0..max_iter {
        if norm(r) / bnorm <= rtol {
            return SolveStats {
                iterations: it,
                residual: norm(r) / bnorm,
                converged: true,
            };
        }
        a.matvec(p, ap);
        let alpha = rz / dot(p, ap).max(1e-300);
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        pre.apply(r, z);
        let rz_new = dot(r, z);
        let beta = rz_new / rz.max(1e-300);
        rz = rz_new;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
    }
    SolveStats {
        iterations: max_iter,
        residual: norm(r) / bnorm,
        converged: norm(r) / bnorm <= rtol,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrBuilder;

    /// 1-D Poisson matrix (SPD, tridiagonal).
    fn poisson(n: usize) -> Csr {
        let mut b = CsrBuilder::new(n);
        for i in 0..n {
            b.add(i, i, 2.0);
            if i > 0 {
                b.add(i, i - 1, -1.0);
            }
            if i + 1 < n {
                b.add(i, i + 1, -1.0);
            }
        }
        b.build()
    }

    /// Nonsymmetric advection-diffusion-like matrix.
    fn advdiff(n: usize) -> Csr {
        let mut b = CsrBuilder::new(n);
        for i in 0..n {
            b.add(i, i, 3.0);
            if i > 0 {
                b.add(i, i - 1, -1.8); // upwind bias
            }
            if i + 1 < n {
                b.add(i, i + 1, -0.6);
            }
        }
        b.build()
    }

    fn check_solution(a: &Csr, x: &[f64], b: &[f64], tol: f64) {
        let mut ax = vec![0.0; x.len()];
        a.matvec(x, &mut ax);
        let res: f64 = ax
            .iter()
            .zip(b)
            .map(|(p, q)| (p - q) * (p - q))
            .sum::<f64>()
            .sqrt();
        let bn: f64 = b.iter().map(|q| q * q).sum::<f64>().sqrt();
        assert!(res / bn < tol, "relative residual {}", res / bn);
    }

    #[test]
    fn cg_solves_poisson() {
        let n = 64;
        let a = poisson(n);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
        let mut x = vec![0.0; n];
        let st = conjugate_gradient(&a, &b, &mut x, 1e-10, 500);
        assert!(st.converged, "{st:?}");
        check_solution(&a, &x, &b, 1e-8);
    }

    #[test]
    fn bicgstab_solves_nonsymmetric() {
        let n = 80;
        let a = advdiff(n);
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.3).cos()).collect();
        let mut x = vec![0.0; n];
        let st = bicgstab(&a, &b, &mut x, 1e-10, 500);
        assert!(st.converged, "{st:?}");
        check_solution(&a, &x, &b, 1e-8);
    }

    #[test]
    fn warm_start_reduces_iterations() {
        let n = 128;
        let a = advdiff(n);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.05).sin() + 2.0).collect();
        let mut x_cold = vec![0.0; n];
        let cold = bicgstab(&a, &b, &mut x_cold, 1e-10, 500);
        // Warm start from the exact solution: 0 iterations.
        let mut x_warm = x_cold.clone();
        let warm = bicgstab(&a, &b, &mut x_warm, 1e-10, 500);
        assert!(warm.iterations < cold.iterations);
        assert_eq!(warm.iterations, 0);
    }

    #[test]
    fn identity_converges_immediately() {
        let a = Csr::identity(10);
        let b = vec![7.0; 10];
        let mut x = vec![0.0; 10];
        let st = bicgstab(&a, &b, &mut x, 1e-12, 10);
        assert!(st.converged);
        assert!(st.iterations <= 1);
        check_solution(&a, &x, &b, 1e-12);
    }

    #[test]
    fn solver_reports_non_convergence() {
        // One iteration allowed on a hard system: must say not converged.
        let a = poisson(200);
        let b = vec![1.0; 200];
        let mut x = vec![0.0; 200];
        let st = conjugate_gradient(&a, &b, &mut x, 1e-14, 1);
        assert!(!st.converged);
        assert_eq!(st.iterations, 1);
    }

    #[test]
    fn reused_workspace_is_bit_identical_to_fresh() {
        let n = 96;
        let a = advdiff(n);
        let pre = Jacobi::new(&a);
        let mut ws = SolverWorkspace::new();
        // Dirty the workspace with an unrelated solve first.
        let junk: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let mut xj = vec![0.0; n];
        bicgstab_with(&a, &junk, &mut xj, 1e-10, 500, &pre, &mut ws);

        for k in 0..3 {
            let b: Vec<f64> = (0..n).map(|i| 1.0 + ((i + k) as f64 * 0.2).sin()).collect();
            let mut x_fresh = vec![0.1 * k as f64; n];
            let mut x_reused = x_fresh.clone();
            let st_fresh = bicgstab(&a, &b, &mut x_fresh, 1e-10, 500);
            let st_reused = bicgstab_with(&a, &b, &mut x_reused, 1e-10, 500, &pre, &mut ws);
            assert_eq!(st_fresh, st_reused);
            assert_eq!(x_fresh, x_reused, "solve {k} diverged from fresh path");

            let mut y_fresh = vec![0.0; n];
            let mut y_reused = vec![0.0; n];
            let cg_fresh = conjugate_gradient(&a, &b, &mut y_fresh, 1e-10, 500);
            let cg_reused =
                conjugate_gradient_with(&a, &b, &mut y_reused, 1e-10, 500, &pre, &mut ws);
            assert_eq!(cg_fresh, cg_reused);
            assert_eq!(y_fresh, y_reused);
        }
    }

    #[test]
    fn dot_folds_from_negative_zero_like_iterator_sum() {
        // The explicit loop must be, bit for bit, the `iter().sum()` it
        // replaced: std folds floats from -0.0, so a sum of nothing but
        // -0.0 products stays -0.0 and anything else erases the seed.
        let cases: [(&[f64], &[f64]); 6] = [
            (&[], &[]),
            (&[0.0], &[-1.0]),
            (&[0.0, -0.0], &[-3.0, 2.0]),
            (&[0.0], &[1.0]),
            (&[0.0, 0.0], &[-1.0, 1.0]),
            (&[1.5, -2.0, 1e-200], &[2.0, 0.25, 1e-200]),
        ];
        let want_bits = [-0.0f64, -0.0, -0.0, 0.0, 0.0, 2.5].map(f64::to_bits);
        for ((a, b), want) in cases.into_iter().zip(want_bits) {
            let summed: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
            assert_eq!(dot(a, b).to_bits(), summed.to_bits(), "{a:?}·{b:?}");
            assert_eq!(dot(a, b).to_bits(), want, "{a:?}·{b:?}");
        }
        assert_eq!(DOT_SEED.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn bicgstab_matches_cg_on_spd() {
        let n = 50;
        let a = poisson(n);
        let b: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mut x1 = vec![0.0; n];
        let mut x2 = vec![0.0; n];
        conjugate_gradient(&a, &b, &mut x1, 1e-12, 1000);
        bicgstab(&a, &b, &mut x2, 1e-12, 1000);
        for (p, q) in x1.iter().zip(&x2) {
            assert!((p - q).abs() < 1e-6, "{p} vs {q}");
        }
    }
}
