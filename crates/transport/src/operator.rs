//! The `Lxy(Δt/2)` half-step operator: Crank–Nicolson in time over the
//! SUPG discretisation, one linear solve per (layer, species).
//!
//! The operator couples every grid column in a layer, which is exactly why
//! the paper's transport phase parallelises only across layers: "The
//! 2-dimensional Lxy is however difficult to parallelize, so the degree of
//! parallelism is restricted to the number of layers." The species of a
//! layer share that operator, so [`HorizontalTransport::half_step_lanes`]
//! advances four per solve, each bit for bit what
//! [`half_step`](HorizontalTransport::half_step) gives.

use crate::csr::Csr;
use crate::solver::{
    bicgstab_lanes, bicgstab_with, Jacobi, LaneWorkspace, SolveStats, SolverWorkspace,
};
use crate::supg::assemble_layer;
use airshed_grid::mesh::Mesh;
use airshed_simd::F64x4;

/// Per-layer Crank–Nicolson system: `sys · c¹ = rhs_mat · c⁰` with
/// Dirichlet rows on the domain boundary.
pub struct LayerOperator {
    /// `M + (Δt/2)/2 · K` with boundary rows replaced by identity.
    pub sys: Csr,
    /// `M − (Δt/2)/2 · K` (boundary rows irrelevant; RHS is overwritten).
    pub rhs_mat: Csr,
    /// Jacobi preconditioner of `sys`, built once at assembly and shared
    /// by every solve against this layer.
    pub pre: Jacobi,
}

/// Reusable scratch for [`HorizontalTransport::half_step`]: the RHS vector
/// plus the solver's workspace.
#[derive(Default)]
pub struct TransportWorkspace {
    rhs: Vec<f64>,
    solver: SolverWorkspace,
}

impl TransportWorkspace {
    pub fn new() -> TransportWorkspace {
        TransportWorkspace::default()
    }
}

/// Work performed by transport operations — the units the machine model
/// charges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportWork {
    /// Elements integrated during assembly.
    pub assembly_elems: usize,
    /// Solver iterations summed over solves.
    pub solve_iterations: usize,
    /// Matrix nonzeros (per layer system).
    pub nnz: usize,
}

/// The assembled horizontal transport operator for one hour of wind data.
pub struct HorizontalTransport {
    pub layers: Vec<LayerOperator>,
    boundary: Vec<usize>,
    n: usize,
    /// Solver relative tolerance.
    pub rtol: f64,
    /// Solver iteration cap.
    pub max_iter: usize,
}

impl HorizontalTransport {
    /// Assemble per-layer operators for the given wind fields (one per
    /// layer, at all mesh nodes) and half-step length `dt_half_min`.
    /// Returns the operator and the assembly work done.
    pub fn assemble(
        mesh: &Mesh,
        winds: &[Vec<(f64, f64)>],
        kh: f64,
        dt_half_min: f64,
    ) -> (HorizontalTransport, TransportWork) {
        let boundary: Vec<usize> = (0..mesh.n_free())
            .filter(|&s| mesh.boundary_free[s])
            .collect();
        let mut work = TransportWork::default();
        let theta_dt = 0.5 * dt_half_min;
        let layers: Vec<LayerOperator> = winds
            .iter()
            .map(|w| {
                let m = assemble_layer(mesh, w, kh);
                work.assembly_elems += m.elems_integrated;
                let mut sys = m.mass.add_scaled_same_pattern(theta_dt, &m.stiff);
                let rhs_mat = m.mass.add_scaled_same_pattern(-theta_dt, &m.stiff);
                for &b in &boundary {
                    sys.set_identity_row(b);
                }
                work.nnz = sys.nnz();
                let pre = Jacobi::new(&sys);
                LayerOperator { sys, rhs_mat, pre }
            })
            .collect();
        (
            HorizontalTransport {
                layers,
                boundary,
                n: mesh.n_free(),
                rtol: 1e-8,
                max_iter: 400,
            },
            work,
        )
    }

    /// Number of free nodes each layer system acts on.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Boundary slots (Dirichlet rows).
    pub fn boundary(&self) -> &[usize] {
        &self.boundary
    }

    /// Apply one half step to a single (layer, species) field in place.
    /// `bg` is the boundary (inflow) concentration for this species; `ws`
    /// supplies every scratch buffer, so the hot loop is allocation-free
    /// after the first call. Returns solve statistics — `iterations`
    /// feeds the transport work account.
    pub fn half_step(
        &self,
        layer: usize,
        conc: &mut [f64],
        bg: f64,
        ws: &mut TransportWorkspace,
    ) -> SolveStats {
        debug_assert_eq!(conc.len(), self.n);
        let op = &self.layers[layer];
        ws.rhs.resize(self.n, 0.0);
        op.rhs_mat.matvec(conc, &mut ws.rhs);
        for &b in &self.boundary {
            ws.rhs[b] = bg;
        }
        // Warm start from the current field: successive steps are close.
        let stats = bicgstab_with(
            &op.sys,
            &ws.rhs,
            conc,
            self.rtol,
            self.max_iter,
            &op.pre,
            &mut ws.solver,
        );
        // SUPG + CN can produce slight undershoots near fronts; clip the
        // nonphysical negatives (concentrations).
        for c in conc.iter_mut() {
            if *c < 0.0 {
                *c = 0.0;
            }
        }
        stats
    }

    /// Forwards to [`half_step`](HorizontalTransport::half_step): the
    /// one-plane simd solver is gone (every backend takes `half_step_lanes`)
    /// and this name survives only because the benchmark package calls it.
    pub fn half_step_simd(
        &self,
        layer: usize,
        conc: &mut [f64],
        bg: f64,
        ws: &mut TransportWorkspace,
    ) -> SolveStats {
        self.half_step(layer, conc, bg, ws)
    }

    /// One half step on one to four fields of a layer at once — the
    /// species that share its operator, `bg[l]` the boundary value of
    /// `planes[l]`. The fields are gathered node-major into [`F64x4`]
    /// lanes, advanced by one [`bicgstab_lanes`] solve and scattered
    /// back; each ends bit for bit where `half_step` would have put it,
    /// with the same statistics (pad lanes report zero iterations).
    pub fn half_step_lanes(
        &self,
        layer: usize,
        planes: &mut [&mut [f64]],
        bg: &[f64],
        ws: &mut LaneWorkspace,
    ) -> [SolveStats; F64x4::LANES] {
        let live = planes.len();
        assert!((1..=F64x4::LANES).contains(&live) && bg.len() == live);
        let op = &self.layers[layer];
        // Pad lanes hold zeros: a zero field with a zero boundary value.
        ws.x.fill(F64x4::zero());
        for (l, plane) in planes.iter().enumerate() {
            assert_eq!(plane.len(), self.n);
            for (q, &c) in ws.x.iter_mut().zip(plane.iter()) {
                q.0[l] = c;
            }
        }
        let LaneWorkspace { x, r, .. } = &mut *ws;
        op.rhs_mat.matvec_lanes(x, |i, acc| r[i] = acc);
        let mut bg4 = F64x4::zero();
        bg4.0[..live].copy_from_slice(bg);
        for &b in &self.boundary {
            ws.r[b] = bg4;
        }
        let stats = bicgstab_lanes(&op.sys, ws, live, self.rtol, self.max_iter, &op.pre);
        // The same clip as `half_step`, on the way back out.
        for (l, plane) in planes.iter_mut().enumerate() {
            for (c, q) in plane.iter_mut().zip(&ws.x) {
                *c = if q.0[l] < 0.0 { 0.0 } else { q.0[l] };
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airshed_grid::datasets::Dataset;
    use airshed_grid::geometry::Point;

    fn setup(u: f64, v: f64) -> (Dataset, HorizontalTransport) {
        let d = Dataset::tiny(120);
        let winds: Vec<Vec<(f64, f64)>> = (0..2).map(|_| vec![(u, v); d.mesh.n_nodes()]).collect();
        let (op, work) = HorizontalTransport::assemble(&d.mesh, &winds, 0.01, 2.0);
        assert!(work.assembly_elems > 0 && work.nnz > 0);
        (d, op)
    }

    fn gaussian(d: &Dataset, cx: f64, cy: f64, sigma: f64) -> Vec<f64> {
        (0..d.mesh.n_free())
            .map(|s| {
                let p = d.mesh.free_point(s);
                let r2 = (p.x - cx).powi(2) + (p.y - cy).powi(2);
                (-r2 / (2.0 * sigma * sigma)).exp()
            })
            .collect()
    }

    fn center_of_mass(d: &Dataset, c: &[f64]) -> (f64, f64) {
        let mut m = 0.0;
        let mut mx = 0.0;
        let mut my = 0.0;
        for s in 0..c.len() {
            let w = c[s] * d.mesh.nodal_area[s];
            let p = d.mesh.free_point(s);
            m += w;
            mx += w * p.x;
            my += w * p.y;
        }
        (mx / m, my / m)
    }

    #[test]
    fn uniform_field_is_a_fixed_point() {
        let (d, op) = setup(0.3, 0.1);
        let mut c = vec![0.04; d.mesh.n_free()];
        let mut scratch = TransportWorkspace::new();
        for _ in 0..5 {
            let st = op.half_step(0, &mut c, 0.04, &mut scratch);
            assert!(st.converged);
        }
        for (s, &v) in c.iter().enumerate() {
            assert!((v - 0.04).abs() < 1e-6, "slot {s}: {v}");
        }
    }

    #[test]
    fn blob_advects_downwind() {
        let (d, op) = setup(0.3, 0.0); // 5 m/s eastward
        let mut c = gaussian(&d, 35.0, 50.0, 10.0);
        let (x0, y0) = center_of_mass(&d, &c);
        let mut scratch = TransportWorkspace::new();
        // 10 half-steps of 2 min: 20 min, expected shift 0.3*20 = 6 km.
        for _ in 0..10 {
            op.half_step(0, &mut c, 0.0, &mut scratch);
        }
        let (x1, y1) = center_of_mass(&d, &c);
        let shift = x1 - x0;
        assert!(
            (shift - 6.0).abs() < 1.5,
            "expected ~6 km downwind shift, got {shift}"
        );
        assert!((y1 - y0).abs() < 1.0, "no crosswind drift: {}", y1 - y0);
    }

    #[test]
    fn transport_is_stable_and_nonnegative() {
        let (d, op) = setup(0.4, 0.2);
        let mut c = gaussian(&d, 30.0, 35.0, 6.0);
        let peak0 = c.iter().cloned().fold(0.0f64, f64::max);
        let mut scratch = TransportWorkspace::new();
        for _ in 0..30 {
            op.half_step(1, &mut c, 0.0, &mut scratch);
        }
        let peak1 = c.iter().cloned().fold(0.0f64, f64::max);
        assert!(c.iter().all(|&x| x >= 0.0 && x.is_finite()));
        assert!(peak1 <= peak0 * 1.05, "no blow-up: {peak0} -> {peak1}");
    }

    #[test]
    fn diffusion_spreads_the_blob() {
        let d = Dataset::tiny(120);
        let winds = vec![vec![(0.0, 0.0); d.mesh.n_nodes()]];
        let (op, _) = HorizontalTransport::assemble(&d.mesh, &winds, 0.08, 2.0);
        let mut c = gaussian(&d, 50.0, 50.0, 8.0);
        let peak0 = c.iter().cloned().fold(0.0f64, f64::max);
        let mut scratch = TransportWorkspace::new();
        for _ in 0..20 {
            op.half_step(0, &mut c, 0.0, &mut scratch);
        }
        let peak1 = c.iter().cloned().fold(0.0f64, f64::max);
        assert!(
            peak1 < 0.9 * peak0,
            "diffusion should lower the peak: {peak0} -> {peak1}"
        );
    }

    #[test]
    fn inflow_boundary_supplies_background() {
        // With strong wind and zero interior, the inflow boundary value
        // propagates into the domain.
        let (d, op) = setup(0.5, 0.0);
        let mut c = vec![0.0; d.mesh.n_free()];
        let mut scratch = TransportWorkspace::new();
        for _ in 0..40 {
            op.half_step(0, &mut c, 0.04, &mut scratch);
        }
        // A point ~20 km downwind of the west edge should have seen the
        // background arrive (0.5 km/min * 80 min = 40 km).
        let probe = d.mesh.nearest_free(Point::new(20.0, 50.0));
        assert!(
            c[probe] > 0.02,
            "background should have advected in: {}",
            c[probe]
        );
    }

    #[test]
    fn lane_half_step_equals_one_half_step_per_plane_bit_for_bit() {
        let (d, op) = setup(0.3, 0.1);
        let n = d.mesh.n_free();
        // A smooth blob, a sharp-edged one (undershoots: the clip), a
        // uniform field at its boundary value (zero iterations) and an
        // empty field fed from the boundary.
        let edge: Vec<f64> = gaussian(&d, 60.0, 50.0, 9.0)
            .iter()
            .map(|&c| if c > 0.5 { 1.0 } else { 0.0 })
            .collect();
        let fields = [
            gaussian(&d, 40.0, 45.0, 10.0),
            edge,
            vec![0.04; n],
            vec![0.0; n],
        ];
        let bg = [0.0, 0.01, 0.04, 0.25];
        let mut scalar_ws = TransportWorkspace::new();
        let mut lane_ws = LaneWorkspace::new(n);
        for layer in 0..2 {
            for live in 1..=4 {
                let mut want = fields[..live].to_vec();
                let mut got = want.clone();
                // Several steps, so warm starts and clipped fields feed back.
                for step in 0..3 {
                    let want_stats: Vec<SolveStats> = want
                        .iter_mut()
                        .zip(bg)
                        .map(|(c, bg)| op.half_step(layer, c, bg, &mut scalar_ws))
                        .collect();
                    let mut planes: Vec<&mut [f64]> =
                        got.iter_mut().map(Vec::as_mut_slice).collect();
                    let stats = op.half_step_lanes(layer, &mut planes, &bg[..live], &mut lane_ws);
                    let what = format!("layer {layer}, {live} planes, step {step}");
                    for l in 0..live {
                        assert_eq!(stats[l].iterations, want_stats[l].iterations, "{what}");
                        assert_eq!(stats[l].converged, want_stats[l].converged, "{what}");
                        assert_eq!(
                            stats[l].residual.to_bits(),
                            want_stats[l].residual.to_bits(),
                            "{what}"
                        );
                        let same = got[l].iter().zip(&want[l]);
                        assert!(
                            same.clone().all(|(a, b)| a.to_bits() == b.to_bits()),
                            "{what}"
                        );
                        assert!(got[l].iter().all(|c| c.is_finite() && *c >= 0.0), "{what}");
                    }
                    assert!(stats[live..].iter().all(|s| s.iterations == 0), "{what}");
                    if step == 0 && live == 4 {
                        assert_eq!(stats[2].iterations, 0, "uniform field is a fixed point");
                        assert!(stats[0].iterations > stats[2].iterations + 3);
                    }
                }
            }
        }
    }

    #[test]
    fn solver_iterations_are_reported() {
        let (d, op) = setup(0.3, 0.1);
        let mut c = gaussian(&d, 40.0, 40.0, 12.0);
        let mut scratch = TransportWorkspace::new();
        let st = op.half_step(0, &mut c, 0.0, &mut scratch);
        assert!(st.converged);
        assert!(st.iterations > 0 && st.iterations < 200);
    }
}
