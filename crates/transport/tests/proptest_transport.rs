#![allow(clippy::needless_range_loop)]

//! Property-based tests for sparse algebra, solvers and transport
//! kernels.

use airshed_grid::datasets::Dataset;
use airshed_simd::F64x4;
use airshed_transport::csr::{Csr, CsrBuilder};
use airshed_transport::onedim::{OneDimTransport, UniformGrid};
use airshed_transport::operator::HorizontalTransport;
use airshed_transport::operator::TransportWorkspace;
use airshed_transport::solver::{
    bicgstab, bicgstab_lanes, bicgstab_with, conjugate_gradient, Jacobi, LaneWorkspace, SolveStats,
    SolverWorkspace,
};
use proptest::prelude::*;

/// One right-hand side of a lane solve and the iterate it starts from.
#[derive(Debug, Clone)]
struct Lane {
    b: Vec<f64>,
    x0: Vec<f64>,
}

/// Solve every lane with the scalar reference, then all of them in one
/// lockstep solve, and require each live lane to equal its reference bit
/// for bit — `x`, iterations, residual, converged. Pad lanes are loaded
/// with a NaN right-hand side and a sentinel iterate: they must report
/// zero iterations and leave the sentinel alone, and nothing of them may
/// reach a live lane.
fn lanes_equal_scalar(
    a: &Csr,
    lanes: &[Lane],
    rtol: f64,
    max_iter: usize,
) -> Result<Vec<SolveStats>, TestCaseError> {
    const SENTINEL: f64 = 7.25;
    let n = a.n();
    let pre = Jacobi::new(a);
    let mut scalar_ws = SolverWorkspace::new();
    let mut ws = LaneWorkspace::new(n);
    ws.r.fill(F64x4::splat(f64::NAN));
    ws.x.fill(F64x4::splat(SENTINEL));
    for (l, lane) in lanes.iter().enumerate() {
        for i in 0..n {
            ws.r[i].0[l] = lane.b[i];
            ws.x[i].0[l] = lane.x0[i];
        }
    }
    let got = bicgstab_lanes(a, &mut ws, lanes.len(), rtol, max_iter, &pre);
    let x = &ws.x;
    let mut reference = Vec::new();
    for (l, lane) in lanes.iter().enumerate() {
        let mut want_x = lane.x0.clone();
        let want = bicgstab_with(
            a,
            &lane.b,
            &mut want_x,
            rtol,
            max_iter,
            &pre,
            &mut scalar_ws,
        );
        prop_assert_eq!(
            got[l].iterations,
            want.iterations,
            "lane {l} of {}",
            lanes.len()
        );
        prop_assert_eq!(got[l].converged, want.converged, "lane {l}: {want:?}");
        prop_assert_eq!(
            got[l].residual.to_bits(),
            want.residual.to_bits(),
            "lane {l}: residual {} vs {}",
            got[l].residual,
            want.residual
        );
        for i in 0..n {
            prop_assert_eq!(
                x[i].0[l].to_bits(),
                want_x[i].to_bits(),
                "lane {l} x[{i}]: {} vs {} ({want:?})",
                x[i].0[l],
                want_x[i]
            );
        }
        reference.push(want);
    }
    for l in lanes.len()..F64x4::LANES {
        prop_assert_eq!(got[l].iterations, 0, "pad lane {l} iterated");
        prop_assert!(x.iter().all(|q| q.0[l].to_bits() == SENTINEL.to_bits()));
    }
    Ok(reference)
}

/// A random system and up to four lanes of very different difficulty.
#[derive(Debug)]
struct LaneCase {
    a: Csr,
    lanes: Vec<Lane>,
    rtol: f64,
    max_iter: usize,
    rotate: usize,
}

fn lane_case() -> impl Strategy<Value = LaneCase> {
    let entries = prop::collection::vec((0usize..200, 0usize..200, -1.0f64..1.0), 0..800);
    let raw = prop::collection::vec(-1.0f64..1.0, 8 * 200);
    let kinds = prop::collection::vec(0usize..6, 4);
    let control = (
        1usize..5,
        prop_oneof![Just(0usize), 1usize..6, Just(400usize)],
        prop_oneof![Just(1e-8f64), Just(1e-13f64), Just(1e-3f64)],
        0usize..4,
    );
    (1usize..201, entries, 1.02f64..3.0, raw, kinds, control).prop_map(
        |(n, entries, dominance, raw, kinds, (live, max_iter, rtol, rotate))| {
            // Strictly diagonally dominant, nonsymmetric, any n.
            let mut off = vec![0.0f64; n];
            let mut builder = CsrBuilder::new(n);
            for &(i, j, v) in &entries {
                let (i, j) = (i % n, j % n);
                if i != j {
                    builder.add(i, j, v);
                    off[i] += v.abs();
                }
            }
            for (i, o) in off.iter().enumerate() {
                builder.add(i, i, dominance * o + 0.5);
            }
            let a = builder.build();
            let lanes = (0..live)
                .map(|l| {
                    let draw = |k: usize| raw[(2 * l + k) * 200..][..n].to_vec();
                    let zero = vec![0.0; n];
                    match kinds[l] {
                        // Cold start.
                        0 => Lane {
                            b: draw(0),
                            x0: zero,
                        },
                        // All-zero right-hand side: the `bnorm` clamp,
                        // met at once (and a frozen lane must keep the
                        // sign of its zeros) ...
                        1 => Lane {
                            b: zero,
                            x0: vec![-0.0; n],
                        },
                        // ... or never (this lane runs to the cap or a
                        // breakdown while its neighbours finish).
                        2 => Lane {
                            b: zero,
                            x0: draw(1),
                        },
                        // Warm-started at its solution: zero iterations.
                        3 => {
                            let x0 = draw(1);
                            let mut b = vec![0.0; n];
                            a.matvec(&x0, &mut b);
                            Lane { b, x0 }
                        }
                        4 => Lane {
                            b: draw(0),
                            x0: draw(1),
                        },
                        // At the edge of the `1e-300` guards, on either
                        // side of them.
                        _ => {
                            let scale = 1e-151 * (1.0 + 30.0 * raw[l].abs());
                            Lane {
                                b: zero,
                                x0: draw(1).iter().map(|v| v * scale).collect(),
                            }
                        }
                    }
                })
                .collect();
            LaneCase {
                a,
                lanes,
                rtol,
                max_iter,
                rotate,
            }
        },
    )
}

/// The property behind both budgets below: every arrangement of the
/// lanes equals the scalar solver lane by lane, so permuting lanes
/// permutes results and nothing else.
fn check_lane_case(case: &LaneCase) -> Result<(), TestCaseError> {
    lanes_equal_scalar(&case.a, &case.lanes, case.rtol, case.max_iter)?;
    let mut rotated = case.lanes.clone();
    rotated.rotate_left(case.rotate % case.lanes.len());
    lanes_equal_scalar(&case.a, &rotated, case.rtol, case.max_iter)?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lanes_match_the_scalar_solver_bit_for_bit(case in lane_case()) {
        check_lane_case(&case)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    #[test]
    #[ignore = "the larger case budget scripts/ci.sh runs once"]
    fn lanes_match_the_scalar_solver_bit_for_bit_soak(case in lane_case()) {
        check_lane_case(&case)?;
    }
}

fn dense(rows: &[&[f64]]) -> Csr {
    let mut b = CsrBuilder::new(rows.len());
    for (i, row) in rows.iter().enumerate() {
        for (j, &v) in row.iter().enumerate() {
            b.add(i, j, v);
        }
    }
    b.build()
}

/// The lanes of one solve stop at four different places — 0 iterations,
/// the half-step test, an `r0·v` breakdown in iteration 1 and one in
/// iteration 2 — and each is frozen exactly where the scalar code
/// returns.
#[test]
fn constructed_r0v_breakdowns_freeze_their_lane_only() {
    let a = dense(&[&[1.0, 1.0], &[1.0, 1.0]]);
    let lane = |b: [f64; 2]| Lane {
        b: b.to_vec(),
        x0: vec![0.0; 2],
    };
    let lanes = [
        lane([1.0, -1.0]),
        lane([1.0, 1.0]),
        lane([2.0, 0.0]),
        lane([0.0, 0.0]),
    ];
    let stats = lanes_equal_scalar(&a, &lanes, 1e-8, 400).unwrap();
    let summary: Vec<(usize, bool)> = stats.iter().map(|s| (s.iterations, s.converged)).collect();
    assert_eq!(summary, [(1, false), (1, true), (2, false), (0, true)]);
}

/// With a zero right-hand side `bnorm` is the `1e-300` clamp, so a warm
/// start of size 1e-151 … 1e-149 walks the solver into its `rho`
/// guard (‖r‖² below 1e-300 on entry to iteration 1) and its `omega`
/// guard (‖t‖² below 1e-300), next to a lane that converges normally and
/// one that hits a two-iteration cap.
#[test]
fn constructed_rho_and_omega_breakdowns_freeze_their_lane_only() {
    let n = 7;
    let mut builder = CsrBuilder::new(n);
    for i in 0..n {
        builder.add(i, i, 1.0);
        builder.add(i, (i + 1) % n, 0.1);
        builder.add(i, (i + 3) % n, -0.05);
    }
    let a = builder.build();
    let wavy = |scale: f64| -> Vec<f64> {
        (0..n)
            .map(|i| scale * (1.0 + 0.3 * (i as f64).sin()))
            .collect()
    };
    let lanes = [
        Lane {
            b: vec![0.0; n],
            x0: wavy(1e-151),
        },
        Lane {
            b: vec![0.0; n],
            x0: wavy(3e-150),
        },
        Lane {
            b: wavy(1.0),
            x0: vec![0.0; n],
        },
    ];
    let stats = lanes_equal_scalar(&a, &lanes, 1e-8, 400).unwrap();
    assert_eq!(
        (stats[0].iterations, stats[0].converged),
        (1, false),
        "rho guard"
    );
    assert_eq!(
        (stats[1].iterations, stats[1].converged),
        (1, false),
        "omega guard"
    );
    assert!(
        stats[2].converged && stats[2].iterations > 2,
        "{:?}",
        stats[2]
    );
    let capped = lanes_equal_scalar(&a, &lanes, 1e-8, 2).unwrap();
    assert_eq!(
        (capped[2].iterations, capped[2].converged),
        (2, false),
        "max_iter"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// CSR matvec agrees with a dense reference built from the same
    /// (possibly duplicated) triplets.
    #[test]
    fn csr_matvec_matches_dense(
        n in 1usize..12,
        triplets in prop::collection::vec((0usize..12, 0usize..12, -5.0f64..5.0), 0..60),
        x in prop::collection::vec(-3.0f64..3.0, 12),
    ) {
        let mut dense = vec![vec![0.0f64; n]; n];
        let mut b = CsrBuilder::new(n);
        for &(i, j, v) in &triplets {
            if i < n && j < n {
                dense[i][j] += v;
                b.add(i, j, v);
            }
        }
        let a = b.build();
        let xs = &x[..n];
        let mut y = vec![0.0; n];
        a.matvec(xs, &mut y);
        for i in 0..n {
            let want: f64 = (0..n).map(|j| dense[i][j] * xs[j]).sum();
            prop_assert!((y[i] - want).abs() < 1e-10, "row {i}: {} vs {want}", y[i]);
        }
    }

    /// BiCGSTAB and CG both solve random diagonally dominant SPD systems
    /// to the requested tolerance.
    #[test]
    fn solvers_reach_tolerance(
        n in 2usize..30,
        off in prop::collection::vec(-0.45f64..0.45, 30),
        rhs in prop::collection::vec(-5.0f64..5.0, 30),
    ) {
        let mut b = CsrBuilder::new(n);
        for i in 0..n {
            b.add(i, i, 2.0);
            if i + 1 < n {
                // Symmetric off-diagonals keep it SPD; |off| < 0.5 keeps
                // it strictly diagonally dominant.
                b.add(i, i + 1, off[i]);
                b.add(i + 1, i, off[i]);
            }
        }
        let a = b.build();
        let rhs = &rhs[..n];
        let check = |x: &[f64]| {
            let mut ax = vec![0.0; n];
            a.matvec(x, &mut ax);
            let r: f64 = ax.iter().zip(rhs).map(|(p, q)| (p - q) * (p - q)).sum::<f64>().sqrt();
            let bn: f64 = rhs.iter().map(|q| q * q).sum::<f64>().sqrt().max(1e-12);
            r / bn
        };
        let mut x1 = vec![0.0; n];
        let s1 = conjugate_gradient(&a, rhs, &mut x1, 1e-9, 500);
        prop_assert!(s1.converged && check(&x1) < 1e-7);
        let mut x2 = vec![0.0; n];
        let s2 = bicgstab(&a, rhs, &mut x2, 1e-9, 500);
        prop_assert!(s2.converged && check(&x2) < 1e-7);
    }

    /// The assembled SUPG half-step keeps a uniform field fixed for any
    /// constant wind — the transport operator never invents mass from a
    /// constant state.
    #[test]
    fn uniform_state_is_invariant_under_any_wind(
        u in -0.5f64..0.5,
        v in -0.5f64..0.5,
        bg in 0.01f64..0.1,
    ) {
        let d = Dataset::tiny(80);
        let winds = vec![vec![(u, v); d.mesh.n_nodes()]];
        let (op, _) = HorizontalTransport::assemble(&d.mesh, &winds, 0.01, 5.0);
        let mut c = vec![bg; d.mesh.n_free()];
        let mut scratch = TransportWorkspace::new();
        let st = op.half_step(0, &mut c, bg, &mut scratch);
        prop_assert!(st.converged);
        for (i, &x) in c.iter().enumerate() {
            prop_assert!((x - bg).abs() < 1e-6, "slot {i}: {x} vs {bg}");
        }
    }

    /// The limited 1-D sweep is TVD-ish: it never exceeds the input range
    /// (no new extrema) and conserves mass with periodic-like interior.
    #[test]
    fn onedim_sweep_bounded_by_input_range(
        profile in prop::collection::vec(0.0f64..2.0, 16..40),
        u in -0.9f64..0.9,
    ) {
        let g = UniformGrid::with_resolution(40.0, 10.0, 1.0);
        let op = OneDimTransport::new(g, 0.0);
        let dt = op.max_dt(u.abs().max(0.05));
        let bg = profile[0];
        let lo = profile.iter().cloned().fold(bg, f64::min);
        let hi = profile.iter().cloned().fold(bg, f64::max);
        // One x-sweep via the public step on a 1-row field.
        let nx = op.grid.nx;
        let mut field = vec![bg; nx * op.grid.ny];
        for (i, v) in profile.iter().take(nx).enumerate() {
            field[i] = *v;
        }
        op.step(&mut field, u, 0.0, dt, bg);
        for &x in &field[..nx] {
            prop_assert!(x >= lo - 1e-9 && x <= hi + 1e-9, "{x} outside [{lo},{hi}]");
        }
    }
}
