//! Property-based tests for the chemistry numerics.

use airshed_chem::mechanism::{Mechanism, RateLaw, Reaction};
use airshed_chem::simd::{
    integrate_stream, integrate_stream_on, Instantiation, LaneOccupancy, Yb4Workspace,
};
use airshed_chem::species::{self as sp, N_SPECIES};
use airshed_chem::vertical::{diffuse_column, thomas_solve, ColumnGeometry};
use airshed_chem::youngboris::{
    integrate_cell, integrate_cell_with_k, AsymptoticForm, YbOptions, YbStats, YbWorkspace,
};
use proptest::prelude::*;

/// One-species decay mechanism with rate `k`.
fn decay(k: f64) -> Mechanism {
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

/// A non-negative concentration: exactly zero, a 1e-30-scale radical
/// (at the loss-frequency floor), or anything up to a few ppm.
fn concentration() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        (-31.0f64..-28.0).prop_map(|e| 10f64.powf(e)),
        (-14.0f64..0.7).prop_map(|e| 10f64.powf(e)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The generated scalar kernel is the table walk, bit for bit — the
    /// sign of zero included — day and night (night zeroes the ten
    /// photolysis constants, the rows the table walk skips).
    #[test]
    fn compiled_kernel_is_bit_identical_to_the_table_walk(
        conc in prop::collection::vec(concentration(), N_SPECIES),
        t in 255.0f64..320.0,
        sun in prop_oneof![Just(0.0), Just(1.0), 1e-4f64..1.0],
    ) {
        let compiled = Mechanism::carbon_bond();
        let walked = Mechanism::from_table(compiled.reactions().to_vec(), N_SPECIES);
        let mut k = Vec::new();
        compiled.rate_constants(t, sun, &mut k);
        let (mut p, mut l) = (vec![f64::NAN; N_SPECIES], vec![f64::NAN; N_SPECIES]);
        let (mut pw, mut lw) = (p.clone(), l.clone());
        compiled.prod_loss(&conc, &k, &mut p, &mut l);
        walked.prod_loss(&conc, &k, &mut pw, &mut lw);
        for s in 0..N_SPECIES {
            prop_assert!(p[s].to_bits() == pw[s].to_bits(), "p[{s}]: {} vs {}", p[s], pw[s]);
            prop_assert!(l[s].to_bits() == lw[s].to_bits(), "l[{s}]: {} vs {}", l[s], lw[s]);
        }
    }
}

/// One grid cell: clean background air, a polluted mix, a random state
/// (every species exactly zero, a floor-scale trace, or its background —
/// 1e-9 ppm for the radicals — moved up to three decades down or one
/// up), or nothing at all.
fn cell() -> impl Strategy<Value = Vec<f64>> {
    let polluted = (
        0.0f64..0.2,
        0.0f64..0.1,
        0.0f64..0.2,
        0.0f64..2.0,
        0.0f64..0.1,
        0.0f64..0.05,
    )
        .prop_map(|(no, no2, o3, par, ole, form)| {
            let mut c = sp::background_vector();
            c[sp::NO] = no;
            c[sp::NO2] = no2;
            c[sp::O3] = o3;
            c[sp::PAR] = par;
            c[sp::OLE] = ole;
            c[sp::FORM] = form;
            c
        });
    let factor = prop_oneof![
        Just(0.0),
        (-31.0f64..-28.0).prop_map(|e| -10f64.powf(e)),
        (-3.0f64..1.0).prop_map(|e| 10f64.powf(e)),
    ];
    let random = prop::collection::vec(factor, N_SPECIES).prop_map(|factors| {
        let scaled = |(f, bg): (f64, f64)| if f < 0.0 { -f } else { f * bg.max(1e-9) };
        factors
            .into_iter()
            .zip(sp::background_vector())
            .map(scaled)
            .collect()
    });
    prop_oneof![
        Just(sp::background_vector()),
        polluted,
        random,
        Just(vec![0.0; N_SPECIES]),
    ]
}

/// Everything the result of a stream may depend on.
#[derive(Debug)]
struct StreamCase {
    /// 0–19 cells: fewer than four or eight lanes, exact multiples of
    /// either and ragged tails.
    cells: Vec<Vec<f64>>,
    temp_k: f64,
    /// 0 at night: the ten photolysis constants are exactly zero.
    sun: f64,
    dt_min: f64,
    opts: YbOptions,
    /// Unused entries between consecutive cells of the buffer.
    gap: usize,
    /// Sort keys of the permutation the cells are re-run in.
    shuffle: Vec<u64>,
}

fn stream_case() -> impl Strategy<Value = StreamCase> {
    let air = (
        255.0f64..320.0,
        prop_oneof![Just(0.0), Just(1.0), 1e-4f64..1.0],
        // Exactly zero one time in eleven.
        (-1.0f64..10.0).prop_map(|dt| dt.max(0.0)),
    );
    // The default controller; a coarse floor, under which the rational
    // form's ringing on random states stays affordable; and a tolerance
    // no substep can meet, so that every cell sits on `h_min` throughout.
    use AsymptoticForm::{Exponential, Rational};
    let control = prop_oneof![
        Just((Exponential, 2e-3, 1e-6)),
        Just((Exponential, 2e-3, 1e-3)),
        Just((Rational, 2e-3, 1e-3)),
        Just((Exponential, 1e-12, 2e-2)),
        Just((Rational, 1e-12, 2e-2)),
    ];
    (
        prop::collection::vec(cell(), 0..20),
        air,
        control,
        0usize..3,
        prop::collection::vec(any::<u64>(), 19),
    )
        .prop_map(
            |(cells, (temp_k, sun, dt_min), (form, eps, h_min), gap, shuffle)| StreamCase {
                cells,
                temp_k,
                sun,
                dt_min,
                opts: YbOptions {
                    eps,
                    h_min,
                    form,
                    ..Default::default()
                },
                gap,
                shuffle,
            },
        )
}

/// What a stream leaves behind, per cell.
type Integrated = Vec<(Vec<f64>, YbStats)>;

const GAP_FILL: f64 = -7.0;

/// Run `cells` through the stream kernel — the dispatched one, or the
/// instantiation `inst` called directly — `gap` unused entries after
/// each, and check that the kernel stored into cells only.
fn run_stream(
    inst: Option<Instantiation>,
    mech: &Mechanism,
    cells: &[Vec<f64>],
    k: &[f64],
    case: &StreamCase,
) -> Result<(Integrated, LaneOccupancy), TestCaseError> {
    let stride = N_SPECIES + case.gap;
    let mut buf = vec![GAP_FILL; cells.len() * stride];
    for (i, c) in cells.iter().enumerate() {
        buf[i * stride..][..N_SPECIES].copy_from_slice(c);
    }
    let mut stats = vec![YbStats::default(); cells.len()];
    let mut ws = Yb4Workspace::new(N_SPECIES);
    let (dt, opts) = (case.dt_min, &case.opts);
    let ran = match inst {
        Some(inst) => integrate_stream_on(
            inst, mech, &mut buf, stride, &mut stats, k, dt, opts, &mut ws,
        ),
        None => integrate_stream(mech, &mut buf, stride, &mut stats, k, dt, opts, &mut ws),
    };
    let mut out = Vec::with_capacity(cells.len());
    for (chunk, st) in buf.chunks(stride).zip(stats) {
        let (cell, rest) = chunk.split_at(N_SPECIES);
        prop_assert!(rest.iter().all(|&x| x == GAP_FILL), "a gap was written");
        out.push((cell.to_vec(), st));
    }
    Ok((out, ran))
}

/// Bit for bit — or NaN both: a forced `h_min` can blow a random state
/// up under the scalar integrator too, and NaN payloads are not pinned.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    let same = |(x, y): (&f64, &f64)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
    a.len() == b.len() && a.iter().zip(b).all(same)
}

/// The lane contract on one case: every cell out of the stream is the
/// scalar integrator bit for bit (compiled and table-only mechanism
/// alike, the dispatched stream and every instantiation the host runs,
/// at four lanes and at eight), and the order of the cells changes
/// nothing but the order of the results.
fn check_stream_case(case: &StreamCase) -> Result<(), TestCaseError> {
    let mech = Mechanism::carbon_bond();
    let mut k = Vec::new();
    mech.rate_constants(case.temp_k, case.sun, &mut k);

    let mut ws = YbWorkspace::new(N_SPECIES);
    let oracle: Integrated = case
        .cells
        .iter()
        .map(|c| {
            let mut c = c.clone();
            let st = integrate_cell_with_k(&mech, &mut c, &k, case.dt_min, &case.opts, &mut ws);
            (c, st)
        })
        .collect();

    let attempts: u64 = oracle.iter().map(|(_, st)| st.substeps + st.rejected).sum();
    let same_as_oracle = |name: &str, got: &Integrated| {
        for (i, (got, want)) in got.iter().zip(&oracle).enumerate() {
            prop_assert!(
                same_bits(&got.0, &want.0) && got.1 == want.1,
                "{name} cell {i}: {got:?} vs scalar {want:?}"
            );
        }
        Ok(())
    };
    let (exact, ran) = run_stream(None, &mech, &case.cells, &k, case)?;
    same_as_oracle("dispatched", &exact)?;
    prop_assert_eq!(
        ran.width(),
        (attempts > 0).then(|| Instantiation::host().lanes() as f64)
    );
    // A table-only mechanism walks its table on four lanes: its stream is
    // every four-lane instantiation's, occupancy included.
    let table_only = Mechanism::from_table(mech.reactions().to_vec(), N_SPECIES);
    let (walked, walked_ran) = run_stream(None, &table_only, &case.cells, &k, case)?;
    same_as_oracle("table-only", &walked)?;
    let direct = [
        Instantiation::Portable,
        Instantiation::Avx2,
        Instantiation::Avx512,
    ];
    for inst in direct.into_iter().filter(|i| i.available()) {
        let (got, got_ran) = run_stream(Some(inst), &mech, &case.cells, &k, case)?;
        same_as_oracle(&format!("{inst:?}"), &got)?;
        prop_assert_eq!(got_ran.lane_attempts, attempts);
        let lanes = inst.lanes() as u64;
        prop_assert_eq!(got_ran.lane_slots, lanes * got_ran.vector_attempts);
        prop_assert!(got_ran.lane_slots >= attempts && got_ran.vector_attempts <= attempts);
        if inst == Instantiation::host() {
            prop_assert_eq!(got_ran, ran);
        }
        if lanes == 4 {
            prop_assert_eq!(got_ran, walked_ran, "{:?}", inst);
        }
    }

    let mut perm: Vec<usize> = (0..case.cells.len()).collect();
    perm.sort_by_key(|&i| case.shuffle[i]);
    let shuffled: Vec<Vec<f64>> = perm.iter().map(|&i| case.cells[i].clone()).collect();
    let (got, _) = run_stream(None, &mech, &shuffled, &k, case)?;
    for (at, &i) in perm.iter().enumerate() {
        prop_assert!(
            same_bits(&got[at].0, &exact[i].0) && got[at].1 == exact[i].1,
            "cell {i} differs when run at position {at}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Chemistry's cells are independent lanes, each the scalar
    /// integrator (see `check_stream_case`).
    #[test]
    fn stream_lanes_are_the_scalar_integrator_bit_for_bit(case in stream_case()) {
        check_stream_case(&case)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4_000))]

    #[test]
    #[ignore = "the larger case budget scripts/ci.sh runs once"]
    fn stream_lanes_are_the_scalar_integrator_bit_for_bit_soak(case in stream_case()) {
        check_stream_case(&case)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Young–Boris tracks the analytic solution of linear decay across
    /// five decades of stiffness.
    #[test]
    fn yb_matches_linear_decay(
        log_k in -2.0f64..3.0,
        c0 in 0.01f64..10.0,
        dt in 0.1f64..30.0,
    ) {
        let k = 10f64.powf(log_k);
        let m = decay(k);
        let mut ws = YbWorkspace::new(1);
        let mut c = vec![c0];
        let opts = YbOptions { eps: 5e-4, ..Default::default() };
        integrate_cell(&m, &mut c, 298.0, 0.0, dt, &opts, &mut ws);
        let exact = c0 * (-k * dt).exp();
        let tol = 2e-2 * c0.max(exact) + 1e-12;
        prop_assert!(
            (c[0] - exact).abs() < tol.max(5e-3 * exact),
            "k={k} dt={dt}: got {} want {exact}", c[0]
        );
    }

    /// The full mechanism never produces negative or non-finite
    /// concentrations from any plausible initial condition.
    #[test]
    fn carbon_bond_preserves_positivity(
        no in 0.0f64..0.2,
        no2 in 0.0f64..0.1,
        o3 in 0.0f64..0.2,
        par in 0.0f64..2.0,
        ole in 0.0f64..0.1,
        form in 0.0f64..0.05,
        sun in 0.0f64..1.0,
        t in 270.0f64..315.0,
    ) {
        let m = Mechanism::carbon_bond();
        let mut ws = YbWorkspace::new(N_SPECIES);
        let mut c = sp::background_vector();
        c[sp::NO] = no;
        c[sp::NO2] = no2;
        c[sp::O3] = o3;
        c[sp::PAR] = par;
        c[sp::OLE] = ole;
        c[sp::FORM] = form;
        integrate_cell(&m, &mut c, t, sun, 15.0, &YbOptions::default(), &mut ws);
        prop_assert!(c.iter().all(|&x| x.is_finite() && x >= 0.0), "{c:?}");
    }

    /// Gas-phase nitrogen is conserved (to solver tolerance) from any
    /// initial NOx split.
    #[test]
    fn nitrogen_conservation_random_ic(
        no in 0.001f64..0.1,
        no2 in 0.001f64..0.1,
        sun in 0.0f64..1.0,
    ) {
        let m = Mechanism::carbon_bond();
        let mut ws = YbWorkspace::new(N_SPECIES);
        let mut c = sp::background_vector();
        c[sp::NO] = no;
        c[sp::NO2] = no2;
        let n0 = Mechanism::total_nitrogen(&c);
        integrate_cell(&m, &mut c, 298.0, sun, 30.0, &YbOptions::default(), &mut ws);
        let n1 = Mechanism::total_nitrogen(&c);
        prop_assert!(
            (n1 - n0).abs() / n0 < 0.01,
            "N {n0} -> {n1} (sun {sun})"
        );
    }

    /// Thomas solve agrees with explicit 3x3/4x4 Gaussian elimination for
    /// random diagonally dominant systems.
    #[test]
    fn thomas_matches_dense(
        lower in prop::collection::vec(-1.0f64..0.0, 4),
        upper in prop::collection::vec(-1.0f64..0.0, 4),
        rhs in prop::collection::vec(-10.0f64..10.0, 4),
    ) {
        let n = 4;
        let mut lo = lower.clone();
        let mut up = upper.clone();
        lo[0] = 0.0;
        up[n - 1] = 0.0;
        // Diagonal dominance.
        let diag: Vec<f64> = (0..n)
            .map(|i| 1.0 + lo[i].abs() + up[i].abs())
            .collect();
        let mut x = rhs.clone();
        thomas_solve(&lo, &diag, &up, &mut x);
        // Residual check: A x == rhs.
        for i in 0..n {
            let mut ax = diag[i] * x[i];
            if i > 0 {
                ax += lo[i] * x[i - 1];
            }
            if i + 1 < n {
                ax += up[i] * x[i + 1];
            }
            prop_assert!((ax - rhs[i]).abs() < 1e-9, "row {i}: {ax} vs {}", rhs[i]);
        }
    }

    /// Vertical diffusion conserves column mass for any positive Kz
    /// profile and initial column (no emission/deposition).
    #[test]
    fn vertical_diffusion_conserves_mass(
        kz in prop::collection::vec(0.1f64..5000.0, 4),
        col in prop::collection::vec(0.0f64..1.0, 5),
        dt in 0.5f64..60.0,
    ) {
        let geom = ColumnGeometry::from_interfaces(&[0.0, 75.0, 200.0, 450.0, 900.0, 1600.0]);
        let mut c = col.clone();
        let m0 = geom.column_mass(&c);
        diffuse_column(&geom, &kz, 0.0, 0.0, dt, &mut c);
        let m1 = geom.column_mass(&c);
        prop_assert!((m1 - m0).abs() <= 1e-9 * m0.max(1.0), "{m0} -> {m1}");
        prop_assert!(c.iter().all(|&x| x >= -1e-12));
    }

    /// Diffusion is a contraction: the max-min spread never grows.
    #[test]
    fn vertical_diffusion_is_a_contraction(
        kz in prop::collection::vec(0.1f64..5000.0, 4),
        col in prop::collection::vec(0.0f64..1.0, 5),
    ) {
        let geom = ColumnGeometry::from_interfaces(&[0.0, 75.0, 200.0, 450.0, 900.0, 1600.0]);
        let spread = |c: &[f64]| {
            c.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
                - c.iter().cloned().fold(f64::INFINITY, f64::min)
        };
        let mut c = col.clone();
        let s0 = spread(&c);
        diffuse_column(&geom, &kz, 0.0, 0.0, 10.0, &mut c);
        prop_assert!(spread(&c) <= s0 + 1e-12);
    }
}
