//! Serial vs thread-pool backend determinism.
//!
//! The execution backend only decides *where* partitioned phase work
//! runs; kernels write into item-indexed slots and every floating-point
//! reduction happens sequentially in item order afterwards. These tests
//! pin the resulting contract: the final `SimState`, every hourly
//! summary, and every work-unit total (per-layer transport, per-column
//! chemistry, per-step aerosol) are **bit-identical** between the
//! `serial` backend and the `rayon` pool at any thread count — which in
//! turn means virtual-machine charges (and the `plan_equivalence`
//! golden suite) cannot depend on the host execution.
//!
//! The always-on tests use the tiny dataset across P ∈ {1, 4, 16} ×
//! threads ∈ {1, 2, 8}. The LA/NE episodes run the real paper shapes
//! and are `#[ignore]`d for runtime (opt in with `--ignored`).
//!
//! The **simd backend has a different contract** (see DESIGN.md "SIMD
//! backend"): it runs the very kernels of the other two, except that its
//! chemistry lanes fuse their multiply-adds. So simd-vs-serial is
//! **epsilon-bounded** — within 1e-5 relative on the episode's final
//! concentrations, a bound the transport solver's stopping test sets,
//! not the chemistry (see `assert_simd_equivalent`) — while everything
//! that does not go through that rounding is held to exact equality
//! (input/pretrans/output work, the first transport charges, aerosol
//! charges, profile shapes, and the chemistry charges: the accept/reject
//! history does not move at that epsilon). And because a cell's result
//! depends neither on which cells share its lanes nor on the partition,
//! `simd(1) == simd(2) == simd(4)` **bit for bit**, like serial and
//! rayon.

use airshed::core::config::{DatasetChoice, SimConfig};
use airshed::core::driver::{run_resumable_with, Episode};
use airshed::core::obs::{Collector, Obs, SpanSink};
use airshed::core::profile::WorkProfile;
use airshed::core::{BackendKind, ExecSpec};
use std::sync::Arc;

/// Run one episode on the given backend and return (profile, conc).
fn episode(config: &SimConfig, exec: ExecSpec) -> (WorkProfile, Vec<f64>) {
    let (report, profile, checkpoint) = run_resumable_with(config, None, exec);
    assert_eq!(report.backend, exec.describe());
    (profile, checkpoint.state.conc)
}

/// Assert two runs are bit-identical: state, summaries, and all
/// work-unit vectors of every step of every hour.
fn assert_identical(label: &str, a: &(WorkProfile, Vec<f64>), b: &(WorkProfile, Vec<f64>)) {
    assert_eq!(a.1, b.1, "{label}: SimState diverged");
    assert_eq!(
        a.0.summaries, b.0.summaries,
        "{label}: hourly summaries diverged"
    );
    assert_eq!(a.0.hours.len(), b.0.hours.len());
    for (h, (ha, hb)) in a.0.hours.iter().zip(&b.0.hours).enumerate() {
        assert_eq!(ha.input_work, hb.input_work, "{label}: hour {h} input work");
        assert_eq!(
            ha.pretrans_work, hb.pretrans_work,
            "{label}: hour {h} pretrans work"
        );
        assert_eq!(
            ha.output_work, hb.output_work,
            "{label}: hour {h} output work"
        );
        assert_eq!(ha.steps.len(), hb.steps.len());
        for (k, (sa, sb)) in ha.steps.iter().zip(&hb.steps).enumerate() {
            assert_eq!(
                sa.transport1, sb.transport1,
                "{label}: hour {h} step {k} transport1"
            );
            assert_eq!(
                sa.transport2, sb.transport2,
                "{label}: hour {h} step {k} transport2"
            );
            assert_eq!(
                sa.chemistry, sb.chemistry,
                "{label}: hour {h} step {k} chemistry"
            );
            assert_eq!(sa.aerosol, sb.aerosol, "{label}: hour {h} step {k} aerosol");
        }
    }
}

/// Assert the simd equivalence contract against a serial reference:
/// exact equality where the fused rounding cannot reach (input,
/// pretrans, output work; profile shapes; the first transport charges;
/// aerosol charges) and where it does not move a decision (chemistry
/// charges), 1e-5 relative agreement on the state.
///
/// Measured: 1.9e-6 on the tiny grid over two hours, 4.3e-7 on LA and
/// 9.2e-8 on NE over one. One chemistry step leaves the two backends
/// 5e-14 apart (`core::phases` pins 1e-9 there); what lifts an episode
/// above that is BiCGSTAB's stopping test, whose iteration counts move
/// with the last bits of the right-hand side — each moved count is a
/// difference of the order of the solver's 1e-8 tolerance.
fn assert_simd_equivalent(
    label: &str,
    serial: &(WorkProfile, Vec<f64>),
    simd: &(WorkProfile, Vec<f64>),
) {
    assert_eq!(serial.1.len(), simd.1.len(), "{label}: state shape");
    let mut worst = 0.0f64;
    for (i, (a, b)) in serial.1.iter().zip(&simd.1).enumerate() {
        let err = (a - b).abs() / (a.abs() + 1e-7);
        worst = worst.max(err);
        assert!(
            err <= 1e-5,
            "{label}: conc[{i}] diverged beyond tolerance: {a} vs {b}"
        );
        assert!(b.is_finite() && *b >= 0.0, "{label}: conc[{i}] = {b}");
    }
    assert_eq!(serial.0.hours.len(), simd.0.hours.len());
    for (h, (ha, hb)) in serial.0.hours.iter().zip(&simd.0.hours).enumerate() {
        // The sequential phases run identical scalar code on inputs that
        // do not depend on the concentration state — exact equality.
        assert_eq!(ha.input_work, hb.input_work, "{label}: hour {h} input work");
        assert_eq!(
            ha.pretrans_work, hb.pretrans_work,
            "{label}: hour {h} pretrans work"
        );
        assert_eq!(
            ha.output_work, hb.output_work,
            "{label}: hour {h} output work"
        );
        assert_eq!(ha.steps.len(), hb.steps.len());
        for (k, (sa, sb)) in ha.steps.iter().zip(&hb.steps).enumerate() {
            // Transport is serial's kernel, so the very first half step
            // — computed from identical state — is charged identically;
            // later iteration counts may feel the epsilon in the state.
            assert_eq!(sa.transport1.len(), sb.transport1.len());
            if (h, k) == (0, 0) {
                assert_eq!(
                    sa.transport1, sb.transport1,
                    "{label}: first transport charge"
                );
            }
            // Every column is charged its own cells' evaluations, and
            // in these episodes the fused lanes accept and reject where
            // serial's do (a measured property, not a theorem: a change
            // to the numerics may legitimately flip a decision in a
            // handful of cells, and then this is the line to revisit).
            assert_eq!(
                sa.chemistry, sb.chemistry,
                "{label}: hour {h} step {k} chemistry"
            );
            // Aerosol charges are state-independent (fixed per-cell
            // scan cost) — exact equality.
            assert_eq!(sa.aerosol, sb.aerosol, "{label}: hour {h} step {k} aerosol");
        }
    }
    assert_eq!(serial.0.summaries.len(), simd.0.summaries.len());
    eprintln!("{label}: max rel state divergence {worst:.2e}");
}

fn simd_sweep(dataset: DatasetChoice, hours: usize, ps: &[usize]) {
    for &p in ps {
        let mut config = SimConfig::test_tiny(13, hours);
        config.dataset = dataset;
        config.p = p;
        config.start_hour = 11;
        let reference = episode(&config, ExecSpec::serial());
        let one = episode(&config, ExecSpec::simd(1));
        let label = format!("{} P={p}", dataset.name());
        assert_simd_equivalent(&format!("{label} simd(1)"), &reference, &one);
        // The epsilon is a contract with serial, not a dependence on the
        // partition: any thread count gives simd(1)'s bits.
        for threads in [2usize, 4] {
            let pooled = episode(&config, ExecSpec::simd(threads));
            assert_identical(
                &format!("{label} simd({threads}) vs simd(1)"),
                &one,
                &pooled,
            );
        }
    }
}

fn sweep(dataset: DatasetChoice, hours: usize) {
    for p in [1usize, 4, 16] {
        let mut config = SimConfig::test_tiny(13, hours);
        config.dataset = dataset;
        config.p = p;
        config.start_hour = 11;
        let reference = episode(&config, ExecSpec::serial());
        for threads in [1usize, 2, 8] {
            let pooled = episode(&config, ExecSpec::rayon(threads));
            assert_identical(
                &format!("{} P={p} rayon({threads})", dataset.name()),
                &reference,
                &pooled,
            );
        }
    }
}

#[test]
fn tiny_serial_and_rayon_are_bit_identical() {
    sweep(DatasetChoice::Tiny(90), 2);
}

#[test]
fn tiny_simd_is_epsilon_bounded_and_reproducible() {
    simd_sweep(DatasetChoice::Tiny(90), 2, &[1, 4, 16]);
}

#[test]
fn tracing_enabled_is_bit_identical_to_disabled() {
    // The observability layer only reads clocks around phase boundaries;
    // it must never perturb the numerics, on either backend.
    let mut config = SimConfig::test_tiny(11, 2);
    config.p = 4;
    config.start_hour = 11;
    for exec in [ExecSpec::serial(), ExecSpec::rayon(4), ExecSpec::simd(4)] {
        let (_, profile_off, chk_off) =
            Episode::new(&config, None, exec, &Obs::off()).run(config.hours);
        let sink = Arc::new(SpanSink::new());
        let obs = Obs::new(Arc::clone(&sink) as Arc<dyn Collector>);
        let (_, profile_on, chk_on) = Episode::new(&config, None, exec, &obs).run(config.hours);
        assert_identical(
            &format!("tracing on vs off ({})", exec.describe()),
            &(profile_off, chk_off.state.conc),
            &(profile_on, chk_on.state.conc),
        );
        assert!(
            sink.events().iter().any(|e| e.name == "transport"),
            "the traced run must actually record spans"
        );
    }
}

#[test]
fn oracle_validation_is_bit_identical_to_untraced() {
    // The performance oracle rides on the trace stream: it re-lowers the
    // hour's PhaseGraph and pairs it with the recorded spans, but it
    // only ever *reads* profiles and events. A run with the oracle
    // attached must be bit-identical to an untraced run, and on a
    // healthy (undrifted) run the oracle's own pricing residuals are
    // exactly the charge formulas, so they sit at numerical zero.
    use airshed::core::Oracle;

    let mut config = SimConfig::test_tiny(17, 2);
    config.p = 4;
    config.start_hour = 11;
    for exec in [ExecSpec::serial(), ExecSpec::rayon(4), ExecSpec::simd(4)] {
        let (_, profile_off, chk_off) =
            Episode::new(&config, None, exec, &Obs::off()).run(config.hours);

        let sink = Arc::new(SpanSink::new());
        let oracle = Arc::new(Oracle::new(config.machine));
        let obs =
            Obs::new(Arc::clone(&sink) as Arc<dyn Collector>).with_oracle(Arc::clone(&oracle));
        let (_, profile_on, chk_on) = Episode::new(&config, None, exec, &obs).run(config.hours);

        assert_identical(
            &format!("oracle on vs off ({})", exec.describe()),
            &(profile_off, chk_off.state.conc),
            &(profile_on, chk_on.state.conc),
        );

        // The oracle actually saw the run: every hour paired cleanly.
        assert_eq!(oracle.hours_observed(), 2, "oracle observed both hours");
        assert_eq!(oracle.mismatched_hours(), 0, "no mispaired hours");
        assert!(oracle.observations() > 0 && oracle.comm_observations() > 0);
        assert!(
            oracle.pricing_mare() < 1e-9,
            "undrifted pricing residuals must be numerically zero, got {}",
            oracle.pricing_mare()
        );
        assert!(
            oracle.drift() < 1e-3,
            "recalibrating against self-generated spans must not drift: {}",
            oracle.drift()
        );
    }
}

#[test]
fn backend_kind_roundtrips_through_report() {
    let config = SimConfig::test_tiny(8, 1);
    for exec in [ExecSpec::serial(), ExecSpec::rayon(2), ExecSpec::simd(2)] {
        let (report, _, _) = run_resumable_with(&config, None, exec);
        assert_eq!(report.backend, exec.describe());
        assert_eq!(
            report.backend.starts_with("rayon"),
            exec.kind == BackendKind::Rayon
        );
        assert_eq!(
            report.backend.starts_with("simd"),
            exec.kind == BackendKind::Simd
        );
    }
}

#[test]
#[ignore = "runs the LA numerics across backends (~minutes)"]
fn la_serial_and_rayon_are_bit_identical() {
    sweep(DatasetChoice::LosAngeles, 1);
}

#[test]
#[ignore = "runs the NE numerics across backends (~minutes)"]
fn ne_serial_and_rayon_are_bit_identical() {
    sweep(DatasetChoice::NorthEast, 1);
}

#[test]
#[ignore = "runs the LA numerics simd-vs-serial (~minutes)"]
fn la_simd_is_epsilon_bounded() {
    simd_sweep(DatasetChoice::LosAngeles, 1, &[4, 16, 64]);
}

#[test]
#[ignore = "runs the NE numerics simd-vs-serial (~minutes)"]
fn ne_simd_is_epsilon_bounded() {
    simd_sweep(DatasetChoice::NorthEast, 1, &[4, 16, 64]);
}
