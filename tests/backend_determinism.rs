//! One arithmetic at every thread count.
//!
//! An `ExecSpec` only decides *where* partitioned phase work runs;
//! kernels write into item-indexed slots, every floating-point reduction
//! happens sequentially in item order afterwards, and every kernel is
//! made of correctly rounded operations, the chemistry's fused
//! multiply-adds included. These tests pin the resulting contract: the
//! final `SimState`, every hourly summary, and every work-unit total
//! (per-layer transport, per-column chemistry, per-step aerosol) are
//! **bit-identical** between `serial`, `rayon(n)` and `simd(n)` at any
//! thread count — which in turn means virtual-machine charges (and the
//! `plan_equivalence` golden suite) cannot depend on the host execution.
//! Nothing here compares floats with a tolerance.
//!
//! The always-on tests use the tiny dataset across P ∈ {1, 4, 16} ×
//! threads ∈ {1, 2, 8}. The LA/NE episodes run the real paper shapes
//! and are `#[ignore]`d for runtime (opt in with `--ignored`).

use airshed::core::config::{DatasetChoice, SimConfig};
use airshed::core::driver::{run_resumable_with, Episode};
use airshed::core::obs::{Obs, SpanSink};
use airshed::core::profile::WorkProfile;
use airshed::core::ExecSpec;
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

/// `serial`, `rayon(n)` and `simd(n)` over P ∈ {1, 4, 16}, n ∈ {1, 2, 8}.
fn sweep(dataset: DatasetChoice, hours: usize) {
    for p in [1usize, 4, 16] {
        let mut config = SimConfig::test_tiny(13, hours);
        config.dataset = dataset;
        config.p = p;
        config.start_hour = 11;
        let reference = episode(&config, ExecSpec::serial());
        for threads in [1usize, 2, 8] {
            for (name, exec) in [
                ("rayon", ExecSpec::rayon(threads)),
                ("simd", ExecSpec::simd(threads)),
            ] {
                let label = format!("{} P={p} {name}({threads})", dataset.name());
                assert_identical(&label, &reference, &episode(&config, exec));
            }
        }
    }
}

#[test]
fn tiny_serial_and_rayon_are_bit_identical() {
    sweep(DatasetChoice::Tiny(90), 2);
}

#[test]
fn tracing_enabled_is_bit_identical_to_disabled() {
    // The observability layer only reads clocks around phase boundaries;
    // it must never perturb the numerics, inline or on the pool.
    let mut config = SimConfig::test_tiny(11, 2);
    config.p = 4;
    config.start_hour = 11;
    for exec in [ExecSpec::serial(), ExecSpec::rayon(4)] {
        let (_, profile_off, chk_off) =
            Episode::new(&config, None, exec, &Obs::off()).run(config.hours);
        let sink = Arc::new(SpanSink::new());
        let obs = Obs::new(Arc::clone(&sink));
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
fn report_names_the_thread_count() {
    let config = SimConfig::test_tiny(8, 1);
    for (exec, name) in [
        (ExecSpec::serial(), "serial"),
        (ExecSpec::rayon(1), "serial"),
        (ExecSpec::rayon(2), "threads(2)"),
        (ExecSpec::simd(2), "threads(2)"),
    ] {
        let (report, _, _) = run_resumable_with(&config, None, exec);
        assert_eq!(report.backend, name);
    }
}

#[test]
#[ignore = "runs the LA numerics across thread counts (~minutes)"]
fn la_serial_rayon_and_simd_are_bit_identical() {
    sweep(DatasetChoice::LosAngeles, 1);
}

#[test]
#[ignore = "runs the NE numerics across thread counts (~minutes)"]
fn ne_serial_rayon_and_simd_are_bit_identical() {
    sweep(DatasetChoice::NorthEast, 1);
}
