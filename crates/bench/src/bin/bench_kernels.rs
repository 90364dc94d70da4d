//! Kernel and backend wall-clock medians, written to `BENCH_kernels.json`
//! (override the path with the first CLI argument).
//!
//! The measurements, each reported as the median over repeated runs:
//!
//! 1. **LA hour, serial vs rayon(4) vs simd(4)** — one full Los Angeles
//!    hour end to end on every backend; the headline scaling numbers.
//!    Meaningful rayon speedup needs real cores: on a single-core host
//!    the rayon row only measures pool dispatch overhead, while the simd
//!    row still measures a real win (lane-level parallelism needs no
//!    extra cores). The report records the machine's physical processor
//!    count and detected vector features so a reader can tell which
//!    regime a result came from.
//! 2. **Transport workspace hoisting** — `half_step` on one LA layer
//!    with a reused [`TransportWorkspace`] vs a freshly allocated one
//!    per call (the pre-hoisting behaviour); a single-thread win that
//!    needs no extra cores.
//! 3. **Young–Boris workspace hoisting** — `integrate_cell` with a
//!    reused vs per-call [`YbWorkspace`].
//! 4. **Scenario-server throughput** — a cold batch of distinct tiny
//!    scenarios against 1- and 4-worker pools, jobs/sec.

use airshed_bench::table::Table;
use airshed_chem::mechanism::Mechanism;
use airshed_chem::species as sp;
use airshed_chem::youngboris::{integrate_cell, YbOptions, YbWorkspace};
use airshed_core::config::{DatasetChoice, SimConfig};
use airshed_core::driver::{run_resumable_with, run_with_profile_on, Episode};
use airshed_core::obs::{Collector, Obs, SpanSink};
use airshed_core::phases::PhaseEngine;
use airshed_core::{optimize_plan, ExecSpec};
use airshed_grid::datasets::Dataset;
use airshed_machine::MachineProfile;
use airshed_server::{ScenarioRequest, ScenarioServer, ServerConfig};
use airshed_transport::operator::TransportWorkspace;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Median of a sample set (averages the middle pair for even counts).
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        0.5 * (samples[n / 2 - 1] + samples[n / 2])
    }
}

/// Median wall time of `runs` invocations of `f`.
fn timed(runs: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&mut samples)
}

/// One full LA hour on the given backend.
fn la_hour(exec: ExecSpec) -> f64 {
    let mut config = SimConfig::test_tiny(4, 1);
    config.dataset = DatasetChoice::LosAngeles;
    config.start_hour = 12;
    timed(3, || {
        let (_, profile, checkpoint) = run_resumable_with(&config, None, exec);
        black_box((profile.hours.len(), checkpoint.state.conc[0]));
    })
}

/// Transport `half_step` on one LA layer: reused vs per-call workspace.
fn transport_hoisting() -> (f64, f64) {
    let engine = PhaseEngine::new(Dataset::los_angeles(), 0.012, YbOptions::default());
    let (input, _) = engine.input_hour(12);
    let (op, _) = engine.pretrans(&input);
    // A mildly structured field so the solve does real iterations.
    let base: Vec<f64> = (0..op.n()).map(|i| 0.04 + 1e-3 * (i % 17) as f64).collect();
    let mut conc = base.clone();
    const CALLS: usize = 30;
    let mut ws = TransportWorkspace::new();
    // Warm the reused buffers once so both variants start from a steady
    // state (first call sizes the scratch).
    op.half_step(0, &mut conc, 0.04, &mut ws);
    let reused = timed(CALLS, || {
        conc.copy_from_slice(&base);
        black_box(op.half_step(0, &mut conc, 0.04, &mut ws).iterations);
    });
    let fresh = timed(CALLS, || {
        conc.copy_from_slice(&base);
        let mut ws = TransportWorkspace::new();
        black_box(op.half_step(0, &mut conc, 0.04, &mut ws).iterations);
    });
    (reused, fresh)
}

/// Young–Boris cell integration: reused vs per-call workspace. Each
/// sample integrates a batch of cells so the clock resolution is safe.
fn yb_hoisting() -> (f64, f64) {
    let mech = Mechanism::carbon_bond();
    let mut polluted = sp::background_vector();
    polluted[sp::NO] = 0.05;
    polluted[sp::NO2] = 0.03;
    polluted[sp::PAR] = 0.8;
    polluted[sp::FORM] = 0.01;
    const CELLS: usize = 200;
    let mut conc = polluted.clone();
    let mut ws = YbWorkspace::new(sp::N_SPECIES);
    let opts = YbOptions::default();
    let reused = timed(9, || {
        for _ in 0..CELLS {
            conc.copy_from_slice(&polluted);
            black_box(integrate_cell(&mech, &mut conc, 300.0, 0.85, 10.0, &opts, &mut ws).evals);
        }
    });
    let fresh = timed(9, || {
        for _ in 0..CELLS {
            conc.copy_from_slice(&polluted);
            let mut ws = YbWorkspace::new(sp::N_SPECIES);
            black_box(integrate_cell(&mech, &mut conc, 300.0, 0.85, 10.0, &opts, &mut ws).evals);
        }
    });
    (reused / CELLS as f64, fresh / CELLS as f64)
}

/// Per-phase wall-clock medians (µs) for the LA hour, derived from the
/// observability layer's spans: the same `run` is repeated and every
/// driver-lane span ("inputhour", "pretrans", "transport", "chemistry",
/// "aerosol", "outputhour", ...) lands in one sink, so the bench numbers
/// and a `--trace-out` trace of the same scenario come from one clock.
fn phase_medians(exec: ExecSpec) -> Vec<(&'static str, f64)> {
    let mut config = SimConfig::test_tiny(4, 1);
    config.dataset = DatasetChoice::LosAngeles;
    config.start_hour = 12;
    // One untraced warmup run first: the initial run pays one-off costs
    // (dataset build, allocator warmup, code paging) that would skew the
    // recorded medians; only steady-state iterations land in the sink.
    {
        let (_, profile) = run_with_profile_on(&config, exec);
        black_box(profile.hours.len());
    }
    let sink = Arc::new(SpanSink::new());
    let obs = Obs::new(Arc::clone(&sink) as Arc<dyn Collector>);
    for _ in 0..3 {
        let (_, profile, _) = Episode::new(&config, None, exec, &obs).run(config.hours);
        black_box(profile.hours.len());
    }
    sink.phase_wall_medians()
}

/// The plan optimizer on a captured LA hour: the virtual hour cost of
/// the paper-default plan vs the optimizer's choice on the T3E at
/// P = 16 (deterministic §4-model numbers, not wall-clock), plus the
/// wall-clock of the whole search — layout ladder × pipeline splits —
/// which is the only part of the planner that costs host time.
fn plan_optimize(exec: ExecSpec) -> (f64, f64, f64) {
    let mut config = SimConfig::test_tiny(16, 1);
    config.dataset = DatasetChoice::LosAngeles;
    config.start_hour = 12;
    let (_, profile) = run_with_profile_on(&config, exec);
    let machine = MachineProfile::t3e();
    let t = Instant::now();
    let choice = optimize_plan(&profile, &machine, 16);
    let search_s = t.elapsed().as_secs_f64();
    (choice.default_seconds, choice.predicted_seconds, search_s)
}

/// Copy-traffic accounting for one hour of a paper grid at P = 16:
/// bytes moved outside the kernels — redistribution local copies (§3
/// plans), SoA column staging in chemistry, and result serialization.
/// Deterministic byte counts, not wall clock; the same accounting a
/// traced run exports on its `copy bytes` counter track.
fn copy_traffic(dataset: DatasetChoice, exec: ExecSpec) -> airshed_core::report::CopyBytes {
    let mut config = SimConfig::test_tiny(16, 1);
    config.dataset = dataset;
    config.start_hour = 12;
    let (report, _) = run_with_profile_on(&config, exec);
    report.copy_bytes.unwrap_or_default()
}

/// Cold-batch jobs/sec against a fresh pool of `workers` workers.
fn server_rate(workers: usize) -> f64 {
    const JOBS: usize = 8;
    let configs: Vec<SimConfig> = (0..JOBS)
        .map(|i| {
            let mut config = SimConfig::test_tiny(4, 1);
            config.start_hour = 12;
            config.emission_scale = 1.0 - 0.03 * i as f64;
            config
        })
        .collect();
    let wall = timed(3, || {
        let server = ScenarioServer::start(ServerConfig {
            workers,
            ..Default::default()
        });
        let handles: Vec<_> = configs
            .iter()
            .map(|config| {
                server
                    .submit(ScenarioRequest::new(config.clone()))
                    .into_handle()
                    .expect("batch fits in the queue")
            })
            .collect();
        for handle in &handles {
            handle.wait().expect("job completes");
        }
        server.shutdown();
    });
    JOBS as f64 / wall
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_kernels.json".to_string());
    let host_threads = airshed_hpf::host::available_threads();
    let physical_threads = airshed_hpf::host::physical_threads();
    let features = airshed_simd::cpu_features();

    eprintln!("measuring LA hour (serial, rayon(4), simd(4))...");
    let serial_s = la_hour(ExecSpec::serial());
    let rayon4_s = la_hour(ExecSpec::rayon(4));
    let simd4_s = la_hour(ExecSpec::simd(4));

    eprintln!("measuring workspace hoisting...");
    let (tr_reused_s, tr_fresh_s) = transport_hoisting();
    let (yb_reused_s, yb_fresh_s) = yb_hoisting();

    eprintln!("measuring per-phase span medians (serial, rayon(4), simd(4))...");
    let phases_serial = phase_medians(ExecSpec::serial());
    let phases = phase_medians(ExecSpec::rayon(4));
    let phases_simd = phase_medians(ExecSpec::simd(4));
    let chem_of = |set: &[(&'static str, f64)]| {
        set.iter()
            .find(|(n, _)| *n == "chemistry")
            .map(|&(_, us)| us)
            .unwrap_or(f64::NAN)
    };
    let simd_chem_speedup = chem_of(&phases_serial) / chem_of(&phases_simd);

    eprintln!("measuring plan optimizer (LA hour, T3E, P=16)...");
    let (plan_default_s, plan_opt_s, plan_search_s) = plan_optimize(ExecSpec::rayon(4));

    eprintln!("measuring server throughput...");
    let rate1 = server_rate(1);
    let rate4 = server_rate(4);

    eprintln!("accounting copy traffic (la, ne; one hour, P=16)...");
    let cb_la = copy_traffic(DatasetChoice::LosAngeles, ExecSpec::simd(4));
    let cb_ne = copy_traffic(DatasetChoice::NorthEast, ExecSpec::simd(4));

    let mut table = Table::new(vec!["benchmark", "median", "note"]);
    table.row(vec![
        "la_hour/serial".to_string(),
        format!("{serial_s:.2} s"),
        String::new(),
    ]);
    table.row(vec![
        "la_hour/rayon4".to_string(),
        format!("{rayon4_s:.2} s"),
        format!("{:.2}x vs serial", serial_s / rayon4_s),
    ]);
    table.row(vec![
        "la_hour/simd4".to_string(),
        format!("{simd4_s:.2} s"),
        format!("{:.2}x vs serial", serial_s / simd4_s),
    ]);
    table.row(vec![
        "transport_half_step/reused_ws".to_string(),
        format!("{:.2} ms", tr_reused_s * 1e3),
        String::new(),
    ]);
    table.row(vec![
        "transport_half_step/fresh_ws".to_string(),
        format!("{:.2} ms", tr_fresh_s * 1e3),
        format!("hoisting {:.2}x", tr_fresh_s / tr_reused_s),
    ]);
    table.row(vec![
        "yb_cell/reused_ws".to_string(),
        format!("{:.2} us", yb_reused_s * 1e6),
        String::new(),
    ]);
    table.row(vec![
        "yb_cell/fresh_ws".to_string(),
        format!("{:.2} us", yb_fresh_s * 1e6),
        format!("hoisting {:.2}x", yb_fresh_s / yb_reused_s),
    ]);
    for (name, us) in &phases {
        table.row(vec![
            format!("la_hour/phase/{name}"),
            format!("{:.2} ms", us * 1e-3),
            "span-derived, rayon(4)".to_string(),
        ]);
    }
    for (name, us) in &phases_simd {
        table.row(vec![
            format!("la_hour/phase_simd/{name}"),
            format!("{:.2} ms", us * 1e-3),
            "span-derived, simd(4)".to_string(),
        ]);
    }
    table.row(vec![
        "chemistry/simd_vs_serial".to_string(),
        format!("{simd_chem_speedup:.2}x"),
        format!("features: {}", features.join("+")),
    ]);
    table.row(vec![
        "plan/default_hour".to_string(),
        format!("{plan_default_s:.1} s"),
        "virtual (T3E, P=16)".to_string(),
    ]);
    table.row(vec![
        "plan/optimized_hour".to_string(),
        format!("{plan_opt_s:.1} s"),
        format!(
            "virtual, saving {:.1}%",
            100.0 * (plan_default_s - plan_opt_s) / plan_default_s
        ),
    ]);
    table.row(vec![
        "plan/search_wall".to_string(),
        format!("{:.1} ms", plan_search_s * 1e3),
        "whole layout+split search".to_string(),
    ]);
    table.row(vec![
        "server/workers1".to_string(),
        format!("{rate1:.2} jobs/s"),
        String::new(),
    ]);
    table.row(vec![
        "server/workers4".to_string(),
        format!("{rate4:.2} jobs/s"),
        format!("{:.2}x vs 1 worker", rate4 / rate1),
    ]);
    for (grid, cb) in [("la", &cb_la), ("ne", &cb_ne)] {
        table.row(vec![
            format!("copy_bytes/{grid}_hour"),
            format!("{:.1} MB", cb.total() as f64 / 1e6),
            "analytic, P=16, 1 hour".to_string(),
        ]);
    }
    table.print("Kernel and backend medians", "bench_kernels");

    // The serde shim is a no-op, so the JSON is formatted by hand. The
    // check gate's parser only accepts numeric leaves, so the detected
    // CPU features are emitted as 0/1 flags over the fixed probe list.
    let phase_obj = |set: &[(&'static str, f64)]| {
        set.iter()
            .map(|(name, us)| format!("    \"{name}\": {us:.2}"))
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let phase_json = phase_obj(&phases);
    let phase_serial_json = phase_obj(&phases_serial);
    let phase_simd_json = phase_obj(&phases_simd);
    let feat_json = ["sse2", "avx", "avx2", "fma", "avx512f"]
        .iter()
        .map(|f| format!("    \"{f}\": {}", u8::from(features.contains(f))))
        .collect::<Vec<_>>()
        .join(",\n");
    let copy_json = |cb: &airshed_core::report::CopyBytes| {
        format!(
            "{{\n      \"redist_local\": {},\n      \"soa_staging\": {},\n      \"result_serialization\": {},\n      \"total\": {}\n    }}",
            cb.redist_local,
            cb.soa_staging,
            cb.result_serialization,
            cb.total()
        )
    };
    let copy_bytes_json = format!(
        "    \"la\": {},\n    \"ne\": {}",
        copy_json(&cb_la),
        copy_json(&cb_ne)
    );
    let json = format!(
        "{{\n  \"host_threads\": {host_threads},\n  \"host_physical_threads\": {physical_threads},\n  \"cpu_features\": {{\n{feat_json}\n  }},\n  \"la_hour\": {{\n    \"serial_s\": {serial_s:.4},\n    \"rayon4_s\": {rayon4_s:.4},\n    \"simd4_s\": {simd4_s:.4},\n    \"speedup_rayon4\": {:.4},\n    \"speedup_simd4\": {:.4}\n  }},\n  \"la_hour_phase_median_us\": {{\n{phase_json}\n  }},\n  \"la_hour_phase_median_us_serial\": {{\n{phase_serial_json}\n  }},\n  \"la_hour_phase_median_us_simd\": {{\n{phase_simd_json}\n  }},\n  \"simd\": {{\n    \"chemistry_speedup_vs_serial\": {simd_chem_speedup:.4}\n  }},\n  \"workspace_hoisting\": {{\n    \"transport_half_step_reused_s\": {tr_reused_s:.6},\n    \"transport_half_step_fresh_s\": {tr_fresh_s:.6},\n    \"transport_speedup\": {:.4},\n    \"yb_cell_reused_s\": {yb_reused_s:.9},\n    \"yb_cell_fresh_s\": {yb_fresh_s:.9},\n    \"yb_speedup\": {:.4}\n  }},\n  \"plan_optimize\": {{\n    \"nodes\": 16,\n    \"default_hour_virtual_s\": {plan_default_s:.4},\n    \"optimized_hour_virtual_s\": {plan_opt_s:.4},\n    \"saving_frac\": {:.4},\n    \"search_wall_s\": {plan_search_s:.6}\n  }},\n  \"server_throughput\": {{\n    \"jobs\": 8,\n    \"workers1_jobs_per_s\": {rate1:.4},\n    \"workers4_jobs_per_s\": {rate4:.4},\n    \"scaling_4v1\": {:.4}\n  }},\n  \"copy_bytes\": {{\n{copy_bytes_json}\n  }}\n}}\n",
        serial_s / rayon4_s,
        serial_s / simd4_s,
        tr_fresh_s / tr_reused_s,
        yb_fresh_s / yb_reused_s,
        (plan_default_s - plan_opt_s) / plan_default_s,
        rate4 / rate1,
    );
    std::fs::write(&out_path, json).expect("write BENCH json");
    println!("\nwrote {out_path}");
}
