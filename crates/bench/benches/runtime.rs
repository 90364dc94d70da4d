//! Criterion benchmarks for the runtime layers: virtual-machine replay
//! throughput, the analytic predictor, the pipeline scheduler and the
//! PVM substrate.

use airshed_core::config::SimConfig;
use airshed_core::driver::{run_with_profile_on, ChemLayout};
use airshed_core::plan::replay_profile;
use airshed_core::predict::PerfModel;
use airshed_core::profile::WorkProfile;
use airshed_core::taskpar::replay_taskparallel;
use airshed_core::ExecSpec;
use airshed_hpf::pipeline::schedule;
use airshed_hpf::pvm;
use airshed_machine::MachineProfile;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::OnceLock;

fn tiny_profile() -> &'static WorkProfile {
    static CELL: OnceLock<WorkProfile> = OnceLock::new();
    CELL.get_or_init(|| {
        let mut cfg = SimConfig::test_tiny(4, 2);
        cfg.start_hour = 10;
        run_with_profile_on(&cfg, ExecSpec::default()).1
    })
}

fn bench_replay(c: &mut Criterion) {
    let prof = tiny_profile();
    c.bench_function("runtime/replay_p64", |b| {
        b.iter(|| {
            black_box(
                replay_profile(prof, MachineProfile::t3e(), 64, ChemLayout::Block).total_seconds,
            )
        })
    });
    c.bench_function("runtime/replay_taskparallel_p64", |b| {
        b.iter(|| black_box(replay_taskparallel(prof, MachineProfile::paragon(), 64).total_seconds))
    });
}

fn bench_predict(c: &mut Criterion) {
    let prof = tiny_profile();
    let model = PerfModel::from_profile(prof);
    let t3e = MachineProfile::t3e();
    c.bench_function("runtime/predict_sweep", |b| {
        b.iter(|| {
            black_box(
                model
                    .sweep(&t3e, &[4, 8, 16, 32, 64, 128])
                    .last()
                    .unwrap()
                    .total,
            )
        })
    });
}

fn bench_pipeline(c: &mut Criterion) {
    let durations: Vec<Vec<f64>> = (0..3)
        .map(|s| (0..24).map(|i| 1.0 + 0.1 * ((s + i) % 5) as f64).collect())
        .collect();
    c.bench_function("runtime/pipeline_schedule_24h", |b| {
        b.iter(|| black_box(schedule(&durations).makespan))
    });
}

fn bench_popexp(c: &mut Criterion) {
    let prof = tiny_profile();
    c.bench_function("runtime/popexp_native_p16", |b| {
        b.iter(|| {
            black_box(
                airshed_popexp::replay_with_popexp(
                    prof,
                    MachineProfile::paragon(),
                    16,
                    airshed_popexp::Hosting::NativeTask,
                )
                .total_seconds,
            )
        })
    });
}

fn bench_viz(c: &mut Criterion) {
    let d = airshed_core::config::DatasetChoice::Tiny(120).build();
    let vals: Vec<f64> = (0..d.nodes()).map(|i| (i as f64).sin().abs()).collect();
    c.bench_function("runtime/ascii_map_64x20", |b| {
        b.iter(|| black_box(airshed_core::viz::ascii_map_auto(&d, &vals, 64, 20).len()))
    });
}

fn bench_pvm(c: &mut Criterion) {
    c.bench_function("runtime/pvm_broadcast_gather_4tasks", |b| {
        let payload: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        b.iter(|| {
            let results = pvm::spawn_group(4, |task| {
                let data = if task.id == 0 {
                    task.broadcast(1, &payload);
                    payload.clone()
                } else {
                    task.recv_tag(1).data
                };
                let part: f64 = data.iter().sum();
                match task.gather_to_root(2, vec![part]) {
                    Some(parts) => parts.iter().map(|p| p[0]).sum::<f64>(),
                    None => 0.0,
                }
            });
            black_box(results[0])
        })
    });
}

fn config() -> Criterion {
    Criterion::default().sample_size(10)
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_replay, bench_predict, bench_pipeline, bench_pvm, bench_popexp, bench_viz
}
criterion_main!(benches);
