//! End-to-end fabric integration over real sockets, in one process:
//! a front-end and two shards wired through loopback TCP, asserting the
//! tentpole guarantee — every report a fabric batch produces is
//! bit-identical to the single-process run of the same scenarios, with
//! and without a shard dying mid-batch.
//!
//! The shards here run as threads (`drop_after_hours` severs the
//! connection instead of `process::exit`, which would take the test
//! harness down with it); the CI smoke test in `scripts/ci.sh` runs the
//! same drill with real processes and a real `exit(3)`.

use airshed::core::config::SimConfig;
use airshed::core::driver::{ChemLayout, PlanLayouts};
use airshed::core::plan::replay_profile;
use airshed::core::{ExecSpec, Obs, PerfModel};
use airshed::fabric::{
    report_fingerprint, run_shard, serve_batch, FrontendOptions, RouterConfig, ShardOptions,
};
use airshed::server::cache::NumericsKey;
use airshed::server::worker::run_hourly;
use std::collections::HashMap;
use std::net::TcpListener;
use std::sync::atomic::AtomicBool;
use std::time::Duration;

/// A small mixed batch: two node counts x two emission policies.
fn scenarios(jobs: usize) -> Vec<(SimConfig, ChemLayout)> {
    (0..jobs)
        .map(|i| {
            let mut c = SimConfig::test_tiny([2, 4][i % 2], 2);
            c.dataset = airshed::core::config::DatasetChoice::Tiny(40);
            c.start_hour = 7;
            c.emission_scale = [1.0, 0.5][(i / 2) % 2];
            (c, ChemLayout::Block)
        })
        .collect()
}

/// Single-process reference fingerprints, profile-cached per family —
/// the same work a shard does, without any wire in between.
fn reference_fingerprints(batch: &[(SimConfig, ChemLayout)]) -> Vec<String> {
    let never = AtomicBool::new(false);
    let mut profiles = HashMap::new();
    batch
        .iter()
        .map(|(config, layout)| {
            let profile = profiles.entry(NumericsKey::of(config)).or_insert_with(|| {
                run_hourly(
                    config,
                    None,
                    &never,
                    None,
                    ExecSpec::serial(),
                    &Obs::off(),
                    None,
                )
                .unwrap()
            });
            report_fingerprint(&replay_profile(profile, config.machine, config.p, *layout))
        })
        .collect()
}

fn shard_thread(
    addr: std::net::SocketAddr,
    name: &str,
    drop_after_hours: Option<u64>,
) -> std::thread::JoinHandle<()> {
    shard_with_workers(addr, name, 1, drop_after_hours)
}

fn shard_with_workers(
    addr: std::net::SocketAddr,
    name: &str,
    workers: usize,
    drop_after_hours: Option<u64>,
) -> std::thread::JoinHandle<()> {
    let name = name.to_string();
    std::thread::spawn(move || {
        let result = run_shard(
            ShardOptions {
                connect: addr.to_string(),
                name,
                workers,
                exec: ExecSpec::serial(),
                heartbeat_ms: 50,
                die_after_hours: None,
                drop_after_hours,
            },
            &Obs::off(),
        );
        assert!(result.is_ok(), "shard failed: {result:?}");
    })
}

#[test]
fn fabric_batch_is_bit_identical_to_single_process() {
    let batch = scenarios(6);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let shards = [shard_thread(addr, "a", None), shard_thread(addr, "b", None)];

    let outcome = serve_batch(
        &listener,
        FrontendOptions {
            expect: 2,
            router: RouterConfig::default(),
            deadline: Some(Duration::from_secs(120)),
        },
        &batch,
        &Obs::off(),
    )
    .unwrap();
    for handle in shards {
        handle.join().unwrap();
    }

    assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
    assert_eq!(outcome.reports.len(), batch.len());
    let routed: u64 = outcome.shards.iter().map(|(_, c)| c.routed).sum();
    assert_eq!(routed, batch.len() as u64);

    let reference = reference_fingerprints(&batch);
    for (i, report) in &outcome.reports {
        assert_eq!(
            report_fingerprint(report),
            reference[*i],
            "scenario {i} diverged from the single-process run"
        );
        // The router stamped its §4 prediction on completions that were
        // dispatched after its family calibrated.
        assert!(report.total_seconds > 0.0);
    }
    // The metrics surface reflects the batch.
    assert!(outcome
        .prometheus
        .contains("airshed_fabric_jobs_total{shard=\"a\",event=\"routed\"}"));
}

#[test]
fn fabric_survives_a_shard_dropping_mid_batch() {
    let batch = scenarios(6);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    // Shard "doomed" severs its connection after its first completed
    // hour — mid-job, with the rest of that job's key-group queued
    // behind it (a shard runs each numerics key once, so either shard
    // only ever completes two hours per key it holds).
    let shards = [
        shard_thread(addr, "doomed", Some(1)),
        shard_thread(addr, "survivor", None),
    ];

    let outcome = serve_batch(
        &listener,
        FrontendOptions {
            expect: 2,
            router: RouterConfig {
                heartbeat_timeout_ms: 1000,
            },
            deadline: Some(Duration::from_secs(120)),
        },
        &batch,
        &Obs::off(),
    )
    .unwrap();
    for handle in shards {
        handle.join().unwrap();
    }

    assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
    assert_eq!(outcome.reports.len(), batch.len(), "no job may be lost");
    let failed_over: u64 = outcome.shards.iter().map(|(_, c)| c.failed_over).sum();
    assert!(
        failed_over > 0,
        "the dropped shard's jobs must fail over: {:?}",
        outcome.shards
    );

    // Failover must not cost bit-identity: resumed jobs produce exactly
    // the single-process results.
    let reference = reference_fingerprints(&batch);
    for (i, report) in &outcome.reports {
        assert_eq!(
            report_fingerprint(report),
            reference[*i],
            "scenario {i} diverged after failover"
        );
    }
    assert!(outcome
        .prometheus
        .contains("airshed_fabric_shard_up{shard=\"doomed\"} 0"));
}

/// Four numerics keys on three placements each, interleaved so jobs of
/// one key are never adjacent in submit order.
fn family_batch() -> Vec<(SimConfig, ChemLayout)> {
    let mut batch = Vec::new();
    for p in [2, 4, 8] {
        for scale in [1.0, 0.8, 0.6, 0.4] {
            let mut c = SimConfig::test_tiny(p, 1);
            c.dataset = airshed::core::config::DatasetChoice::Tiny(40);
            c.start_hour = 7;
            c.emission_scale = scale;
            batch.push((c, ChemLayout::Block));
        }
    }
    batch
}

/// Serve `family_batch()` on the given shards and check that every key
/// ran once: 12 reference fingerprints, 4 jobs that executed hours, 8
/// answered from a resident profile.
fn each_key_runs_once(shards: Vec<std::thread::JoinHandle<()>>, listener: TcpListener) {
    let batch = family_batch();
    let outcome = serve_batch(
        &listener,
        FrontendOptions {
            expect: shards.len(),
            // Nobody is lost here; a starved heartbeat must not look
            // like a loss (a failover would re-run a key).
            router: RouterConfig {
                heartbeat_timeout_ms: 60_000,
            },
            deadline: Some(Duration::from_secs(120)),
        },
        &batch,
        &Obs::off(),
    )
    .unwrap();
    for handle in shards {
        handle.join().unwrap();
    }

    assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
    assert_eq!(outcome.reports.len(), batch.len());
    let reference = reference_fingerprints(&batch);
    for (i, report) in &outcome.reports {
        assert_eq!(report_fingerprint(report), reference[*i], "scenario {i}");
    }
    let hours = |report: &airshed::core::RunReport| report.anatomy.expect("anatomy").hours;
    let ran = outcome.reports.iter().filter(|(_, r)| hours(r) > 0).count();
    let replayed = outcome
        .reports
        .iter()
        .filter(|(_, r)| hours(r) == 0)
        .count();
    assert_eq!((ran, replayed), (4, 8), "one numerics run per key");
    let routed: u64 = outcome.shards.iter().map(|(_, c)| c.routed).sum();
    let hits: u64 = outcome.shards.iter().map(|(_, c)| c.profile_hits).sum();
    assert_eq!((routed, hits), (12, 8), "{:?}", outcome.shards);
}

#[test]
fn fabric_runs_each_numerics_key_once_across_two_shards() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let shards = vec![shard_thread(addr, "a", None), shard_thread(addr, "b", None)];
    each_key_runs_once(shards, listener);
}

#[test]
fn concurrent_workers_of_one_shard_share_a_single_numerics_run() {
    // One shard, two workers: same-key jobs are in flight together, so
    // it is the store's single-flight path that keeps the count at one.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let shards = vec![shard_with_workers(addr, "solo", 2, None)];
    each_key_runs_once(shards, listener);
}

#[test]
fn a_fabric_prediction_is_the_family_model_on_the_jobs_own_machine() {
    // One key on two placements behind a one-worker shard: the second
    // job is dispatched after the first one's `Calibrated`, so the
    // router prices it — with the model of that profile on the job's
    // `config.machine`, whatever shard it lands on and in every run.
    let batch: Vec<_> = scenarios(2)
        .into_iter()
        .map(|(mut c, layout)| {
            c.emission_scale = 1.0;
            (c, layout)
        })
        .collect();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let shard = shard_thread(addr, "solo", None);
    let outcome = serve_batch(
        &listener,
        FrontendOptions {
            expect: 1,
            router: RouterConfig::default(),
            deadline: Some(Duration::from_secs(120)),
        },
        &batch,
        &Obs::off(),
    )
    .unwrap();
    shard.join().unwrap();
    assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);

    let never = AtomicBool::new(false);
    let (config, _) = &batch[1];
    let profile = run_hourly(
        config,
        None,
        &never,
        None,
        ExecSpec::serial(),
        &Obs::off(),
        None,
    )
    .unwrap();
    let model = PerfModel::from_profile(&profile);
    let plan = PlanLayouts::chem(batch[1].1);
    let per_hour = model.layout_cost(&config.machine, config.p, plan) / model.hours as f64;
    let predicted: HashMap<usize, Option<f64>> = outcome
        .reports
        .iter()
        .map(|(i, r)| (*i, r.predicted_seconds))
        .collect();
    assert_eq!(predicted[&0], None, "dispatched before any model existed");
    assert_eq!(predicted[&1], Some(per_hour * config.hours as f64));
}
