//! Ensemble fan-out across the shard fabric: members the response
//! surface can answer are served from the surrogate tier without ever
//! being routed; the rest fan out through `serve_batch` and keep its
//! guarantees — load balancing, mid-sweep shard-loss failover, and
//! bit-identity with single-process runs.

use airshed::core::config::SimConfig;
use airshed::core::ensemble::{run_ensemble, EnsembleJob};
use airshed::core::plan::replay_profile;
use airshed::core::surrogate::ResponseSurface;
use airshed::core::{ExecSpec, Obs};
use airshed::fabric::{
    report_fingerprint, run_shard, serve_ensemble, FaultPlan, FrontendOptions, RouterConfig,
    ShardOptions,
};
use airshed::server::worker::run_hourly;
use std::net::TcpListener;
use std::sync::atomic::AtomicBool;
use std::time::Duration;

fn base() -> SimConfig {
    let mut c = SimConfig::test_tiny(4, 2);
    c.dataset = airshed::core::config::DatasetChoice::Tiny(40);
    c.start_hour = 7;
    c
}

fn shard_thread(
    addr: std::net::SocketAddr,
    name: &str,
    drop_after_hours: Option<u64>,
) -> std::thread::JoinHandle<()> {
    let name = name.to_string();
    std::thread::spawn(move || {
        let result = run_shard(
            ShardOptions {
                connect: addr.to_string(),
                name,
                workers: 1,
                exec: ExecSpec::serial(),
                heartbeat_ms: 50,
                die_after_hours: None,
                drop_after_hours,
                fault: FaultPlan::none(),
            },
            &Obs::off(),
        );
        assert!(result.is_ok(), "shard failed: {result:?}");
    })
}

#[test]
fn ensemble_fans_out_with_surrogate_pruning_and_survives_a_shard_loss() {
    // Tier 0: a local sweep fits the response surface over [0.8, 1.2].
    let trained = run_ensemble(
        &EnsembleJob::emission_sweep(base(), &[0.8, 1.0, 1.2]),
        ExecSpec::serial(),
        &Obs::off(),
        true,
    );
    let surface = ResponseSurface::from_ensemble(&trained).unwrap();

    // The fabric job: two members inside the trained range (surrogate
    // hits, never routed) and four outside it (routed to shards).
    let job = EnsembleJob::emission_sweep(base(), &[0.9, 1.1, 1.6, 2.0, 2.4, 2.8]);

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    // Shard "doomed" severs after one completed hour — mid-sweep, with
    // its 2-hour member in flight, forcing a checkpoint failover.
    let shards = [
        shard_thread(addr, "doomed", Some(1)),
        shard_thread(addr, "survivor", None),
    ];

    let outcome = serve_ensemble(
        &listener,
        FrontendOptions {
            expect: 2,
            router: RouterConfig {
                heartbeat_timeout_ms: 1000,
            },
            deadline: Some(Duration::from_secs(120)),
        },
        &job,
        Some(&surface),
        surface.error_bound() * 2.0 + 1e-12,
        &Obs::off(),
    )
    .unwrap();
    for handle in shards {
        handle.join().unwrap();
    }

    // The in-range members were answered by the surrogate tier with the
    // surface's own prediction, and never touched the fabric.
    assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
    assert_eq!(outcome.surrogate_answers.len(), 2);
    for (i, field, bound) in &outcome.surrogate_answers {
        assert!(*i < 2, "only the in-range members may hit the surrogate");
        assert!(*bound <= surface.error_bound() * 2.0 + 1e-12);
        let expected = surface.predict(job.member_config(*i).emission_scale);
        assert_eq!(field.len(), expected.len());
        for (a, b) in field.iter().zip(&expected) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    // The out-of-range members all completed on the fabric despite the
    // shard loss, bit-identical to single-process runs.
    assert_eq!(outcome.reports.len(), 4, "no routed member may be lost");
    let failed_over: u64 = outcome.shards.iter().map(|(_, c)| c.failed_over).sum();
    assert!(
        failed_over > 0,
        "the dropped shard's members must fail over: {:?}",
        outcome.shards
    );
    let never = AtomicBool::new(false);
    for (i, report) in &outcome.reports {
        assert!(*i >= 2, "in-range members must not be routed");
        let config = job.member_config(*i);
        let profile = run_hourly(
            &config,
            None,
            &never,
            None,
            ExecSpec::serial(),
            &Obs::off(),
            None,
        )
        .unwrap();
        let reference = replay_profile(&profile, config.machine, config.p, Default::default());
        assert_eq!(
            report_fingerprint(report),
            report_fingerprint(&reference),
            "member {i} diverged from its single-process run"
        );
    }
    assert!(outcome
        .prometheus
        .contains("airshed_fabric_shard_up{shard=\"doomed\"} 0"));
}
