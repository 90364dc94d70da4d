//! Stress: many clients hammering one server through a deliberately
//! tight queue. Checks the identity and accounting guarantees: no job id
//! is lost or duplicated, every accepted job reaches exactly one terminal
//! state, and the metrics reconcile with the clients' own books.

use airshed_core::config::SimConfig;
use airshed_core::obs::{Obs, SpanSink};
use airshed_server::{JobError, ScenarioRequest, ScenarioServer, ServerConfig, SubmitOutcome};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

const CLIENTS: usize = 8;
const JOBS_PER_CLIENT: usize = 16;

/// Value of a sample line `name value` or `name{labels} value` in a
/// Prometheus text document.
fn prom_value(text: &str, series: &str) -> Option<f64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(series)?;
        let rest = rest.strip_prefix(' ')?;
        rest.trim().parse().ok()
    })
}

#[test]
fn stress_unique_job_ids_and_reconciled_metrics() {
    let sink = Arc::new(SpanSink::new());
    let server = ScenarioServer::start(ServerConfig {
        workers: 4,
        // Far below the offered load, so QueueFull backpressure fires
        // and the retry path is exercised for real.
        queue_capacity: 4,
        obs: Obs::new(Arc::clone(&sink)),
        ..Default::default()
    });

    // (accepted ids, completed, cancelled) per client.
    let per_client: Vec<(Vec<u64>, u64, u64)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let server = &server;
                scope.spawn(move || {
                    let mut ids = Vec::new();
                    let mut handles = Vec::new();
                    for j in 0..JOBS_PER_CLIENT {
                        let mut config = SimConfig::test_tiny(4, 1);
                        config.start_hour = 12;
                        // Eight distinct numerics families shared across
                        // clients: plenty of duplicates for the caches.
                        config.emission_scale = 1.0 - 0.1 * ((client + j) % 8) as f64;
                        let request = ScenarioRequest::new(config);
                        let handle = loop {
                            match server.submit(request.clone()) {
                                SubmitOutcome::Submitted(h) => break h,
                                SubmitOutcome::QueueFull => {
                                    std::thread::sleep(Duration::from_millis(1))
                                }
                                SubmitOutcome::Rejected { .. } => {
                                    panic!("no budget configured, nothing may be rejected")
                                }
                                SubmitOutcome::ShuttingDown => {
                                    panic!("server must not shut down mid-test")
                                }
                            }
                        };
                        ids.push(handle.id().0);
                        if j % 5 == 4 {
                            // Race a cancellation against the worker; either
                            // outcome is legal, the books must still balance.
                            handle.cancel();
                        }
                        handles.push(handle);
                    }
                    let (mut completed, mut cancelled) = (0u64, 0u64);
                    for handle in handles {
                        match handle.wait() {
                            Ok(report) => {
                                assert!(report.total_seconds > 0.0);
                                completed += 1;
                            }
                            Err(JobError::Cancelled { .. }) => cancelled += 1,
                            Err(other) => panic!("unexpected job error: {other}"),
                        }
                    }
                    (ids, completed, cancelled)
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().unwrap()).collect()
    });

    let mut all_ids = Vec::new();
    let (mut completed, mut cancelled) = (0u64, 0u64);
    for (ids, c, x) in per_client {
        all_ids.extend(ids);
        completed += c;
        cancelled += x;
    }
    let accepted = (CLIENTS * JOBS_PER_CLIENT) as u64;
    assert_eq!(
        all_ids.len() as u64,
        accepted,
        "every job was accepted once"
    );
    let unique: HashSet<u64> = all_ids.iter().copied().collect();
    assert_eq!(
        unique.len(),
        all_ids.len(),
        "job ids must be unique across clients"
    );

    let metrics = server.shutdown();
    assert!(metrics.reconciles(), "metrics must reconcile:\n{metrics}");
    assert_eq!(metrics.in_flight, 0, "drained server has nothing in flight");
    assert_eq!(
        metrics.completed, completed,
        "server and client books agree"
    );
    assert_eq!(metrics.cancelled, cancelled);
    assert_eq!(metrics.deadline_expired, 0);
    assert_eq!(metrics.failed, 0);
    assert_eq!(metrics.completed + metrics.cancelled, accepted);
    assert_eq!(
        metrics.submitted,
        accepted + metrics.rejected_queue_full,
        "every submit attempt is either accepted or pushed back"
    );
    assert!(
        metrics.rejected_queue_full > 0,
        "a capacity-4 queue under {accepted} rapid submissions must push back"
    );
    assert!(
        metrics.profile_cache_hits + metrics.result_cache_hits > 0,
        "duplicate scenarios must reuse cached work"
    );

    // Prometheus parity: the exported text snapshot must carry exactly
    // the job and cache counts the registry snapshot reports.
    let text = sink.prometheus();
    let parity: [(&str, u64); 8] = [
        ("airshed_server_submitted_total", metrics.submitted),
        ("airshed_server_completed_total", metrics.completed),
        ("airshed_server_cancelled_total", metrics.cancelled),
        (
            "airshed_server_rejected_queue_full_total",
            metrics.rejected_queue_full,
        ),
        (
            "airshed_server_cache_events_total{cache=\"profile\",outcome=\"hit\"}",
            metrics.profile_cache_hits,
        ),
        (
            "airshed_server_cache_events_total{cache=\"profile\",outcome=\"miss\"}",
            metrics.profile_cache_misses,
        ),
        (
            "airshed_server_cache_events_total{cache=\"result\",outcome=\"hit\"}",
            metrics.result_cache_hits,
        ),
        (
            "airshed_server_cache_events_total{cache=\"result\",outcome=\"miss\"}",
            metrics.result_cache_misses,
        ),
    ];
    for (series, want) in parity {
        let got = prom_value(&text, series)
            .unwrap_or_else(|| panic!("series {series} missing from export"));
        assert_eq!(got, want as f64, "{series}");
    }
    assert_eq!(
        prom_value(&text, "airshed_server_job_seconds_count{stage=\"service\"}"),
        Some(metrics.service.count as f64),
        "service histogram count"
    );
    // The worker-lane spans made it into the same export.
    assert!(
        sink.events().iter().any(|e| e.name == "job"),
        "job lifecycle spans recorded"
    );
}
