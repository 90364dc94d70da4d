//! Metrics registry: lock-free counters plus latency histograms,
//! snapshot-able as a plain struct, printable as a text report, and
//! renderable as a Prometheus text-format section.
//!
//! The registry is one [`metrics!`](airshed_core::metrics) list: each
//! counter, gauge and histogram is a row under the Prometheus family it
//! is exported in, and the registry of atomics ([`Metrics`]), its
//! snapshot ([`MetricsSnapshot`]), `snapshot()` and the exported
//! section all come from that list. The final snapshot is published
//! into the run's obs collector when the server's shared state drops
//! (see `Shared` in the crate root), which makes the registry
//! drain-safe: a server that is dropped without an explicit
//! `shutdown()` still flushes its counters to the `--metrics-out`
//! export.
//!
//! The registry is the observability contract of the scenario service:
//! every job submitted to the server is accounted for in exactly one of
//! the terminal counters, so a drained server must satisfy
//!
//! ```text
//! submitted = completed + rejected + cancelled (+ failed)
//! ```
//!
//! which [`MetricsSnapshot::reconciles`] checks (a non-drained snapshot
//! carries the remainder in `in_flight`).

use airshed_core::driver::{HourPlans, PlanMemoStats};
pub use airshed_core::obs::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use std::fmt;

airshed_core::metrics! {
    /// The scenario service's metrics registry.
    pub struct Metrics;

    /// A point-in-time copy of the whole registry — a plain struct, so it
    /// can be asserted on in tests and serialised by harnesses.
    #[derive(Debug, Clone)]
    pub struct MetricsSnapshot {
        /// The plan memo behind every replay and layout search
        /// (`HourPlans::shared`). It is the *process's*, not this server's:
        /// a plan set depends on nothing a server owns, so servers sharing a
        /// process share the sets and report the same three numbers.
        pub plans: PlanMemoStats = HourPlans::memo_stats(),
    }

    // Flow counters. `submitted` counts every submit attempt; each
    // attempt ends in exactly one of the other flow counters.
    counter "airshed_server_submitted_total" "Submit attempts." { submitted: Counter }
    counter "airshed_server_completed_total" "Jobs completed." { completed: Counter }
    counter "airshed_server_rejected_admission_total" "Jobs rejected by admission control." {
        rejected_admission: Counter
    }
    counter "airshed_server_rejected_queue_full_total" "Jobs rejected by queue backpressure." {
        rejected_queue_full: Counter
    }
    counter "airshed_server_cancelled_total" "Jobs cancelled." { cancelled: Counter }
    counter "airshed_server_deadline_expired_total" "Jobs expired at an hour boundary." {
        deadline_expired: Counter
    }
    counter "airshed_server_failed_total" "Jobs that panicked." { failed: Counter }
    gauge "airshed_server_in_flight" "Jobs accepted but not finished." { in_flight: Gauge }
    gauge "airshed_server_queue_depth" "Jobs waiting in the queue." { queue_depth: Gauge }

    // Cache observability. A profile miss is a numerics run, exactly:
    // a job that waited on another job's run of its key is a hit, and
    // is also counted in `profile_coalesced`.
    counter "airshed_server_cache_events_total" "Cache hits and misses by cache and outcome." {
        profile_cache_hits: Counter {cache = "profile", outcome = "hit"},
        profile_cache_misses: Counter {cache = "profile", outcome = "miss"},
        result_cache_hits: Counter {cache = "result", outcome = "hit"},
        result_cache_misses: Counter {cache = "result", outcome = "miss"},
        placement_hits: Counter {cache = "placement", outcome = "hit"},
        placement_misses: Counter {cache = "placement", outcome = "miss"},
        plans.hits {cache = "plan", outcome = "hit"},
        plans.misses {cache = "plan", outcome = "miss"},
    }
    gauge "airshed_server_cache_entries"
        "Entries resident in a cache (this server's placement memo, the process-wide plan memo)." {
        placement_entries: Gauge {cache = "placement"},
        plans.entries {cache = "plan"},
    }
    counter "airshed_server_profile_coalesced_total"
        "Profile-cache hits that waited on another job's numerics run." {
        profile_coalesced: Counter
    }

    // Ensemble + surrogate tier. These count *sweep* work and what-if
    // answers, not queue jobs, so they stay outside the job-flow
    // reconciliation above.
    counter "airshed_server_ensemble_members_total" "Ensemble members run through sweeps." {
        ensemble_members: Counter
    }
    counter "airshed_server_ensemble_input_hours_shared_total"
        "Member-hours whose input stage was deduplicated." {
        ensemble_input_hours_shared: Counter
    }
    counter "airshed_server_ensemble_saved_bytes_total"
        "Input-generation bytes avoided by the shared input stage." {
        ensemble_saved_bytes: Counter
    }
    counter "airshed_server_surrogate_answers_total"
        "What-if answers by tier (surrogate hit vs exact fallback)." {
        surrogate_hits: Counter {tier = "hit"},
        surrogate_misses: Counter {tier = "miss"},
    }

    // Latency histograms per job phase.
    histogram "airshed_server_job_seconds"
        "Job latency by stage (queue wait, service, end-to-end)." {
        queue_wait: Histogram {stage = "queue_wait"},
        service: Histogram {stage = "service"},
        latency: Histogram {stage = "latency"},
    }
}

impl MetricsSnapshot {
    /// Total rejections (admission + backpressure).
    pub fn rejected(&self) -> u64 {
        self.rejected_admission + self.rejected_queue_full
    }

    /// Total jobs that were accepted but did not complete (user
    /// cancellation + deadline expiry).
    pub fn cancelled_total(&self) -> u64 {
        self.cancelled + self.deadline_expired
    }

    /// Total what-if answers served (surrogate hits + exact fallbacks).
    pub fn surrogate_answers(&self) -> u64 {
        self.surrogate_hits + self.surrogate_misses
    }

    /// Fraction of what-if queries that fell back to exact simulation
    /// (0.0 when none have been served).
    pub fn surrogate_fallback_rate(&self) -> f64 {
        let total = self.surrogate_answers();
        if total == 0 {
            0.0
        } else {
            self.surrogate_misses as f64 / total as f64
        }
    }

    /// The accounting invariant: every submitted job is completed,
    /// rejected, cancelled, failed, or still in flight.
    pub fn reconciles(&self) -> bool {
        self.submitted as i64
            == (self.completed + self.rejected() + self.cancelled_total() + self.failed) as i64
                + self.in_flight
    }

    /// Render the snapshot in Prometheus text exposition format, one
    /// family per declared row group.
    pub fn to_prometheus(&self) -> String {
        airshed_core::obs::prom::render(Self::FAMILIES, self)
    }
}

fn fmt_hist(f: &mut fmt::Formatter<'_>, name: &str, h: &HistogramSnapshot) -> fmt::Result {
    writeln!(
        f,
        "  {name:<12} n={:<6} mean={:>9.1}us p50<{:>8}us p99<{:>8}us max={:>8}us",
        h.count,
        h.mean_micros(),
        h.quantile_micros(0.50),
        h.quantile_micros(0.99),
        h.max_micros
    )
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "scenario-service metrics")?;
        writeln!(
            f,
            "  submitted {} = completed {} + rejected {} (admission {}, queue-full {}) \
             + cancelled {} (deadline {}) + failed {} + in-flight {}  [{}]",
            self.submitted,
            self.completed,
            self.rejected(),
            self.rejected_admission,
            self.rejected_queue_full,
            self.cancelled_total(),
            self.deadline_expired,
            self.failed,
            self.in_flight,
            if self.reconciles() {
                "reconciled"
            } else {
                "NOT RECONCILED"
            }
        )?;
        writeln!(
            f,
            "  profile cache: {} hits ({} coalesced) / {} misses; result cache: {} hits / {} misses",
            self.profile_cache_hits,
            self.profile_coalesced,
            self.profile_cache_misses,
            self.result_cache_hits,
            self.result_cache_misses
        )?;
        writeln!(
            f,
            "  plan memo (process-wide): {} hits / {} misses, {} plan sets resident",
            self.plans.hits, self.plans.misses, self.plans.entries
        )?;
        if self.ensemble_members > 0 || self.surrogate_answers() > 0 {
            writeln!(
                f,
                "  ensemble: {} members, {} input-hours shared ({} bytes saved); \
                 surrogate: {} hits / {} exact fallbacks ({:.0}% fallback)",
                self.ensemble_members,
                self.ensemble_input_hours_shared,
                self.ensemble_saved_bytes,
                self.surrogate_hits,
                self.surrogate_misses,
                100.0 * self.surrogate_fallback_rate()
            )?;
        }
        fmt_hist(f, "queue-wait", &self.queue_wait)?;
        fmt_hist(f, "service", &self.service)?;
        fmt_hist(f, "latency", &self.latency)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reconciles() {
        let m = Metrics::new();
        m.submitted.add(10);
        m.completed.add(6);
        m.rejected_admission.inc();
        m.rejected_queue_full.inc();
        m.cancelled.inc();
        m.deadline_expired.inc();
        let s = m.snapshot();
        assert!(s.reconciles(), "{s}");
        m.submitted.inc();
        assert!(!m.snapshot().reconciles());
        m.in_flight.inc();
        assert!(m.snapshot().reconciles());
    }

    #[test]
    fn report_mentions_the_reconciliation() {
        let m = Metrics::new();
        m.submitted.add(2);
        m.completed.add(2);
        m.result_cache_hits.inc();
        let text = format!("{}", m.snapshot());
        assert!(text.contains("reconciled"));
        assert!(text.contains("result cache: 1 hits"));
    }

    #[test]
    fn prometheus_rendering_carries_the_counts() {
        let m = Metrics::new();
        m.submitted.add(5);
        m.completed.add(3);
        m.cancelled.add(2);
        m.queue_depth.add(4);
        m.result_cache_hits.inc();
        m.service.record(std::time::Duration::from_micros(100));
        let text = m.snapshot().to_prometheus();
        assert!(text.contains("# TYPE airshed_server_submitted_total counter"));
        assert!(text.contains("airshed_server_submitted_total 5"));
        assert!(text.contains("airshed_server_completed_total 3"));
        assert!(text.contains("airshed_server_queue_depth 4"));
        assert!(
            text.contains("airshed_server_cache_events_total{cache=\"result\",outcome=\"hit\"} 1")
        );
        for row in [
            "airshed_server_cache_events_total{cache=\"plan\",outcome=\"hit\"} ",
            "airshed_server_cache_events_total{cache=\"plan\",outcome=\"miss\"} ",
            "airshed_server_cache_entries{cache=\"plan\"} ",
        ] {
            assert!(text.contains(row), "no {row} in {text}");
        }
        assert!(text.contains("airshed_server_job_seconds_count{stage=\"service\"} 1"));
        assert!(text.contains("airshed_server_job_seconds_bucket{stage=\"service\",le=\"+Inf\"} 1"));
    }

    #[test]
    fn ensemble_counters_render_without_touching_reconciliation() {
        let m = Metrics::new();
        m.ensemble_members.add(16);
        m.ensemble_input_hours_shared.add(45);
        m.ensemble_saved_bytes.add(1_000_000);
        m.surrogate_hits.add(3);
        m.surrogate_misses.inc();
        let s = m.snapshot();
        // Sweep/what-if work is not job flow: zero submits still reconcile.
        assert!(s.reconciles(), "{s}");
        assert_eq!(s.surrogate_answers(), 4);
        assert!((s.surrogate_fallback_rate() - 0.25).abs() < 1e-12);
        let prom = s.to_prometheus();
        assert!(prom.contains("airshed_server_ensemble_members_total 16"));
        assert!(prom.contains("airshed_server_ensemble_input_hours_shared_total 45"));
        assert!(prom.contains("airshed_server_ensemble_saved_bytes_total 1000000"));
        assert!(prom.contains("airshed_server_surrogate_answers_total{tier=\"hit\"} 3"));
        assert!(prom.contains("airshed_server_surrogate_answers_total{tier=\"miss\"} 1"));
        let text = format!("{s}");
        assert!(text.contains("16 members"));
        assert!(text.contains("25% fallback"));
    }
}
