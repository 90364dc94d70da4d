//! Run reports — the rows the figure harness prints.

use crate::state::HourSummary;
use airshed_machine::accounting::{CommStepRecord, PhaseBreakdown, PhaseCategory};
use airshed_machine::Machine;
use serde::Serialize;
use std::fmt;

/// Where a fabric job's wall-clock time went, end to end — the
/// fields the frontend's router measures from its own clock plus the
/// shard-reported execute time. Carried on [`RunReport::anatomy`] for
/// fabric jobs and aggregated into fleet Prometheus histograms
/// (`airshed_fabric_job_stage_seconds`). Not part of the report
/// fingerprint: latency is host-dependent by nature.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct LatencyAnatomy {
    /// Submit → first dispatch (frontend clock, ms).
    pub queued_ms: u64,
    /// Shard-measured execute wall time summed over hours (µs).
    pub exec_us: u64,
    /// Accumulated one-way wire time of progress messages (µs),
    /// measured against the clock-offset estimate; 0 when untraced.
    pub wire_us: u64,
    /// One-way wire time of the final reply (µs); 0 when untraced.
    pub reply_us: u64,
    /// Submit → completion at the frontend (ms).
    pub end_to_end_ms: u64,
    /// Hours the shards reported progress for.
    pub hours: u32,
    /// Dispatch segments this job ran as (1 = a single uninterrupted
    /// assignment; each steal or failover adds one).
    pub segments: u32,
    /// Times the job was stolen from a backlog.
    pub stolen: u32,
    /// Times the job failed over after losing its shard.
    pub failed_over: u32,
}

/// Bytes the hour pipeline copied outside the kernels — the measured
/// side of the zero-copy roadmap item. `redist_local` counts
/// redistribution local copies (plan `bytes_copied` × executions),
/// `soa_staging` the chemistry SoA column staging (read + write-back),
/// `result_serialization` the per-hour surface snapshot. All
/// deterministic functions of grid shape and step count, so fabric and
/// local runs agree exactly; excluded from the report fingerprint
/// regardless.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct CopyBytes {
    pub redist_local: u64,
    pub soa_staging: u64,
    pub result_serialization: u64,
}

impl CopyBytes {
    /// Accumulate another hour's (or job's) worth of copies.
    pub fn add(&mut self, other: &CopyBytes) {
        self.redist_local += other.redist_local;
        self.soa_staging += other.soa_staging;
        self.result_serialization += other.result_serialization;
    }

    /// All counters together.
    pub fn total(&self) -> u64 {
        self.redist_local + self.soa_staging + self.result_serialization
    }
}

/// The outcome of one simulated run on the virtual machine.
#[derive(Debug, Clone, Serialize)]
pub struct RunReport {
    pub dataset: &'static str,
    pub machine: &'static str,
    pub p: usize,
    pub hours: usize,
    /// Total virtual execution time (seconds).
    pub total_seconds: f64,
    pub io_seconds: f64,
    pub transport_seconds: f64,
    pub chemistry_seconds: f64,
    pub communication_seconds: f64,
    pub popexp_seconds: f64,
    /// The machine's comm log as it recorded it: one row per
    /// redistribution label, in first-charged order (Figure 5 rows).
    pub comm_steps: Vec<CommStepRecord>,
    pub summaries: Vec<HourSummary>,
    /// Host execution backend that ran the kernels (e.g. `rayon(8)`);
    /// empty for replays, which never run the numerics.
    pub backend: String,
    /// What the performance model predicted `total_seconds` would be
    /// before the run, when a prediction was available (server jobs
    /// admitted through a calibrated [`crate::PerfModel`]).
    pub predicted_seconds: Option<f64>,
    /// The per-phase layouts the plan optimizer chose (its
    /// [`crate::PlanLayouts`] rendering), when this run executed an
    /// optimized plan rather than the paper default.
    pub plan_layouts: Option<String>,
    /// Predicted seconds the chosen plan saves over the default plan
    /// (`default - chosen`, >= 0), alongside [`RunReport::plan_layouts`].
    pub plan_delta_seconds: Option<f64>,
    /// Bytes of hourly input generation this run avoided by sharing the
    /// input stage with other ensemble members (`Some(0)` for the group
    /// leader that ran the stage, `None` for non-ensemble runs). See
    /// `crate::ensemble`.
    pub dedup_saved_bytes: Option<u64>,
    /// Wall-clock seconds of `inputhour`+`pretrans` this run avoided by
    /// the shared input stage, measured from the stage's actual
    /// duration; `None` for non-ensemble runs.
    pub dedup_saved_seconds: Option<f64>,
    /// Where this job's wall-clock time went across the fabric
    /// (queue, wire, execute, reply); `None` outside the fabric.
    pub anatomy: Option<LatencyAnatomy>,
    /// Bytes copied outside the kernels over the whole run; `None`
    /// when the run path predates copy accounting.
    pub copy_bytes: Option<CopyBytes>,
}

impl RunReport {
    /// Assemble a report from a finished virtual machine.
    pub fn from_machine(
        dataset: &'static str,
        machine: &Machine,
        hours: usize,
        summaries: Vec<HourSummary>,
    ) -> RunReport {
        let b: &PhaseBreakdown = &machine.breakdown;
        RunReport {
            dataset,
            machine: machine.profile.name,
            p: machine.p(),
            hours,
            total_seconds: machine.elapsed(),
            io_seconds: b.get(PhaseCategory::IoProc),
            transport_seconds: b.get(PhaseCategory::Transport),
            chemistry_seconds: b.get(PhaseCategory::Chemistry),
            communication_seconds: b.get(PhaseCategory::Communication),
            popexp_seconds: b.get(PhaseCategory::PopExp),
            backend: String::new(),
            predicted_seconds: None,
            plan_layouts: None,
            plan_delta_seconds: None,
            dedup_saved_bytes: None,
            dedup_saved_seconds: None,
            anatomy: None,
            copy_bytes: None,
            comm_steps: machine.comm_log.records().to_vec(),
            summaries,
        }
    }

    /// Seconds of one labelled communication step per occurrence: 0 for
    /// a label the run never charged, or charged no times.
    pub fn comm_per_step(&self, label: &str) -> f64 {
        match self.comm_steps.iter().find(|c| c.label == label) {
            Some(c) if c.count > 0 => c.total_seconds / c.count as f64,
            _ => 0.0,
        }
    }

    /// Peak surface ozone over the whole run (ppm) — the headline science
    /// number.
    pub fn peak_o3(&self) -> f64 {
        self.summaries.iter().map(|s| s.max_o3).fold(0.0, f64::max)
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} on {} (P={}, {}h): total {:.1}s",
            self.dataset, self.machine, self.p, self.hours, self.total_seconds
        )?;
        if !self.backend.is_empty() {
            writeln!(f, "  host backend: {}", self.backend)?;
        }
        if let Some(layouts) = &self.plan_layouts {
            let delta = self.plan_delta_seconds.unwrap_or(0.0);
            writeln!(f, "  plan: {layouts} (predicted saving {delta:.1}s)")?;
        }
        if let (Some(bytes), Some(seconds)) = (self.dedup_saved_bytes, self.dedup_saved_seconds) {
            if bytes > 0 || seconds > 0.0 {
                writeln!(
                    f,
                    "  ensemble dedup: shared input stage saved {:.1} MB and {:.3}s wall",
                    bytes as f64 / 1.0e6,
                    seconds
                )?;
            }
        }
        if let Some(a) = &self.anatomy {
            writeln!(
                f,
                "  latency: queued {}ms, exec {:.1}ms over {} hour(s), wire {}us, reply {}us, \
                 e2e {}ms ({} segment(s), {} stolen, {} failed over)",
                a.queued_ms,
                a.exec_us as f64 / 1000.0,
                a.hours,
                a.wire_us,
                a.reply_us,
                a.end_to_end_ms,
                a.segments,
                a.stolen,
                a.failed_over
            )?;
        }
        if let Some(c) = &self.copy_bytes {
            writeln!(
                f,
                "  copies: redist-local {:.2} MB, SoA staging {:.2} MB, result serialization {:.2} MB",
                c.redist_local as f64 / 1.0e6,
                c.soa_staging as f64 / 1.0e6,
                c.result_serialization as f64 / 1.0e6
            )?;
        }
        if let Some(predicted) = self.predicted_seconds {
            let rel = (self.total_seconds - predicted) / predicted.abs().max(1e-12);
            writeln!(
                f,
                "  predicted {:.1}s (actual {:+.1}% vs model)",
                predicted,
                rel * 100.0
            )?;
        }
        writeln!(
            f,
            "  chemistry {:.1}s | transport {:.1}s | I/O {:.1}s | comm {:.2}s | popexp {:.1}s",
            self.chemistry_seconds,
            self.transport_seconds,
            self.io_seconds,
            self.communication_seconds,
            self.popexp_seconds
        )?;
        for c in &self.comm_steps {
            writeln!(
                f,
                "  comm {}: {:.3}s total over {} steps ({:.2} ms/step)",
                c.label,
                c.total_seconds,
                c.count,
                1000.0 * self.comm_per_step(c.label)
            )?;
        }
        if let Some(last) = self.summaries.last() {
            writeln!(
                f,
                "  science: peak O3 {:.1} ppb, final-hour mean NOx {:.1} ppb",
                1000.0 * self.peak_o3(),
                1000.0 * last.mean_nox
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airshed_machine::cost::NodeCommLoad;
    use airshed_machine::MachineProfile;

    #[test]
    fn report_reads_machine_accounts() {
        let mut m = Machine::new(MachineProfile::t3e(), 4);
        // One second of chemistry on every node, then one redistribution.
        m.charge("chemistry", PhaseCategory::Chemistry, 1.0);
        let comm = m.profile.comm_phase_seconds(
            &[NodeCommLoad {
                msgs_sent: 3,
                bytes_sent: 1 << 20,
                ..Default::default()
            }; 4],
        );
        m.charge("D_Chem->D_Repl", PhaseCategory::Communication, comm);
        let r = RunReport::from_machine("LA", &m, 24, vec![]);
        assert!((r.chemistry_seconds - 1.0).abs() < 1e-9);
        assert!(r.communication_seconds > 0.0);
        assert_eq!(r.comm_steps.len(), 1);
        assert_eq!(r.comm_steps[0].count, 1);
        assert!((r.total_seconds - r.chemistry_seconds - r.communication_seconds).abs() < 1e-9);
    }

    #[test]
    fn comm_per_step_divides_and_display_prints_it() {
        let mut m = Machine::new(MachineProfile::t3e(), 4);
        m.charge("chemistry", PhaseCategory::Chemistry, 1.0);
        m.charge("D_Trans->D_Chem", PhaseCategory::Communication, 0.25);
        m.charge("D_Trans->D_Chem", PhaseCategory::Communication, 0.25);
        let mut r = RunReport::from_machine("LA", &m, 1, vec![]);
        assert_eq!(r.comm_per_step("D_Trans->D_Chem"), 0.25);
        assert_eq!(r.comm_per_step("D_Chem->D_Repl"), 0.0);
        let text = format!("{r}");
        assert!(text.contains("chemistry"));
        assert!(text.contains("comm D_Trans->D_Chem: 0.500s total over 2 steps (250.00 ms/step)"));
        // A row that never occurred costs nothing per step.
        r.comm_steps[0].count = 0;
        assert_eq!(r.comm_per_step("D_Trans->D_Chem"), 0.0);
    }
}
