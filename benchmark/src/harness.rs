//! What every workload shares: the thread budget, the round loop, check
//! accounting, and the metric records a run prints.

use crate::probe::{HostSpeed, Paced};
use crate::stats::{percentile, Summary};
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-run settings, fixed before set-up starts.
pub struct Ctx {
    /// Index of the named workload in `contract::WORKLOADS`.
    pub workload: u8,
    pub seed: u64,
    /// How long the timed part should run.
    pub seconds: f64,
    /// `T = min(nproc, 4)`: the only thread budget. Compute threads
    /// never exceed it; the load generator is the one client thread.
    pub threads: usize,
    /// Process start, the origin of `setup_s`.
    pub started: Instant,
}

pub fn thread_budget() -> usize {
    airshed::hpf::host::available_threads().min(4)
}

/// Run `round(i)` for `i = 0, 1, …` until `seconds` have passed, and at
/// least twice (so every metric has two units even in a smoke run). One
/// round runs one unit of each of the workload's metrics, so every
/// metric's samples are interleaved across the whole run. A round is not
/// started when half of a typical one no longer fits.
pub fn run_rounds(seconds: f64, mut round: impl FnMut(usize)) {
    const MIN_ROUNDS: usize = 2;
    let start = Instant::now();
    let mut done = 0;
    loop {
        round(done);
        done += 1;
        let elapsed = start.elapsed().as_secs_f64();
        let typical = elapsed / done as f64;
        if done >= MIN_ROUNDS && elapsed + 0.5 * typical >= seconds {
            return;
        }
    }
}

/// `setup_s`, called when set-up ends: process start to now, without the
/// probe's share, the pieces of set-up that ran under the probe counted
/// at the nominal host speed.
pub fn setup_s(ctx: &Ctx, host: &HostSpeed) -> f64 {
    host.at_nominal(ctx.started.elapsed().as_secs_f64())
}

/// The families of checks. The first one that fails in a run decides the
/// exit code (see [`Checks::exit_code`]): a driver that reports nothing
/// but the code still says where to look.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// An operation returned an error, was refused or never completed.
    Operation = 1,
    /// An output differs from its reference: a fingerprint, checkpoint
    /// bytes, or a state outside its tolerance.
    Output = 2,
    /// A count is off: reports, routed jobs, cache misses, input runs,
    /// the server's books.
    Count = 3,
    /// A what-if query was answered by the wrong tier.
    Tier = 4,
    /// A per-layer metric is missing or not finite.
    Layer = 5,
}

/// Operations attempted and failed. Errors, rejections and failed output
/// checks all count as failures of the operation they belong to.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
    /// Index in `contract::WORKLOADS` of the suite now running (the
    /// traced pass runs all four).
    pub suite: u8,
    first_failure: Option<(u8, Kind)>,
}

impl Checks {
    pub fn in_suite(suite: u8) -> Checks {
        Checks {
            suite,
            ..Checks::default()
        }
    }

    /// Count `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Count one failure; the first few are kept for the report.
    pub fn fail(&mut self, kind: Kind, message: impl FnOnce() -> String) {
        self.failed += 1;
        self.first_failure.get_or_insert((self.suite, kind));
        if self.messages.len() < 8 {
            self.messages.push(message());
        }
    }

    /// Count a failure unless `ok`.
    pub fn require(&mut self, kind: Kind, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.fail(kind, message);
        }
    }

    /// The fingerprint check every workload leans on: an output must be
    /// bit-for-bit the reference.
    pub fn same_fingerprint(&mut self, what: &str, got: &str, want: &str) {
        self.require(Kind::Output, got == want, || {
            format!("{what}: fingerprint differs from the reference\n  got  {got}\n  want {want}")
        });
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// 0 when nothing failed, else `10 * (suite + 1) + kind` of the first
    /// failure: 11–15 `la_episode`, 21–25 `server_replay`, 31–35
    /// `fabric_families`, 41–45 `ensemble_whatif`.
    pub fn exit_code(&self) -> u8 {
        self.first_failure
            .map_or(0, |(suite, kind)| 10 * (suite + 1) + kind as u8)
    }
}

/// Which way a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric of one run: the quartile that is reported and
/// the distribution it came from.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Of the samples as measured: the lower quartile of a time, the
    /// upper quartile of a rate.
    pub value: f64,
    pub summary: Summary,
    /// The unit samples in the order they were taken, kept in the result
    /// file so other estimators can be tried on a finished run.
    pub samples: Vec<f64>,
    /// The samples at the nominal host speed, each unit held against the
    /// probe readings around it; empty where the probe does not apply.
    pub nominal_samples: Vec<f64>,
}

impl Metric {
    fn new(name: &'static str, unit: &'static str, better: Better, samples: &[f64]) -> Metric {
        let summary = Summary::of(samples);
        Metric {
            name,
            unit,
            better,
            value: match better {
                Better::Lower => summary.lower,
                Better::Higher => summary.upper,
            },
            summary,
            samples: samples.to_vec(),
            nominal_samples: Vec::new(),
        }
    }

    /// A time-like metric: the lower quartile over its units.
    pub fn time(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
        Metric::new(name, unit, Better::Lower, samples)
    }

    /// A rate: the upper quartile over its units.
    pub fn rate(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
        Metric::new(name, unit, Better::Higher, samples)
    }

    /// A time of one thread's microsecond-scale operations, sampled in
    /// many short batches: the 5th percentile over the batches. The
    /// host's slow spells reach such a batch or miss it, so they change
    /// how many batches are slow and not how fast the fastest are.
    pub fn fastest(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
        Metric {
            value: percentile(samples, 0.05),
            ..Metric::new(name, unit, Better::Lower, samples)
        }
    }

    /// The same units at the nominal host speed.
    pub fn at_nominal(mut self, samples: Vec<f64>) -> Metric {
        self.nominal_samples = samples;
        self
    }

    /// A time that is `scale` × the wall of each paced unit.
    pub fn time_paced(
        name: &'static str,
        unit: &'static str,
        units: &[Paced],
        scale: f64,
    ) -> Metric {
        let walls: Vec<f64> = units.iter().map(|p| p.wall_s * scale).collect();
        Metric::time(name, unit, &walls)
            .at_nominal(units.iter().map(|p| p.nominal_s() * scale).collect())
    }

    /// A rate of `ops` operations per paced unit.
    pub fn rate_paced(name: &'static str, unit: &'static str, units: &[Paced], ops: f64) -> Metric {
        let rates: Vec<f64> = units.iter().map(|p| ops / p.wall_s).collect();
        Metric::rate(name, unit, &rates)
            .at_nominal(units.iter().map(|p| ops / p.nominal_s()).collect())
    }

    /// What `BENCHMARK.json` gets: the median of the units at nominal host
    /// speed where the probe applies, the quartile as measured elsewhere.
    /// A quartile dodges the host's bursts; a ratio to the probe has the
    /// probe's noise on both sides, and its median is the steadier.
    pub fn contract_value(&self) -> f64 {
        if self.nominal_samples.is_empty() {
            self.value
        } else {
            percentile(&self.nominal_samples, 0.5)
        }
    }
}

/// The three roles every workload's own metrics fill in the contract's
/// end-to-end list (see `benchmark/README.md`): each names one of the
/// workload's metrics and the factor that turns its unit into the
/// contract's.
pub struct Roles {
    /// `work_rate_per_s`, operations per second.
    pub rate: &'static str,
    /// `primary_latency_s` and the factor from the metric's unit to s.
    pub primary: (&'static str, f64),
    /// `contrast_latency_s` and the factor from the metric's unit to s.
    pub contrast: (&'static str, f64),
}

/// What an untraced workload run hands back.
pub struct Outcome {
    /// Process start to the first timed unit, without the probe's share,
    /// at the nominal host speed.
    pub setup_s: f64,
    /// The host-speed probe's readings, taken around the units.
    pub host: HostSpeed,
    pub metrics: Vec<Metric>,
    pub roles: Roles,
    pub checks: Checks,
}

impl Outcome {
    pub fn metric(&self, name: &str) -> &Metric {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("workload reports no metric {name}"))
    }
}

/// Per-layer metrics of the traced pass, by name.
#[derive(Default)]
pub struct Layers(pub BTreeMap<String, f64>);

impl Layers {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }
}

/// Wall of the same unit with and without spans around its calls; the
/// difference is what tracing costs.
pub struct TracedVsUntraced {
    pub traced_s: f64,
    pub untraced_s: f64,
}

impl TracedVsUntraced {
    pub fn overhead_frac(&self) -> f64 {
        (self.traced_s - self.untraced_s) / self.untraced_s
    }
}

/// Lower quartile of `reps` timings (seconds) of `f`, after one untimed
/// warm-up call.
pub fn time_lower_quartile<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f());
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    Summary::of(&samples).lower
}

/// `VmHWM` (peak resident set) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_fingerprint_counts_as_a_failure() {
        let mut checks = Checks::default();
        checks.attempt(4);
        checks.same_fingerprint("unit 0", "LA|T3E|p16|h1|3ff0", "LA|T3E|p16|h1|3ff0");
        assert_eq!((checks.failed, checks.failed_frac()), (0, 0.0));
        assert_eq!(checks.exit_code(), 0);
        checks.suite = 2;
        checks.same_fingerprint("unit 1", "LA|T3E|p16|h1|3ff1", "LA|T3E|p16|h1|3ff0");
        checks.fail(Kind::Count, || {
            "later failures do not change the code".to_string()
        });
        assert_eq!(checks.failed, 2);
        assert_eq!(checks.failed_frac(), 0.5);
        assert_eq!(checks.exit_code(), 32);
        assert!(checks.messages[0].contains("unit 1"));
    }

    #[test]
    fn rounds_run_at_least_twice_and_stop_on_time() {
        let mut seen = Vec::new();
        run_rounds(0.0, |i| seen.push(i));
        assert_eq!(seen, vec![0, 1]);
        let start = Instant::now();
        let mut n = 0;
        run_rounds(0.2, |_| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            n += 1;
        });
        assert!(n >= 5, "{n} rounds");
        assert!(start.elapsed().as_secs_f64() < 1.0);
    }

    #[test]
    fn time_metrics_report_the_lower_quartile_and_rates_the_upper() {
        let samples = [1.0, 2.0, 3.0, 4.0, 5.0];
        let time = Metric::time("t", "s", &samples);
        assert_eq!((time.value, time.contract_value()), (2.0, 2.0));
        assert_eq!(Metric::rate("r", "1/s", &samples).value, 4.0);
        assert_eq!(Metric::fastest("f", "us", &samples).value, 1.2);
        // With the probe, the contract gets the median at nominal speed.
        let paced = time.at_nominal(vec![0.5, 1.0, 1.5, 2.0, 2.5]);
        assert_eq!((paced.value, paced.contract_value()), (2.0, 1.5));
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mb() > 1.0);
    }
}
