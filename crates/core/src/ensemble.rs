//! Ensemble sweeps with shared-input deduplication — the paper's
//! operational end-game: many perturbed runs of the same episode,
//! submitted as one job.
//!
//! An [`EnsembleJob`] is a base [`SimConfig`] plus a list of
//! [`MemberSpec`] perturbations. Three perturbation axes are supported,
//! matching the knobs the model already exposes:
//!
//! * **emission scaling** — the policy knob ([`SimConfig::emission_scale`]);
//! * **meteorology** — the synoptic weather regime
//!   ([`Weather::Ventilated`] vs [`Weather::Stagnation`]);
//! * **episode day** — multi-day batches: day `d` starts at
//!   `base.start_hour + 24·d` (the input generator is periodic in
//!   hour-of-day, so day offsets reuse the same diurnal machinery).
//!
//! The point of running members *together* rather than as independent
//! jobs is the shared input stage. `inputhour` and `pretrans` depend
//! only on the weather regime and the simulated hour — emissions enter
//! the model later, in the chemistry phase — so members that share
//! `(weather, start hour)` share the hourly input bundle and the
//! assembled transport operators bit for bit. [`run_ensemble`]
//! groups members by that key ([`EnsembleJob::input_groups`]), runs the
//! input stage **once per group per hour**, and forks only the
//! perturbed fields per member. The savings are measured (bytes of
//! input generation avoided, wall seconds of input+pretrans avoided)
//! and reported in each member's [`RunReport`] and in a Prometheus
//! section published through the [`Obs`] handle.
//!
//! Deduplication never changes results: a member's report and profile
//! are bit-identical to a standalone run of
//! [`EnsembleJob::member_config`] for that member (the generator is
//! deterministic in the hour; pinned by `tests/ensemble_identity.rs`).
//!
//! ```
//! use airshed_core::config::SimConfig;
//! use airshed_core::ensemble::EnsembleJob;
//!
//! // Four emission-control scenarios over one 6 h episode.
//! let mut base = SimConfig::test_tiny(4, 6);
//! base.start_hour = 7;
//! let job = EnsembleJob::emission_sweep(base, &[1.0, 0.8, 0.6, 0.4]);
//! assert_eq!(job.len(), 4);
//! // All four share the weather and start hour, so one input group:
//! // the input stage will run once per hour instead of four times.
//! assert_eq!(job.input_groups().len(), 1);
//! // Every member is an ordinary SimConfig, runnable standalone.
//! assert_eq!(job.member_config(3).emission_scale, 0.4);
//! ```

use crate::backend::ExecSpec;
use crate::config::{SimConfig, Weather};
use crate::driver::Episode;
use crate::obs::Obs;
use crate::profile::WorkProfile;
use crate::report::RunReport;
use std::time::Instant;

/// One ensemble member: a perturbation of the base scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemberSpec {
    /// Multiplier on every anthropogenic emission source.
    pub emission_scale: f64,
    /// Synoptic weather regime for this member.
    pub weather: Weather,
    /// Episode day offset: the member simulates the same clock hours
    /// `day` days later (`start_hour += 24 * day`).
    pub day: usize,
}

impl Default for MemberSpec {
    fn default() -> MemberSpec {
        MemberSpec {
            emission_scale: 1.0,
            weather: Weather::Ventilated,
            day: 0,
        }
    }
}

impl MemberSpec {
    /// An emission-control member: everything from the base except the
    /// source scaling.
    pub fn emissions(scale: f64) -> MemberSpec {
        MemberSpec {
            emission_scale: scale,
            ..MemberSpec::default()
        }
    }

    /// A meteorology-perturbation member.
    pub fn weather(weather: Weather) -> MemberSpec {
        MemberSpec {
            weather,
            ..MemberSpec::default()
        }
    }

    /// A multi-day-batch member: the same episode on day `day`.
    pub fn day(day: usize) -> MemberSpec {
        MemberSpec {
            day,
            ..MemberSpec::default()
        }
    }

    /// The standalone configuration this member denotes: the base with
    /// the perturbation applied. The weather in the spec *replaces* the
    /// base regime; the day offset shifts the start hour.
    pub fn apply_to(&self, base: &SimConfig) -> SimConfig {
        let mut config = base.clone();
        config.emission_scale = self.emission_scale;
        config.weather = self.weather;
        config.start_hour = base.start_hour + 24 * self.day;
        config
    }

    /// One-line rendering for member tables.
    pub fn describe(&self) -> String {
        let scale = format!("{:.3}", self.emission_scale);
        let scale = scale.trim_end_matches('0').trim_end_matches('.');
        format!(
            "emissions x{:<5} {:<10} day {}",
            scale,
            match self.weather {
                Weather::Ventilated => "ventilated",
                Weather::Stagnation => "stagnation",
            },
            self.day
        )
    }
}

/// A batch of perturbed runs of one base scenario, submitted as one job.
#[derive(Debug, Clone)]
pub struct EnsembleJob {
    /// The unperturbed scenario every member derives from. Its own
    /// `emission_scale`/`weather` are the member defaults.
    pub base: SimConfig,
    pub members: Vec<MemberSpec>,
}

impl EnsembleJob {
    /// An empty job over `base`; push members with [`EnsembleJob::push`].
    pub fn new(base: SimConfig) -> EnsembleJob {
        EnsembleJob {
            base,
            members: Vec::new(),
        }
    }

    /// An emission-control ensemble: one member per scaling factor.
    pub fn emission_sweep(base: SimConfig, scales: &[f64]) -> EnsembleJob {
        EnsembleJob {
            base,
            members: scales.iter().map(|&s| MemberSpec::emissions(s)).collect(),
        }
    }

    pub fn push(&mut self, member: MemberSpec) -> &mut EnsembleJob {
        self.members.push(member);
        self
    }

    pub fn len(&self) -> usize {
        self.members.len()
    }

    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The standalone [`SimConfig`] member `i` denotes — what a user
    /// would have submitted without the ensemble machinery. The dedup
    /// contract is that the ensemble runner's result for member `i` is
    /// bit-identical to running this config through the plain driver.
    pub fn member_config(&self, i: usize) -> SimConfig {
        self.members[i].apply_to(&self.base)
    }

    /// Members grouped by shared-input key. Members in one group have
    /// the same weather regime and effective start hour, so their
    /// `inputhour`/`pretrans` stages are identical and run once per
    /// group. (Emission scaling never forks the input stage: emissions
    /// enter in the chemistry phase.)
    pub fn input_groups(&self) -> Vec<Vec<usize>> {
        let mut groups: Vec<((Weather, usize), Vec<usize>)> = Vec::new();
        for (i, m) in self.members.iter().enumerate() {
            let key = (m.weather, self.base.start_hour + 24 * m.day);
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, g)) => g.push(i),
                None => groups.push((key, vec![i])),
            }
        }
        groups.into_iter().map(|(_, g)| g).collect()
    }
}

/// What shared-input deduplication saved, measured (not modelled).
#[derive(Debug, Clone, Copy, Default)]
pub struct DedupStats {
    /// Input-stage executions that actually ran (one per group-hour).
    pub input_runs: usize,
    /// Input-stage executions avoided (member-hours served from the
    /// group leader's run).
    pub input_hours_deduped: usize,
    /// Bytes of hourly input generation avoided.
    pub saved_bytes: u64,
    /// Wall-clock seconds of `inputhour` + `pretrans` avoided, measured
    /// from the shared stage's actual duration.
    pub saved_seconds: f64,
    /// Number of shared-input groups.
    pub groups: usize,
}

/// One member's outcome.
#[derive(Debug, Clone)]
pub struct MemberResult {
    pub spec: MemberSpec,
    /// The standalone config this member denotes.
    pub config: SimConfig,
    pub report: RunReport,
    pub profile: WorkProfile,
}

impl MemberResult {
    /// The member's final-hour surface concentration field
    /// (species-major over [`crate::profile::SURFACE_SPECIES`]) — the
    /// response field the surrogate tier fits over.
    pub fn surface(&self) -> &[f64] {
        &self
            .profile
            .hours
            .last()
            .expect("a completed member has at least one hour")
            .surface
    }
}

/// The whole sweep's outcome.
#[derive(Debug, Clone)]
pub struct EnsembleResult {
    pub members: Vec<MemberResult>,
    pub dedup: DedupStats,
    /// Wall-clock seconds the sweep took.
    pub wall_seconds: f64,
}

impl EnsembleResult {
    /// Member emission scales, in member order (surrogate fit abscissae).
    pub fn scales(&self) -> Vec<f64> {
        self.members.iter().map(|m| m.spec.emission_scale).collect()
    }
}

/// Run an ensemble. With `dedup`, members are grouped by
/// [`EnsembleJob::input_groups`] and each group's `inputhour`/`pretrans`
/// stage runs once per hour, shared by every member in the group;
/// without it every member runs standalone through the plain driver
/// (the baseline the dedup column in EXPERIMENTS.md compares against).
/// Either way each member's report and profile are bit-identical to a
/// standalone run of its [`EnsembleJob::member_config`].
pub fn run_ensemble(job: &EnsembleJob, exec: ExecSpec, obs: &Obs, dedup: bool) -> EnsembleResult {
    assert!(!job.is_empty(), "ensemble has no members");
    let sweep_start = Instant::now();
    let mut results: Vec<Option<MemberResult>> = (0..job.len()).map(|_| None).collect();
    let mut stats = DedupStats::default();

    if !dedup {
        // Undeduplicated baseline: every member is an independent run.
        for (i, slot) in results.iter_mut().enumerate() {
            let config = job.member_config(i);
            let (report, profile, _) = Episode::new(&config, None, exec, obs).run(config.hours);
            *slot = Some(MemberResult {
                spec: job.members[i],
                config,
                report,
                profile,
            });
        }
    } else {
        let groups = job.input_groups();
        stats.groups = groups.len();
        for group in &groups {
            run_group(job, group, exec, obs, &mut stats, &mut results);
        }
    }

    let members: Vec<MemberResult> = results
        .into_iter()
        .map(|r| r.expect("every member ran"))
        .collect();
    let wall_seconds = sweep_start.elapsed().as_secs_f64();
    if obs.enabled() {
        obs.record_counter(
            "ensemble_input_hours_deduped",
            "ensemble",
            0.0,
            stats.input_hours_deduped as f64,
            None,
        );
        obs.record_counter(
            "ensemble_saved_bytes",
            "ensemble",
            0.0,
            stats.saved_bytes as f64,
            None,
        );
        obs.publish(
            "ensemble",
            prometheus_section(job.len(), &stats, wall_seconds),
        );
        obs.flush();
    }
    EnsembleResult {
        members,
        dedup: stats,
        wall_seconds,
    }
}

/// Run one shared-input group: one [`Episode`] per member (emission
/// scaling perturbs the inventory at engine level, exactly as in a
/// standalone run); each hour the group leader runs the input stage
/// once and every member steps on it. All engines in the group would
/// produce bit-identical bundles — the generator never reads the
/// emission inventory — so member results stay bit-identical to
/// standalone runs.
fn run_group(
    job: &EnsembleJob,
    group: &[usize],
    exec: ExecSpec,
    obs: &Obs,
    stats: &mut DedupStats,
    results: &mut [Option<MemberResult>],
) {
    let configs: Vec<SimConfig> = group.iter().map(|&i| job.member_config(i)).collect();
    let mut episodes: Vec<Episode> = configs
        .iter()
        .map(|config| Episode::new(config, None, exec, obs))
        .collect();
    // Members after the leader skip their whole input stage.
    let followers = group.len() - 1;
    let mut stage_seconds = 0.0;

    for _ in 0..job.base.hours {
        let stage_start = Instant::now();
        let stage = episodes[0].input_stage();
        stage_seconds += stage_start.elapsed().as_secs_f64();
        stats.input_runs += 1;
        stats.input_hours_deduped += followers;
        stats.saved_bytes += (stage.input.data_bytes() * followers) as u64;

        for (episode, &i) in episodes.iter_mut().zip(group) {
            let _member_span = obs.span_arg("ensemble-member", "member", i as i64);
            episode.step(Some(&stage));
        }
    }
    stats.saved_seconds += stage_seconds * followers as f64;

    for (m, ((episode, config), &i)) in episodes.into_iter().zip(configs).zip(group).enumerate() {
        let (mut report, profile, _) = episode.finish();
        // The leader ran the input stage for everyone and saved nothing.
        if m > 0 {
            let bytes: u64 = profile.hours.iter().map(|hp| hp.input_bytes as u64).sum();
            report.dedup_saved_bytes = Some(bytes);
            report.dedup_saved_seconds = Some(stage_seconds);
        } else {
            report.dedup_saved_bytes = Some(0);
            report.dedup_saved_seconds = Some(0.0);
        }
        results[i] = Some(MemberResult {
            spec: job.members[i],
            config,
            report,
            profile,
        });
    }
}

/// What the `ensemble` section reads: one finished sweep.
struct Sweep {
    members: usize,
    stats: DedupStats,
    wall_seconds: f64,
}

crate::metrics! {
    const SWEEP: [Sweep] = {
        counter "airshed_ensemble_members_total" "Ensemble members executed." { members }
        counter "airshed_ensemble_groups_total" "Shared-input groups." { stats.groups }
        counter "airshed_ensemble_input_runs_total" "Input-stage executions that actually ran." {
            stats.input_runs
        }
        counter "airshed_ensemble_input_hours_deduped_total"
            "Member-hours whose input stage was served by a shared run." {
            stats.input_hours_deduped
        }
        counter "airshed_ensemble_dedup_saved_bytes_total"
            "Bytes of hourly input generation avoided by dedup." {
            stats.saved_bytes
        }
        counter "airshed_ensemble_dedup_saved_seconds"
            "Wall seconds of input+pretrans work avoided by dedup." {
            stats.saved_seconds
        }
        gauge "airshed_ensemble_wall_seconds" "Wall-clock duration of the whole sweep." {
            wall_seconds
        }
    };
}

/// Render the dedup stats as a Prometheus text section (published under
/// the `ensemble` section name through the obs handle).
pub fn prometheus_section(members: usize, stats: &DedupStats, wall_seconds: f64) -> String {
    let sweep = Sweep {
        members,
        stats: *stats,
        wall_seconds,
    };
    crate::obs::prom::render(SWEEP, &sweep)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_base() -> SimConfig {
        let mut c = SimConfig::test_tiny(4, 1);
        c.dataset = crate::config::DatasetChoice::Tiny(40);
        c.start_hour = 9;
        c
    }

    #[test]
    fn emission_members_share_one_input_group() {
        let job = EnsembleJob::emission_sweep(tiny_base(), &[1.0, 0.8, 0.6]);
        let groups = job.input_groups();
        assert_eq!(groups, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn weather_and_day_perturbations_fork_groups() {
        let mut job = EnsembleJob::emission_sweep(tiny_base(), &[1.0, 0.5]);
        job.push(MemberSpec::weather(Weather::Stagnation));
        job.push(MemberSpec::day(1));
        let groups = job.input_groups();
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0], vec![0, 1]); // shared ventilated day 0
        assert_eq!(groups[1], vec![2]); // stagnation forks the input
        assert_eq!(groups[2], vec![3]); // day 1 forks the start hour
    }

    #[test]
    fn member_config_applies_the_perturbation() {
        let base = tiny_base();
        let mut job = EnsembleJob::new(base.clone());
        job.push(MemberSpec::emissions(0.7));
        job.push(MemberSpec::day(2));
        let m0 = job.member_config(0);
        assert_eq!(m0.emission_scale, 0.7);
        assert_eq!(m0.start_hour, base.start_hour);
        let m1 = job.member_config(1);
        assert_eq!(m1.emission_scale, 1.0);
        assert_eq!(m1.start_hour, base.start_hour + 48);
    }

    #[test]
    fn dedup_measures_real_savings() {
        let job = EnsembleJob::emission_sweep(tiny_base(), &[1.0, 0.7, 0.4]);
        let result = run_ensemble(&job, ExecSpec::default(), &Obs::off(), true);
        assert_eq!(result.members.len(), 3);
        // 1 hour, 3 members, 1 group: input ran once, saved twice.
        assert_eq!(result.dedup.input_runs, 1);
        assert_eq!(result.dedup.input_hours_deduped, 2);
        assert!(result.dedup.saved_bytes > 0);
        assert!(result.dedup.saved_seconds >= 0.0);
        // Savings land in the member reports: the leader saved nothing,
        // the others their whole input volume.
        assert_eq!(result.members[0].report.dedup_saved_bytes, Some(0));
        assert!(result.members[1].report.dedup_saved_bytes.unwrap() > 0);
        // The members really differ (the sign depends on the NOx/VOC
        // regime — a morning urban hour can be titration-limited).
        let o3: Vec<f64> = result.members.iter().map(|m| m.report.peak_o3()).collect();
        assert!(
            o3[0] != o3[1] && o3[1] != o3[2],
            "emission scaling must matter: {o3:?}"
        );
    }

    #[test]
    fn prometheus_section_names_the_counters() {
        let stats = DedupStats {
            input_runs: 3,
            input_hours_deduped: 9,
            saved_bytes: 12345,
            saved_seconds: 0.5,
            groups: 1,
        };
        let text = prometheus_section(4, &stats, 2.0);
        assert!(text.contains("airshed_ensemble_members_total 4"));
        assert!(text.contains("airshed_ensemble_input_hours_deduped_total 9"));
        assert!(text.contains("airshed_ensemble_dedup_saved_bytes_total 12345"));
    }
}
