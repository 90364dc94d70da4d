//! Multi-day stability: the model must survive (and behave diurnally
//! across) more than one day of simulation — the regime real episodes
//! run in (the paper's data sets are multi-day smog episodes).

use airshed::core::config::{DatasetChoice, SimConfig};
use airshed::core::driver::run_with_profile_on;
use airshed::core::ExecSpec;
use std::sync::OnceLock;

fn two_days() -> &'static (airshed::core::RunReport, airshed::core::WorkProfile) {
    static CELL: OnceLock<(airshed::core::RunReport, airshed::core::WorkProfile)> = OnceLock::new();
    CELL.get_or_init(|| {
        let config = SimConfig {
            hours: 48,
            start_hour: 0,
            ..SimConfig::new(DatasetChoice::Tiny(80), 8)
        };
        run_with_profile_on(&config, ExecSpec::default())
    })
}

#[test]
fn forty_eight_hours_stay_physical_and_bounded() {
    let (r, _) = two_days();
    assert_eq!(r.summaries.len(), 48);
    for s in &r.summaries {
        assert!(s.max_o3.is_finite() && s.max_o3 >= 0.0);
        assert!(
            s.max_o3 < 0.5,
            "hour {}: implausible O3 {} ppm",
            s.hour,
            s.max_o3
        );
        assert!(s.mean_nox >= 0.0 && s.mean_nox < 1.0);
        assert!(s.mean_total_n > 0.0 && s.mean_total_n < 1.0);
    }
}

#[test]
fn diurnal_ozone_cycle_repeats() {
    let (r, _) = two_days();
    // Afternoon peak beats the pre-dawn minimum on both days.
    let o3_at = |hour: usize| {
        r.summaries
            .iter()
            .find(|s| s.hour == hour)
            .map(|s| s.mean_o3)
            .unwrap()
    };
    for day in 0..2 {
        let dawn = o3_at(day * 24 + 4);
        let afternoon = o3_at(day * 24 + 15);
        assert!(
            afternoon > dawn,
            "day {day}: afternoon {afternoon} !> dawn {dawn}"
        );
    }
    // No secular blow-up: day 2's peak within a factor of ~2 of day 1's.
    let day1_peak = (0..24).map(o3_at).fold(0.0f64, f64::max);
    let day2_peak = (24..48).map(o3_at).fold(0.0f64, f64::max);
    assert!(
        day2_peak < 2.5 * day1_peak && day2_peak > 0.3 * day1_peak,
        "day peaks diverge: {day1_peak} vs {day2_peak}"
    );
}

#[test]
fn step_counts_follow_the_wind_both_days() {
    let (_, prof) = two_days();
    let steps: Vec<usize> = prof.hours.iter().map(|h| h.steps.len()).collect();
    assert_eq!(steps.len(), 48);
    // Periodic meteorology -> periodic step counts.
    for h in 0..24 {
        assert_eq!(steps[h], steps[h + 24], "hour {h} step count not periodic");
    }
}
