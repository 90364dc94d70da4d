//! The chemistry's accuracy yardstick.
//!
//! A change to the Young–Boris substep controller trades attempts for
//! error, so it is judged against a reference, not against the old bits.
//! For each of four hours of the day (03, 08, 13 and 19) a one-hour
//! spin-up from the background state makes a checkpoint; from it, one
//! hour runs at the configured `eps` and one at `eps / 100`, the
//! reference. Over the two end states:
//!
//! - `o3_max`: the largest relative O3 error over all cells;
//! - `p99` and `rms`: the 99th percentile and the root mean square of
//!   `|c − r| / (|r| + 1e-6 ppm)` over every species of every cell;
//! - `nitrogen`: the relative difference of total nitrogen, atoms
//!   weighted by `chem::audit::nitrogen_atoms()` and cells by volume.
//!
//! Each reading is the mean over five problems that differ only in the
//! emission scale (1 and 1 ± 1e-4, 1 ± 2e-4). A single problem's reading
//! is not reproducible to the bound: on `tiny:60` at 19:00 a 1e-4 change
//! of the emission scale, or of the controller's safety factor, moves
//! `o3_max` and `p99` by up to 8 %, because which substep straddles
//! dusk in which cell decides them. The mean of five moves by about a
//! fifth of that.
//!
//! Each reading must stay within 1.02× of the one pinned below, which
//! was read on the controller before "no growth right after a
//! rejection". The lane attempts (Σ substeps + rejected over cells;
//! what host time follows) of the unperturbed problem are printed
//! beside the readings. `tiny:60` runs in `cargo test`; the LA case is
//! `--ignored` (`cargo test --release --test chem_accuracy --
//! --ignored`).

use airshed::chem::audit::nitrogen_atoms;
use airshed::chem::species as sp;
use airshed::core::checkpoint::Checkpoint;
use airshed::core::config::{DatasetChoice, SimConfig};
use airshed::core::driver::{run_resumable_with, Episode};
use airshed::core::obs::{Obs, SpanSink};
use airshed::core::state::SimState;
use airshed::core::ExecSpec;
use std::sync::Arc;

/// Allowed growth of any reading over its pinned value.
const BOUND: f64 = 1.02;

/// Absolute floor in the relative error's denominator (ppm).
const FLOOR_PPM: f64 = 1e-6;

const HOURS: [usize; 4] = [3, 8, 13, 19];

/// One hour's error readings against the reference.
#[derive(Debug, Clone, Copy)]
struct Readings {
    o3_max: f64,
    p99: f64,
    rms: f64,
    nitrogen: f64,
}

impl Readings {
    fn of(dataset: DatasetChoice, run: &SimState, reference: &SimState) -> Readings {
        let mut rel: Vec<f64> = run
            .conc
            .iter()
            .zip(&reference.conc)
            .map(|(c, r)| (c - r).abs() / (r.abs() + FLOOR_PPM))
            .collect();
        let plane = run.layers * run.nodes;
        let o3_max = rel[sp::O3 * plane..][..plane]
            .iter()
            .fold(0.0f64, |m, &e| m.max(e));
        let rms = (rel.iter().map(|e| e * e).sum::<f64>() / rel.len() as f64).sqrt();
        rel.sort_by(f64::total_cmp);
        let p99 = rel[(rel.len() * 99).div_ceil(100) - 1];
        let n_run = total_nitrogen(dataset, run);
        let n_ref = total_nitrogen(dataset, reference);
        Readings {
            o3_max,
            p99,
            rms,
            nitrogen: (n_run - n_ref).abs() / n_ref,
        }
    }

    fn as_array(&self) -> [f64; 4] {
        [self.o3_max, self.p99, self.rms, self.nitrogen]
    }
}

/// Σ over cells of volume × Σ over species of nitrogen atoms × ppm.
fn total_nitrogen(dataset: DatasetChoice, state: &SimState) -> f64 {
    let volumes = SimState::cell_volumes(&dataset.build());
    let atoms = nitrogen_atoms();
    let mut total = 0.0;
    for (s, &a) in atoms.iter().enumerate().filter(|(_, &a)| a > 0.0) {
        for l in 0..state.layers {
            let plane = state.plane(s, l);
            let vols = &volumes[l * state.nodes..][..state.nodes];
            total += a * plane.iter().zip(vols).map(|(c, v)| c * v).sum::<f64>();
        }
    }
    total
}

/// One hour from `start` at `config`'s chemistry options: the end state
/// and the lane attempts its chemistry made, read from the trace's
/// `chem.*` counters.
fn one_hour(config: &SimConfig, start: &Checkpoint) -> (SimState, u64) {
    let sink = Arc::new(SpanSink::new());
    let obs = Obs::new(Arc::clone(&sink));
    let (_, _, end) = Episode::new(config, Some(start.clone()), ExecSpec::simd(2), &obs).run(1);
    let events = sink.events();
    let counters = |name: &'static str| events.iter().filter(move |e| e.name == name);
    let attempts = counters("chem.lane_occupancy")
        .zip(counters("chem.vector_attempts"))
        .zip(counters("chem.lane_width"))
        .map(|((occ, vec), width)| (occ.dur_us * vec.dur_us * width.dur_us).round() as u64)
        .sum();
    (end.state, attempts)
}

/// Emission scales of the problems each reading is averaged over; the
/// first is the unperturbed one.
const SCALES: [f64; 5] = [1.0, 1.0 - 2e-4, 1.0 - 1e-4, 1.0 + 1e-4, 1.0 + 2e-4];

/// The readings of `dataset` at `hour` at one emission scale, and the
/// lane attempts of the run.
fn measure(dataset: DatasetChoice, hour: usize, emission_scale: f64) -> (Readings, u64) {
    let config = SimConfig {
        hours: 1,
        start_hour: hour - 1,
        emission_scale,
        ..SimConfig::new(dataset, 4)
    };
    let (_, _, start) = run_resumable_with(&config, None, ExecSpec::simd(2));
    assert_eq!(start.next_hour, hour);
    let (run, attempts) = one_hour(&config, &start);
    let mut tight = config.clone();
    tight.chem_opts.eps /= 100.0;
    let (reference, _) = one_hour(&tight, &start);
    (Readings::of(dataset, &run, &reference), attempts)
}

/// The mean readings over [`SCALES`] and the unperturbed lane attempts.
fn ensemble(dataset: DatasetChoice, hour: usize) -> ([f64; 4], u64) {
    let mut mean = [0.0; 4];
    let mut attempts = 0;
    for (i, &scale) in SCALES.iter().enumerate() {
        let (got, ran) = measure(dataset, hour, scale);
        for (m, g) in mean.iter_mut().zip(got.as_array()) {
            *m += g / SCALES.len() as f64;
        }
        if i == 0 {
            attempts = ran;
        }
    }
    (mean, attempts)
}

/// Measure every hour, print the table, and hold each reading to
/// `BOUND` × its pinned value.
fn check(name: &str, dataset: DatasetChoice, pinned: &[[f64; 4]; 4]) {
    println!("{name}: hour  o3_max  p99  rms  nitrogen  lane_attempts");
    let mut over = Vec::new();
    for (&hour, want) in HOURS.iter().zip(pinned) {
        let (got, attempts) = ensemble(dataset, hour);
        println!(
            "{name}: {hour:02}  {:.4e}  {:.4e}  {:.4e}  {:.4e}  {attempts}",
            got[0], got[1], got[2], got[3]
        );
        for ((label, g), w) in ["o3_max", "p99", "rms", "nitrogen"]
            .iter()
            .zip(got)
            .zip(want)
        {
            if g.is_nan() || g > BOUND * w {
                over.push(format!("{hour:02} {label} {g:.4e} > {BOUND} x {w:.4e}"));
            }
        }
    }
    assert!(
        over.is_empty(),
        "{name}: readings over the bound: {over:#?}"
    );
}

#[test]
fn tiny_chemistry_error_stays_within_the_yardstick() {
    check("tiny:60", DatasetChoice::Tiny(60), &TINY_PINNED);
}

#[test]
#[ignore = "LA numerics at eps/100 (~minutes in release)"]
fn la_chemistry_error_stays_within_the_yardstick() {
    check("LA", DatasetChoice::LosAngeles, &LA_PINNED);
}

/// `tiny:60` readings per hour of [`HOURS`]: o3_max, p99, rms, nitrogen.
const TINY_PINNED: [[f64; 4]; 4] = [
    [1.3071e-4, 5.5713e-3, 1.2571e-3, 9.0808e-5],
    [1.0437e-3, 6.4677e-3, 1.7217e-3, 1.7041e-4],
    [5.0777e-4, 3.3763e-3, 9.5458e-4, 2.8716e-4],
    [2.0527e-4, 4.4718e-3, 1.9059e-3, 2.4390e-4],
];

/// LA readings per hour of [`HOURS`]: o3_max, p99, rms, nitrogen.
const LA_PINNED: [[f64; 4]; 4] = [
    [1.9274e-4, 6.7036e-3, 1.2326e-3, 3.2036e-5],
    [2.0562e-3, 6.6494e-3, 1.8131e-3, 1.4833e-4],
    [5.2860e-4, 4.5040e-3, 1.0534e-3, 3.7899e-4],
    [1.6887e-4, 9.9572e-3, 2.8574e-3, 1.7462e-4],
];
