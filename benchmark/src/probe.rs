//! The host-speed probe.
//!
//! On a shared host a vCPU's speed changes under the program, within
//! seconds and for minutes at a time (see the README's noise section), by
//! more than any bound a metric could hold. A fixed kernel, read on `T`
//! threads just before and just after each timed unit, slows down with
//! the unit; dividing the unit's time by how slow the two readings ran
//! takes the host out of it.
//!
//! The kernel is benchmark-local on purpose and must never change: if it
//! shared code with the program under test, a speed-up of that code would
//! cancel itself out. It is a stand-in for the hot loops — 4-lane
//! multiply-adds and divisions over small arrays indexed through a
//! reaction table — because a register-only FMA chain does not feel the
//! host's regimes and this does.

use crate::stats::percentile;
use std::time::Instant;

const SPECIES: usize = 35;
const REACTIONS: usize = 90;
/// Integration steps per sample: about 7 ms.
const STEPS: usize = 20_000;
/// Samples per thread per reading: about 0.13 s, so that a reading
/// averages over the millisecond-scale flicker of the host's speed.
const REPS: usize = 18;
/// Median sample, in ms, on the host the benchmark was first run on when
/// that host was quiet: the speed every run is normalised to.
pub const NOMINAL_MS: f64 = 7.0;

/// `(reactant, reactant, product, rate constant)` per reaction, from a
/// fixed xorshift sequence.
fn reaction_table() -> Vec<(usize, usize, usize, f64)> {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    (0..REACTIONS)
        .map(|_| {
            let mut species = || (next() % SPECIES as u64) as usize;
            let (a, b, to) = (species(), species(), species());
            (a, b, to, 1e-3 + (next() % 1000) as f64 * 1e-5)
        })
        .collect()
}

/// `STEPS` steps of a stiff update, four lanes per species.
#[inline(always)]
fn integrate(table: &[(usize, usize, usize, f64)]) -> f64 {
    let mut c = [[0.0f64; 4]; SPECIES];
    for (s, lanes) in c.iter_mut().enumerate() {
        *lanes = [0.01 + s as f64 * 1e-3, 0.02, 0.015 + s as f64 * 2e-3, 0.03];
    }
    let h = 0.05f64;
    for _ in 0..std::hint::black_box(STEPS) {
        let mut p = [[0.0f64; 4]; SPECIES];
        let mut l = [[0.0f64; 4]; SPECIES];
        for &(a, b, to, k) in table {
            for j in 0..4 {
                p[to][j] += k * c[a][j] * c[b][j];
                l[a][j] = k.mul_add(c[b][j], l[a][j]);
                l[b][j] = k.mul_add(c[a][j], l[b][j]);
            }
        }
        for s in 0..SPECIES {
            for j in 0..4 {
                c[s][j] = h.mul_add(p[s][j], c[s][j]) / h.mul_add(l[s][j], 1.0);
            }
        }
    }
    c.iter().map(|lanes| lanes[0] + lanes[3]).sum()
}

/// [`integrate`] with the vector instructions the simd backend uses.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn integrate_avx2(table: &[(usize, usize, usize, f64)]) -> f64 {
    integrate(table)
}

fn sample_ms(table: &[(usize, usize, usize, f64)]) -> f64 {
    let start = Instant::now();
    #[cfg(target_arch = "x86_64")]
    if airshed::simd::fma_available() {
        // SAFETY: `fma_available` has just verified avx2 and fma on this CPU.
        std::hint::black_box(unsafe { integrate_avx2(table) });
        return start.elapsed().as_secs_f64() * 1e3;
    }
    std::hint::black_box(integrate(table));
    start.elapsed().as_secs_f64() * 1e3
}

/// What the probe said about one timed unit.
#[derive(Debug, Clone, Copy)]
pub struct Paced {
    /// The unit's wall, as measured.
    pub wall_s: f64,
    /// How slow the host ran around the unit: the mean of the probe
    /// readings just before and just after it, over the nominal sample.
    pub slowdown: f64,
}

impl Paced {
    /// Another time measured inside the same unit.
    pub fn of(&self, seconds: f64) -> Paced {
        Paced {
            wall_s: seconds,
            slowdown: self.slowdown,
        }
    }

    /// The unit's wall at the nominal host speed.
    pub fn nominal_s(&self) -> f64 {
        self.wall_s / self.slowdown
    }
}

/// The probe readings of one run.
pub struct HostSpeed {
    threads: usize,
    table: Vec<(usize, usize, usize, f64)>,
    /// Mean sample of each reading, in ms.
    readings_ms: Vec<f64>,
    /// The last reading, while no unit has run since: consecutive units
    /// share the reading between them.
    fresh: Option<f64>,
    spent_s: f64,
    /// Σ wall and Σ wall at nominal speed of the units so far.
    paced_wall_s: f64,
    paced_nominal_s: f64,
}

impl HostSpeed {
    pub fn new(threads: usize) -> HostSpeed {
        HostSpeed {
            threads,
            table: reaction_table(),
            readings_ms: Vec::new(),
            fresh: None,
            spent_s: 0.0,
            paced_wall_s: 0.0,
            paced_nominal_s: 0.0,
        }
    }

    /// One reading: `T` threads, `REPS` samples each, and the mean over
    /// all of them. One vCPU is often slower than the other for a while;
    /// the mean over threads does not flip between the two the way a
    /// median over pooled samples does.
    fn read(&mut self) -> f64 {
        let start = Instant::now();
        let table = &self.table;
        let total_ms: f64 = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..self.threads)
                .map(|_| scope.spawn(move || (0..REPS).map(|_| sample_ms(table)).sum::<f64>()))
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("probe thread panicked"))
                .sum()
        });
        let reading = total_ms / (self.threads * REPS) as f64;
        self.readings_ms.push(reading);
        self.spent_s += start.elapsed().as_secs_f64();
        reading
    }

    /// Run `unit` between two readings and time it. The host's speed
    /// changes within seconds, so each unit is held against the readings
    /// next to it and not against the run's.
    pub fn around<R>(&mut self, unit: impl FnOnce() -> R) -> (R, Paced) {
        let before = self.fresh.take().unwrap_or_else(|| self.read());
        let start = Instant::now();
        let out = unit();
        let wall_s = start.elapsed().as_secs_f64();
        let after = self.read();
        self.fresh = Some(after);
        let paced = Paced {
            wall_s,
            slowdown: (before + after) / 2.0 / NOMINAL_MS,
        };
        self.paced_wall_s += paced.wall_s;
        self.paced_nominal_s += paced.nominal_s();
        (out, paced)
    }

    pub fn readings_ms(&self) -> &[f64] {
        &self.readings_ms
    }

    /// Seconds of the run the probe took.
    pub fn spent_s(&self) -> f64 {
        self.spent_s
    }

    /// `elapsed_s` of this run without the probe's share and with every
    /// unit so far counted at the nominal host speed.
    pub fn at_nominal(&self, elapsed_s: f64) -> f64 {
        elapsed_s - self.spent_s - self.paced_wall_s + self.paced_nominal_s
    }

    /// How slow the host ran during this run: the median reading over the
    /// nominal sample. For the record; units are normalised one by one.
    pub fn slowdown(&self) -> f64 {
        percentile(&self.readings_ms, 0.5) / NOMINAL_MS
    }
}

/// [`HostSpeed::around`] where the probe may be off, as in the traced
/// pass: the unit is timed and its slowdown reads 1.
pub fn around<R>(host: Option<&mut HostSpeed>, unit: impl FnOnce() -> R) -> (R, Paced) {
    match host {
        Some(host) => host.around(unit),
        None => {
            let start = Instant::now();
            let out = unit();
            let wall_s = start.elapsed().as_secs_f64();
            (
                out,
                Paced {
                    wall_s,
                    slowdown: 1.0,
                },
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_frozen() {
        // A changed table or update rule changes this sum, and with it the
        // meaning of every normalised number ever recorded.
        let table = reaction_table();
        assert_eq!(table.len(), REACTIONS);
        assert_eq!(table[0], (19, 4, 0, 0.003_600_000_000_000_000_3));
        let sum = integrate(&table);
        assert!((sum - 1.465_518_206_327).abs() < 1e-9, "{sum:.12}");
    }

    #[test]
    fn consecutive_units_share_the_reading_between_them() {
        let mut host = HostSpeed::new(2);
        let (v, first) = host.around(|| 5);
        assert_eq!(v, 5);
        assert_eq!(host.readings_ms().len(), 2, "one before, one after");
        let (_, second) = host.around(|| std::thread::sleep(std::time::Duration::from_millis(3)));
        assert_eq!(host.readings_ms().len(), 3, "the reading between is shared");
        assert!(first.slowdown > 0.0 && second.slowdown > 0.0);
        assert!(second.wall_s >= 0.003);
        assert_eq!(second.nominal_s(), second.wall_s / second.slowdown);
        let r = host.readings_ms();
        assert_eq!(second.slowdown, (r[1] + r[2]) / 2.0 / NOMINAL_MS);
        assert!(host.spent_s() > 0.0 && host.slowdown() > 0.0);
        let elapsed = host.spent_s() + first.wall_s + second.wall_s + 0.25;
        let want = 0.25 + first.nominal_s() + second.nominal_s();
        assert!((host.at_nominal(elapsed) - want).abs() < 1e-12);
    }
}
