//! Everything the workload seed decides: emission scales, scenario
//! families, job draws, batch order and query scales. The seed stops
//! here — the program under test only ever sees the generated configs.

use airshed::core::config::{DatasetChoice, SimConfig};
use airshed::core::driver::ChemLayout;
use airshed::machine::MachineProfile;

/// SplitMix64: tiny, seedable, and good enough to draw workloads with.
pub struct Rng(u64);

impl Rng {
    /// A generator for one `(seed, stream)` pair, so each kind of input
    /// draws from its own sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

const STREAM_LA: u64 = 1;
const STREAM_FAMILIES: u64 = 2;
const STREAM_HOT_SET: u64 = 3;
const STREAM_JOBS: u64 = 4;
const STREAM_BATCH: u64 = 5;
const STREAM_QUERIES: u64 = 6;

fn tiny(columns: usize, p: usize, hours: usize, start_hour: usize, scale: f64) -> SimConfig {
    let mut config = SimConfig::test_tiny(p, hours);
    config.dataset = DatasetChoice::Tiny(columns);
    config.start_hour = start_hour;
    config.emission_scale = scale;
    config
}

// --- la_episode -----------------------------------------------------------

/// The episode's emission scale, jittered in `[0.95, 1.05]`.
pub fn la_emission_scale(seed: u64) -> f64 {
    Rng::new(seed, STREAM_LA).uniform(0.95, 1.05)
}

/// One LA hour on 16 virtual T3E nodes, spun up from `start_hour`.
pub fn la_hour_config(seed: u64, start_hour: usize) -> SimConfig {
    let mut config = SimConfig::la_t3e(16);
    config.hours = 1;
    config.start_hour = start_hour;
    config.emission_scale = la_emission_scale(seed);
    config
}

// --- server_replay --------------------------------------------------------

pub const REPLAY_FAMILIES: usize = 6;
pub const REPLAY_HOURS: usize = 2;
pub const HOT_SET: usize = 64;
const MACHINES: usize = 3;
const MIN_P: usize = 2;
const MAX_P: usize = 64;
const LAYOUTS: [ChemLayout; 2] = [ChemLayout::Block, ChemLayout::Cyclic];

/// The cold scenario families: `tiny:80`, two hours, each with its
/// own start hour and a seeded emission scale. The start hours are fixed
/// because they set the steps per hour and with them the cost of a
/// replay; the scale changes the science and not the cost.
pub fn replay_families(seed: u64) -> Vec<SimConfig> {
    let mut rng = Rng::new(seed, STREAM_FAMILIES);
    (0..REPLAY_FAMILIES)
        .map(|f| tiny(80, 16, REPLAY_HOURS, 4 + 3 * f, rng.uniform(0.6, 1.4)))
        .collect()
}

/// One replay job: a family placed on a machine, node count and layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReplayJob {
    pub family: usize,
    pub machine: usize,
    pub p: usize,
    pub layout: usize,
}

impl ReplayJob {
    fn draw(rng: &mut Rng) -> ReplayJob {
        ReplayJob {
            family: rng.below(REPLAY_FAMILIES),
            machine: rng.below(MACHINES),
            p: MIN_P + rng.below(MAX_P - MIN_P + 1),
            layout: rng.below(LAYOUTS.len()),
        }
    }

    pub fn machine_profile(&self) -> MachineProfile {
        MachineProfile::paper_machines()[self.machine]
    }

    pub fn chem_layout(&self) -> ChemLayout {
        LAYOUTS[self.layout]
    }

    /// The scenario this job submits.
    pub fn config(&self, families: &[SimConfig]) -> SimConfig {
        let mut config = families[self.family].clone();
        config.machine = self.machine_profile();
        config.p = self.p;
        config
    }
}

/// The keys drawn often enough to stay in the result cache.
pub fn replay_hot_set(seed: u64) -> Vec<ReplayJob> {
    let mut rng = Rng::new(seed, STREAM_HOT_SET);
    (0..HOT_SET).map(|_| ReplayJob::draw(&mut rng)).collect()
}

/// The jobs of one unit: 30 % from the hot set (result-cache hits), 70 %
/// uniform over the whole ~2 300-key space, which is larger than the
/// 256-entry result cache.
pub fn replay_jobs(seed: u64, unit: usize, n: usize, hot: &[ReplayJob]) -> Vec<ReplayJob> {
    let mut rng = Rng::new(seed, STREAM_JOBS + ((unit as u64) << 8));
    (0..n)
        .map(|_| {
            if rng.below(10) < 3 {
                hot[rng.below(hot.len())]
            } else {
                ReplayJob::draw(&mut rng)
            }
        })
        .collect()
}

// --- fabric_families ------------------------------------------------------

pub const FABRIC_FAMILIES: usize = 4;
pub const FABRIC_HOURS: usize = 1;
const FABRIC_START_HOURS: [usize; FABRIC_FAMILIES] = [2, 8, 13, 19];
const FABRIC_PLACEMENTS: [usize; 3] = [4, 16, 64];

/// One batch: four cold families (`tiny:60`, seeded scales) × three
/// placements, in an order the seed shuffles.
pub fn fabric_batch(seed: u64) -> Vec<(SimConfig, ChemLayout)> {
    let mut rng = Rng::new(seed, STREAM_BATCH);
    let mut batch = Vec::new();
    for start_hour in FABRIC_START_HOURS {
        let scale = rng.uniform(0.9, 1.1);
        for p in FABRIC_PLACEMENTS {
            batch.push((
                tiny(60, p, FABRIC_HOURS, start_hour, scale),
                ChemLayout::Block,
            ));
        }
    }
    rng.shuffle(&mut batch);
    batch
}

// --- ensemble_whatif ------------------------------------------------------

pub const ENSEMBLE_SCALES: [f64; 6] = [0.5, 0.7, 0.9, 1.1, 1.3, 1.5];
pub const ENSEMBLE_HOURS: usize = 1;
pub const WHATIF_TOLERANCE: f64 = 1e-3;
pub const WHATIF_TIGHT_TOLERANCE: f64 = 1e-9;
pub const WHATIF_OUT_OF_RANGE: f64 = 1.9;

/// The sweep's unperturbed scenario: `tiny:60` from 05:00.
pub fn ensemble_base() -> SimConfig {
    tiny(60, 16, ENSEMBLE_HOURS, 5, 1.0)
}

/// In-range query scales for one unit, strictly inside the swept range.
pub fn whatif_scales(seed: u64, unit: usize, n: usize) -> Vec<f64> {
    let mut rng = Rng::new(seed, STREAM_QUERIES + ((unit as u64) << 8));
    let (lo, hi) = (
        ENSEMBLE_SCALES[0],
        ENSEMBLE_SCALES[ENSEMBLE_SCALES.len() - 1],
    );
    (0..n).map(|_| rng.uniform(lo + 0.01, hi - 0.01)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch_order(seed: u64) -> Vec<(usize, usize, u64)> {
        fabric_batch(seed)
            .iter()
            .map(|(c, _)| (c.start_hour, c.p, c.emission_scale.to_bits()))
            .collect()
    }

    fn family_keys(seed: u64) -> Vec<(usize, u64)> {
        replay_families(seed)
            .iter()
            .map(|c| (c.start_hour, c.emission_scale.to_bits()))
            .collect()
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let hot = replay_hot_set(7);
        assert_eq!(hot, replay_hot_set(7));
        assert_ne!(hot, replay_hot_set(8));
        assert_eq!(replay_jobs(7, 3, 500, &hot), replay_jobs(7, 3, 500, &hot));
        assert_ne!(replay_jobs(7, 3, 500, &hot), replay_jobs(8, 3, 500, &hot));
        assert_ne!(replay_jobs(7, 3, 500, &hot), replay_jobs(7, 4, 500, &hot));
        assert_eq!(family_keys(7), family_keys(7));
        assert_ne!(family_keys(7), family_keys(8));
        assert_eq!(whatif_scales(7, 0, 100), whatif_scales(7, 0, 100));
        assert_ne!(whatif_scales(7, 0, 100), whatif_scales(8, 0, 100));
        assert_eq!(batch_order(7), batch_order(7));
        assert_ne!(batch_order(7), batch_order(8));
        assert_eq!(la_emission_scale(7), la_emission_scale(7));
        assert_ne!(la_emission_scale(7), la_emission_scale(8));
    }

    #[test]
    fn draws_stay_in_their_ranges() {
        for seed in 0..20 {
            let scale = la_emission_scale(seed);
            assert!((0.95..1.05).contains(&scale));
            let families = replay_families(seed);
            let mut starts: Vec<usize> = families.iter().map(|c| c.start_hour).collect();
            starts.dedup();
            assert_eq!(starts.len(), REPLAY_FAMILIES, "start hours are distinct");
            assert!(starts.iter().all(|&h| h < 24));
            let hot = replay_hot_set(seed);
            let jobs = replay_jobs(seed, 0, 2000, &hot);
            assert!(jobs.iter().all(|j| (MIN_P..=MAX_P).contains(&j.p)));
            let from_hot = jobs.iter().filter(|j| hot.contains(j)).count();
            assert!(
                (450..=750).contains(&from_hot),
                "about 30 % hot: {from_hot}"
            );
            let batch = fabric_batch(seed);
            assert_eq!(batch.len(), 12);
            let (lo, hi) = (ENSEMBLE_SCALES[0], ENSEMBLE_SCALES[5]);
            assert!(whatif_scales(seed, 1, 300)
                .iter()
                .all(|&s| s > lo && s < hi));
        }
    }
}
