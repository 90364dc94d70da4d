//! Run configuration.

use airshed_chem::youngboris::YbOptions;
use airshed_grid::datasets::Dataset;
use airshed_machine::MachineProfile;

/// Synoptic weather regime for the episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Weather {
    /// Normal ventilated conditions (sea breeze + synoptic flow).
    #[default]
    Ventilated,
    /// Hot stagnant high-pressure episode: weak winds, shallow capped
    /// mixed layer — the design case for smog modelling.
    Stagnation,
}

/// Which dataset to simulate (by default the paper's main one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DatasetChoice {
    /// Los Angeles basin: A(35, 5, ~700).
    #[default]
    LosAngeles,
    /// North-East United States: A(35, 5, ~3328).
    NorthEast,
    /// Miniature test dataset with roughly the given column count.
    Tiny(usize),
}

impl DatasetChoice {
    pub fn build(&self) -> Dataset {
        match self {
            DatasetChoice::LosAngeles => Dataset::los_angeles(),
            DatasetChoice::NorthEast => Dataset::north_east(),
            DatasetChoice::Tiny(n) => Dataset::tiny(*n),
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            DatasetChoice::LosAngeles => "LA",
            DatasetChoice::NorthEast => "NE",
            DatasetChoice::Tiny(_) => "TINY",
        }
    }
}

/// Configuration of one simulated run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    pub dataset: DatasetChoice,
    pub machine: MachineProfile,
    /// Number of virtual machine nodes.
    pub p: usize,
    /// Simulated hours.
    pub hours: usize,
    /// First simulated hour of day (0 = midnight). The paper's episodes
    /// start pre-dawn so the photochemistry spins up realistically.
    pub start_hour: usize,
    /// Horizontal eddy diffusivity (km²/min).
    pub kh: f64,
    /// Chemistry solver options.
    pub chem_opts: YbOptions,
    /// Synoptic weather regime.
    pub weather: Weather,
    /// Scale factor on all anthropogenic emissions (1.0 = baseline
    /// inventory). Policy scenarios — the paper's motivating use case
    /// ("the effect of air pollution control measures can be evaluated at
    /// a low cost") — run the model at different scales.
    pub emission_scale: f64,
}

impl SimConfig {
    /// The base every other configuration builds on with struct-update
    /// syntax: the paper's standard episode — a full day from 05:00 on
    /// `p` T3E nodes, baseline inventory, ventilated weather — for
    /// `dataset`. The one place the model's horizontal diffusivity and
    /// chemistry options are written down.
    pub fn new(dataset: DatasetChoice, p: usize) -> SimConfig {
        SimConfig {
            dataset,
            machine: MachineProfile::t3e(),
            p,
            hours: 24,
            start_hour: 5,
            kh: 0.012,
            chem_opts: YbOptions::default(),
            weather: Weather::default(),
            emission_scale: 1.0,
        }
    }

    /// A typical full-day LA run on the T3E, matching the paper's main
    /// experiment.
    pub fn la_t3e(p: usize) -> SimConfig {
        SimConfig::new(DatasetChoice::LosAngeles, p)
    }

    /// A small fast configuration for tests.
    pub fn test_tiny(p: usize, hours: usize) -> SimConfig {
        SimConfig {
            hours,
            start_hour: 6,
            ..SimConfig::new(DatasetChoice::Tiny(80), p)
        }
    }

    /// Refuse the values a run is undefined on: a NaN, infinite or
    /// non-positive chemistry tolerance `eps`, substep bounds outside
    /// `0 < h_min <= h_max`, a non-finite `kh`, an `emission_scale` that
    /// is not finite and `>= 0`, and zero nodes. On them a run never
    /// accepts a substep above `h_min` (NaN `eps`), panics in the step
    /// control's clamp (`h_min > h_max`) or at the emission scaling's
    /// assert (NaN scale). A decoded configuration is checked here
    /// before it reaches a worker. Finite values can still ask for
    /// unbounded work — a tiny `eps` runs every substep at `h_min`, and
    /// an `h_min` below the clock's resolution stops it advancing — so
    /// bounding a job's work is the attempt cap's (ROADMAP item 18), not
    /// this check's.
    pub fn validate(&self) -> Result<(), &'static str> {
        let c = &self.chem_opts;
        if !(c.eps.is_finite() && c.eps > 0.0) {
            Err("chemistry eps is not finite and positive")
        } else if !(c.h_min > 0.0 && c.h_min <= c.h_max) {
            Err("chemistry substep bounds are not 0 < h_min <= h_max")
        } else if !self.kh.is_finite() {
            Err("kh is not finite")
        } else if !(self.emission_scale.is_finite() && self.emission_scale >= 0.0) {
            Err("emission scale is not finite and non-negative")
        } else if self.p == 0 {
            Err("a run needs at least one node")
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_choice_builds() {
        let d = DatasetChoice::Tiny(60).build();
        assert!(d.nodes() > 20);
        assert_eq!(DatasetChoice::LosAngeles.name(), "LA");
        assert_eq!(DatasetChoice::NorthEast.name(), "NE");
    }

    #[test]
    fn presets_are_sane() {
        let c = SimConfig::la_t3e(16);
        assert_eq!(c.p, 16);
        assert_eq!(c.hours, 24);
        assert!(c.kh > 0.0);
        let t = SimConfig::test_tiny(4, 2);
        assert_eq!(t.hours, 2);
    }
}
