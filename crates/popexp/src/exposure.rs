//! The exposure/dose computation — PopExp proper.
//!
//! For every population cell and hour: look up the surface concentrations
//! at the cell's grid column, form a weighted dose, accumulate
//! person-dose, count people above the ozone exceedance threshold, and
//! apply linear concentration-response functions for the health
//! endpoints. "Population exposure calculations can be very expensive and
//! are often also parallelized" — the computation is embarrassingly
//! parallel over population cells, and the hosting layer splits it over
//! the module's nodes.

use crate::population::PopulationGrid;
use airshed_core::plan::{ItemLayout, Work};
use serde::Serialize;

/// Exposure weights per coupled species (O3, NO2, CO, SO2 — the order of
/// `airshed_core::profile::SURFACE_SPECIES`).
pub const DOSE_WEIGHTS: [f64; 4] = [1.0, 0.6, 0.02, 0.8];

/// National ambient O3 standard used for the exceedance count (ppm).
pub const O3_THRESHOLD: f64 = 0.08;

/// One hour's exposure outcome.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ExposureResult {
    pub hour: usize,
    /// Σ population × dose (person·ppm).
    pub person_dose: f64,
    /// People in cells whose O3 exceeds the threshold.
    pub people_above_o3_threshold: f64,
    /// Linear health endpoint: expected excess respiratory events.
    pub excess_events: f64,
}

impl ExposureResult {
    pub(crate) fn zero(hour: usize) -> ExposureResult {
        ExposureResult {
            hour,
            person_dose: 0.0,
            people_above_o3_threshold: 0.0,
            excess_events: 0.0,
        }
    }

    fn absorb(&mut self, o: &ExposureResult) {
        self.person_dose += o.person_dose;
        self.people_above_o3_threshold += o.people_above_o3_threshold;
        self.excess_events += o.excess_events;
    }
}

/// The PopExp model: a population grid plus response coefficients.
#[derive(Debug, Clone)]
pub struct PopExpModel {
    pub grid: PopulationGrid,
    /// Excess events per person per ppm-hour of dose.
    pub response_per_ppm_hour: f64,
    /// Work units charged per population cell per hour.
    pub work_per_cell: f64,
}

impl PopExpModel {
    pub fn new(grid: PopulationGrid) -> PopExpModel {
        PopExpModel {
            grid,
            response_per_ppm_hour: 1.2e-4,
            // Exposure pathway integration over microenvironments and
            // activity patterns — "population exposure calculations can
            // be very expensive" (§6).
            work_per_cell: 60000.0,
        }
    }

    /// Evaluate exposure for a contiguous range of population cells.
    /// `surface` is the coupled payload: 4 species × `n_columns`,
    /// species-major.
    pub fn exposure_cells(
        &self,
        hour: usize,
        surface: &[f64],
        cells: std::ops::Range<usize>,
    ) -> ExposureResult {
        let n_cols = surface.len() / DOSE_WEIGHTS.len();
        let mut r = ExposureResult::zero(hour);
        for cell in cells {
            let pop = self.grid.population[cell];
            if pop <= 0.0 {
                continue;
            }
            let col = self.grid.column[cell];
            debug_assert!(col < n_cols);
            let mut dose = 0.0;
            for (s, w) in DOSE_WEIGHTS.iter().enumerate() {
                dose += w * surface[s * n_cols + col];
            }
            r.person_dose += pop * dose;
            let o3 = surface[col]; // species 0 = O3
            if o3 > O3_THRESHOLD {
                r.people_above_o3_threshold += pop;
            }
            r.excess_events += pop * dose * self.response_per_ppm_hour;
        }
        r
    }

    /// Evaluate the whole grid (the sequential reference).
    pub fn exposure_hour(&self, hour: usize, surface: &[f64]) -> ExposureResult {
        self.exposure_cells(hour, surface, 0..self.grid.n_cells())
    }

    /// Evaluate the grid split into `parts` block ranges (as the parallel
    /// hostings do) and merge — must equal the sequential reference.
    pub fn exposure_hour_split(
        &self,
        hour: usize,
        surface: &[f64],
        parts: usize,
    ) -> ExposureResult {
        let (n, parts) = (self.grid.n_cells(), parts.max(1));
        let mut total = ExposureResult::zero(hour);
        for cells in (0..parts).flat_map(|part| ItemLayout::Block.runs(n, parts, part)) {
            total.absorb(&self.exposure_cells(hour, surface, cells));
        }
        total
    }

    /// The module's hourly work: `work_per_cell` for every population
    /// cell, in blocks over the module's nodes (as the hostings split
    /// the grid).
    pub fn work(&self) -> Work<'static> {
        Work::Distributed {
            per_item: vec![self.work_per_cell; self.grid.n_cells()].into(),
            layout: ItemLayout::Block,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airshed_grid::datasets::Dataset;

    fn model() -> (PopExpModel, Vec<f64>, usize) {
        let d = Dataset::tiny(80);
        let grid = PopulationGrid::build(&d, 16, 16, 1.0e6);
        let n = d.nodes();
        // Synthetic surface: uniform 60 ppb O3, some NO2/CO/SO2.
        let mut surface = vec![0.0; 4 * n];
        surface[..n].iter_mut().for_each(|x| *x = 0.06);
        surface[n..2 * n].iter_mut().for_each(|x| *x = 0.02);
        surface[2 * n..3 * n].iter_mut().for_each(|x| *x = 1.0);
        surface[3 * n..].iter_mut().for_each(|x| *x = 0.005);
        (PopExpModel::new(grid), surface, n)
    }

    #[test]
    fn uniform_field_gives_population_weighted_dose() {
        let (m, surface, _) = model();
        let r = m.exposure_hour(9, &surface);
        let expect_dose = 1.0e6 * (0.06 + 0.6 * 0.02 + 0.02 * 1.0 + 0.8 * 0.005);
        assert!(
            (r.person_dose - expect_dose).abs() / expect_dose < 1e-9,
            "{} vs {expect_dose}",
            r.person_dose
        );
        // 60 ppb < 80 ppb threshold: nobody exceeds.
        assert_eq!(r.people_above_o3_threshold, 0.0);
        assert!(r.excess_events > 0.0);
    }

    #[test]
    fn threshold_counts_people() {
        let (m, mut surface, n) = model();
        // Push O3 over the threshold everywhere.
        surface[..n].iter_mut().for_each(|x| *x = 0.1);
        let r = m.exposure_hour(14, &surface);
        assert!((r.people_above_o3_threshold - 1.0e6).abs() < 1.0);
    }

    #[test]
    fn split_evaluation_matches_sequential() {
        let (m, surface, _) = model();
        let seq = m.exposure_hour(10, &surface);
        for parts in [2usize, 3, 7, 16] {
            let par = m.exposure_hour_split(10, &surface, parts);
            assert!((par.person_dose - seq.person_dose).abs() < 1e-6);
            assert_eq!(par.people_above_o3_threshold, seq.people_above_o3_threshold);
        }
    }

    #[test]
    fn work_covers_all_cells() {
        let (m, _, _) = model();
        let Work::Distributed { per_item, layout } = m.work() else {
            panic!("PopExp work is distributed over cells");
        };
        for p in [1usize, 3, 8] {
            let w = layout.per_node(&per_item, p);
            assert_eq!(w.len(), p);
            let total: f64 = w.iter().sum();
            assert!(
                (total - m.grid.n_cells() as f64 * m.work_per_cell).abs() < 1e-9,
                "p={p}"
            );
        }
    }
}
