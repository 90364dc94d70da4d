//! The concentration state `A(species, layers, nodes)` and its science
//! summaries.

use airshed_chem::species::{self as sp, N_SPECIES};
use airshed_grid::datasets::Dataset;
use serde::Serialize;

/// Flattened concentration array, species-major:
/// `idx(s, l, n) = (s * layers + l) * nodes + n`, ppm.
#[derive(Debug, Clone)]
pub struct SimState {
    pub conc: Vec<f64>,
    pub species: usize,
    pub layers: usize,
    pub nodes: usize,
}

impl SimState {
    /// Initialise from the clean-air background, with a mild surface
    /// enrichment of primary pollutants over the urban hot-spots so the
    /// first hours are not a cold start.
    pub fn from_background(dataset: &Dataset) -> SimState {
        let layers = dataset.spec.layers;
        let nodes = dataset.nodes();
        let bg = sp::background_vector();
        let mut conc = vec![0.0; N_SPECIES * layers * nodes];
        let peak = dataset
            .spec
            .hotspots
            .iter()
            .map(|h| h.amplitude)
            .fold(0.0f64, f64::max)
            .max(1e-9);
        for s in 0..N_SPECIES {
            for l in 0..layers {
                for n in 0..nodes {
                    conc[(s * layers + l) * nodes + n] = bg[s];
                }
            }
        }
        // Surface urban enrichment of NO, NO2, CO, PAR proportional to
        // the urban density (aged overnight emissions).
        for n in 0..nodes {
            let urban = dataset.spec.urban_density(dataset.mesh.free_point(n)) / peak;
            for (s, boost) in [
                (sp::NO, 0.015),
                (sp::NO2, 0.02),
                (sp::CO, 0.8),
                (sp::PAR, 0.25),
                (sp::OLE, 0.01),
                (sp::FORM, 0.005),
                (sp::NH3, 0.004),
            ] {
                conc[(s * layers) * nodes + n] += boost * urban;
            }
        }
        SimState {
            conc,
            species: N_SPECIES,
            layers,
            nodes,
        }
    }

    #[inline]
    pub fn idx(&self, s: usize, l: usize, n: usize) -> usize {
        (s * self.layers + l) * self.nodes + n
    }

    /// Array shape `[species, layers, nodes]`.
    pub fn shape(&self) -> [usize; 3] {
        [self.species, self.layers, self.nodes]
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.conc.len()
    }

    pub fn is_empty(&self) -> bool {
        self.conc.is_empty()
    }

    /// View of one (species, layer) plane across all grid columns.
    pub fn plane(&self, s: usize, l: usize) -> &[f64] {
        let base = (s * self.layers + l) * self.nodes;
        &self.conc[base..base + self.nodes]
    }

    /// Mutable view of one (species, layer) plane.
    pub fn plane_mut(&mut self, s: usize, l: usize) -> &mut [f64] {
        let base = (s * self.layers + l) * self.nodes;
        &mut self.conc[base..base + self.nodes]
    }

    /// Copy one grid column into `out` cell-major (`out[l * species + s]`):
    /// each grid cell's species vector is contiguous — the structure-of-
    /// arrays layout the Young–Boris inner loop integrates in place.
    pub fn read_column_cells(&self, n: usize, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.species * self.layers);
        for l in 0..self.layers {
            for s in 0..self.species {
                out[l * self.species + s] = self.conc[self.idx(s, l, n)];
            }
        }
    }

    /// Write a grid column back from the layout `read_column_cells`
    /// produced.
    pub fn write_column_cells(&mut self, n: usize, data: &[f64]) {
        debug_assert_eq!(data.len(), self.species * self.layers);
        for l in 0..self.layers {
            for s in 0..self.species {
                let i = self.idx(s, l, n);
                self.conc[i] = data[l * self.species + s];
            }
        }
    }

    /// Per-(layer, node) cell volume weights (layer thickness × nodal
    /// area), used by the aerosol global burdens.
    pub fn cell_volumes(dataset: &Dataset) -> Vec<f64> {
        let thick = dataset.spec.layer_thickness_m();
        let nodes = dataset.nodes();
        let mut vol = vec![0.0; dataset.spec.layers * nodes];
        for (l, &tz) in thick.iter().enumerate() {
            for n in 0..nodes {
                vol[l * nodes + n] = tz * dataset.mesh.nodal_area[n];
            }
        }
        vol
    }

    /// Quick validity scan: everything finite and non-negative.
    pub fn is_physical(&self) -> bool {
        self.conc.iter().all(|&c| c.is_finite() && c >= 0.0)
    }
}

/// Science summary of one simulated hour — what `outputhour` writes.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HourSummary {
    pub hour: usize,
    /// Domain-max surface ozone (ppm).
    pub max_o3: f64,
    /// Area-weighted mean surface ozone (ppm).
    pub mean_o3: f64,
    /// Area-weighted mean surface NOx (ppm).
    pub mean_nox: f64,
    /// Domain-total gas-phase nitrogen (ppm, volume-weighted mean).
    pub mean_total_n: f64,
}

impl HourSummary {
    /// Compute the summary from the current state.
    pub fn compute(state: &SimState, dataset: &Dataset, hour: usize) -> HourSummary {
        let area: f64 = dataset.mesh.nodal_area.iter().sum();
        let surf_o3 = state.plane(sp::O3, 0);
        let surf_no = state.plane(sp::NO, 0);
        let surf_no2 = state.plane(sp::NO2, 0);
        let mut max_o3 = 0.0f64;
        let mut mean_o3 = 0.0;
        let mut mean_nox = 0.0;
        for n in 0..state.nodes {
            let w = dataset.mesh.nodal_area[n] / area;
            max_o3 = max_o3.max(surf_o3[n]);
            mean_o3 += w * surf_o3[n];
            mean_nox += w * (surf_no[n] + surf_no2[n]);
        }
        // Volume-weighted mean total nitrogen over the whole domain.
        let mut mean_total_n = 0.0;
        let mut cell = vec![0.0; state.species];
        let vols = SimState::cell_volumes(dataset);
        let total_vol: f64 = vols.iter().sum();
        for l in 0..state.layers {
            for n in 0..state.nodes {
                for (s, c) in cell.iter_mut().enumerate() {
                    *c = state.conc[state.idx(s, l, n)];
                }
                mean_total_n += vols[l * state.nodes + n]
                    * airshed_chem::mechanism::Mechanism::total_nitrogen(&cell);
            }
        }
        mean_total_n /= total_vol;
        HourSummary {
            hour,
            max_o3,
            mean_o3,
            mean_nox,
            mean_total_n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airshed_grid::datasets::Dataset;

    #[test]
    fn background_init_shape_and_positivity() {
        let d = Dataset::tiny(80);
        let s = SimState::from_background(&d);
        assert_eq!(s.shape(), [35, 5, d.nodes()]);
        assert_eq!(s.len(), 35 * 5 * d.nodes());
        assert!(s.is_physical());
        // Ozone background everywhere.
        assert!(s.plane(sp::O3, 0).iter().all(|&c| (c - 0.04).abs() < 1e-12));
    }

    #[test]
    fn urban_surface_enrichment() {
        let d = Dataset::tiny(80);
        let s = SimState::from_background(&d);
        let hot = d
            .mesh
            .nearest_free(airshed_grid::geometry::Point::new(35.0, 40.0));
        let cold = d
            .mesh
            .nearest_free(airshed_grid::geometry::Point::new(95.0, 95.0));
        let no = s.plane(sp::NO, 0);
        assert!(
            no[hot] > no[cold],
            "urban NO {} vs rural {}",
            no[hot],
            no[cold]
        );
        // Enrichment only at the surface.
        let no_aloft = s.plane(sp::NO, 4);
        assert!(no_aloft[hot] < no[hot]);
    }

    #[test]
    fn column_roundtrip() {
        let d = Dataset::tiny(60);
        let mut s = SimState::from_background(&d);
        let mut col = vec![0.0; 35 * 5];
        s.read_column_cells(3, &mut col);
        col[7] = 0.123;
        s.write_column_cells(3, &col);
        let mut col2 = vec![0.0; 35 * 5];
        s.read_column_cells(3, &mut col2);
        assert_eq!(col, col2);
        // Cell-major: entry 7 is species 7 of layer 0.
        assert_eq!(s.plane(7, 0)[3], 0.123);
    }

    #[test]
    fn cell_volumes_total() {
        let d = Dataset::tiny(60);
        let vols = SimState::cell_volumes(&d);
        let total: f64 = vols.iter().sum();
        let expect = 1600.0 * 100.0 * 100.0; // depth × domain area
        assert!((total - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn hour_summary_reads_state() {
        let d = Dataset::tiny(60);
        let s = SimState::from_background(&d);
        let h = HourSummary::compute(&s, &d, 7);
        assert_eq!(h.hour, 7);
        assert!((h.max_o3 - 0.04).abs() < 1e-9);
        assert!(h.mean_nox > 0.0);
        assert!(h.mean_total_n > 0.0);
    }
}
