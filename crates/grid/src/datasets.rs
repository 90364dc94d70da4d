//! Dataset presets reproducing the paper's two experimental inputs.
//!
//! The paper evaluates Airshed on two data sets:
//!
//! * **Los Angeles basin** — concentration array `A(35, 5, 700)`;
//! * **North-East United States** — `A(35, 5, 3328)`.
//!
//! We do not have the CIT model's proprietary grid files, so each preset
//! synthesizes a multiscale grid with the same *shape*: a basin- or
//! region-scale domain, urban emission hot-spots that attract quadtree
//! refinement, and a grid-column count calibrated to the paper's value.
//! The calibration loop rebuilds the (cheap, deterministic) quadtree a few
//! times, adjusting the leaf target until the free-node count is within
//! tolerance of the requested column count.

use crate::geometry::{Point, Rect};
use crate::mesh::Mesh;
use crate::quadtree::{QuadTree, RefineParams};

/// A Gaussian urban hot-spot: emission intensity `amp · exp(-d²/2σ²)`.
#[derive(Debug, Clone)]
pub struct HotSpot {
    pub center: Point,
    pub amplitude: f64,
    pub sigma_km: f64,
}

/// Declarative description of a dataset, sufficient to rebuild it.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    pub name: &'static str,
    pub domain: Rect,
    pub base_nx: u32,
    pub base_ny: u32,
    pub max_depth: u32,
    pub hotspots: Vec<HotSpot>,
    /// Background (rural) emission density relative to hot-spot peaks.
    pub background: f64,
    /// Requested number of grid columns (free mesh nodes).
    pub target_nodes: usize,
    /// Number of vertical layers.
    pub layers: usize,
    /// Number of chemical species tracked.
    pub species: usize,
    /// Vertical layer interface heights in metres, `layers + 1` entries
    /// starting at the surface.
    pub layer_interfaces_m: Vec<f64>,
}

/// A constructed dataset: spec + grid + mesh.
pub struct Dataset {
    pub spec: DatasetSpec,
    pub tree: QuadTree,
    pub mesh: Mesh,
}

impl DatasetSpec {
    /// Urban emission density at a world point. Shared by grid refinement,
    /// the emission inventory and the population model, so all three are
    /// spatially consistent (people live where emissions are, as in any
    /// real urban region).
    pub fn urban_density(&self, p: Point) -> f64 {
        let mut d = self.background;
        for h in &self.hotspots {
            let r2 = (p.x - h.center.x).powi(2) + (p.y - h.center.y).powi(2);
            d += h.amplitude * (-r2 / (2.0 * h.sigma_km * h.sigma_km)).exp();
        }
        d
    }

    /// Layer mid-point heights in metres.
    pub fn layer_midpoints_m(&self) -> Vec<f64> {
        (0..self.layers)
            .map(|l| 0.5 * (self.layer_interfaces_m[l] + self.layer_interfaces_m[l + 1]))
            .collect()
    }

    /// Layer thicknesses in metres.
    pub fn layer_thickness_m(&self) -> Vec<f64> {
        (0..self.layers)
            .map(|l| self.layer_interfaces_m[l + 1] - self.layer_interfaces_m[l])
            .collect()
    }
}

impl Dataset {
    /// Build a dataset from its spec, calibrating the quadtree leaf target
    /// until the free-node count lands within 2 % of
    /// `spec.target_nodes` (or the closest achievable).
    pub fn build(spec: DatasetSpec) -> Dataset {
        let mut target_leaves = spec.target_nodes.saturating_sub(spec.target_nodes / 16);
        let mut best: Option<(usize, QuadTree, Mesh)> = None;
        for _ in 0..8 {
            let tree = QuadTree::build(
                spec.domain,
                RefineParams {
                    base_nx: spec.base_nx,
                    base_ny: spec.base_ny,
                    max_depth: spec.max_depth,
                    target_leaves,
                },
                |p| spec.urban_density(p),
            );
            let mesh = Mesh::from_quadtree(&tree);
            let got = mesh.n_free();
            let err = got.abs_diff(spec.target_nodes);
            let better = best.as_ref().is_none_or(|(e, _, _)| err < *e);
            if better {
                best = Some((err, tree, mesh));
            }
            if err * 50 <= spec.target_nodes {
                break; // within 2 %
            }
            // Proportional adjustment of the leaf target.
            let ratio = spec.target_nodes as f64 / got.max(1) as f64;
            let next = ((target_leaves.max(1) as f64) * ratio).round() as usize;
            if next == target_leaves {
                break;
            }
            target_leaves = next;
        }
        let (_, tree, mesh) = best.expect("at least one build attempted");
        Dataset { spec, tree, mesh }
    }

    /// The Los Angeles basin preset: ≈700 grid columns, 5 layers,
    /// 35 species, over a 320 km × 160 km coastal domain with hot-spots
    /// for the central basin, the ports, and the inland valleys.
    pub fn los_angeles() -> Dataset {
        Dataset::build(DatasetSpec {
            name: "LA",
            domain: Rect::new(0.0, 0.0, 320.0, 160.0),
            base_nx: 8,
            base_ny: 4,
            max_depth: 4,
            hotspots: vec![
                HotSpot {
                    center: Point::new(120.0, 80.0), // downtown
                    amplitude: 10.0,
                    sigma_km: 22.0,
                },
                HotSpot {
                    center: Point::new(105.0, 55.0), // ports / Long Beach
                    amplitude: 7.0,
                    sigma_km: 14.0,
                },
                HotSpot {
                    center: Point::new(170.0, 95.0), // San Gabriel valley
                    amplitude: 5.0,
                    sigma_km: 18.0,
                },
                HotSpot {
                    center: Point::new(230.0, 75.0), // inland empire
                    amplitude: 3.5,
                    sigma_km: 25.0,
                },
            ],
            background: 0.08,
            target_nodes: 700,
            layers: 5,
            species: 35,
            layer_interfaces_m: vec![0.0, 75.0, 200.0, 450.0, 900.0, 1600.0],
        })
    }

    /// The North-East United States preset: ≈3328 grid columns, 5 layers,
    /// 35 species, over a 1000 km × 800 km domain with hot-spots for the
    /// I-95 corridor cities.
    pub fn north_east() -> Dataset {
        Dataset::build(DatasetSpec {
            name: "NE",
            domain: Rect::new(0.0, 0.0, 1000.0, 800.0),
            base_nx: 10,
            base_ny: 8,
            max_depth: 5,
            hotspots: vec![
                HotSpot {
                    center: Point::new(560.0, 360.0), // New York
                    amplitude: 10.0,
                    sigma_km: 35.0,
                },
                HotSpot {
                    center: Point::new(470.0, 280.0), // Philadelphia
                    amplitude: 6.0,
                    sigma_km: 25.0,
                },
                HotSpot {
                    center: Point::new(760.0, 560.0), // Boston
                    amplitude: 6.0,
                    sigma_km: 25.0,
                },
                HotSpot {
                    center: Point::new(360.0, 160.0), // Washington–Baltimore
                    amplitude: 7.0,
                    sigma_km: 30.0,
                },
                HotSpot {
                    center: Point::new(120.0, 320.0), // Pittsburgh
                    amplitude: 3.5,
                    sigma_km: 22.0,
                },
                HotSpot {
                    center: Point::new(620.0, 430.0), // Hartford/Connecticut
                    amplitude: 3.0,
                    sigma_km: 20.0,
                },
            ],
            background: 0.05,
            target_nodes: 3328,
            layers: 5,
            species: 35,
            layer_interfaces_m: vec![0.0, 75.0, 200.0, 450.0, 900.0, 1600.0],
        })
    }

    /// A miniature dataset for fast unit and integration tests
    /// (≈`target` columns, default 80).
    pub fn tiny(target: usize) -> Dataset {
        Dataset::build(DatasetSpec {
            name: "TINY",
            domain: Rect::new(0.0, 0.0, 100.0, 100.0),
            base_nx: 4,
            base_ny: 4,
            max_depth: 3,
            hotspots: vec![HotSpot {
                center: Point::new(35.0, 40.0),
                amplitude: 8.0,
                sigma_km: 15.0,
            }],
            background: 0.1,
            target_nodes: target,
            layers: 5,
            species: 35,
            layer_interfaces_m: vec![0.0, 75.0, 200.0, 450.0, 900.0, 1600.0],
        })
    }

    /// Grid-column count actually achieved (the `nodes` array extent).
    pub fn nodes(&self) -> usize {
        self.mesh.n_free()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn la_matches_paper_shape() {
        let d = Dataset::los_angeles();
        let n = d.nodes();
        assert!(
            n.abs_diff(700) * 50 <= 700,
            "LA nodes {n} not within 2% of 700"
        );
        assert_eq!(d.spec.layers, 5);
        assert_eq!(d.spec.species, 35);
    }

    #[test]
    fn ne_matches_paper_shape() {
        let d = Dataset::north_east();
        let n = d.nodes();
        assert!(
            n.abs_diff(3328) * 50 <= 3328,
            "NE nodes {n} not within 2% of 3328"
        );
    }

    #[test]
    fn tiny_is_small_and_fast() {
        let d = Dataset::tiny(80);
        assert!(d.nodes() >= 40 && d.nodes() <= 160, "got {}", d.nodes());
    }

    #[test]
    fn urban_density_peaks_at_hotspots() {
        let d = Dataset::los_angeles();
        let downtown = d.spec.urban_density(Point::new(120.0, 80.0));
        let ocean = d.spec.urban_density(Point::new(10.0, 10.0));
        assert!(downtown > 5.0 * ocean);
    }

    #[test]
    fn layer_geometry_consistent() {
        let d = Dataset::tiny(60);
        let mids = d.spec.layer_midpoints_m();
        let thick = d.spec.layer_thickness_m();
        assert_eq!(mids.len(), 5);
        assert_eq!(thick.len(), 5);
        assert!(thick.iter().all(|&t| t > 0.0));
        assert!(mids.windows(2).all(|w| w[0] < w[1]));
        let total: f64 = thick.iter().sum();
        assert!((total - 1600.0).abs() < 1e-9);
    }

    #[test]
    fn refinement_concentrates_columns_in_urban_areas() {
        let d = Dataset::los_angeles();
        // Count columns within 40 km of downtown vs an equal-size far box.
        let near = (0..d.nodes())
            .filter(|&s| d.mesh.free_point(s).dist(&Point::new(120.0, 80.0)) < 40.0)
            .count();
        let far = (0..d.nodes())
            .filter(|&s| d.mesh.free_point(s).dist(&Point::new(300.0, 20.0)) < 40.0)
            .count();
        assert!(near > 3 * far.max(1), "near {near} columns vs far {far}");
    }
}
