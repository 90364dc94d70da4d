//! Vertical transport: implicit diffusion through the layer stack of one
//! grid column, with surface emission and dry-deposition fluxes.
//!
//! Vertical transport belongs to the `Lcz` operator (it is combined with
//! chemistry in the paper's operator splitting because both are local to a
//! grid column and act on similar time scales). The discretisation is a
//! conservative flux-form backward Euler solved with the Thomas algorithm,
//! so arbitrarily large `Kz·dt` is stable — important because convective
//! mixing in a grown boundary layer is fast compared to the transport step.

/// Vertical geometry of a column, derived from the dataset's layer
/// interface heights.
#[derive(Debug, Clone)]
pub struct ColumnGeometry {
    /// Layer thicknesses (m), surface layer first.
    pub dz: Vec<f64>,
    /// Layer mid-point heights (m).
    pub zm: Vec<f64>,
}

impl ColumnGeometry {
    /// Build from `layers + 1` interface heights starting at the surface.
    pub fn from_interfaces(interfaces: &[f64]) -> ColumnGeometry {
        assert!(interfaces.len() >= 2, "need at least one layer");
        assert!(
            interfaces.windows(2).all(|w| w[1] > w[0]),
            "interfaces must increase"
        );
        let dz: Vec<f64> = interfaces.windows(2).map(|w| w[1] - w[0]).collect();
        let zm: Vec<f64> = interfaces.windows(2).map(|w| 0.5 * (w[0] + w[1])).collect();
        ColumnGeometry { dz, zm }
    }

    pub fn n_layers(&self) -> usize {
        self.dz.len()
    }

    /// Total column depth (m).
    pub fn depth(&self) -> f64 {
        self.dz.iter().sum()
    }

    /// Column mass functional `Σ c_l · dz_l` (ppm·m), conserved by pure
    /// diffusion.
    pub fn column_mass(&self, c: &[f64]) -> f64 {
        c.iter().zip(&self.dz).map(|(&ci, &dzi)| ci * dzi).sum()
    }
}

/// Solve a tridiagonal system in place with the Thomas algorithm.
///
/// `lower[l]` couples row `l` to `l-1` (entry 0 unused), `upper[l]` couples
/// to `l+1` (last entry unused). `rhs` is overwritten with the solution.
/// The systems produced by backward-Euler diffusion are strictly
/// diagonally dominant, so no pivoting is needed.
pub fn thomas_solve(lower: &[f64], diag: &[f64], upper: &[f64], rhs: &mut [f64]) {
    let n = diag.len();
    debug_assert!(lower.len() == n && upper.len() == n && rhs.len() == n);
    debug_assert!(n > 0);
    // Forward elimination into scratch copies kept on the stack via small
    // vectors (columns have only a handful of layers).
    let mut cprime = vec![0.0; n];
    let mut denom = diag[0];
    assert!(denom.abs() > 1e-300, "singular tridiagonal system");
    cprime[0] = upper[0] / denom;
    rhs[0] /= denom;
    for l in 1..n {
        denom = diag[l] - lower[l] * cprime[l - 1];
        assert!(denom.abs() > 1e-300, "singular tridiagonal system");
        cprime[l] = upper[l] / denom;
        rhs[l] = (rhs[l] - lower[l] * rhs[l - 1]) / denom;
    }
    for l in (0..n - 1).rev() {
        rhs[l] -= cprime[l] * rhs[l + 1];
    }
}

/// The backward-Euler system of one column over `dt_min` minutes, into
/// `lower`/`diag`/`upper` (see [`thomas_solve`]): interface diffusion plus
/// the implicit first-order deposition sink in the surface layer. It does
/// not depend on the species' concentrations, so [`diffuse_column`] and
/// the four-column `simd::diffuse_column4` share it.
pub(crate) fn diffusion_system(
    geom: &ColumnGeometry,
    kz: &[f64],
    dep_velocity: f64,
    dt_min: f64,
    [lower, diag, upper]: [&mut Vec<f64>; 3],
) {
    let n = geom.n_layers();
    debug_assert_eq!(kz.len(), n - 1);
    for (v, fill) in [(&mut *lower, 0.0), (&mut *diag, 1.0), (&mut *upper, 0.0)] {
        v.clear();
        v.resize(n, fill);
    }
    for l in 0..n {
        if l > 0 {
            let dzc = geom.zm[l] - geom.zm[l - 1];
            let a = dt_min * kz[l - 1] / (geom.dz[l] * dzc);
            lower[l] = -a;
            diag[l] += a;
        }
        if l + 1 < n {
            let dzc = geom.zm[l + 1] - geom.zm[l];
            let b = dt_min * kz[l] / (geom.dz[l] * dzc);
            upper[l] = -b;
            diag[l] += b;
        }
    }
    diag[0] += dt_min * dep_velocity / geom.dz[0];
}

/// Advance one species in one column by `dt_min` minutes.
///
/// * `kz` — interior interface diffusivities (m²/min), `n_layers - 1`
///   values: `kz[k]` acts between layer `k` and layer `k+1`.
/// * `dep_velocity` — dry-deposition velocity out of the surface layer
///   (m/min).
/// * `emis_flux` — surface emission flux into the lowest layer (ppm·m/min).
pub fn diffuse_column(
    geom: &ColumnGeometry,
    kz: &[f64],
    dep_velocity: f64,
    emis_flux: f64,
    dt_min: f64,
    c: &mut [f64],
) {
    debug_assert_eq!(c.len(), geom.n_layers());
    if dt_min <= 0.0 {
        return;
    }
    let (mut lower, mut diag, mut upper) = (Vec::new(), Vec::new(), Vec::new());
    let system = [&mut lower, &mut diag, &mut upper];
    diffusion_system(geom, kz, dep_velocity, dt_min, system);
    // Emission: explicit source into the surface layer.
    c[0] += dt_min * emis_flux / geom.dz[0];
    thomas_solve(&lower, &diag, &upper, c);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> ColumnGeometry {
        ColumnGeometry::from_interfaces(&[0.0, 75.0, 200.0, 450.0, 900.0, 1600.0])
    }

    #[test]
    fn geometry_from_interfaces() {
        let g = geom();
        assert_eq!(g.n_layers(), 5);
        assert_eq!(g.dz[0], 75.0);
        assert_eq!(g.dz[4], 700.0);
        assert!((g.depth() - 1600.0).abs() < 1e-12);
        assert_eq!(g.zm[0], 37.5);
    }

    #[test]
    fn thomas_matches_manual_3x3() {
        // [2 1 0; 1 3 1; 0 1 2] x = [3; 10; 9] -> x = [0.5, 2.0, 3.5]
        let lower = [0.0, 1.0, 1.0];
        let diag = [2.0, 3.0, 2.0];
        let upper = [1.0, 1.0, 0.0];
        let mut rhs = [3.0, 10.0, 9.0];
        thomas_solve(&lower, &diag, &upper, &mut rhs);
        let expect = [0.5, 2.0, 3.5];
        for (got, want) in rhs.iter().zip(&expect) {
            assert!((got - want).abs() < 1e-12, "{rhs:?}");
        }
    }

    #[test]
    fn pure_diffusion_conserves_column_mass() {
        let g = geom();
        let kz = vec![30.0, 25.0, 15.0, 5.0]; // m^2/min
        let mut c = vec![0.5, 0.1, 0.05, 0.02, 0.01];
        let m0 = g.column_mass(&c);
        for _ in 0..50 {
            diffuse_column(&g, &kz, 0.0, 0.0, 10.0, &mut c);
        }
        let m1 = g.column_mass(&c);
        assert!((m1 - m0).abs() / m0 < 1e-10, "mass drift {m0} -> {m1}");
    }

    #[test]
    fn strong_mixing_homogenizes_the_column() {
        let g = geom();
        let kz = vec![1e5; 4];
        let mut c = vec![1.0, 0.0, 0.0, 0.0, 0.0];
        let m0 = g.column_mass(&c);
        for _ in 0..200 {
            diffuse_column(&g, &kz, 0.0, 0.0, 10.0, &mut c);
        }
        let uniform = m0 / g.depth();
        for (l, &cl) in c.iter().enumerate() {
            assert!(
                (cl - uniform).abs() / uniform < 1e-3,
                "layer {l}: {cl} vs uniform {uniform}"
            );
        }
    }

    #[test]
    fn deposition_removes_mass_monotonically() {
        let g = geom();
        let kz = vec![30.0; 4];
        let mut c = vec![0.1; 5];
        let mut last = g.column_mass(&c);
        for _ in 0..20 {
            diffuse_column(&g, &kz, 0.5, 0.0, 10.0, &mut c);
            let m = g.column_mass(&c);
            assert!(m < last, "deposition must lose mass: {m} !< {last}");
            last = m;
        }
        assert!(c.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn emission_adds_expected_mass() {
        let g = geom();
        let kz = vec![30.0; 4];
        let mut c = vec![0.0; 5];
        let flux = 2.0; // ppm·m/min
        let dt = 5.0;
        let steps = 12;
        for _ in 0..steps {
            diffuse_column(&g, &kz, 0.0, flux, dt, &mut c);
        }
        let mass = g.column_mass(&c);
        let expect = flux * dt * steps as f64;
        assert!(
            (mass - expect).abs() / expect < 1e-10,
            "mass {mass} vs emitted {expect}"
        );
        // Surface layer should hold the highest concentration.
        assert!(c[0] > c[4]);
    }

    #[test]
    fn stability_at_large_dt() {
        // Backward Euler must stay bounded and positive even for huge
        // Kz·dt (unresolved convective mixing).
        let g = geom();
        let kz = vec![1e7; 4];
        let mut c = vec![1.0, 0.0, 0.0, 0.0, 0.0];
        diffuse_column(&g, &kz, 0.0, 0.0, 60.0, &mut c);
        assert!(c.iter().all(|&x| x.is_finite() && x >= -1e-12));
        let spread = c.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - c.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread < 1e-3, "should be nearly uniform, spread {spread}");
    }
}
