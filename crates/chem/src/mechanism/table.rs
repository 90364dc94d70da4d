//! The one carbon-bond table, and the row types it is written in.
//!
//! This file is the only definition of the chemistry. It is compiled
//! twice: into the crate (where [`carbon_bond_table`] fills
//! `Mechanism::carbon_bond()`), and into `build.rs`, which hands the very
//! same `Vec<Reaction>` to `mechanism/codegen.rs` to emit the straight-line
//! production/loss kernels. It therefore depends on nothing but
//! `crate::species`.

use crate::species::*;

/// Rate law for one reaction.
#[derive(Debug, Clone, Copy)]
pub enum RateLaw {
    /// `k = a · (T/300)^t_exp · exp(-ea_over_r / T)`, ppm–min units.
    Arrhenius { a: f64, t_exp: f64, ea_over_r: f64 },
    /// `J = j_max · sun^power`, where `sun ∈ [0,1]` is the actinic factor
    /// (1 at local noon, 0 at night). `power > 1` models rates that decay
    /// faster with zenith angle (e.g. O1D production).
    Photolysis { j_max: f64, power: f64 },
}

impl RateLaw {
    /// Evaluate the rate constant at temperature `t` (K) and actinic
    /// factor `sun`.
    ///
    /// Integer exponents take an exact fast path (`powf(x, 0) = 1` and
    /// `powf(x, 1) = x` bit-for-bit per IEEE `pow`, and `powi` for the
    /// other small integers), so hoisting or fast-pathing never changes
    /// a rate constant's bits.
    #[inline]
    pub fn eval(&self, t: f64, sun: f64) -> f64 {
        match *self {
            RateLaw::Arrhenius {
                a,
                t_exp,
                ea_over_r,
            } => {
                let mut k = a;
                if t_exp != 0.0 {
                    k *= pow_fast(t / 300.0, t_exp);
                }
                if ea_over_r != 0.0 {
                    k *= (-ea_over_r / t).exp();
                }
                k
            }
            RateLaw::Photolysis { j_max, power } => {
                if sun <= 0.0 {
                    0.0
                } else {
                    j_max * pow_fast(sun, power)
                }
            }
        }
    }
}

/// `powf` with exact fast paths for the integer exponents the mechanism
/// actually uses: `x^1 = x` (IEEE `pow` identity) and `x^2 = x·x` (both
/// a correctly rounded square). Other exponents fall through to `powf`,
/// so the result is bit-identical to the unconditional `powf` form.
#[inline]
fn pow_fast(x: f64, e: f64) -> f64 {
    if e == 1.0 {
        x
    } else if e == 2.0 {
        x * x
    } else {
        x.powf(e)
    }
}

/// One reaction. `rate_order` lists the species whose concentrations
/// multiply the rate constant (repeated entries give second order in that
/// species). `consume`/`produce` carry stoichiometric coefficients, which
/// may be fractional; CB-IV-style negative product coefficients are
/// expressed as additional `consume` entries by the builder.
#[derive(Debug, Clone)]
pub struct Reaction {
    pub label: &'static str,
    pub rate_law: RateLaw,
    pub rate_order: Vec<usize>,
    pub consume: Vec<(usize, f64)>,
    pub produce: Vec<(usize, f64)>,
}

/// The condensed carbon-bond mechanism (72 reactions, 35 species), in
/// the order the rate-constant vector is indexed.
pub fn carbon_bond_table() -> Vec<Reaction> {
    let mut rx: Vec<Reaction> = Vec::with_capacity(80);

    // Helper closures to keep the table readable.
    let arr = |a: f64, ea_over_r: f64| RateLaw::Arrhenius {
        a,
        t_exp: 0.0,
        ea_over_r,
    };
    let k0 = |a: f64| RateLaw::Arrhenius {
        a,
        t_exp: 0.0,
        ea_over_r: 0.0,
    };
    let phot = |j_max: f64, power: f64| RateLaw::Photolysis { j_max, power };

    let mut add = |label: &'static str,
                   rate_law: RateLaw,
                   order: &[usize],
                   consume: &[(usize, f64)],
                   produce: &[(usize, f64)]| {
        rx.push(Reaction {
            label,
            rate_law,
            rate_order: order.to_vec(),
            consume: consume.to_vec(),
            produce: produce.to_vec(),
        });
    };

    // ---- Inorganic photochemistry --------------------------------
    add(
        "NO2+hv->NO+O",
        phot(0.533, 1.0),
        &[NO2],
        &[(NO2, 1.0)],
        &[(NO, 1.0), (O, 1.0)],
    );
    add("O->O3", k0(4.2e6), &[O], &[(O, 1.0)], &[(O3, 1.0)]);
    add(
        "O3+NO->NO2",
        arr(4428.0, 1500.0),
        &[O3, NO],
        &[(O3, 1.0), (NO, 1.0)],
        &[(NO2, 1.0)],
    );
    add(
        "O+NO2->NO",
        k0(1.375e4),
        &[O, NO2],
        &[(O, 1.0), (NO2, 1.0)],
        &[(NO, 1.0)],
    );
    add(
        "O+NO2->NO3",
        k0(2.3e3),
        &[O, NO2],
        &[(O, 1.0), (NO2, 1.0)],
        &[(NO3, 1.0)],
    );
    add(
        "NO2+O3->NO3",
        arr(176.0, 2450.0),
        &[NO2, O3],
        &[(NO2, 1.0), (O3, 1.0)],
        &[(NO3, 1.0)],
    );
    add(
        "O3+hv->O",
        phot(0.028, 1.0),
        &[O3],
        &[(O3, 1.0)],
        &[(O, 1.0)],
    );
    add(
        "O3+hv->O1D",
        phot(3.0e-3, 2.0),
        &[O3],
        &[(O3, 1.0)],
        &[(O1D, 1.0)],
    );
    add("O1D->O", k0(4.3e10), &[O1D], &[(O1D, 1.0)], &[(O, 1.0)]);
    add(
        "O1D(+H2O)->2OH",
        k0(6.5e9),
        &[O1D],
        &[(O1D, 1.0)],
        &[(OH, 2.0)],
    );
    add(
        "O3+OH->HO2",
        arr(2336.0, 940.0),
        &[O3, OH],
        &[(O3, 1.0), (OH, 1.0)],
        &[(HO2, 1.0)],
    );
    add(
        "O3+HO2->OH",
        arr(21.2, 580.0),
        &[O3, HO2],
        &[(O3, 1.0), (HO2, 1.0)],
        &[(OH, 1.0)],
    );
    // ---- NO3 / N2O5 night chemistry ------------------------------
    add(
        "NO3+hv->.89NO2+.89O+.11NO",
        phot(30.0, 0.5),
        &[NO3],
        &[(NO3, 1.0)],
        &[(NO2, 0.89), (O, 0.89), (NO, 0.11)],
    );
    add(
        "NO3+NO->2NO2",
        k0(4.42e4),
        &[NO3, NO],
        &[(NO3, 1.0), (NO, 1.0)],
        &[(NO2, 2.0)],
    );
    add(
        "NO3+NO2->N2O5",
        k0(1.8e3),
        &[NO3, NO2],
        &[(NO3, 1.0), (NO2, 1.0)],
        &[(N2O5, 1.0)],
    );
    add(
        "N2O5->NO3+NO2",
        arr(2.5e16, 10897.0),
        &[N2O5],
        &[(N2O5, 1.0)],
        &[(NO3, 1.0), (NO2, 1.0)],
    );
    add(
        "N2O5(+H2O)->2HNO3",
        k0(1.9e-3),
        &[N2O5],
        &[(N2O5, 1.0)],
        &[(HNO3, 2.0)],
    );
    // ---- HOx / NOy ------------------------------------------------
    add(
        "HONO+hv->NO+OH",
        phot(0.0977, 1.0),
        &[HONO],
        &[(HONO, 1.0)],
        &[(NO, 1.0), (OH, 1.0)],
    );
    add(
        "NO+OH->HONO",
        k0(9.8e3),
        &[NO, OH],
        &[(NO, 1.0), (OH, 1.0)],
        &[(HONO, 1.0)],
    );
    add(
        "HONO+OH->NO2",
        k0(9.77e3),
        &[HONO, OH],
        &[(HONO, 1.0), (OH, 1.0)],
        &[(NO2, 1.0)],
    );
    add(
        "NO2+OH->HNO3",
        k0(1.682e4),
        &[NO2, OH],
        &[(NO2, 1.0), (OH, 1.0)],
        &[(HNO3, 1.0)],
    );
    add(
        "HNO3+OH->NO3",
        k0(192.0),
        &[HNO3, OH],
        &[(HNO3, 1.0), (OH, 1.0)],
        &[(NO3, 1.0)],
    );
    add(
        "NO+HO2->NO2+OH",
        arr(5482.0, -240.0),
        &[NO, HO2],
        &[(NO, 1.0), (HO2, 1.0)],
        &[(NO2, 1.0), (OH, 1.0)],
    );
    add(
        "HO2+HO2->H2O2",
        k0(4.14e3),
        &[HO2, HO2],
        &[(HO2, 2.0)],
        &[(H2O2, 1.0)],
    );
    add(
        "H2O2+hv->2OH",
        phot(1.3e-3, 1.0),
        &[H2O2],
        &[(H2O2, 1.0)],
        &[(OH, 2.0)],
    );
    add(
        "H2O2+OH->HO2",
        k0(2.52e3),
        &[H2O2, OH],
        &[(H2O2, 1.0), (OH, 1.0)],
        &[(HO2, 1.0)],
    );
    add(
        "OH+HO2->",
        k0(1.6e5),
        &[OH, HO2],
        &[(OH, 1.0), (HO2, 1.0)],
        &[],
    );
    add(
        "CO+OH->HO2",
        k0(322.0),
        &[CO, OH],
        &[(CO, 1.0), (OH, 1.0)],
        &[(HO2, 1.0)],
    );
    add(
        "SO2+OH->SULF+HO2",
        k0(1.5e3),
        &[SO2, OH],
        &[(SO2, 1.0), (OH, 1.0)],
        &[(SULF, 1.0), (HO2, 1.0)],
    );
    add(
        "HO2+NO2->PNA",
        k0(2.0e3),
        &[HO2, NO2],
        &[(HO2, 1.0), (NO2, 1.0)],
        &[(PNA, 1.0)],
    );
    add(
        "PNA->HO2+NO2",
        arr(4.8e15, 10121.0),
        &[PNA],
        &[(PNA, 1.0)],
        &[(HO2, 1.0), (NO2, 1.0)],
    );
    add(
        "PNA+OH->NO2",
        k0(6.9e3),
        &[PNA, OH],
        &[(PNA, 1.0), (OH, 1.0)],
        &[(NO2, 1.0)],
    );
    // ---- Formaldehyde / aldehydes --------------------------------
    add(
        "FORM+OH->HO2+CO",
        k0(1.5e4),
        &[FORM, OH],
        &[(FORM, 1.0), (OH, 1.0)],
        &[(HO2, 1.0), (CO, 1.0)],
    );
    add(
        "FORM+hv->2HO2+CO",
        phot(4.0e-3, 1.2),
        &[FORM],
        &[(FORM, 1.0)],
        &[(HO2, 2.0), (CO, 1.0)],
    );
    add(
        "FORM+hv->CO",
        phot(6.5e-3, 1.0),
        &[FORM],
        &[(FORM, 1.0)],
        &[(CO, 1.0)],
    );
    add(
        "FORM+O->OH+HO2+CO",
        k0(237.0),
        &[FORM, O],
        &[(FORM, 1.0), (O, 1.0)],
        &[(OH, 1.0), (HO2, 1.0), (CO, 1.0)],
    );
    add(
        "FORM+NO3->HNO3+HO2+CO",
        k0(0.93),
        &[FORM, NO3],
        &[(FORM, 1.0), (NO3, 1.0)],
        &[(HNO3, 1.0), (HO2, 1.0), (CO, 1.0)],
    );
    add(
        "ALD2+O->C2O3+OH",
        k0(636.0),
        &[ALD2, O],
        &[(ALD2, 1.0), (O, 1.0)],
        &[(C2O3, 1.0), (OH, 1.0)],
    );
    add(
        "ALD2+OH->C2O3",
        k0(2.4e4),
        &[ALD2, OH],
        &[(ALD2, 1.0), (OH, 1.0)],
        &[(C2O3, 1.0)],
    );
    add(
        "ALD2+NO3->C2O3+HNO3",
        k0(3.7),
        &[ALD2, NO3],
        &[(ALD2, 1.0), (NO3, 1.0)],
        &[(C2O3, 1.0), (HNO3, 1.0)],
    );
    add(
        "ALD2+hv->FORM+XO2+CO+2HO2",
        phot(6.0e-4, 1.3),
        &[ALD2],
        &[(ALD2, 1.0)],
        &[(FORM, 1.0), (XO2, 1.0), (CO, 1.0), (HO2, 2.0)],
    );
    // ---- Peroxyacyl / PAN ----------------------------------------
    add(
        "C2O3+NO->NO2+XO2+FORM+HO2",
        k0(8.0e3),
        &[C2O3, NO],
        &[(C2O3, 1.0), (NO, 1.0)],
        &[(NO2, 1.0), (XO2, 1.0), (FORM, 1.0), (HO2, 1.0)],
    );
    add(
        "C2O3+NO2->PAN",
        k0(1.0e4),
        &[C2O3, NO2],
        &[(C2O3, 1.0), (NO2, 1.0)],
        &[(PAN, 1.0)],
    );
    add(
        "PAN->C2O3+NO2",
        arr(1.2e18, 13543.0),
        &[PAN],
        &[(PAN, 1.0)],
        &[(C2O3, 1.0), (NO2, 1.0)],
    );
    add(
        "C2O3+C2O3->2FORM+2XO2+2HO2",
        k0(3.7e3),
        &[C2O3, C2O3],
        &[(C2O3, 2.0)],
        &[(FORM, 2.0), (XO2, 2.0), (HO2, 2.0)],
    );
    add(
        "C2O3+HO2->.79FORM+.79XO2+.79HO2+.79OH",
        k0(9.6e3),
        &[C2O3, HO2],
        &[(C2O3, 1.0), (HO2, 1.0)],
        &[(FORM, 0.79), (XO2, 0.79), (HO2, 0.79), (OH, 0.79)],
    );
    // ---- Paraffins (note CB-IV negative PAR yields fold into
    //      the consume list) --------------------------------------
    add(
        "PAR+OH->.87XO2+.13XO2N+.11HO2+.11ALD2+.76ROR",
        k0(1.2e3),
        &[PAR, OH],
        &[(PAR, 1.11), (OH, 1.0)], // 1 + 0.11 negative product
        &[
            (XO2, 0.87),
            (XO2N, 0.13),
            (HO2, 0.11),
            (ALD2, 0.11),
            (ROR, 0.76),
        ],
    );
    add(
        "ROR->.96XO2+1.1ALD2+.94HO2+.04XO2N (-2.1PAR)",
        arr(5.4e15, 8000.0),
        &[ROR],
        &[(ROR, 1.0), (PAR, 2.1)],
        &[(XO2, 0.96), (ALD2, 1.1), (HO2, 0.94), (XO2N, 0.04)],
    );
    add("ROR->HO2", k0(95.0), &[ROR], &[(ROR, 1.0)], &[(HO2, 1.0)]);
    add(
        "ROR+NO2->NTR",
        k0(2.2e4),
        &[ROR, NO2],
        &[(ROR, 1.0), (NO2, 1.0)],
        &[(NTR, 1.0)],
    );
    // ---- Olefins --------------------------------------------------
    add(
        "OLE+O->.63ALD2+.38HO2+.28XO2+.3CO+.2FORM+.02XO2N+.2OH",
        k0(5.92e3),
        &[OLE, O],
        &[(OLE, 1.0), (O, 1.0)],
        &[
            (ALD2, 0.63),
            (HO2, 0.38),
            (XO2, 0.28),
            (CO, 0.3),
            (FORM, 0.2),
            (XO2N, 0.02),
            (OH, 0.2),
            (PAR, 0.22),
        ],
    );
    add(
        "OLE+OH->FORM+ALD2+XO2+HO2 (-PAR)",
        arr(7700.0, -540.0),
        &[OLE, OH],
        &[(OLE, 1.0), (OH, 1.0), (PAR, 1.0)],
        &[(FORM, 1.0), (ALD2, 1.0), (XO2, 1.0), (HO2, 1.0)],
    );
    add(
        "OLE+O3->.5ALD2+.74FORM+.33CO+.44HO2+.22XO2+.1OH (-PAR)",
        arr(0.81, 1900.0),
        &[OLE, O3],
        &[(OLE, 1.0), (O3, 1.0), (PAR, 1.0)],
        &[
            (ALD2, 0.5),
            (FORM, 0.74),
            (CO, 0.33),
            (HO2, 0.44),
            (XO2, 0.22),
            (OH, 0.1),
        ],
    );
    add(
        "OLE+NO3->.91XO2+FORM+ALD2+.09XO2N+NO2 (-PAR)",
        k0(11.35),
        &[OLE, NO3],
        &[(OLE, 1.0), (NO3, 1.0), (PAR, 1.0)],
        &[
            (XO2, 0.91),
            (FORM, 1.0),
            (ALD2, 1.0),
            (XO2N, 0.09),
            (NO2, 1.0),
        ],
    );
    // ---- Ethene ---------------------------------------------------
    add(
        "ETH+OH->XO2+1.56FORM+.22ALD2+HO2",
        arr(2950.0, -411.0),
        &[ETH, OH],
        &[(ETH, 1.0), (OH, 1.0)],
        &[(XO2, 1.0), (FORM, 1.56), (ALD2, 0.22), (HO2, 1.0)],
    );
    add(
        "ETH+O3->FORM+.42CO+.12HO2",
        arr(1.7, 2560.0),
        &[ETH, O3],
        &[(ETH, 1.0), (O3, 1.0)],
        &[(FORM, 1.0), (CO, 0.42), (HO2, 0.12)],
    );
    // ---- Aromatics -------------------------------------------------
    add(
        "TOL+OH->.36CRES+.44HO2+.56XO2+.3MGLY",
        k0(9.15e3),
        &[TOL, OH],
        &[(TOL, 1.0), (OH, 1.0)],
        &[(CRES, 0.36), (HO2, 0.44), (XO2, 0.56), (MGLY, 0.3)],
    );
    add(
        "CRES+OH->.4MGLY+.6XO2+.6HO2",
        k0(6.1e4),
        &[CRES, OH],
        &[(CRES, 1.0), (OH, 1.0)],
        &[(MGLY, 0.4), (XO2, 0.6), (HO2, 0.6)],
    );
    add(
        "CRES+NO3->NTR",
        k0(3.25e4),
        &[CRES, NO3],
        &[(CRES, 1.0), (NO3, 1.0)],
        &[(NTR, 1.0)],
    );
    add(
        "XYL+OH->.7HO2+.5XO2+.8MGLY+.2CRES",
        k0(3.62e4),
        &[XYL, OH],
        &[(XYL, 1.0), (OH, 1.0)],
        &[(HO2, 0.7), (XO2, 0.5), (MGLY, 0.8), (CRES, 0.2)],
    );
    add(
        "MGLY+hv->C2O3+HO2+CO",
        phot(0.02, 1.0),
        &[MGLY],
        &[(MGLY, 1.0)],
        &[(C2O3, 1.0), (HO2, 1.0), (CO, 1.0)],
    );
    add(
        "MGLY+OH->XO2+C2O3",
        k0(2.6e4),
        &[MGLY, OH],
        &[(MGLY, 1.0), (OH, 1.0)],
        &[(XO2, 1.0), (C2O3, 1.0)],
    );
    // ---- Isoprene --------------------------------------------------
    add(
        "ISOP+OH->XO2+FORM+.67HO2+.4MGLY+.2C2O3",
        k0(1.42e5),
        &[ISOP, OH],
        &[(ISOP, 1.0), (OH, 1.0)],
        &[
            (XO2, 1.0),
            (FORM, 1.0),
            (HO2, 0.67),
            (MGLY, 0.4),
            (C2O3, 0.2),
        ],
    );
    add(
        "ISOP+O3->FORM+.4ALD2+.55XO2+.25HO2+.2MGLY",
        k0(0.018),
        &[ISOP, O3],
        &[(ISOP, 1.0), (O3, 1.0)],
        &[
            (FORM, 1.0),
            (ALD2, 0.4),
            (XO2, 0.55),
            (HO2, 0.25),
            (MGLY, 0.2),
        ],
    );
    add(
        "ISOP+NO3->NTR+XO2",
        k0(470.0),
        &[ISOP, NO3],
        &[(ISOP, 1.0), (NO3, 1.0)],
        &[(NTR, 1.0), (XO2, 1.0)],
    );
    // ---- Operator radicals ----------------------------------------
    add(
        "XO2+NO->NO2",
        k0(1.2e4),
        &[XO2, NO],
        &[(XO2, 1.0), (NO, 1.0)],
        &[(NO2, 1.0)],
    );
    add("XO2+XO2->", k0(2.4e3), &[XO2, XO2], &[(XO2, 2.0)], &[]);
    add(
        "XO2N+NO->NTR",
        k0(1.0e3),
        &[XO2N, NO],
        &[(XO2N, 1.0), (NO, 1.0)],
        &[(NTR, 1.0)],
    );
    add(
        "XO2+HO2->",
        k0(1.2e4),
        &[XO2, HO2],
        &[(XO2, 1.0), (HO2, 1.0)],
        &[],
    );
    // ---- Methane ---------------------------------------------------
    add(
        "CH4+OH->MEO2",
        arr(1180.0, 1710.0),
        &[CH4, OH],
        &[(CH4, 1.0), (OH, 1.0)],
        &[(MEO2, 1.0)],
    );
    add(
        "MEO2+NO->FORM+HO2+NO2",
        k0(1.1e4),
        &[MEO2, NO],
        &[(MEO2, 1.0), (NO, 1.0)],
        &[(FORM, 1.0), (HO2, 1.0), (NO2, 1.0)],
    );
    add(
        "MEO2+HO2->",
        k0(1.3e4),
        &[MEO2, HO2],
        &[(MEO2, 1.0), (HO2, 1.0)],
        &[],
    );

    // NH3 has no gas-phase reactions here; it is consumed by the
    // aerosol equilibrium module.

    rx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow_fast_paths_are_bit_identical_to_powf() {
        // Every exponent the mechanism uses, across the physical ranges
        // (T/300 near 1, sun in [0,1]). The fast paths must not move a
        // single bit, or hoisted rate constants would drift against the
        // unhoisted history.
        let exps = [0.5, 1.0, 1.2, 1.3, 2.0];
        for i in 0..200 {
            let x = 0.005 * i as f64;
            for &e in &exps {
                assert_eq!(
                    pow_fast(x, e).to_bits(),
                    x.powf(e).to_bits(),
                    "pow_fast({x}, {e})"
                );
            }
        }
    }
}
