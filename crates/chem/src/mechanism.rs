//! Reaction mechanism representation and the condensed carbon-bond
//! mechanism used by the Airshed reproduction.
//!
//! The mechanism follows the structure of CB-IV (Gery et al. 1989), the
//! family the CIT/Airshed chemistry belongs to: explicit inorganic
//! photochemistry, lumped-structure organics with fractional product
//! yields, operator species (XO2, XO2N), and CB-IV's signature *negative*
//! product coefficients for PAR consumption by OLE/ROR chemistry.
//!
//! Rate constants are expressed in the ppm–minute system; photolysis rates
//! scale with the solar actinic factor supplied by the meteorology module.
//!
//! ## Compiled mechanism
//!
//! The carbon-bond rows live once, in `mechanism/table.rs`. `build.rs`
//! compiles that file (and `mechanism/codegen.rs`) into itself and emits
//! one straight-line production/loss kernel for exactly those rows into
//! `OUT_DIR`: every rate, then one register accumulator per species with
//! its terms in reaction order — the order the table walk adds them in.
//! The kernel is generic over its lane count (`airshed_simd::Lanes`):
//! instantiated at `f64` it is [`Mechanism::prod_loss`], bit-identical to
//! the table walk; instantiated at `F64x4` or `F64x8` it is what the
//! integrator's lanes run ([`crate::simd`]), each lane that same
//! arithmetic.
//! [`Mechanism::carbon_bond`] is the only constructor that attaches the
//! kernel, and a `Mechanism` is immutable once built, so kernel and table
//! cannot disagree. A hand-built [`Mechanism::from_table`] is evaluated
//! by the table walk, which is also the oracle the kernel is tested
//! against.
//!
//! Loss frequencies are computed in reciprocal form,
//! `(rate · (1 / max(c, 1e-30))) · ν`, in the table walk and the kernel
//! alike: one reciprocal per species instead of a quotient per term. Each
//! term enters its sum by one fused multiply-add (`f64::mul_add`,
//! correctly rounded on every host), in both as well.

use crate::species::{self as sp, N_SPECIES};

#[cfg(test)]
mod codegen;
mod table;

pub use table::{RateLaw, Reaction};

/// The kernel `build.rs` generates from the carbon-bond table.
pub(crate) mod kernels {
    use airshed_simd::Lanes;

    include!(concat!(env!("OUT_DIR"), "/carbon_bond_kernels.rs"));
}

pub(crate) use kernels::N_REACTIONS;

/// A complete mechanism.
///
/// ```
/// use airshed_chem::mechanism::Mechanism;
/// use airshed_chem::species as sp;
///
/// let mech = Mechanism::carbon_bond();
/// assert_eq!(mech.n_species(), 35);
/// // Daytime rate constants: NO2 photolysis is on.
/// let mut k = Vec::new();
/// mech.rate_constants(298.0, 1.0, &mut k);
/// assert!(k[0] > 0.1); // J(NO2) ~ 0.5 /min at noon
/// ```
#[derive(Debug, Clone)]
pub struct Mechanism {
    reactions: Vec<Reaction>,
    n_species: usize,
    /// `reactions` is the table the generated kernel was compiled
    /// from. Only [`Mechanism::carbon_bond`] sets it and nothing mutates
    /// `reactions`, so it cannot go stale.
    compiled: bool,
}

impl Mechanism {
    /// A mechanism evaluated by walking `reactions` — for hand-built
    /// tables (test toys, audit fixtures, variants of the carbon-bond
    /// rows). Panics if a row names a species `>= n_species`.
    pub fn from_table(reactions: Vec<Reaction>, n_species: usize) -> Mechanism {
        for r in &reactions {
            let stoich = r.consume.iter().chain(&r.produce).map(|&(s, _)| s);
            assert!(
                r.rate_order
                    .iter()
                    .copied()
                    .chain(stoich)
                    .all(|s| s < n_species),
                "reaction '{}' names a species outside 0..{n_species}",
                r.label
            );
        }
        Mechanism {
            reactions,
            n_species,
            compiled: false,
        }
    }

    /// The condensed carbon-bond mechanism (72 reactions, 35 species),
    /// with its generated kernel attached.
    pub fn carbon_bond() -> Mechanism {
        Mechanism {
            compiled: true,
            ..Mechanism::from_table(table::carbon_bond_table(), N_SPECIES)
        }
    }

    /// The reaction rows, in rate-constant order.
    pub fn reactions(&self) -> &[Reaction] {
        &self.reactions
    }

    /// Number of species.
    pub fn n_species(&self) -> usize {
        self.n_species
    }

    /// Number of reactions.
    pub fn n_reactions(&self) -> usize {
        self.reactions.len()
    }

    /// Evaluate all rate constants into `k` (length `n_reactions`).
    pub fn rate_constants(&self, t_kelvin: f64, sun: f64, k: &mut Vec<f64>) {
        k.clear();
        k.extend(
            self.reactions
                .iter()
                .map(|r| r.rate_law.eval(t_kelvin, sun)),
        );
    }

    /// `k` as the fixed-size vector the generated kernel takes, if this
    /// mechanism carries it and `k` has the compiled table's length.
    pub(crate) fn compiled_k<'k>(&self, k: &'k [f64]) -> Option<&'k [f64; N_REACTIONS]> {
        if self.compiled {
            k.try_into().ok()
        } else {
            None
        }
    }

    /// Accumulate production rates `p` (ppm/min) and loss *frequencies*
    /// `l` (1/min) at the state `conc`, given precomputed rate constants.
    /// This is the `dc/dt = P - L·c` decomposition the Young–Boris scheme
    /// integrates. Concentrations and rate constants are non-negative.
    ///
    /// The carbon-bond mechanism runs its generated kernel, one lane
    /// wide; any other table (or slices of another length) takes the
    /// table walk.
    pub fn prod_loss(&self, conc: &[f64], k: &[f64], p: &mut [f64], l: &mut [f64]) {
        if let Some(k) = self.compiled_k(k) {
            if let (Ok(c), Ok(p), Ok(l)) = (
                conc.try_into(),
                <&mut [f64; N_SPECIES]>::try_from(&mut *p),
                <&mut [f64; N_SPECIES]>::try_from(&mut *l),
            ) {
                return kernels::prod_loss(c, k, p, l);
            }
        }
        self.prod_loss_table_walk(conc, k, p, l);
    }

    /// [`Mechanism::prod_loss`] by interpreting the rows.
    fn prod_loss_table_walk(&self, conc: &[f64], k: &[f64], p: &mut [f64], l: &mut [f64]) {
        debug_assert_eq!(conc.len(), self.n_species);
        p.iter_mut().for_each(|x| *x = 0.0);
        l.iter_mut().for_each(|x| *x = 0.0);
        const FLOOR: f64 = 1e-30;
        for (r, &kr) in self.reactions.iter().zip(k) {
            if kr == 0.0 {
                continue;
            }
            let mut rate = kr;
            for &s in &r.rate_order {
                rate *= conc[s];
            }
            if rate <= 0.0 {
                continue;
            }
            for &(s, nu) in &r.consume {
                // Loss frequency nu · rate / c, in the reciprocal form
                // the kernels share: (rate · (1/c)) · nu. The
                // concentrations in `rate_order` include c[s] itself, so
                // this is finite for any state with c[s] > 0; the floor
                // avoids 0/0 for rate 0.
                l[s] = (rate * (1.0 / conc[s].max(FLOOR))).mul_add(nu, l[s]);
            }
            for &(s, nu) in &r.produce {
                p[s] = rate.mul_add(nu, p[s]);
            }
        }
    }

    /// Net tendency `dc/dt = P - L·c` (ppm/min). Convenience for tests and
    /// reference explicit integration.
    pub fn tendency(&self, conc: &[f64], k: &[f64], out: &mut [f64]) {
        let mut p = vec![0.0; self.n_species];
        let mut l = vec![0.0; self.n_species];
        self.prod_loss(conc, k, &mut p, &mut l);
        for i in 0..self.n_species {
            out[i] = p[i] - l[i] * conc[i];
        }
    }

    /// Total nitrogen (all N-containing species weighted by N count) —
    /// conserved by the gas-phase mechanism, used as a correctness probe.
    pub fn total_nitrogen(conc: &[f64]) -> f64 {
        conc[sp::NO]
            + conc[sp::NO2]
            + conc[sp::NO3]
            + 2.0 * conc[sp::N2O5]
            + conc[sp::HONO]
            + conc[sp::HNO3]
            + conc[sp::PNA]
            + conc[sp::PAN]
            + conc[sp::NTR]
            + conc[sp::NH3]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::species as sp;

    fn mech() -> Mechanism {
        Mechanism::carbon_bond()
    }

    #[test]
    fn eval_fast_paths_match_reference_formula() {
        let m = mech();
        for (t, sun) in [(275.0, 0.0), (288.5, 0.3), (300.0, 1.0), (310.0, 0.85)] {
            for r in m.reactions() {
                let want = match r.rate_law {
                    RateLaw::Arrhenius {
                        a,
                        t_exp,
                        ea_over_r,
                    } => a * (t / 300.0f64).powf(t_exp) * (-ea_over_r / t).exp(),
                    RateLaw::Photolysis { j_max, power } => {
                        if sun <= 0.0 {
                            0.0
                        } else {
                            j_max * f64::powf(sun, power)
                        }
                    }
                };
                let got = r.rate_law.eval(t, sun);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{} at T={t} sun={sun}",
                    r.label
                );
            }
        }
    }

    #[test]
    fn mechanism_size() {
        let m = mech();
        assert_eq!(m.n_species(), 35);
        assert_eq!(m.n_reactions(), 72);
        // The kernels index a rate-constant vector of exactly this length.
        assert_eq!(N_REACTIONS, m.n_reactions());
    }

    #[test]
    fn built_kernels_are_what_the_table_in_the_tree_generates() {
        let want = codegen::generate(mech().reactions(), N_SPECIES).unwrap();
        let built = include_str!(concat!(env!("OUT_DIR"), "/carbon_bond_kernels.rs"));
        assert!(want == built, "OUT_DIR kernels are stale against table.rs");
        // No `unsafe`, no unchecked access: fixed-size arrays and
        // constant indices only.
        assert!(!built.contains("unsafe") && !built.contains("unchecked"));
    }

    #[test]
    fn generator_refuses_rows_it_cannot_compile() {
        let mut rows = mech().reactions().to_vec();
        rows[7].label = "A+B+C->";
        rows[7].rate_order = vec![sp::NO, sp::NO2, sp::O3];
        let err = codegen::generate(&rows, N_SPECIES).unwrap_err();
        assert!(
            err.contains("'A+B+C->'") && err.contains("rate_order"),
            "{err}"
        );

        let mut rows = mech().reactions().to_vec();
        rows[3].produce.push((N_SPECIES, 1.0));
        let err = codegen::generate(&rows, N_SPECIES).unwrap_err();
        assert!(
            err.contains("'O+NO2->NO'") && err.contains("out of range"),
            "{err}"
        );

        let mut rows = mech().reactions().to_vec();
        rows[0].consume[0].1 = -1.0;
        let err = codegen::generate(&rows, N_SPECIES).unwrap_err();
        assert!(
            err.contains("'NO2+hv->NO+O'") && err.contains("not positive"),
            "{err}"
        );
    }

    #[test]
    #[should_panic(expected = "names a species outside")]
    fn from_table_rejects_out_of_range_species() {
        let mut rows = mech().reactions().to_vec();
        rows[0].rate_order = vec![N_SPECIES];
        Mechanism::from_table(rows, N_SPECIES);
    }

    #[test]
    fn every_species_index_in_range() {
        let m = mech();
        for r in m.reactions() {
            for &s in &r.rate_order {
                assert!(s < m.n_species(), "{}: bad order idx", r.label);
            }
            for &(s, nu) in r.consume.iter().chain(r.produce.iter()) {
                assert!(s < m.n_species(), "{}: bad stoich idx", r.label);
                assert!(nu > 0.0, "{}: non-positive coefficient", r.label);
            }
        }
    }

    #[test]
    fn consumed_species_appear_in_rate_order() {
        // Loss frequency L = nu·rate/c is only well-behaved if the rate is
        // proportional to c, i.e. the consumed species appears in the rate
        // order. The single sanctioned exception is CB-IV's negative-PAR
        // yield (PAR consumed by OLE/ROR chemistry at a rate set by the
        // olefin), which the stiff solver handles through a large loss
        // frequency.
        let m = mech();
        for r in m.reactions() {
            for &(s, _) in &r.consume {
                assert!(
                    r.rate_order.contains(&s) || s == sp::PAR,
                    "{}: consumes {} but rate does not depend on it",
                    r.label,
                    sp::SPECIES[s].name
                );
            }
        }
    }

    #[test]
    fn arrhenius_reproduces_o3_no_rate() {
        // O3 + NO: k(298) ≈ 26.6 ppm^-1 min^-1 (CB-IV).
        let m = mech();
        let r = m
            .reactions()
            .iter()
            .find(|r| r.label.starts_with("O3+NO"))
            .unwrap();
        let k = r.rate_law.eval(298.15, 0.0);
        assert!((k - 26.6).abs() / 26.6 < 0.10, "k = {k}");
    }

    #[test]
    fn photolysis_zero_at_night() {
        let m = mech();
        let mut k = Vec::new();
        m.rate_constants(298.0, 0.0, &mut k);
        for (r, &kr) in m.reactions().iter().zip(&k) {
            if matches!(r.rate_law, RateLaw::Photolysis { .. }) {
                assert_eq!(kr, 0.0, "{} nonzero at night", r.label);
            } else {
                assert!(kr >= 0.0);
            }
        }
    }

    #[test]
    fn prod_loss_consistent_with_tendency() {
        let m = mech();
        let mut conc = sp::background_vector();
        conc[sp::NO] = 0.05;
        conc[sp::NO2] = 0.03;
        conc[sp::OH] = 1e-7;
        conc[sp::HO2] = 1e-6;
        let mut k = Vec::new();
        m.rate_constants(298.0, 0.8, &mut k);
        let mut p = vec![0.0; 35];
        let mut l = vec![0.0; 35];
        m.prod_loss(&conc, &k, &mut p, &mut l);
        let mut f = vec![0.0; 35];
        m.tendency(&conc, &k, &mut f);
        for i in 0..35 {
            assert!(
                (f[i] - (p[i] - l[i] * conc[i])).abs() <= 1e-12 * (1.0 + f[i].abs()),
                "species {i}"
            );
            assert!(p[i] >= 0.0 && l[i] >= 0.0);
        }
    }

    #[test]
    fn nitrogen_conserved_by_tendency() {
        // d/dt of total N must be ~0 (the mechanism neither creates nor
        // destroys nitrogen atoms).
        let m = mech();
        let mut conc = sp::background_vector();
        conc[sp::NO] = 0.08;
        conc[sp::NO2] = 0.04;
        conc[sp::O3] = 0.06;
        conc[sp::PAN] = 0.002;
        conc[sp::OH] = 2e-7;
        conc[sp::HO2] = 1e-6;
        conc[sp::C2O3] = 1e-6;
        conc[sp::NO3] = 1e-5;
        conc[sp::N2O5] = 1e-5;
        conc[sp::XO2N] = 1e-6;
        conc[sp::ROR] = 1e-7;
        let mut k = Vec::new();
        m.rate_constants(298.0, 0.7, &mut k);
        let mut f = vec![0.0; 35];
        m.tendency(&conc, &k, &mut f);
        let dn: f64 = f[sp::NO]
            + f[sp::NO2]
            + f[sp::NO3]
            + 2.0 * f[sp::N2O5]
            + f[sp::HONO]
            + f[sp::HNO3]
            + f[sp::PNA]
            + f[sp::PAN]
            + f[sp::NTR]
            + f[sp::NH3];
        let scale: f64 = [sp::NO, sp::NO2, sp::NO3]
            .iter()
            .map(|&s| (f[s]).abs())
            .fold(0.0, f64::max)
            .max(1e-12);
        assert!(dn.abs() / scale < 1e-9, "dN/dt = {dn}, scale {scale}");
    }

    #[test]
    fn photostationary_state_ratio() {
        // In bright sun with only the NO/NO2/O3 triad active, the
        // photostationary state gives [O3][NO]/[NO2] = J1/k3.
        let m = mech();
        let mut k = Vec::new();
        m.rate_constants(298.0, 1.0, &mut k);
        let j1 = k[0]; // NO2 photolysis
        let k3 = m
            .reactions()
            .iter()
            .zip(&k)
            .find(|(r, _)| r.label.starts_with("O3+NO"))
            .map(|(_, &kv)| kv)
            .unwrap();
        let ratio = j1 / k3;
        // Typical noon PSS ratio is ~0.01-0.03 ppm.
        assert!(ratio > 0.005 && ratio < 0.05, "PSS ratio {ratio}");
    }
}
