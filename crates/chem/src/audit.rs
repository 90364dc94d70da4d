//! Mechanism conservation audit.
//!
//! Lumped mechanisms deliberately break carbon conservation (that is what
//! "lumping" means), but nitrogen and sulfur atoms must balance reaction
//! by reaction — a leak shows up as secular drift in multi-day runs and
//! is notoriously hard to localise from concentrations alone. This module
//! checks every reaction against per-species atom counts and points at
//! the exact offender.

use crate::mechanism::{Mechanism, Reaction};
use crate::species::{self as sp, N_SPECIES};

/// Nitrogen atoms carried by each species.
pub fn nitrogen_atoms() -> [f64; N_SPECIES] {
    let mut n = [0.0; N_SPECIES];
    n[sp::NO] = 1.0;
    n[sp::NO2] = 1.0;
    n[sp::NO3] = 1.0;
    n[sp::N2O5] = 2.0;
    n[sp::HONO] = 1.0;
    n[sp::HNO3] = 1.0;
    n[sp::PNA] = 1.0;
    n[sp::PAN] = 1.0;
    n[sp::NTR] = 1.0;
    n[sp::NH3] = 1.0;
    n
}

/// Sulfur atoms carried by each species.
pub fn sulfur_atoms() -> [f64; N_SPECIES] {
    let mut s = [0.0; N_SPECIES];
    s[sp::SO2] = 1.0;
    s[sp::SULF] = 1.0;
    s
}

/// One audit finding: a reaction that creates or destroys atoms.
#[derive(Debug, Clone, PartialEq)]
pub struct Imbalance {
    pub reaction: &'static str,
    /// Net atoms produced per reaction event (negative = destroyed).
    pub delta: f64,
}

fn reaction_delta(r: &Reaction, atoms: &[f64; N_SPECIES]) -> f64 {
    let consumed: f64 = r.consume.iter().map(|&(s, nu)| nu * atoms[s]).sum();
    let produced: f64 = r.produce.iter().map(|&(s, nu)| nu * atoms[s]).sum();
    produced - consumed
}

/// Audit a mechanism against an atom-count table; returns every reaction
/// whose net atom change exceeds `tol`.
pub fn audit(mech: &Mechanism, atoms: &[f64; N_SPECIES], tol: f64) -> Vec<Imbalance> {
    mech.reactions()
        .iter()
        .filter_map(|r| {
            let delta = reaction_delta(r, atoms);
            (delta.abs() > tol).then_some(Imbalance {
                reaction: r.label,
                delta,
            })
        })
        .collect()
}

/// Convenience: nitrogen audit of a mechanism.
pub fn audit_nitrogen(mech: &Mechanism) -> Vec<Imbalance> {
    audit(mech, &nitrogen_atoms(), 1e-9)
}

/// Convenience: sulfur audit of a mechanism.
pub fn audit_sulfur(mech: &Mechanism) -> Vec<Imbalance> {
    audit(mech, &sulfur_atoms(), 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::{Mechanism, RateLaw, Reaction};

    #[test]
    fn carbon_bond_conserves_nitrogen_reaction_by_reaction() {
        let leaks = audit_nitrogen(&Mechanism::carbon_bond());
        assert!(leaks.is_empty(), "nitrogen-leaking reactions: {leaks:?}");
    }

    #[test]
    fn carbon_bond_conserves_sulfur() {
        let leaks = audit_sulfur(&Mechanism::carbon_bond());
        assert!(leaks.is_empty(), "sulfur-leaking reactions: {leaks:?}");
    }

    #[test]
    fn audit_catches_a_planted_leak() {
        // Re-create the bug this tool exists for: ISOP + NO3 consuming a
        // nitrogen atom into a nitrogen-free product.
        let mut rows = Mechanism::carbon_bond().reactions().to_vec();
        rows.push(Reaction {
            label: "ISOP+NO3->XO2 (leak!)",
            rate_law: RateLaw::Arrhenius {
                a: 1.0,
                t_exp: 0.0,
                ea_over_r: 0.0,
            },
            rate_order: vec![sp::ISOP, sp::NO3],
            consume: vec![(sp::ISOP, 1.0), (sp::NO3, 1.0)],
            produce: vec![(sp::XO2, 1.0)],
        });
        let leaks = audit_nitrogen(&Mechanism::from_table(rows, N_SPECIES));
        assert_eq!(leaks.len(), 1);
        assert_eq!(leaks[0].reaction, "ISOP+NO3->XO2 (leak!)");
        assert!((leaks[0].delta + 1.0).abs() < 1e-12, "one N destroyed");
    }

    #[test]
    fn audit_handles_fractional_stoichiometry() {
        // 0.89 NO2 + 0.11 NO from 1 NO3 balances.
        let mech = Mechanism::carbon_bond();
        let r = mech
            .reactions()
            .iter()
            .find(|r| r.label.starts_with("NO3+hv"))
            .unwrap();
        assert!(reaction_delta(r, &nitrogen_atoms()).abs() < 1e-9);
    }

    #[test]
    fn atom_tables_cover_all_species() {
        // Totals used by the runtime probe must agree with the tables.
        let n = nitrogen_atoms();
        let mut conc = vec![0.0; N_SPECIES];
        conc[sp::N2O5] = 2.0;
        conc[sp::PAN] = 1.0;
        let total: f64 = conc.iter().zip(&n).map(|(c, a)| c * a).sum();
        assert_eq!(total, 5.0);
        assert_eq!(total, Mechanism::total_nitrogen(&conc));
    }
}
