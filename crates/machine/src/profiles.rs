//! Machine parameter sets.
//!
//! `rate` is in abstract work units per second per node; the application
//! charges work units proportional to the floating-point operations its
//! kernels actually perform, so `rate` plays the role of a sustained
//! Mflop/s figure. The communication parameters follow the paper's
//! Eq. (2) cost model.

use serde::Serialize;

/// Parameters of one target machine.
///
/// ```
/// use airshed_machine::{Machine, MachineProfile, PhaseCategory};
///
/// let mut m = Machine::new(MachineProfile::t3e(), 4);
/// // 4 nodes each doing one second of work: the phase costs one second.
/// let rate = m.profile.rate;
/// let seconds = m.profile.compute_seconds(rate);
/// let dt = m.charge("chemistry", PhaseCategory::Chemistry, seconds);
/// assert!((dt - 1.0).abs() < 1e-12);
/// assert_eq!(m.elapsed(), dt);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct MachineProfile {
    pub name: &'static str,
    /// Sustained per-node compute rate (work units per second).
    pub rate: f64,
    /// `L`: latency + startup cost per message (seconds/message).
    pub latency: f64,
    /// `G`: per-byte endpoint processing cost (seconds/byte).
    pub byte_cost: f64,
    /// `H`: per-byte local copy cost (seconds/byte).
    pub copy_cost: f64,
    /// `W`: machine word size in bytes.
    pub word_size: usize,
}

/// The paper's main machine, the T3E.
impl Default for MachineProfile {
    fn default() -> MachineProfile {
        MachineProfile::t3e()
    }
}

impl MachineProfile {
    /// Cray T3E — the paper's §4.3 measured parameters:
    /// `L = 5.2e-5 s/msg`, `G = 2.47e-8 s/B`, `H = 2.04e-8 s/B`, `W = 8`.
    pub const fn t3e() -> MachineProfile {
        MachineProfile {
            name: "Cray T3E",
            rate: 220.0e6,
            latency: 5.2e-5,
            byte_cost: 2.47e-8,
            copy_cost: 2.04e-8,
            word_size: 8,
        }
    }

    /// Cray T3D — "just under a factor of 2 faster than the Intel
    /// Paragon" (§3). Network parameters scaled for the older shared
    /// libraries and slower memory system.
    pub const fn t3d() -> MachineProfile {
        MachineProfile {
            name: "Cray T3D",
            rate: 42.0e6,
            latency: 1.1e-4,
            byte_cost: 6.2e-8,
            copy_cost: 5.4e-8,
            word_size: 8,
        }
    }

    /// Intel Paragon XP/S — "the Cray T3E is approximately a factor of 10
    /// faster than the Intel Paragon" (§3).
    pub const fn paragon() -> MachineProfile {
        MachineProfile {
            name: "Intel Paragon",
            rate: 22.0e6,
            latency: 2.6e-4,
            byte_cost: 1.3e-7,
            copy_cost: 9.5e-8,
            word_size: 8,
        }
    }

    /// All three paper machines, T3E first.
    pub fn paper_machines() -> [MachineProfile; 3] {
        [Self::t3e(), Self::t3d(), Self::paragon()]
    }

    /// Look a machine up by (case-insensitive) short name:
    /// `"t3e"`, `"t3d"`, `"paragon"`.
    pub fn by_name(name: &str) -> Option<MachineProfile> {
        match name.to_ascii_lowercase().as_str() {
            "t3e" => Some(Self::t3e()),
            "t3d" => Some(Self::t3d()),
            "paragon" => Some(Self::paragon()),
            _ => None,
        }
    }

    /// Seconds to perform `work` units of computation on one node.
    #[inline]
    pub fn compute_seconds(&self, work: f64) -> f64 {
        work / self.rate
    }

    /// The machine's identity, for a cache key.
    pub fn key(&self) -> MachineKey {
        let fields = [self.rate, self.latency, self.byte_cost, self.copy_cost];
        MachineKey(self.name, fields.map(f64::to_bits), self.word_size)
    }
}

/// What tells two machines apart: the name, rate, `L`, `G` and `H` (as
/// bits) and `W`. Two profiles with equal keys charge every span alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MachineKey(&'static str, [u64; 4], usize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t3e_matches_paper_parameters() {
        let m = MachineProfile::t3e();
        assert_eq!(m.latency, 5.2e-5);
        assert_eq!(m.byte_cost, 2.47e-8);
        assert_eq!(m.copy_cost, 2.04e-8);
        assert_eq!(m.word_size, 8);
    }

    #[test]
    fn compute_ratios_match_paper_observations() {
        let t3e = MachineProfile::t3e().rate;
        let t3d = MachineProfile::t3d().rate;
        let paragon = MachineProfile::paragon().rate;
        let r_t3d = t3d / paragon;
        let r_t3e = t3e / paragon;
        assert!(
            (1.6..2.1).contains(&r_t3d),
            "T3D/Paragon ratio {r_t3d} (paper: just under 2)"
        );
        assert!(
            (9.0..11.0).contains(&r_t3e),
            "T3E/Paragon ratio {r_t3e} (paper: ~10)"
        );
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(MachineProfile::by_name("T3E"), Some(MachineProfile::t3e()));
        assert_eq!(
            MachineProfile::by_name("paragon"),
            Some(MachineProfile::paragon())
        );
        assert_eq!(MachineProfile::by_name("sp2"), None);
    }

    #[test]
    fn compute_seconds_scales() {
        let m = MachineProfile::t3e();
        assert!((m.compute_seconds(m.rate) - 1.0).abs() < 1e-12);
        assert!((m.compute_seconds(0.0)).abs() < 1e-300);
    }
}
