//! A replay's bits, pinned as one hash.
//!
//! Three profiles — the synthetic two-hour one of `replay_allocations.rs`,
//! a captured two-hour `tiny:80` profile and a zero-hour one — are
//! replayed on the three paper machines at P ∈ {1, 2, 3, 5, 16, 63, 64,
//! 128, 1024} under every transport × chemistry pair of BLOCK, CYCLIC and
//! BLOCK-CYCLIC(3). The hash covers each report's `total_seconds`, its
//! five category seconds, every `comm_steps` row (label, seconds bits,
//! count) and its `copy_bytes`. A change to how a replay folds or prices
//! a placement must keep the hash.

use airshed_core::driver::{run_with_profile_on, PlanLayouts};
use airshed_core::plan::{replay_profile_with, ItemLayout};
use airshed_core::profile::{HourProfile, StepProfile, WorkProfile};
use airshed_core::report::RunReport;
use airshed_core::{ExecSpec, SimConfig};
use airshed_machine::MachineProfile;

const PS: [usize; 9] = [1, 2, 3, 5, 16, 63, 64, 128, 1024];
const LAYOUTS: [ItemLayout; 3] = [
    ItemLayout::Block,
    ItemLayout::Cyclic,
    ItemLayout::BlockCyclic(3),
];

/// FNV-1a over 64-bit words, a byte at a time.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, bits: u64) {
        for i in 0..8 {
            self.0 ^= (bits >> (8 * i)) & 0xff;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(u64::from(b));
        }
    }
}

/// The synthetic profile of `replay_allocations.rs`: 5 layers, 60
/// columns, three steps an hour, two hours.
fn synthetic() -> WorkProfile {
    let shape = [4, 5, 60];
    let hour = |h: usize| HourProfile {
        input_work: 7.0e6,
        pretrans_work: 3.0e6,
        output_work: 5.0e6,
        input_bytes: shape.iter().product(),
        steps: (0..3)
            .map(|k| StepProfile {
                transport1: (0..shape[1]).map(|i| 1.0e5 * (1 + i + k) as f64).collect(),
                transport2: (0..shape[1]).map(|i| 1.0e5 * (2 + i) as f64).collect(),
                chemistry: (0..shape[2])
                    .map(|i| 1.0e4 * (1 + (i * 7 + h) % 13) as f64)
                    .collect(),
                aerosol: 1.0e5,
            })
            .collect(),
        surface: Vec::new(),
    };
    WorkProfile {
        dataset: "TINY",
        shape,
        hours: (0..2).map(hour).collect(),
        summaries: Vec::new(),
    }
}

fn fold(hash: &mut Fnv, r: &RunReport) {
    for s in [
        r.total_seconds,
        r.io_seconds,
        r.transport_seconds,
        r.chemistry_seconds,
        r.communication_seconds,
        r.popexp_seconds,
    ] {
        hash.word(s.to_bits());
    }
    hash.word(r.comm_steps.len() as u64);
    for step in &r.comm_steps {
        hash.text(step.label);
        hash.word(step.total_seconds.to_bits());
        hash.word(step.count as u64);
    }
    let copy = r.copy_bytes.expect("a replay accounts its copies");
    for b in [
        copy.redist_local,
        copy.soa_staging,
        copy.result_serialization,
    ] {
        hash.word(b);
    }
}

fn hash_of_every_replay() -> u64 {
    let (_, captured) = run_with_profile_on(&SimConfig::test_tiny(4, 2), ExecSpec::serial());
    assert_eq!(captured.hours.len(), 2);
    let empty = WorkProfile {
        hours: Vec::new(),
        summaries: Vec::new(),
        ..captured.clone()
    };
    let mut hash = Fnv(0xcbf2_9ce4_8422_2325);
    for profile in [synthetic(), captured, empty] {
        for machine in MachineProfile::paper_machines() {
            for p in PS {
                for transport in LAYOUTS {
                    for chemistry in LAYOUTS {
                        let layouts = PlanLayouts::new(transport, chemistry);
                        fold(
                            &mut hash,
                            &replay_profile_with(&profile, machine, p, layouts),
                        );
                    }
                }
            }
        }
    }
    hash.0
}

#[test]
fn every_replayed_bit_matches_the_pinned_hash() {
    assert_eq!(
        hash_of_every_replay(),
        0x9e87_f8aa_d55b_f1c8,
        "a replayed second, comm step or copy count moved"
    );
}
