//! The plan optimizer — the §4 model used *prospectively*.
//!
//! Everything up to PR 5 used the analytic model retrospectively: to
//! price admission and to validate executed plans (the oracle). This
//! module turns the [`PhaseGraph`](crate::plan::PhaseGraph) IR into an
//! optimizing planner: given a captured profile and a machine, it
//! enumerates candidate per-phase layouts (and the redistribution
//! schedules they imply), replays each candidate's [`Placement`] at
//! [`step_seconds`](crate::predict::step_seconds), and returns the
//! cheapest plan as a cost-annotated [`PlanChoice`]. The search space is
//! tiny by construction — the paper's per-phase choice set (BLOCK,
//! CYCLIC, and power-of-two CYCLIC(b)) crossed over two distributed
//! phases, plus the §5 pipeline subgroup splits — so exhaustive
//! enumeration with the pruned block-size ladder is exact.
//!
//! Correctness is free: every candidate layout already has an
//! identity-preserving merge in the execution path (the host numerics
//! never depend on the virtual layout), so an optimized plan is
//! bit-identical to the default plan in everything but predicted and
//! charged time. `tests/plan_equivalence.rs` golden-tests this across
//! LA/NE × machines × P.

use crate::driver::{ChemLayout, PlanLayouts};
use crate::plan::Placement;
use crate::profile::WorkProfile;
use crate::taskpar::optimize_split;
use airshed_machine::{Machine, MachineProfile};

/// Candidate layouts for one distributed phase of `n_items` items on
/// `p` nodes: the two HPF staples plus a power-of-two ladder of
/// `CYCLIC(b)` block sizes, pruned to blocks that still wrap around the
/// node group (`b·p < n_items`; once a single round covers every item
/// the layout degenerates into BLOCK's contiguous assignment).
pub fn candidate_layouts(n_items: usize, p: usize) -> Vec<ChemLayout> {
    let mut out = vec![ChemLayout::Block, ChemLayout::Cyclic];
    let mut b = 2usize;
    while b * p < n_items {
        out.push(ChemLayout::BlockCyclic(b));
        b *= 2;
    }
    out
}

/// The optimizer's verdict: the chosen per-phase layouts (and pipeline
/// split, when pipelining wins), annotated with the predicted cost next
/// to the default plan's so callers can report *why* the plan was
/// picked.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanChoice {
    /// Chosen per-phase layouts for the data-parallel main loop.
    pub layouts: PlanLayouts,
    /// `Some((p_in, p_out))` when the §5 pipelined lowering of the
    /// chosen layouts beats the data-parallel one; `None` keeps all
    /// nodes data-parallel.
    pub split: Option<(usize, usize)>,
    /// Predicted seconds of the chosen plan over the whole profile.
    pub predicted_seconds: f64,
    /// Predicted seconds of the paper-default plan (all-BLOCK,
    /// data-parallel) under the same fold.
    pub default_seconds: f64,
}

impl PlanChoice {
    /// Predicted saving over the default plan (>= 0 by construction:
    /// the default is always a candidate and ties keep it).
    pub fn saving_seconds(&self) -> f64 {
        self.default_seconds - self.predicted_seconds
    }
}

/// Predicted cost of executing `profile` under `layouts`: the virtual
/// time its replay charges a fresh machine ([`Placement::charge`], each
/// node at its [`step_seconds`](crate::predict::step_seconds)), so this
/// is what a replay of the same plan reports.
pub fn plan_cost(
    profile: &WorkProfile,
    machine: &MachineProfile,
    p: usize,
    layouts: PlanLayouts,
) -> f64 {
    let mut replayed = Machine::new(*machine, p);
    Placement::of(profile, p, layouts).charge(profile, &mut replayed);
    replayed.elapsed()
}

/// The one exhaustive layout search: transport over the layer axis
/// crossed with chemistry over the column axis ([`candidate_layouts`]
/// each), scored by `cost`. The default plan is evaluated first and only
/// a strictly cheaper candidate replaces it, so ties deterministically
/// keep the paper's layouts. Returns `(chosen, its cost, default cost)`.
pub(crate) fn search_layouts(
    shape: &[usize; 3],
    p: usize,
    cost: impl Fn(PlanLayouts) -> f64,
) -> (PlanLayouts, f64, f64) {
    let default_cost = cost(PlanLayouts::default());
    let mut best = (PlanLayouts::default(), default_cost);
    for &transport in &candidate_layouts(shape[1], p) {
        for &chemistry in &candidate_layouts(shape[2], p) {
            let layouts = PlanLayouts::new(transport, chemistry);
            if layouts == PlanLayouts::default() {
                continue;
            }
            let c = cost(layouts);
            if c < best.1 {
                best = (layouts, c);
            }
        }
    }
    (best.0, best.1, default_cost)
}

/// Search the plan space for the cheapest way to run `profile` on
/// `machine` with `p` nodes.
///
/// Stage 1 is the exhaustive per-phase layout search (transport ×
/// chemistry over [`candidate_layouts`], default first, ties keep it)
/// scoring each candidate's implied graphs with [`plan_cost`]. Stage 2
/// (when `p` admits a pipeline) reuses the task-parallel split search
/// on the winning layouts and adopts the pipelined plan only if its
/// makespan beats the data-parallel prediction.
pub fn optimize_plan(profile: &WorkProfile, machine: &MachineProfile, p: usize) -> PlanChoice {
    let (layouts, predicted_seconds, default_seconds) =
        search_layouts(&profile.shape, p, |l| plan_cost(profile, machine, p, l));
    let mut choice = PlanChoice {
        layouts,
        split: None,
        predicted_seconds,
        default_seconds,
    };
    if p >= 3 {
        let (p_in, p_out, tp) = optimize_split(profile, *machine, p, choice.layouts);
        if tp.total_seconds < choice.predicted_seconds {
            choice.split = Some((p_in, p_out));
            choice.predicted_seconds = tp.total_seconds;
        }
    }
    choice
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::replay_profile_with;
    use crate::profile::{HourProfile, StepProfile};

    /// A one-hour profile with a planted per-column chemistry
    /// distribution and negligible everything else, so the layout choice
    /// is driven purely by the chemistry imbalance.
    fn planted_profile(chemistry: Vec<f64>) -> WorkProfile {
        let nodes = chemistry.len();
        WorkProfile {
            dataset: "PLANTED",
            shape: [1, 1, nodes],
            hours: vec![HourProfile {
                input_work: 1.0,
                pretrans_work: 1.0,
                output_work: 1.0,
                input_bytes: 8,
                steps: vec![StepProfile {
                    transport1: vec![1.0],
                    transport2: vec![1.0],
                    chemistry,
                    aerosol: 0.0,
                }],
                surface: vec![],
            }],
            summaries: vec![],
        }
    }

    #[test]
    fn candidate_ladder_prunes_degenerate_blocks() {
        // 700 columns on 16 nodes: blocks up to 32 still wrap
        // (64 * 16 >= 700 does not hold -- 1024 >= 700 prunes it).
        let c = candidate_layouts(700, 16);
        assert_eq!(c[0], ChemLayout::Block);
        assert_eq!(c[1], ChemLayout::Cyclic);
        assert!(c.contains(&ChemLayout::BlockCyclic(2)));
        assert!(c.contains(&ChemLayout::BlockCyclic(32)));
        assert!(!c.contains(&ChemLayout::BlockCyclic(64)));
        // Two items on two nodes: only the staples survive.
        assert_eq!(candidate_layouts(2, 2).len(), 2);
    }

    #[test]
    fn search_finds_planted_cyclic_optimum() {
        // Heavy first block: BLOCK piles all heavy columns on node 0,
        // CYCLIC spreads them perfectly.
        let mut chem = vec![1.0e8; 16];
        for w in chem.iter_mut().take(4) {
            *w = 9.0e8;
        }
        let prof = planted_profile(chem);
        let choice = optimize_plan(&prof, &MachineProfile::t3e(), 4);
        assert_eq!(choice.layouts.chemistry, ChemLayout::Cyclic);
        assert!(choice.predicted_seconds < choice.default_seconds);
        assert!(choice.saving_seconds() > 0.0);
    }

    #[test]
    fn search_keeps_default_on_uniform_work() {
        // Uniform columns: every layout balances identically, so the
        // tie-break must keep the paper's BLOCK plan.
        let prof = planted_profile(vec![1.0e8; 16]);
        let choice = optimize_plan(&prof, &MachineProfile::t3e(), 4);
        assert_eq!(choice.layouts, PlanLayouts::default());
        assert_eq!(choice.predicted_seconds, choice.default_seconds);
    }

    #[test]
    fn search_finds_planted_block_cyclic_optimum() {
        // Weight 9 at columns {0,3,4,7}, 1 elsewhere, 16 columns on 4
        // nodes: BLOCK and CYCLIC both put two heavy columns on one node
        // (max 20e8); CYCLIC(2) splits every heavy pair (max 12e8).
        let mut chem = vec![1.0e8; 16];
        for i in [0usize, 3, 4, 7] {
            chem[i] = 9.0e8;
        }
        let prof = planted_profile(chem);
        let choice = optimize_plan(&prof, &MachineProfile::t3e(), 4);
        assert_eq!(choice.layouts.chemistry, ChemLayout::BlockCyclic(2));
        assert!(choice.predicted_seconds < choice.default_seconds);
    }

    #[test]
    fn predicted_cost_is_the_replayed_cost() {
        // The objective is bit-identical to execution: replaying the
        // chosen plan charges exactly the predicted seconds.
        let mut chem = vec![1.0e8; 16];
        for w in chem.iter_mut().take(4) {
            *w = 9.0e8;
        }
        let prof = planted_profile(chem);
        let m = MachineProfile::t3e();
        let choice = optimize_plan(&prof, &m, 4);
        assert!(
            choice.split.is_none(),
            "pipeline can't win a compute-bound hour"
        );
        let replayed = replay_profile_with(&prof, m, 4, choice.layouts);
        assert_eq!(choice.predicted_seconds, replayed.total_seconds);
        let default = replay_profile_with(&prof, m, 4, PlanLayouts::default());
        assert_eq!(choice.default_seconds, default.total_seconds);
    }

    #[test]
    fn optimizer_adopts_a_pipeline_when_io_dominates() {
        // Hours dominated by sequential I/O: the §5 pipeline overlaps
        // them across hours, which no data-parallel layout can.
        let mut prof = planted_profile(vec![1.0e6; 16]);
        let hour = HourProfile {
            input_work: 5.0e8,
            output_work: 5.0e8,
            ..prof.hours[0].clone()
        };
        prof.hours = vec![hour.clone(), hour.clone(), hour];
        let choice = optimize_plan(&prof, &MachineProfile::t3e(), 16);
        let (p_in, p_out) = choice.split.expect("I/O-bound run must pipeline");
        assert!(p_in >= 1 && p_out >= 1 && p_in + p_out < 16);
        assert!(choice.predicted_seconds < choice.default_seconds);
    }

    #[test]
    fn choice_never_loses_to_the_default() {
        let prof = crate::testsupport::tiny_profile();
        for p in [1usize, 2, 4, 16, 64] {
            for m in [
                MachineProfile::paragon(),
                MachineProfile::t3d(),
                MachineProfile::t3e(),
            ] {
                let choice = optimize_plan(prof, &m, p);
                assert!(
                    choice.predicted_seconds <= choice.default_seconds,
                    "p={p}: {choice:?}"
                );
            }
        }
    }
}
