//! Property-based tests for the plan-graph IR.

use airshed_core::driver::{ChemLayout, HourPlans, PlanLayouts};
use airshed_core::plan::{optimize_plan, ItemLayout, Op, PhaseGraph, Work};
use airshed_core::profile::{HourProfile, StepProfile, WorkProfile};
use airshed_machine::MachineProfile;
use proptest::prelude::*;
use std::borrow::Cow;
use std::ops::Range;

fn hour(shape: [usize; 3], steps: usize, scale: f64) -> HourProfile {
    let [_, layers, nodes] = shape;
    HourProfile {
        input_work: 7.0 * scale,
        pretrans_work: 3.0 * scale,
        output_work: 5.0 * scale,
        input_bytes: shape.iter().product::<usize>(),
        steps: (0..steps)
            .map(|k| StepProfile {
                transport1: (0..layers)
                    .map(|i| scale * (1.0 + (i + k) as f64))
                    .collect(),
                transport2: (0..layers).map(|i| scale * (2.0 + i as f64)).collect(),
                chemistry: (0..nodes)
                    .map(|i| scale * (1.0 + (i % 13) as f64))
                    .collect(),
                aerosol: scale,
            })
            .collect(),
        surface: Vec::new(),
    }
}

/// A non-negative weight from 64 random bits: zero one time in eight,
/// otherwise a 53-bit significand scaled by 2^-60 … 2^59.
fn weight(x: u64) -> f64 {
    if x.is_multiple_of(8) {
        return 0.0;
    }
    let significand = (x >> 11) as f64 / (1u64 << 53) as f64;
    significand * 2f64.powi(((x >> 3) & 127) as i32 % 120 - 60)
}

fn to_bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|w| w.to_bits()).collect()
}

/// `BLOCK` ownership written out: ceil-sized ranges, one per node,
/// trailing ones possibly empty.
fn block_ranges(extent: usize, p: usize) -> Vec<Range<usize>> {
    let b = extent.div_ceil(p).max(1);
    (0..p)
        .map(|node| (node * b).min(extent)..((node + 1) * b).min(extent))
        .collect()
}

/// Per-node work as the loops before the node walk computed it: block
/// ranges each folded from `+0.0`, and round-robin accumulation into a
/// zeroed vector.
fn reference_per_node(layout: ItemLayout, per_item: &[f64], p: usize) -> Vec<f64> {
    let b = match layout {
        ItemLayout::Block => {
            return block_ranges(per_item.len(), p)
                .into_iter()
                .map(|r| per_item[r].iter().fold(0.0, |a, &w| a + w))
                .collect()
        }
        ItemLayout::Cyclic => 1,
        ItemLayout::BlockCyclic(b) => b,
    };
    let mut out = vec![0.0; p];
    for (i, &w) in per_item.iter().enumerate() {
        out[(i / b) % p] += w;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every comm edge of every graph conserves bytes: what the nodes
    /// collectively send over the network is exactly what they receive,
    /// for arbitrary shapes, node counts and chemistry layouts.
    #[test]
    fn graph_comm_edges_conserve_bytes(
        species in 1usize..40,
        layers in 1usize..9,
        nodes in 1usize..800,
        p in 1usize..100,
        steps in 0usize..4,
        cyclic in any::<bool>(),
    ) {
        let shape = [species, layers, nodes];
        let layout = if cyclic { ChemLayout::Cyclic } else { ChemLayout::Block };
        let plans = HourPlans::with_layouts(&shape, p, PlanLayouts::chem(layout));
        let hp = hour(shape, steps, 1.0e3);
        let graph = PhaseGraph::for_hour(&hp, &plans, p);
        for edge in &graph.edges {
            prop_assert!(
                edge.conserves_bytes(),
                "{} shape={shape:?} p={p}: sent {} != recv {}",
                edge.label,
                edge.total_bytes_sent(),
                edge.total_bytes_recv()
            );
        }
    }

    /// Every item layout partitions per-item work exactly, node by node
    /// and bit for bit: `per_node` (the collected node walk) equals the
    /// reference loops with the same summation order, and the heaviest
    /// fold and `charged` equal their folds over it. The weights span
    /// many exponents and include zeros, so a different summation order
    /// or a `-0.0` start shows in the bits; `p` reaches past the item
    /// count (empty nodes) and so does `b` (one run holds every item).
    #[test]
    fn item_layouts_partition_work(
        bits in proptest::collection::vec(any::<u64>(), 1..200),
        p in 1usize..300,
        b in 1usize..400,
    ) {
        let work: Vec<f64> = bits.iter().map(|&x| weight(x)).collect();
        for layout in [ItemLayout::Block, ItemLayout::Cyclic, ItemLayout::BlockCyclic(b)] {
            let per = layout.per_node(&work, p);
            prop_assert_eq!(per.len(), p);
            prop_assert_eq!(to_bits(&per), to_bits(&reference_per_node(layout, &work, p)),
                "{} p={p} n={}", layout, work.len());
            let max = per.iter().fold(0.0f64, |a, &w| a.max(w));
            prop_assert_eq!(layout.heaviest(&work, p).to_bits(), max.to_bits());
            let mean = per.iter().sum::<f64>() / p as f64;
            let imbalance = if mean > 0.0 { max / mean } else { 1.0 };
            let (charged, charged_imbalance) = Work::Distributed {
                per_item: Cow::Borrowed(&work),
                layout,
            }
            .charged(p);
            prop_assert_eq!(charged.to_bits(), max.to_bits());
            prop_assert_eq!(charged_imbalance.to_bits(), imbalance.to_bits());
            let total: f64 = per.iter().sum();
            let expect: f64 = work.iter().sum();
            prop_assert!((total - expect).abs() <= 1e-9 * expect);
        }
    }

    /// Optimizer-emitted plans are well-formed for arbitrary shapes and
    /// node counts: the chosen layouts partition every distributed
    /// phase's items exactly, the lowered hour graphs' redistribution
    /// edges conserve bytes, and the prediction never loses to the
    /// default plan.
    #[test]
    fn optimizer_plans_are_well_formed(
        layers in 1usize..9,
        nodes in 4usize..400,
        p in 1usize..24,
        steps in 1usize..3,
    ) {
        let shape = [5usize, layers, nodes];
        let profile = WorkProfile {
            dataset: "PROP",
            shape,
            hours: vec![hour(shape, steps, 1.0e6)],
            summaries: Vec::new(),
        };
        let choice = optimize_plan(&profile, &MachineProfile::t3e(), p);
        prop_assert!(choice.predicted_seconds <= choice.default_seconds);
        for (n_items, layout) in [
            (layers, choice.layouts.transport),
            (nodes, choice.layouts.chemistry),
        ] {
            let work: Vec<f64> = (0..n_items).map(|i| 1.0 + (i % 5) as f64).collect();
            let per = layout.per_node(&work, p);
            prop_assert_eq!(per.len(), p);
            let total: f64 = per.iter().sum();
            let expect: f64 = work.iter().sum();
            prop_assert!((total - expect).abs() < 1e-9 * expect.max(1.0),
                "layout {layout:?} must cover all {n_items} items");
        }
        let plans = HourPlans::with_layouts(&shape, p, choice.layouts);
        let graph = PhaseGraph::for_hour(&profile.hours[0], &plans, p);
        for edge in &graph.edges {
            prop_assert!(
                edge.conserves_bytes(),
                "{} shape={shape:?} p={p} layouts={}: sent {} != recv {}",
                edge.label,
                choice.layouts,
                edge.total_bytes_sent(),
                edge.total_bytes_recv()
            );
        }
    }

    /// The graph's compute nodes carry exactly the profile's work: the
    /// per-kind totals folded off the graph equal the raw profile sums.
    #[test]
    fn graph_work_accounts_for_the_profile(
        steps in 1usize..4,
        scale in 1.0f64..1.0e6,
    ) {
        let shape = [5usize, 3, 40];
        let hp = hour(shape, steps, scale);
        let plans = HourPlans::new(&shape, 1);
        let graph = PhaseGraph::for_hour(&hp, &plans, 1);
        let total: f64 = graph
            .nodes
            .iter()
            .filter_map(|n| match &n.op {
                Op::Compute { work, .. } => Some(work.total()),
                Op::Comm { .. } => None,
            })
            .sum();
        let mut expect = hp.input_work + hp.pretrans_work + hp.output_work;
        for s in &hp.steps {
            expect += s.transport1.iter().sum::<f64>()
                + s.transport2.iter().sum::<f64>()
                + s.chemistry.iter().sum::<f64>()
                + s.aerosol;
        }
        prop_assert!((total - expect).abs() < 1e-9 * expect);
    }
}
