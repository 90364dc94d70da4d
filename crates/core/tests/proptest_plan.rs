//! Property-based tests for the plan-graph IR.

use airshed_core::driver::{ChemLayout, HourPlans, PlanLayouts};
use airshed_core::plan::{optimize_plan, ItemLayout, Op, PhaseGraph};
use airshed_core::profile::{HourProfile, StepProfile, WorkProfile};
use airshed_machine::MachineProfile;
use proptest::prelude::*;

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
        let graph = PhaseGraph::for_hour(&hour(shape, steps, 1.0e3), &plans, p);
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

    /// Every item layout partitions per-item work exactly: per-node
    /// vectors have length p and sum to the total work.
    #[test]
    fn item_layouts_partition_work(
        items in 1usize..300,
        p in 1usize..64,
        pick in 0usize..3,
        b in 1usize..17,
    ) {
        let layout = match pick {
            0 => ItemLayout::Block,
            1 => ItemLayout::Cyclic,
            _ => ItemLayout::BlockCyclic(b),
        };
        let work: Vec<f64> = (0..items).map(|i| 1.0 + (i % 7) as f64).collect();
        let per = layout.per_node(&work, p);
        prop_assert_eq!(per.len(), p);
        let total: f64 = per.iter().sum();
        let expect: f64 = work.iter().sum();
        prop_assert!((total - expect).abs() < 1e-9 * expect.max(1.0));
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
