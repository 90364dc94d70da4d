//! The pipelined task-parallel Airshed — §5 and Figure 8.
//!
//! "Given the dependencies between the input and output processing stages
//! and the main computational loop, it is natural to use task parallelism
//! to break up the computation in three pipelined stages": while the main
//! compute subgroup works on hour *i*, the input subgroup reads and
//! preprocesses hour *i+1* and the output subgroup writes hour *i−1*.
//!
//! Stage durations come from the same node order the data-parallel
//! driver charges (`plan::hour_nodes`): each node carries a pipeline
//! stage annotation, [`hourly_stage_durations`] folds the three stages
//! (main loop priced on the P − io compute subgroup), and
//! [`schedule_stages`] — the only caller of `hpf::pipeline::schedule` —
//! combines them. §6's Airshed+PopExp (Figures 12/13) adds PopExp as a
//! fourth stage to the same [`hourly_stage_durations`].

use crate::driver::{ChemLayout, HourPlans, PlanLayouts};
use crate::obs::{Obs, Track};
use crate::plan::{edges, hour_nodes, replay_profile, Op, Prices, Stage};
use crate::profile::WorkProfile;
use airshed_hpf::pipeline::{schedule, sequential_makespan, PipelineSchedule};
use airshed_machine::{MachineProfile, NodeCommLoad};
use serde::Serialize;

/// Outcome of a pipelined replay.
#[derive(Debug, Clone, Serialize)]
pub struct TaskParReport {
    pub p: usize,
    /// Nodes dedicated to input and output (1 each in the paper's split).
    pub io_nodes: usize,
    /// Pipelined makespan (seconds).
    pub total_seconds: f64,
    /// The same stages run without overlap (for the Figure 9 comparison
    /// this equals the data-parallel replay's structure on P-2 compute
    /// nodes; the true data-parallel baseline uses all P nodes).
    pub unpipelined_seconds: f64,
    /// Per-stage busy time: input, compute, output.
    pub stage_busy: [f64; 3],
}

/// Replay a captured profile through the three-stage pipeline on
/// `machine` with `p` nodes split into `p_in` input nodes, `p_out`
/// output nodes and the rest compute (`(1, 1)` is the paper's split),
/// the main loop executed under `layouts`. A multi-node input group
/// parallelises the `pretrans` operator assembly across layers (the
/// file-reading part of `inputhour` stays sequential); output writing is
/// sequential, so `p_out > 1` only ever wastes nodes — it is accepted to
/// let the optimiser discover that. The schedule is reported to `obs`.
pub fn replay_taskparallel(
    profile: &WorkProfile,
    machine_profile: MachineProfile,
    p: usize,
    (p_in, p_out): (usize, usize),
    layouts: PlanLayouts,
    obs: &Obs,
) -> TaskParReport {
    assert!(p_in >= 1 && p_out >= 1);
    assert!(
        p > p_in + p_out,
        "need at least one compute node: p={p}, io={}",
        p_in + p_out
    );
    let p_compute = p - p_in - p_out;

    let durations =
        hourly_stage_durations(profile, machine_profile, p_compute, (p_in, p_out), layouts);
    let sched = schedule_stages(&durations, obs);
    TaskParReport {
        p,
        io_nodes: p_in + p_out,
        total_seconds: sched.makespan,
        unpipelined_seconds: sequential_makespan(&durations),
        stage_busy: [sched.busy[0], sched.busy[1], sched.busy[2]],
    }
}

/// The three §5 stage durations of every captured hour, stage-major
/// (`[input, compute, output][hour]`): one fold of each hour's nodes,
/// the main loop on `p_compute` nodes under `layouts`.
///
/// The input stage charges its nodes on the `p_in`-node input subgroup
/// ([`Work::subgroup_seconds`](crate::plan::Work::subgroup_seconds)),
/// then hands the decoded inputs and assembled operators (≈ 3× the raw
/// hourly input) to the compute subgroup; the compute stage is the
/// running sum of its nodes' prices, which is where a fresh machine
/// charging them would stand; the output stage receives the
/// concentration array and charges its nodes on `p_out` nodes. A
/// handoff is one message of its bytes, priced by the machine.
pub fn hourly_stage_durations(
    profile: &WorkProfile,
    mp: MachineProfile,
    p_compute: usize,
    (p_in, p_out): (usize, usize),
    layouts: PlanLayouts,
) -> Vec<Vec<f64>> {
    let plans = HourPlans::shared(&profile.shape, p_compute, layouts);
    let prices = Prices::new(&edges(&plans), mp);
    let handoff = |bytes| {
        mp.comm_cost(&NodeCommLoad {
            msgs_sent: 1,
            bytes_sent: bytes,
            ..Default::default()
        })
    };
    let output_handoff = handoff(profile.shape.iter().product::<usize>() * mp.word_size);
    let mut stages: Vec<Vec<f64>> = vec![Vec::new(); 3];
    for hp in &profile.hours {
        let (mut input, mut compute, mut output) = (0.0, 0.0, output_handoff);
        hour_nodes(hp, &plans, |node| match (node.stage, &node.op) {
            (Stage::Main, op) => compute += prices.seconds(op, |w| w.heaviest(p_compute)),
            (Stage::Input, Op::Compute { work, .. }) => input += work.subgroup_seconds(&mp, p_in),
            (Stage::Output, Op::Compute { work, .. }) => {
                output += work.subgroup_seconds(&mp, p_out)
            }
            (_, Op::Comm { .. }) => unreachable!("every redistribution is on the main stage"),
        });
        let hour = [input + handoff(3 * hp.input_bytes), compute, output];
        for (stage, seconds) in stages.iter_mut().zip(hour) {
            stage.push(seconds);
        }
    }
    stages
}

/// Run stage-major per-hour durations (input, compute, output and, for
/// §6, PopExp) through the pipeline recurrence — the one place a
/// pipeline is scheduled — and report the schedule to `obs`: one
/// [`Track::Stage`] row per stage, one virtual-time span per hour (the
/// paper's Fig 8 Gantt).
pub fn schedule_stages(durations: &[Vec<f64>], obs: &Obs) -> PipelineSchedule {
    const STAGES: [&str; 4] = [
        "pipeline:input",
        "pipeline:compute",
        "pipeline:output",
        "pipeline:popexp",
    ];
    let sched = schedule(durations);
    if obs.enabled() {
        for ((name, ends), durs) in STAGES.iter().zip(&sched.completion).zip(durations) {
            for (i, (&end, &dur)) in ends.iter().zip(durs).enumerate() {
                obs.record_virtual(name, Track::Stage(name), end - dur, end, Some(i as u32));
            }
        }
        obs.flush();
    }
    sched
}

/// Search over subgroup splits for the makespan-optimal allocation — the
/// optimisation problem of Subhlok & Vondran's "optimal mapping of
/// sequences of data parallel tasks" that the paper cites, solved here by
/// enumeration over the stage folds (the space is tiny: the same hours
/// are folded again with each candidate `(p_in, p_out)`), the main loop
/// executed under `layouts` — the
/// pipeline-stage half of the plan optimizer's search
/// ([`crate::plan::optimize::optimize_plan`]). Returns the best
/// `(p_in, p_out)` and its report.
pub fn optimize_split(
    profile: &WorkProfile,
    machine_profile: MachineProfile,
    p: usize,
    layouts: PlanLayouts,
) -> (usize, usize, TaskParReport) {
    assert!(p >= 3);
    let mut best: Option<(usize, usize, TaskParReport)> = None;
    let max_io = (p - 1).min(9);
    for p_in in 1..max_io {
        for p_out in 1..=(max_io - p_in).max(1) {
            if p_in + p_out >= p {
                continue;
            }
            let r = replay_taskparallel(
                profile,
                machine_profile,
                p,
                (p_in, p_out),
                layouts,
                &Obs::off(),
            );
            if best
                .as_ref()
                .is_none_or(|(_, _, b)| r.total_seconds < b.total_seconds)
            {
                best = Some((p_in, p_out, r));
            }
        }
    }
    best.expect("at least one split evaluated")
}

/// The Figure 9 comparison rows for one node count: data-parallel vs
/// task+data-parallel speedup over a common baseline.
#[derive(Debug, Clone, Serialize)]
pub struct Fig9Row {
    pub p: usize,
    pub data_parallel_seconds: f64,
    pub task_parallel_seconds: f64,
    pub data_parallel_speedup: f64,
    pub task_parallel_speedup: f64,
}

/// Build the Figure 9 sweep: speedups relative to the P=1 data-parallel
/// time.
pub fn fig9_sweep(
    profile: &WorkProfile,
    machine_profile: MachineProfile,
    ps: &[usize],
) -> Vec<Fig9Row> {
    let base = replay_profile(profile, machine_profile, 1, ChemLayout::Block).total_seconds;
    ps.iter()
        .map(|&p| {
            let dp = replay_profile(profile, machine_profile, p, ChemLayout::Block).total_seconds;
            let tp = if p >= 3 {
                let layouts = PlanLayouts::default();
                replay_taskparallel(profile, machine_profile, p, (1, 1), layouts, &Obs::off())
                    .total_seconds
            } else {
                dp
            };
            Fig9Row {
                p,
                data_parallel_seconds: dp,
                task_parallel_seconds: tp,
                data_parallel_speedup: base / dp,
                task_parallel_speedup: base / tp,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::tiny_profile;
    use airshed_machine::MachineProfile;

    fn profile() -> WorkProfile {
        tiny_profile().clone()
    }

    /// The default-layout replay with an explicit split, untraced.
    fn replay_split(
        prof: &WorkProfile,
        m: MachineProfile,
        p: usize,
        split: (usize, usize),
    ) -> TaskParReport {
        replay_taskparallel(prof, m, p, split, PlanLayouts::default(), &Obs::off())
    }

    /// `[input, compute, output]` of the first tiny hour on 6 compute
    /// nodes with `split` I/O nodes.
    fn first_hour_stages(split: (usize, usize)) -> [f64; 3] {
        let mut prof = profile();
        prof.hours.truncate(1);
        let d = hourly_stage_durations(&prof, MachineProfile::t3e(), 6, split, Default::default());
        [d[0][0], d[1][0], d[2][0]]
    }

    #[test]
    fn io_lands_in_the_io_stages() {
        let [input, compute, output] = first_hour_stages((1, 1));
        assert!(input > 0.0 && compute > 0.0 && output > 0.0);
        // A larger input subgroup parallelises pretrans (5 layers).
        assert!(first_hour_stages((5, 1))[0] < input);
        // Output is sequential: extra output nodes change nothing.
        assert_eq!(first_hour_stages((1, 4))[2], output);
    }

    /// The compute stage is, bit for bit, where a machine charging the
    /// hour stands after its main-stage nodes: with no input work the
    /// two input nodes charge 0 and the main nodes start at 0.0, so the
    /// machine folds the same prices in the same order.
    #[test]
    fn the_compute_stage_is_the_charge_of_the_main_nodes() {
        let mut prof = profile();
        prof.hours.truncate(1);
        let hp = &mut prof.hours[0];
        (hp.input_work, hp.pretrans_work, hp.output_work) = (0.0, 0.0, 0.0);
        let m = MachineProfile::t3e();
        let plans = HourPlans::shared(&prof.shape, 6, PlanLayouts::default());
        let mut machine = airshed_machine::Machine::new(m, 6);
        let mut main_end = None;
        crate::plan::charge_hours(&mut machine, &prof.hours, &plans, None, |node, _, _, e| {
            if node.stage == Stage::Main {
                main_end = Some(e);
            }
        });
        let compute = hourly_stage_durations(&prof, m, 6, (1, 1), Default::default())[1][0];
        let main_end = main_end.expect("the hour has main-stage nodes");
        assert!(compute > 0.0);
        assert_eq!(
            compute.to_bits(),
            main_end.to_bits(),
            "{compute} vs {main_end}"
        );
    }

    #[test]
    fn pipeline_beats_unpipelined() {
        let prof = profile();
        let tp = replay_split(&prof, MachineProfile::paragon(), 16, (1, 1));
        assert!(tp.total_seconds < tp.unpipelined_seconds);
        assert!(tp.total_seconds > 0.0);
    }

    #[test]
    fn task_parallelism_helps_at_scale_not_at_small_p() {
        // The paper's Figure 9: at large P the sequential I/O dominates
        // the data-parallel version, so the pipeline wins even though it
        // gives up two compute nodes; at small P the opposite.
        let prof = profile();
        let m = MachineProfile::paragon();
        let dp64 = replay_profile(&prof, m, 64, ChemLayout::Block).total_seconds;
        let tp64 = replay_split(&prof, m, 64, (1, 1)).total_seconds;
        assert!(tp64 < dp64, "at P=64 pipelining must win: {tp64} vs {dp64}");
        let dp4 = replay_profile(&prof, m, 4, ChemLayout::Block).total_seconds;
        let tp4 = replay_split(&prof, m, 4, (1, 1)).total_seconds;
        // At P=4 the pipeline surrenders half the compute nodes — it
        // should NOT be dramatically better, and typically loses.
        assert!(tp4 > 0.8 * dp4, "P=4: {tp4} vs {dp4}");
    }

    #[test]
    fn fig9_rows_are_monotone_in_p_for_taskpar() {
        let prof = profile();
        let rows = fig9_sweep(&prof, MachineProfile::paragon(), &[4, 8, 16, 32, 64]);
        assert_eq!(rows.len(), 5);
        for w in rows.windows(2) {
            assert!(
                w[1].task_parallel_speedup >= w[0].task_parallel_speedup * 0.98,
                "task-parallel speedup should not regress: {:?}",
                rows
            );
        }
        // Speedups are relative to the same baseline.
        assert!(rows[0].data_parallel_speedup > 1.0);
    }

    #[test]
    fn optimizer_never_loses_to_the_default_split() {
        let prof = profile();
        let m = MachineProfile::paragon();
        for p in [8usize, 16, 64] {
            let default = replay_split(&prof, m, p, (1, 1));
            let (p_in, p_out, best) = optimize_split(&prof, m, p, PlanLayouts::default());
            assert!(
                best.total_seconds <= default.total_seconds + 1e-12,
                "P={p}: best {} vs default {}",
                best.total_seconds,
                default.total_seconds
            );
            assert!(p_in >= 1 && p_out >= 1 && p_in + p_out < p);
        }
    }

    #[test]
    fn multi_node_input_group_parallelises_pretrans() {
        // With 5 layers, a 5-node input group should shorten the input
        // stage relative to a single node (same compute-group size).
        let prof = profile();
        let m = MachineProfile::paragon();
        let one = replay_split(&prof, m, 32, (1, 1));
        let five = replay_split(&prof, m, 36, (5, 1));
        assert!(
            five.stage_busy[0] < one.stage_busy[0],
            "input stage busy: {} !< {}",
            five.stage_busy[0],
            one.stage_busy[0]
        );
    }
}
