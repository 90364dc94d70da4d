//! Execution timeline: a Gantt view of one simulated hour on the virtual
//! machine — what the plan graph's phase/redistribution sequence actually
//! looks like in time, and why transport and I/O dominate at scale. Rows
//! are labelled from the IR `PhaseKind` (compute phases) and the plan
//! edge names (redistributions).

use airshed_bench::la_profile;
use airshed_core::driver::{HourPlans, PlanLayouts};
use airshed_core::plan::PhaseGraph;
use airshed_machine::{Machine, MachineProfile};

fn main() {
    let profile = la_profile();
    let noon = profile.hours.len() / 2; // a mid-episode (daytime) hour

    for p in [4usize, 64] {
        let mut m = Machine::new(MachineProfile::t3e(), p);
        m.trace.enable();
        let plans = HourPlans::shared(&profile.shape, p, PlanLayouts::default());
        PhaseGraph::for_hour(&profile.hours[noon], &plans, p).execute(&mut m);
        println!(
            "\n=== one simulated hour (hour index {noon}) on the T3E, P = {p} — {:.2}s ===",
            m.elapsed()
        );
        print!("{}", m.trace.gantt(0.0, m.elapsed(), 100));
        println!(
            "trace totals: chem {:.2}s, transport {:.2}s, io {:.2}s, comm {:.2}s",
            m.trace.total_for(airshed_machine::PhaseCategory::Chemistry),
            m.trace.total_for(airshed_machine::PhaseCategory::Transport),
            m.trace.total_for(airshed_machine::PhaseCategory::IoProc),
            m.trace
                .total_for(airshed_machine::PhaseCategory::Communication),
        );
    }
    println!(
        "\nreading: at P = 4 the row of chemistry bars dominates; at P = 64 the\n\
         sequential I/O head and the flat transport bars fill the hour — the\n\
         bottleneck shift that motivates the paper's task-parallel pipeline."
    );
}
