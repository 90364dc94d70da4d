//! Figure 9: speedup of Airshed on an Intel Paragon — data-parallel vs
//! task+data-parallel (the 3-stage I/O pipeline of Figure 8).
//!
//! Expected shape (paper): the pipelined version scales further; "the
//! execution time on 64 nodes was reduced by around 25%".
//!
//! Both columns fold the same per-hour node order: the data-parallel
//! time charges every node, the task+data time schedules the nodes'
//! pipeline-stage annotations.

use airshed_bench::table::{secs, Table};
use airshed_bench::{la_profile, PAPER_NODES};
use airshed_core::taskpar::fig9_sweep;
use airshed_machine::MachineProfile;

fn main() {
    let profile = la_profile();
    let paragon = MachineProfile::paragon();
    let rows = fig9_sweep(&profile, paragon, &PAPER_NODES);

    let mut t = Table::new(vec![
        "P",
        "data-par (s)",
        "task+data (s)",
        "data-par speedup",
        "task+data speedup",
        "improvement",
    ]);
    for r in &rows {
        t.row(vec![
            r.p.to_string(),
            secs(r.data_parallel_seconds),
            secs(r.task_parallel_seconds),
            format!("{:.2}", r.data_parallel_speedup),
            format!("{:.2}", r.task_parallel_speedup),
            format!(
                "{:+.1}%",
                100.0 * (r.data_parallel_seconds / r.task_parallel_seconds - 1.0)
            ),
        ]);
    }
    t.print(
        "Figure 9: Paragon speedup, data-parallel vs task+data-parallel (LA)",
        "fig9",
    );
}
