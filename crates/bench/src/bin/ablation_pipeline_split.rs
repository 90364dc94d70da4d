//! Ablation: pipeline subgroup allocation.
//!
//! The paper's pipelined Airshed places one node each on input and
//! output. Its authors separately studied the general problem ("Optimal
//! mapping of sequences of data parallel tasks", PPoPP'95, cited as
//! \[26\]): how many nodes should each pipeline stage get? This bench
//! enumerates splits for the LA episode on the Paragon and compares the
//! paper's 1/1 default against the optimum.

use airshed_bench::table::{secs, Table};
use airshed_bench::{la_profile, PAPER_NODES};
use airshed_core::driver::{ChemLayout, PlanLayouts};
use airshed_core::obs::Obs;
use airshed_core::plan::replay_profile;
use airshed_core::taskpar::{optimize_split, replay_taskparallel};
use airshed_machine::MachineProfile;

fn main() {
    let profile = la_profile();
    let paragon = MachineProfile::paragon();

    let mut t = Table::new(vec![
        "P",
        "data-par (s)",
        "pipeline 1/1 (s)",
        "best split",
        "pipeline best (s)",
        "extra gain",
    ]);
    for &p in &PAPER_NODES {
        if p < 4 {
            continue;
        }
        let dp = replay_profile(&profile, paragon, p, ChemLayout::Block).total_seconds;
        let layouts = PlanLayouts::default();
        let default =
            replay_taskparallel(&profile, paragon, p, (1, 1), layouts, &Obs::off()).total_seconds;
        let (p_in, p_out, best) = optimize_split(&profile, paragon, p, layouts);
        t.row(vec![
            p.to_string(),
            secs(dp),
            secs(default),
            format!("in={p_in}/out={p_out}"),
            secs(best.total_seconds),
            format!("{:+.1}%", 100.0 * (default / best.total_seconds - 1.0)),
        ]);
    }
    t.print(
        "Ablation: pipeline stage allocation (LA on the Paragon)",
        "ablation_pipeline_split",
    );
    println!(
        "reading: at small P every node is precious, so the 1/1 split is already\n\
         optimal; at large P the input stage (sequential read + layer-parallel\n\
         pretrans) becomes the pipeline bottleneck and earns extra nodes."
    );
}
