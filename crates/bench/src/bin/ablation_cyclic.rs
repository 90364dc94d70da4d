//! Ablation: BLOCK vs CYCLIC chemistry distribution.
//!
//! Fx (like HPF) offers block, cyclic and block-cyclic layouts. Airshed
//! used `A(*,*,BLOCK)` for chemistry; but chemistry work per column is
//! *not* uniform — urban columns integrate far more stiff substeps than
//! rural ones, and the multiscale grid concentrates columns in exactly
//! the expensive places. `CYCLIC` striping spreads those hot columns
//! across nodes.
//!
//! This is also the main source of the Figure 7 prediction error: the §4
//! model divides chemistry work evenly, which is closer to the truth
//! under CYCLIC.

use airshed_bench::table::{secs, Table};
use airshed_bench::{la_profile, PAPER_NODES};
use airshed_core::driver::ChemLayout;
use airshed_core::plan::replay_profile;
use airshed_core::predict::PerfModel;
use airshed_machine::MachineProfile;

fn main() {
    let profile = la_profile();
    let t3e = MachineProfile::t3e();
    let model = PerfModel::from_profile(&profile);

    let mut t = Table::new(vec![
        "P",
        "chem BLOCK (s)",
        "chem CYCLIC (s)",
        "gain",
        "total BLOCK (s)",
        "total CYCLIC (s)",
        "model chem (s)",
    ]);
    for &p in &PAPER_NODES {
        let block = replay_profile(&profile, t3e, p, ChemLayout::Block);
        let cyclic = replay_profile(&profile, t3e, p, ChemLayout::Cyclic);
        let pred = model.predict(&t3e, p);
        t.row(vec![
            p.to_string(),
            secs(block.chemistry_seconds),
            secs(cyclic.chemistry_seconds),
            format!(
                "{:+.1}%",
                100.0 * (block.chemistry_seconds / cyclic.chemistry_seconds - 1.0)
            ),
            secs(block.total_seconds),
            secs(cyclic.total_seconds),
            secs(pred.chemistry),
        ]);
    }
    t.print(
        "Ablation: chemistry distribution BLOCK vs CYCLIC (LA on T3E)",
        "ablation_cyclic",
    );
    println!(
        "reading: CYCLIC balances the urban/rural chemistry imbalance that BLOCK\n\
         suffers from once blocks shrink to a few columns; the cyclic measurement\n\
         also sits closer to the paper's even-division model (last column)."
    );
}
