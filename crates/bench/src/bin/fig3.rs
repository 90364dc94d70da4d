//! Figure 3: Airshed execution times on the Cray T3E for the Los Angeles
//! basin and North East United States data sets.
//!
//! The paper's observation: "the qualitative execution behavior is
//! similar for the two data sets ... they follow broadly similar speedup
//! patterns."

use airshed_bench::table::{secs, Table};
use airshed_bench::{la_profile, ne_profile, PAPER_NODES};
use airshed_core::driver::ChemLayout;
use airshed_core::plan::replay_profile;
use airshed_machine::MachineProfile;

fn main() {
    let la = la_profile();
    let ne = ne_profile();
    let t3e = MachineProfile::t3e();

    let mut t = Table::new(vec!["P", "LA (s)", "NE (s)", "NE/LA ratio"]);
    let mut la_times = Vec::new();
    let mut ne_times = Vec::new();
    for &p in &PAPER_NODES {
        let rla = replay_profile(&la, t3e, p, ChemLayout::Block).total_seconds;
        let rne = replay_profile(&ne, t3e, p, ChemLayout::Block).total_seconds;
        la_times.push(rla);
        ne_times.push(rne);
        t.row(vec![
            p.to_string(),
            secs(rla),
            secs(rne),
            format!("{:.2}", rne / rla),
        ]);
    }
    t.print("Figure 3: T3E execution times, LA vs NE data sets", "fig3");

    // Qualitative-similarity check: normalised speedup curves.
    let mut s = Table::new(vec!["P", "LA speedup vs P=4", "NE speedup vs P=4"]);
    for (i, &p) in PAPER_NODES.iter().enumerate() {
        s.row(vec![
            p.to_string(),
            format!("{:.2}", la_times[0] / la_times[i]),
            format!("{:.2}", ne_times[0] / ne_times[i]),
        ]);
    }
    s.print(
        "Figure 3 (log-scale reading): speedup patterns are broadly similar",
        "fig3_speedup",
    );
}
