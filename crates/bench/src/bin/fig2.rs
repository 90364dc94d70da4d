//! Figure 2: execution times for the Airshed application using the LA
//! data set, on the Cray T3E, Cray T3D and Intel Paragon, P = 4..128.
//!
//! Also prints the machine-ratio rows backing the §3 text claims ("The
//! Cray T3D is just under a factor of 2 faster than the Intel Paragon,
//! and the Cray T3E is approximately a factor of 10 faster").

use airshed_bench::table::{secs, Table};
use airshed_bench::{la_profile, PAPER_NODES};
use airshed_core::driver::ChemLayout;
use airshed_core::plan::replay_profile;
use airshed_machine::MachineProfile;

fn main() {
    let profile = la_profile();
    let machines = MachineProfile::paper_machines();

    let mut t = Table::new(vec!["P", "T3E (s)", "T3D (s)", "Paragon (s)"]);
    let mut results = vec![Vec::new(); machines.len()];
    for &p in &PAPER_NODES {
        let mut cells = vec![p.to_string()];
        for (mi, m) in machines.iter().enumerate() {
            let r = replay_profile(&profile, *m, p, ChemLayout::Block);
            cells.push(secs(r.total_seconds));
            results[mi].push(r.total_seconds);
        }
        t.row(cells);
    }
    t.print(
        "Figure 2: Airshed execution times, LA data set (4-128 nodes)",
        "fig2",
    );

    let mut ratios = Table::new(vec!["P", "T3D/Paragon speedup", "T3E/Paragon speedup"]);
    for (i, &p) in PAPER_NODES.iter().enumerate() {
        ratios.row(vec![
            p.to_string(),
            format!("{:.2}", results[2][i] / results[1][i]),
            format!("{:.2}", results[2][i] / results[0][i]),
        ]);
    }
    ratios.print(
        "Section 3 text: machine ratios (paper: T3D just under 2x, T3E ~10x)",
        "fig2_ratios",
    );

    let mut speedup = Table::new(vec!["machine", "T(4)/T(32) speedup over 8x nodes"]);
    for (mi, m) in machines.iter().enumerate() {
        speedup.row(vec![
            m.name.to_string(),
            format!("{:.2}", results[mi][0] / results[mi][3]),
        ]);
    }
    speedup.print(
        "Section 3 text: 4->32 node speedup (paper: ~4.5 on the Paragon)",
        "fig2_speedup",
    );
}
