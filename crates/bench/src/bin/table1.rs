//! "Table 1": the T3E communication parameters of §4.3.
//!
//! The paper estimates L, G, H for Fx-generated communication on the T3E
//! "using measurements for a small number of nodes". We do the inverse
//! experiment on the virtual machine: generate redistribution phases at
//! small P, fit the three parameters from the observed costs with the
//! known message/byte counts, and confirm the fit recovers the machine's
//! configured (= the paper's) values.

use airshed_bench::table::Table;
use airshed_core::driver::{HourPlans, PlanLayouts};
use airshed_machine::MachineProfile;

fn main() {
    let m = MachineProfile::t3e();
    let shape = [35usize, 5, 700];

    // Collect (m_msgs, b_bytes, c_bytes, cost) samples from the three
    // redistribution steps at small node counts — the max-loaded node of
    // each phase.
    let mut samples: Vec<(f64, f64, f64, f64)> = Vec::new();
    for p in [2usize, 4, 8] {
        let plans = HourPlans::shared(&shape, p, PlanLayouts::default());
        let r = &plans.main;
        for plan in [&r.repl_to_trans, &r.trans_to_chem, &r.chem_to_repl] {
            let (load, cost) = plan
                .loads
                .iter()
                .map(|l| (l, m.comm_cost(l)))
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .unwrap();
            samples.push((
                (load.msgs_sent + load.msgs_recv) as f64,
                load.bytes_sent.max(load.bytes_recv) as f64,
                load.bytes_copied as f64,
                cost,
            ));
        }
    }

    // Least-squares fit cost = L*m + G*b + H*c via normal equations.
    let mut ata = [[0.0f64; 3]; 3];
    let mut atb = [0.0f64; 3];
    for &(mm, bb, cc, y) in &samples {
        let x = [mm, bb, cc];
        for i in 0..3 {
            for j in 0..3 {
                ata[i][j] += x[i] * x[j];
            }
            atb[i] += x[i] * y;
        }
    }
    let fitted = solve3(ata, atb);

    let mut t = Table::new(vec!["parameter", "paper / configured", "fitted", "units"]);
    t.row(vec![
        "L (latency)".to_string(),
        format!("{:.2e}", m.latency),
        format!("{:.2e}", fitted[0]),
        "seconds/message".to_string(),
    ]);
    t.row(vec![
        "G (byte cost)".to_string(),
        format!("{:.2e}", m.byte_cost),
        format!("{:.2e}", fitted[1]),
        "seconds/byte".to_string(),
    ]);
    t.row(vec![
        "H (copy cost)".to_string(),
        format!("{:.2e}", m.copy_cost),
        format!("{:.2e}", fitted[2]),
        "seconds/byte".to_string(),
    ]);
    t.print(
        "Table 1 (paper §4.3): T3E communication parameters, configured vs re-fitted",
        "table1",
    );
    println!(
        "paper values: L = 5.2e-5 s/msg, G = 2.47e-8 s/B, H = 2.04e-8 s/B, W = {} bytes",
        m.word_size
    );
}

#[allow(clippy::needless_range_loop)]
/// Solve a 3×3 linear system by Gaussian elimination with partial
/// pivoting (tiny fixed-size helper; the fit is well-conditioned).
fn solve3(mut a: [[f64; 3]; 3], mut b: [f64; 3]) -> [f64; 3] {
    for col in 0..3 {
        let piv = (col..3)
            .max_by(|&i, &j| a[i][col].abs().partial_cmp(&a[j][col].abs()).unwrap())
            .unwrap();
        a.swap(col, piv);
        b.swap(col, piv);
        for row in (col + 1)..3 {
            let f = a[row][col] / a[col][col];
            for k in col..3 {
                a[row][k] -= f * a[col][k];
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = [0.0f64; 3];
    for row in (0..3).rev() {
        let mut s = b[row];
        for k in (row + 1)..3 {
            s -= a[row][k] * x[k];
        }
        x[row] = s / a[row][row];
    }
    x
}
