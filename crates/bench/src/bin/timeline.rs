//! Execution timeline: a Gantt view of one simulated hour on the virtual
//! machine — what the plan graph's phase/redistribution sequence actually
//! looks like in time, and why transport and I/O dominate at scale. Rows
//! are labelled from the IR `PhaseKind` (compute phases) and the plan
//! edge names (redistributions); each bar is the virtual `(start, end)`
//! `PhaseGraph::execute_with` reports for a charged node.

use airshed_bench::la_profile;
use airshed_core::driver::{HourPlans, PlanLayouts};
use airshed_core::plan::PhaseGraph;
use airshed_machine::{Machine, MachineProfile, PhaseCategory};

/// Render a text Gantt chart of `(label, start, end)` spans: one row per
/// distinct label in order of first appearance, `width` character
/// columns spanning `[t0, t1]`.
fn gantt(spans: &[(&'static str, f64, f64)], t0: f64, t1: f64, width: usize) -> String {
    assert!(t1 > t0 && width >= 10);
    let mut labels: Vec<&'static str> = Vec::new();
    for &(label, _, _) in spans {
        if !labels.contains(&label) {
            labels.push(label);
        }
    }
    let col = |t: f64| -> usize {
        (((t - t0) / (t1 - t0) * width as f64).floor() as usize).min(width - 1)
    };
    let mut out = String::new();
    let name_w = labels.iter().map(|l| l.len()).max().unwrap_or(0).max(5);
    for label in &labels {
        let mut row = vec![b'.'; width];
        for &(_, start, end) in spans.iter().filter(|s| s.0 == *label) {
            if end < t0 || start > t1 {
                continue;
            }
            let (a, b) = (col(start.max(t0)), col(end.min(t1)));
            for c in &mut row[a..=b] {
                *c = b'#';
            }
        }
        out.push_str(&format!(
            "{:>w$} |{}|\n",
            label,
            String::from_utf8(row).unwrap(),
            w = name_w
        ));
    }
    out.push_str(&format!(
        "{:>w$}  {:<10.3}{:>width$.3}\n",
        "t(s)",
        t0,
        t1,
        w = name_w,
        width = width - 8
    ));
    out
}

fn main() {
    let profile = la_profile();
    let noon = profile.hours.len() / 2; // a mid-episode (daytime) hour

    for p in [4usize, 64] {
        let mut m = Machine::new(MachineProfile::t3e(), p);
        let plans = HourPlans::shared(&profile.shape, p, PlanLayouts::default());
        let graph = PhaseGraph::for_hour(&profile.hours[noon], &plans, p);
        let mut spans = Vec::with_capacity(graph.nodes.len());
        graph.execute_with(&mut m, |node, start, end| {
            spans.push((graph.label(node).0, start, end));
        });
        println!(
            "\n=== one simulated hour (hour index {noon}) on the T3E, P = {p} — {:.2}s ===",
            m.elapsed()
        );
        print!("{}", gantt(&spans, 0.0, m.elapsed(), 100));
        println!(
            "trace totals: chem {:.2}s, transport {:.2}s, io {:.2}s, comm {:.2}s",
            m.breakdown.get(PhaseCategory::Chemistry),
            m.breakdown.get(PhaseCategory::Transport),
            m.breakdown.get(PhaseCategory::IoProc),
            m.breakdown.get(PhaseCategory::Communication),
        );
    }
    println!(
        "\nreading: at P = 4 the row of chemistry bars dominates; at P = 64 the\n\
         sequential I/O head and the flat transport bars fill the hour — the\n\
         bottleneck shift that motivates the paper's task-parallel pipeline."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gantt_renders_rows_and_bars() {
        let spans = [("transport", 0.0, 5.0), ("chemistry", 5.0, 10.0)];
        let g = gantt(&spans, 0.0, 10.0, 20);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("transport"));
        // Transport occupies the first half of its row (the closing cell
        // is inclusive, so 10 or 11 hash marks).
        let bar = lines[0].split('|').nth(1).unwrap();
        assert!(bar.starts_with("##########"));
        let hashes = bar.chars().filter(|&c| c == '#').count();
        assert!((10..=11).contains(&hashes), "{bar}");
        assert!(bar.ends_with('.'));
        let bar2 = lines[1].split('|').nth(1).unwrap();
        assert!(bar2.ends_with('#'));
        assert!(bar2.starts_with('.'));
    }
}
