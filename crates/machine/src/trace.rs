//! Phase-level execution tracing.
//!
//! When enabled, the machine records every computation and communication
//! phase with its virtual start/end times; [`Trace::gantt`] renders the
//! result as a text timeline — the tool you want when explaining *why*
//! the transport phase stops scaling or what the pipeline actually
//! overlaps.

use crate::accounting::PhaseCategory;
use serde::Serialize;

/// One recorded phase.
#[derive(Debug, Clone, Serialize)]
pub struct TraceEvent {
    pub label: &'static str,
    pub category: PhaseCategory,
    /// Virtual seconds at phase start/end (machine-wide, post-barrier).
    pub start: f64,
    pub end: f64,
}

impl TraceEvent {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// A phase trace. Disabled by default (zero overhead beyond a branch).
#[derive(Debug, Clone, Default)]
pub struct Trace {
    enabled: bool,
    events: Vec<TraceEvent>,
}

impl Trace {
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    pub fn record(&mut self, label: &'static str, category: PhaseCategory, start: f64, end: f64) {
        if self.enabled {
            debug_assert!(end >= start);
            self.events.push(TraceEvent {
                label,
                category,
                start,
                end,
            });
        }
    }

    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Total traced time per category label (diagnostic cross-check
    /// against the `PhaseBreakdown`).
    pub fn total_for(&self, category: PhaseCategory) -> f64 {
        self.events
            .iter()
            .filter(|e| e.category == category)
            .map(|e| e.duration())
            .sum()
    }

    /// Render a text Gantt chart, one row per distinct label, `width`
    /// character columns spanning `[t0, t1]`.
    pub fn gantt(&self, t0: f64, t1: f64, width: usize) -> String {
        assert!(t1 > t0 && width >= 10);
        let mut labels: Vec<&'static str> = Vec::new();
        for e in &self.events {
            if !labels.contains(&e.label) {
                labels.push(e.label);
            }
        }
        let col = |t: f64| -> usize {
            (((t - t0) / (t1 - t0) * width as f64).floor() as usize).min(width - 1)
        };
        let mut out = String::new();
        let name_w = labels.iter().map(|l| l.len()).max().unwrap_or(0).max(5);
        for label in &labels {
            let mut row = vec![b'.'; width];
            for e in self.events.iter().filter(|e| e.label == *label) {
                if e.end < t0 || e.start > t1 {
                    continue;
                }
                let (a, b) = (col(e.start.max(t0)), col(e.end.min(t1)));
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::default();
        t.record("x", PhaseCategory::Chemistry, 0.0, 1.0);
        assert!(t.events().is_empty());
    }

    #[test]
    fn enabled_trace_accumulates_and_totals() {
        let mut t = Trace::default();
        t.enable();
        t.record("chem", PhaseCategory::Chemistry, 0.0, 2.0);
        t.record("chem", PhaseCategory::Chemistry, 3.0, 4.0);
        t.record("comm", PhaseCategory::Communication, 2.0, 3.0);
        assert_eq!(t.events().len(), 3);
        assert_eq!(t.total_for(PhaseCategory::Chemistry), 3.0);
        assert_eq!(t.total_for(PhaseCategory::Communication), 1.0);
        assert_eq!(t.total_for(PhaseCategory::IoProc), 0.0);
    }

    #[test]
    fn gantt_renders_rows_and_bars() {
        let mut t = Trace::default();
        t.enable();
        t.record("transport", PhaseCategory::Transport, 0.0, 5.0);
        t.record("chemistry", PhaseCategory::Chemistry, 5.0, 10.0);
        let g = t.gantt(0.0, 10.0, 20);
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
