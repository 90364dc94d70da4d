//! In-memory spans around calls into a layer's public function.
//!
//! The benchmark times the system from outside: the traced pass wraps
//! each call it makes in a span (name, start, end, parent, unit id),
//! keeps the spans in memory, and writes them as a Chrome trace when the
//! run ends. The client is one thread, so spans nest strictly and a
//! stack of open spans is all the bookkeeping there is. With tracing off
//! [`Tracer::span`] is the bare call — no clock reads.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Microseconds since the tracer's epoch.
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Which measured unit the span belongs to.
    pub unit: u32,
    /// Which workload's suite recorded it (index into the workload list).
    pub workload: u8,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    workload: u8,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            workload: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Tag spans recorded from here on with this workload.
    pub fn set_workload(&mut self, workload: u8) {
        self.workload = workload;
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Run `f` inside a span. `f` gets the tracer back so the calls it
    /// makes can open child spans.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        unit: u32,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
            unit,
            workload: self.workload,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end_us = self.now_us();
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Index of the first span recorded after this call — a mark to
    /// slice [`Tracer::spans`] by.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }
}

/// Self time of every span: its duration minus the part of that
/// interval its direct children cover (overlapping children are merged,
/// so nothing is subtracted twice).
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.partial_cmp(b).expect("span times are finite"));
            let mut covered = 0.0;
            let mut reach = s.start_us;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(s.end_us);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_us() - covered
        })
        .collect()
}

/// Total duration (µs) of the spans called `name` among `spans`.
pub fn total_us(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_us)
        .sum()
}

/// Durations (µs) of the spans called `name` among `spans`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_us)
        .collect()
}

/// Chrome trace-event JSON (the format `core::obs::chrome` writes and
/// Perfetto / `chrome://tracing` load) of one workload's spans: complete
/// (`"ph":"X"`) events on one thread, with the unit id, parent index
/// and self time as arguments.
pub fn chrome_json(spans: &[Span], workload: u8, process_name: &str) -> String {
    let self_us = self_times_us(spans);
    let mut out = String::from("{\"traceEvents\":[\n");
    let _ = write!(
        out,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{{\"name\":\"{process_name}\"}}}}"
    );
    for (i, s) in spans.iter().enumerate() {
        if s.workload != workload {
            continue;
        }
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            out,
            ",\n{{\"name\":\"{}\",\"cat\":\"benchmark\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\
             \"args\":{{\"span\":{i},\"parent\":{parent},\"unit\":{},\"self_us\":{:.3}}}}}",
            s.name,
            s.start_us,
            s.duration_us(),
            s.unit,
            self_us[i]
        );
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_us: f64, end_us: f64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_us,
            end_us,
            parent,
            unit: 0,
            workload: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_child_time() {
        // root [0,100] with children [10,30], [20,50] (overlapping) and
        // [60,70]; the second child has its own child [25,45].
        let spans = vec![
            span(0.0, 100.0, None),
            span(10.0, 30.0, Some(0)),
            span(20.0, 50.0, Some(0)),
            span(60.0, 70.0, Some(0)),
            span(25.0, 45.0, Some(2)),
        ];
        let st = self_times_us(&spans);
        // Children cover [10,50] and [60,70] = 50 of the root's 100.
        assert_eq!(st, vec![50.0, 20.0, 10.0, 10.0, 20.0]);
    }

    #[test]
    fn tracer_nests_spans_and_is_free_when_off() {
        let mut tr = Tracer::new(true);
        let v = tr.span("outer", 3, |tr| {
            tr.span("inner", 3, |_| 1) + tr.span("inner", 3, |_| 2)
        });
        assert_eq!(v, 3);
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].end_us >= spans[2].end_us);
        assert!(spans[1].end_us <= spans[2].start_us);
        assert_eq!(durations_us(spans, "inner").len(), 2);
        let st = self_times_us(spans);
        assert!((st[0] + st[1] + st[2] - spans[0].duration_us()).abs() < 1e-6);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", 0, |_| 5), 5);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_json_holds_only_the_named_workload() {
        let mut tr = Tracer::new(true);
        tr.set_workload(1);
        tr.span("kept", 0, |_| ());
        tr.set_workload(2);
        tr.span("dropped", 0, |_| ());
        let json = chrome_json(tr.spans(), 1, "w");
        assert!(json.contains("\"kept\""));
        assert!(!json.contains("\"dropped\""));
        let parsed = crate::json::parse(&json).expect("valid JSON");
        assert_eq!(parsed.get("traceEvents").unwrap().items().len(), 2);
    }
}
