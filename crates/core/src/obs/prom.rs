//! Prometheus text-format exporter.
//!
//! [`PromWriter`] is a tiny hand-rolled writer for the Prometheus
//! exposition format (`# HELP` / `# TYPE` headers, `name{labels} value`
//! samples, cumulative `_bucket`/`_sum`/`_count` histogram series).
//! The vendored serde shim is a no-op, so the text is assembled by
//! hand; the format is line-oriented and needs nothing more.
//!
//! [`SpanSink::prometheus`](super::SpanSink::prometheus) renders the
//! span-derived phase-latency histograms and then appends every
//! section published through [`Obs::publish`] — the server
//! publishes its whole registry (job flow counters, queue depth, cache
//! hit rates, latency histograms) as one such section.
//!
//! [`Obs::publish`]: super::Obs::publish

use super::metrics::{HistogramSnapshot, BUCKETS};
use super::Track;
use std::fmt::Write as _;

/// Incremental writer for Prometheus text exposition format.
///
/// ```
/// use airshed_core::obs::prom::PromWriter;
/// let mut w = PromWriter::new();
/// w.header("jobs_total", "Jobs ever submitted.", "counter");
/// w.sample("jobs_total", "", 42.0);
/// let text = w.finish();
/// assert!(text.contains("# TYPE jobs_total counter"));
/// assert!(text.contains("jobs_total 42"));
/// ```
#[derive(Default)]
pub struct PromWriter {
    out: String,
}

impl PromWriter {
    pub fn new() -> PromWriter {
        PromWriter::default()
    }

    /// Write the `# HELP` / `# TYPE` header for a metric family.
    /// `kind` is `counter`, `gauge`, or `histogram`.
    pub fn header(&mut self, name: &str, help: &str, kind: &str) {
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    /// Write one sample. `labels` is either empty or a preformatted
    /// `key="value"` list without braces (e.g. `phase="transport"`).
    pub fn sample(&mut self, name: &str, labels: &str, value: f64) {
        if labels.is_empty() {
            let _ = writeln!(self.out, "{name} {}", fmt_value(value));
        } else {
            let _ = writeln!(self.out, "{name}{{{labels}}} {}", fmt_value(value));
        }
    }

    /// Write the `_bucket`/`_sum`/`_count` series for one histogram.
    /// Buckets are the power-of-two-µs buckets converted to seconds
    /// (the Prometheus convention), cumulative, with a final `+Inf`.
    pub fn histogram(&mut self, name: &str, labels: &str, h: &HistogramSnapshot) {
        let sep = if labels.is_empty() { "" } else { "," };
        let mut cumulative = 0u64;
        for (i, &b) in h.buckets.iter().enumerate() {
            cumulative += b;
            // Bucket i covers [2^i, 2^{i+1}) µs → le = 2^{i+1} µs.
            if b == 0 && i < BUCKETS - 1 {
                continue; // keep the text short; cumulative still correct
            }
            let le = (1u128 << (i + 1)) as f64 * 1e-6;
            let _ = writeln!(
                self.out,
                "{name}_bucket{{{labels}{sep}le=\"{}\"}} {cumulative}",
                fmt_value(le)
            );
        }
        let _ = writeln!(
            self.out,
            "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {}",
            h.count
        );
        self.sample(&format!("{name}_sum"), labels, h.total_micros as f64 * 1e-6);
        self.sample(&format!("{name}_count"), labels, h.count as f64);
    }

    /// The accumulated document.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Format a value the way Prometheus expects: integers without a
/// decimal point, everything else in shortest-roundtrip form.
fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Escape a label value per the exposition format: inside the double
/// quotes, `\` becomes `\\`, `"` becomes `\"`, and a line feed becomes
/// `\n`. Every label value interpolated into a sample must pass
/// through here (or [`label`]) — a raw quote or newline in a value
/// breaks strict parsers.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Format one `key="value"` label pair with the value escaped.
///
/// ```
/// use airshed_core::obs::prom::label;
/// assert_eq!(label("phase", "a\"b"), "phase=\"a\\\"b\"");
/// ```
pub fn label(key: &str, value: &str) -> String {
    format!("{key}=\"{}\"", escape_label_value(value))
}

impl super::SpanSink {
    /// Render a Prometheus text snapshot: span-derived phase-latency
    /// histograms first, then every published section (e.g. the server
    /// registry) verbatim.
    pub fn prometheus(&self) -> String {
        use super::metrics::Histogram;
        use std::collections::BTreeMap;
        use std::time::Duration;

        let events = self.events();
        let mut phases: BTreeMap<&'static str, Histogram> = BTreeMap::new();
        let pool = Histogram::new();
        for e in &events {
            let d = Duration::from_nanos((e.dur_us * 1e3) as u64);
            match e.track {
                Track::Lane(_) => phases.entry(e.name).or_default().record(d),
                Track::PoolWorker { .. } => pool.record(d),
                _ => {} // virtual-time tracks are not latency samples
            }
        }

        let mut w = PromWriter::new();
        if !phases.is_empty() {
            w.header(
                "airshed_phase_seconds",
                "Wall-clock phase latency from spans.",
                "histogram",
            );
            for (name, h) in &phases {
                w.histogram(
                    "airshed_phase_seconds",
                    &label("phase", name),
                    &h.snapshot(),
                );
            }
        }
        let pool = pool.snapshot();
        if pool.count > 0 {
            w.header(
                "airshed_pool_task_seconds",
                "Wall-clock thread-pool task latency from spans.",
                "histogram",
            );
            w.histogram("airshed_pool_task_seconds", "", &pool);
        }
        let mut out = w.finish();
        for (_, text) in self.sections() {
            out.push_str(&text);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::metrics::Histogram;
    use std::time::Duration;

    #[test]
    fn writer_emits_headers_samples_and_histograms() {
        let h = Histogram::new();
        h.record(Duration::from_micros(3));
        h.record(Duration::from_micros(100));
        let mut w = PromWriter::new();
        w.header("x_seconds", "help text", "histogram");
        w.histogram("x_seconds", "phase=\"t\"", &h.snapshot());
        w.header("d", "depth", "gauge");
        w.sample("d", "", 7.0);
        let text = w.finish();
        assert!(text.contains("# TYPE x_seconds histogram"));
        // 3 µs is in [2,4) µs → le = 4e-6 s.
        assert!(text.contains("x_seconds_bucket{phase=\"t\",le=\"0.000004\"} 1"));
        assert!(text.contains("x_seconds_bucket{phase=\"t\",le=\"+Inf\"} 2"));
        assert!(text.contains("x_seconds_count{phase=\"t\"} 2"));
        assert!(text.contains("d 7\n"));
    }

    /// One parsed sample line: `(metric_name, labels, value)`.
    type Sample = (String, Vec<(String, String)>, f64);

    /// A strict line parser for the exposition format: returns one
    /// [`Sample`] per line, panicking on anything malformed — unescaped
    /// quote/newline/backslash in a label value, missing closing brace,
    /// non-numeric value (other than `+Inf`).
    fn parse_exposition(text: &str) -> Vec<Sample> {
        let mut out = Vec::new();
        for line in text.lines() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (name_labels, value) = line.rsplit_once(' ').expect("sample has no value");
            let value = if value == "+Inf" {
                f64::INFINITY
            } else {
                value
                    .parse::<f64>()
                    .unwrap_or_else(|_| panic!("unparseable value {value:?} in line {line:?}"))
            };
            let (name, labels) = match name_labels.split_once('{') {
                None => (name_labels.to_string(), Vec::new()),
                Some((name, rest)) => {
                    let body = rest.strip_suffix('}').expect("missing closing brace");
                    let mut labels = Vec::new();
                    let mut chars = body.chars().peekable();
                    loop {
                        let mut key = String::new();
                        for c in chars.by_ref() {
                            if c == '=' {
                                break;
                            }
                            key.push(c);
                        }
                        assert!(!key.is_empty(), "empty label key in {line:?}");
                        assert_eq!(chars.next(), Some('"'), "label value must be quoted");
                        let mut val = String::new();
                        loop {
                            match chars.next().expect("unterminated label value") {
                                '\\' => match chars.next().expect("dangling backslash") {
                                    '\\' => val.push('\\'),
                                    '"' => val.push('"'),
                                    'n' => val.push('\n'),
                                    other => panic!("bad escape \\{other} in {line:?}"),
                                },
                                '"' => break,
                                '\n' => panic!("raw newline in label value"),
                                c => val.push(c),
                            }
                        }
                        labels.push((key, val));
                        match chars.next() {
                            None => break,
                            Some(',') => continue,
                            Some(other) => panic!("unexpected {other:?} after label"),
                        }
                    }
                    (name.to_string(), labels)
                }
            };
            out.push((name, labels, value));
        }
        out
    }

    #[test]
    fn strict_parser_accepts_escaped_labels_and_cumulative_buckets() {
        // A label value exercising all three mandatory escapes.
        let hostile = "grid\\la \"tiny\"\nnext";
        let h = Histogram::new();
        for micros in [1u64, 3, 3, 9] {
            h.record(Duration::from_micros(micros));
        }
        let mut w = PromWriter::new();
        w.header("airshed_x_seconds", "test histogram", "histogram");
        w.histogram("airshed_x_seconds", &label("grid", hostile), &h.snapshot());
        w.sample("airshed_plain", &label("grid", hostile), 4.0);
        let text = w.finish();

        let samples = parse_exposition(&text);
        // The escaping round-trips through a strict parser.
        assert!(!samples.is_empty());
        for (_, labels, _) in &samples {
            let grid = labels
                .iter()
                .find(|(k, _)| k == "grid")
                .expect("grid label");
            assert_eq!(grid.1, hostile, "label value must round-trip");
        }
        // Buckets: cumulative, nondecreasing, ending at le="+Inf" whose
        // count equals the _count sample.
        let buckets: Vec<&Sample> = samples
            .iter()
            .filter(|(n, _, _)| n == "airshed_x_seconds_bucket")
            .collect();
        assert!(buckets.len() >= 2);
        let mut last = f64::NEG_INFINITY;
        for (_, _labels, count) in &buckets {
            assert!(*count >= last, "buckets must be cumulative");
            last = *count;
        }
        let le_of = |b: &Sample| b.1.iter().find(|(k, _)| k == "le").unwrap().1.clone();
        assert_eq!(le_of(buckets.last().unwrap()), "+Inf");
        // All finite les strictly increase.
        let les: Vec<f64> = buckets[..buckets.len() - 1]
            .iter()
            .map(|b| le_of(b).parse::<f64>().unwrap())
            .collect();
        assert!(les.windows(2).all(|w| w[0] < w[1]));
        let count = samples
            .iter()
            .find(|(n, _, _)| n == "airshed_x_seconds_count")
            .unwrap()
            .2;
        assert_eq!(buckets.last().unwrap().2, count);
    }

    #[test]
    fn buckets_are_cumulative() {
        let h = Histogram::new();
        for micros in [1u64, 3, 3, 9] {
            h.record(Duration::from_micros(micros));
        }
        let mut w = PromWriter::new();
        w.histogram("m", "", &h.snapshot());
        let text = w.finish();
        // [1] in [1,2): cum 1; [3,3] in [2,4): cum 3; [9] in [8,16): cum 4.
        assert!(text.contains("m_bucket{le=\"0.000002\"} 1"));
        assert!(text.contains("m_bucket{le=\"0.000004\"} 3"));
        assert!(text.contains("m_bucket{le=\"0.000016\"} 4"));
        assert!(text.contains("m_bucket{le=\"+Inf\"} 4"));
    }
}
