//! Distributed tracing over the scenario fabric.
//!
//! A fabric run spans several OS processes — one frontend, N shards —
//! and each writes its own Chrome trace with its own clock epoch. This
//! module makes those shards stitchable into **one** Perfetto-loadable
//! timeline:
//!
//! * [`TraceContext`] is the identity a job carries across the wire:
//!   the frontend mints one per submitted scenario, every `Assign`
//!   ships it to the executing shard, and every `Progress` /
//!   `Completed` / `Failed` echoes it back — so a job keeps a single
//!   `trace_id` through routing, work stealing and failover.
//! * [`stitch`] merges the per-process documents, each a plain
//!   [`super::SpanSink::chrome_trace`] with the process-local pids: it
//!   reads the per-shard clock offsets the frontend measured from the
//!   Hello/heartbeat exchange (recorded on the `"clock offset us"`
//!   counter track), shifts every shard's wall-clock events onto the
//!   frontend's time axis, gives the `k`-th document the pid namespace
//!   `k * PID_STRIDE` and its label as a process-name prefix (so merged
//!   processes never collide on track identity), and draws
//!   Chrome flow arrows (`ph:"s"` → `ph:"f"`) from each
//!   route/steal/failover dispatch mark on the frontend's per-job
//!   track to the shard-side `job` span it started. Counter tracks
//!   (copy bytes, lane occupancy) pass through untouched.
//!
//! ## Clock offsets
//!
//! The frontend cannot read a shard's clock; it can only timestamp
//! arrivals. Every `Hello` and heartbeat carries `sent_us` (µs since
//! the *shard's* trace epoch); on arrival the frontend computes
//! `sample = recv_us − sent_us = true_offset + wire_delay`. Since
//! `wire_delay ≥ 0`, the **minimum** sample over the whole run is the
//! best estimate of the true epoch offset — the classic one-way NTP
//! bound. The estimate is written into the frontend's own trace (one
//! counter per shard on the `"clock offset us"` track), which makes
//! the merge pass self-contained: `airshed trace-merge` needs no
//! side-channel file.

use std::fmt::{self, Write as _};

/// How far apart [`stitch`] spaces the pid namespaces of the processes
/// it merges. Local pids emitted by the Chrome exporter stay well below
/// this (currently 5).
pub const PID_STRIDE: u32 = 16;

/// The identity a job carries across fabric processes.
///
/// `trace_id` is stable for the job's whole life — minted at submit,
/// unchanged across steal and failover. `parent_span` names the
/// frontend-side job span shard spans should be parented under (the
/// frontend uses the trace id itself as the span id). `job_id` is the
/// router's job number, for correlating with router counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceContext {
    pub trace_id: u64,
    pub parent_span: u64,
    pub job_id: u64,
}

impl TraceContext {
    /// The deterministic context for router job `job_id`: trace ids
    /// start at 1 so 0 unambiguously means "no context".
    pub fn for_job(job_id: u64) -> TraceContext {
        TraceContext {
            trace_id: job_id + 1,
            parent_span: job_id + 1,
            job_id,
        }
    }

    /// Whether this is a real context (minted by a frontend) rather
    /// than the zero default.
    pub fn is_set(&self) -> bool {
        self.trace_id != 0
    }
}

/// The per-shard artifact path convention: `trace.json` + `shard-0`
/// → `trace.shard-0.json`. This is what the frontend passes to each
/// spawned shard and what `airshed trace-merge` auto-discovers.
pub fn sharded_path(path: &str, name: &str) -> String {
    let (dir, file) = match path.rsplit_once('/') {
        Some((d, f)) => (format!("{d}/"), f),
        None => (String::new(), path),
    };
    match file.rsplit_once('.') {
        Some((stem, ext)) => format!("{dir}{stem}.{name}.{ext}"),
        None => format!("{dir}{file}.{name}"),
    }
}

// ---------------------------------------------------------------------------
// Minimal JSON — the vendored serde shim is a no-op, so the stitcher
// parses and re-renders the Chrome documents by hand. Insertion order
// of object keys is preserved so rewritten events stay diffable
// against their inputs.
// ---------------------------------------------------------------------------

/// `s` as a JSON string literal, quotes included: the one string
/// escaper of both the Chrome exporter and [`Json::render`].
pub(crate) struct Quoted<'a>(pub &'a str);

impl fmt::Display for Quoted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\t' => f.write_str("\\t")?,
                '\r' => f.write_str("\\r")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        f.write_char('"')
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let b = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(b, &mut pos, 0)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(v)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Set (or append) an object field.
    pub fn set(&mut self, key: &str, value: Json) {
        if let Json::Obj(kv) = self {
            if let Some(slot) = kv.iter_mut().find(|(k, _)| k == key) {
                slot.1 = value;
            } else {
                kv.push((key.to_string(), value));
            }
        }
    }

    /// Serialize back to JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => {
                let _ = write!(out, "{}", Quoted(s));
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(kv) => {
                out.push('{');
                for (i, (k, v)) in kv.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{}", Quoted(k));
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Deepest `[`/`{` nesting [`Json::parse`] accepts. Chrome traces nest
/// four levels; the bound keeps a hostile document from overflowing the
/// stack of the recursive reader.
const MAX_DEPTH: usize = 64;

/// Parse one value whose enclosing containers number `depth`.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'{' | b'[')) && depth == MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut kv = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(kv));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos, depth)? {
                    Json::Str(s) => s,
                    other => return Err(format!("object key must be a string, got {other:?}")),
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(b, pos, depth + 1)?;
                kv.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(kv));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut s = String::new();
            loop {
                match b.get(*pos) {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Json::Str(s));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match b.get(*pos) {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'/') => s.push('/'),
                            Some(b'n') => s.push('\n'),
                            Some(b't') => s.push('\t'),
                            Some(b'r') => s.push('\r'),
                            Some(b'b') => s.push('\u{8}'),
                            Some(b'f') => s.push('\u{c}'),
                            Some(b'u') => {
                                let hex =
                                    b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                                let code = u32::from_str_radix(
                                    std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                    16,
                                )
                                .map_err(|e| e.to_string())?;
                                s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                                *pos += 4;
                            }
                            other => return Err(format!("bad escape {other:?}")),
                        }
                        *pos += 1;
                    }
                    Some(&c) => {
                        // Multi-byte UTF-8: copy the whole code point.
                        let len = match c {
                            c if c < 0x80 => 1,
                            c if c >= 0xf0 => 4,
                            c if c >= 0xe0 => 3,
                            _ => 2,
                        };
                        let chunk = b.get(*pos..*pos + len).ok_or("truncated UTF-8 sequence")?;
                        s.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                        *pos += len;
                    }
                }
            }
        }
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number {text:?} at byte {start}"))
        }
    }
}

// ---------------------------------------------------------------------------
// The stitcher
// ---------------------------------------------------------------------------

/// One per-process trace document to merge. The first input to
/// [`stitch`] is the frontend; its label names the merged timeline's
/// reference clock.
pub struct TraceDoc {
    /// Process label (shard name, or the frontend's label).
    pub label: String,
    /// The raw Chrome trace JSON text.
    pub text: String,
}

/// The counter track the frontend writes its per-shard clock-offset
/// estimates onto (one counter series per shard, value in µs).
pub const CLOCK_OFFSET_TRACK: &str = "clock offset us";

/// Frontend span names that mark a dispatch hop on a job track; the
/// stitcher draws a flow arrow from each to the shard-side `job` span
/// it started.
pub const HOP_NAMES: [&str; 3] = ["route", "steal", "failover"];

/// Dispatch hops arrive before the shard span they start; allow this
/// much residual clock error (µs) when matching a span to its hop.
const HOP_SLACK_US: f64 = 1000.0;

/// Merge per-process Chrome traces into one timeline. `docs[0]` is the
/// frontend (reference clock, pids kept in namespace 0); each
/// following doc is a shard whose wall-clock events are shifted by
/// the offset recorded for its label on the frontend's
/// [`CLOCK_OFFSET_TRACK`], whose process-local pids move to namespace
/// `k * PID_STRIDE` and whose process names take its label as a prefix.
/// Emits flow arrows pairing every
/// route/steal/failover hop with the shard `job` span it started,
/// and passes counter tracks through untouched.
pub fn stitch(docs: &[TraceDoc]) -> Result<String, String> {
    if docs.is_empty() {
        return Err("no trace documents to merge".into());
    }
    let parsed: Vec<Json> = docs
        .iter()
        .map(|d| Json::parse(&d.text).map_err(|e| format!("{}: {e}", d.label)))
        .collect::<Result<_, _>>()?;

    let offsets = clock_offsets(&parsed[0]);

    struct Hop {
        name: String,
        pid: u32,
        tid: f64,
        ts: f64,
        used: bool,
    }
    struct JobSpan {
        pid: u32,
        tid: f64,
        ts: f64,
    }
    let mut hops: std::collections::BTreeMap<i64, Vec<Hop>> = Default::default();
    let mut job_spans: std::collections::BTreeMap<i64, Vec<JobSpan>> = Default::default();

    let mut meta: Vec<Json> = Vec::new();
    let mut body: Vec<(f64, Json)> = Vec::new();

    for (k, (doc, input)) in parsed.iter().zip(docs).enumerate() {
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{}: missing traceEvents array", input.label))?;
        let offset = if k == 0 {
            0.0
        } else {
            *offsets.get(input.label.as_str()).unwrap_or(&0.0)
        };
        for e in events {
            let mut e = e.clone();
            let ph = e.get("ph").and_then(Json::as_str).unwrap_or("").to_string();
            let local = e.get("pid").and_then(Json::as_num).unwrap_or(0.0) as u32;
            let new_pid = (k as u32 * PID_STRIDE).saturating_add(local);
            e.set("pid", Json::Num(new_pid as f64));
            // Wall-clock tracks (host = local pid 1, fabric jobs =
            // local pid 5) move onto the frontend's time axis; virtual,
            // pipeline and counter tracks keep their process-local
            // timestamps (they are not wall-clock).
            let mut ts = e.get("ts").and_then(Json::as_num);
            if k > 0 && matches!(local, 1 | 5) {
                if let Some(t) = ts {
                    ts = Some(t + offset);
                    e.set("ts", Json::Num(t + offset));
                }
            }
            if ph == "M" {
                if k > 0 && e.get("name").and_then(Json::as_str) == Some("process_name") {
                    if let Some(args) = e.get("args") {
                        if let Some(orig) = args.get("name").and_then(Json::as_str) {
                            let renamed = format!("{}: {orig}", input.label);
                            let mut args = args.clone();
                            args.set("name", Json::Str(renamed));
                            e.set("args", args);
                        }
                    }
                }
                meta.push(e);
                continue;
            }
            let name = e.get("name").and_then(Json::as_str).unwrap_or("");
            let tid = e.get("tid").and_then(Json::as_num).unwrap_or(0.0);
            let trace_id = e
                .get("args")
                .and_then(|a| a.get("trace_id"))
                .and_then(Json::as_num)
                .map(|v| v as i64);
            if let (Some(id), Some(ts)) = (trace_id, ts) {
                if k == 0 && ph == "X" && HOP_NAMES.contains(&name) {
                    hops.entry(id).or_default().push(Hop {
                        name: name.to_string(),
                        pid: new_pid,
                        tid,
                        ts,
                        used: false,
                    });
                } else if k > 0 && name == "job" && (ph == "X" || ph == "B") {
                    job_spans.entry(id).or_default().push(JobSpan {
                        pid: new_pid,
                        tid,
                        ts,
                    });
                }
            }
            body.push((ts.unwrap_or(0.0), e));
        }
    }

    // Flow arrows: for each trace_id pair every shard `job` span with
    // the dispatch hop that started it — the latest unused hop not
    // after the span (modulo clock slack), falling back to the
    // earliest unused hop. A killed shard writes no trace, so hops may
    // outnumber spans; only matched pairs get arrows (s/f events
    // always pair up).
    for (trace_id, spans) in &mut job_spans {
        let Some(hops) = hops.get_mut(trace_id) else {
            continue;
        };
        hops.sort_by(|a, b| a.ts.total_cmp(&b.ts));
        spans.sort_by(|a, b| a.ts.total_cmp(&b.ts));
        for (seq, span) in spans.iter().enumerate() {
            let pick = hops
                .iter()
                .enumerate()
                .filter(|(_, h)| !h.used && h.ts <= span.ts + HOP_SLACK_US)
                .map(|(i, _)| i)
                .next_back()
                .or_else(|| hops.iter().position(|h| !h.used));
            let Some(i) = pick else { break };
            hops[i].used = true;
            let flow_id = trace_id * 64 + seq as i64;
            let h = &hops[i];
            let mk = |ph: &str, pid: u32, tid: f64, ts: f64, bind: bool| {
                let mut kv = vec![
                    ("ph".to_string(), Json::Str(ph.to_string())),
                    ("cat".to_string(), Json::Str("fabric".to_string())),
                    ("name".to_string(), Json::Str(h.name.clone())),
                    ("id".to_string(), Json::Num(flow_id as f64)),
                    ("pid".to_string(), Json::Num(pid as f64)),
                    ("tid".to_string(), Json::Num(tid)),
                    ("ts".to_string(), Json::Num(ts)),
                ];
                if bind {
                    kv.insert(1, ("bp".to_string(), Json::Str("e".to_string())));
                }
                Json::Obj(kv)
            };
            body.push((h.ts, mk("s", h.pid, h.tid, h.ts, false)));
            body.push((span.ts, mk("f", span.pid, span.tid, span.ts, true)));
        }
    }

    body.sort_by(|a, b| a.0.total_cmp(&b.0));

    let mut out = String::with_capacity(body.len() * 128 + 1024);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    for e in meta.iter().chain(body.iter().map(|(_, e)| e)) {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&e.render());
    }
    out.push_str("\n]}\n");
    Ok(out)
}

/// Read the per-shard clock offsets (label → µs) out of a frontend
/// trace's [`CLOCK_OFFSET_TRACK`] counter series.
pub fn clock_offsets(frontend: &Json) -> std::collections::BTreeMap<String, f64> {
    let mut offsets = std::collections::BTreeMap::new();
    let Some(events) = frontend.get("traceEvents").and_then(Json::as_arr) else {
        return offsets;
    };
    // Which (pid, tid) is the clock-offset track?
    let mut track: Option<(i64, i64)> = None;
    for e in events {
        if e.get("ph").and_then(Json::as_str) == Some("M")
            && e.get("name").and_then(Json::as_str) == Some("thread_name")
            && e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str)
                == Some(CLOCK_OFFSET_TRACK)
        {
            track = Some((
                e.get("pid").and_then(Json::as_num).unwrap_or(0.0) as i64,
                e.get("tid").and_then(Json::as_num).unwrap_or(0.0) as i64,
            ));
        }
    }
    let Some((pid, tid)) = track else {
        return offsets;
    };
    for e in events {
        if e.get("ph").and_then(Json::as_str) == Some("C")
            && e.get("pid").and_then(Json::as_num).unwrap_or(-1.0) as i64 == pid
            && e.get("tid").and_then(Json::as_num).unwrap_or(-1.0) as i64 == tid
        {
            if let (Some(name), Some(value)) = (
                e.get("name").and_then(Json::as_str),
                e.get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(Json::as_num),
            ) {
                offsets.insert(name.to_string(), value);
            }
        }
    }
    offsets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::chrome::render;
    use crate::obs::{SpanRecord, Track};

    fn span(
        name: &'static str,
        track: Track,
        ts: f64,
        dur: f64,
        arg: Option<(&'static str, i64)>,
    ) -> SpanRecord {
        SpanRecord {
            name,
            track,
            ts_us: ts,
            dur_us: dur,
            hour: None,
            arg,
        }
    }

    #[test]
    fn trace_context_is_deterministic_and_nonzero() {
        let ctx = TraceContext::for_job(0);
        assert_eq!(ctx.trace_id, 1);
        assert_eq!(ctx.parent_span, 1);
        assert_eq!(ctx.job_id, 0);
        assert!(ctx.is_set());
        assert!(!TraceContext::default().is_set());
        assert_eq!(TraceContext::for_job(7), TraceContext::for_job(7));
    }

    #[test]
    fn sharded_paths_insert_the_name_before_the_extension() {
        assert_eq!(sharded_path("trace.json", "shard-0"), "trace.shard-0.json");
        assert_eq!(
            sharded_path("/tmp/x/fab.json", "shard-2"),
            "/tmp/x/fab.shard-2.json"
        );
        assert_eq!(sharded_path("trace", "s"), "trace.s");
    }

    #[test]
    fn json_round_trips_chrome_output() {
        let events = vec![span("hour", Track::Lane(0), 12.5, 100.0, Some(("seq", 3)))];
        let text = render(&events, &[]);
        let doc = Json::parse(&text).expect("chrome output parses");
        let arr = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert!(arr.len() >= 3); // metadata + span
        let rendered = doc.render();
        let again = Json::parse(&rendered).expect("re-rendered output parses");
        assert_eq!(doc, again);
    }

    #[test]
    fn quoted_escapes_what_json_must() {
        let cases = [
            ("plain", "\"plain\""),
            ("a\"b\\c\nd", "\"a\\\"b\\\\c\\nd\""),
            ("\t\r\u{1}", "\"\\t\\r\\u0001\""),
            ("h\u{e9}llo", "\"h\u{e9}llo\""),
        ];
        for (raw, want) in cases {
            assert_eq!(Quoted(raw).to_string(), want);
            assert_eq!(Json::parse(want), Ok(Json::Str(raw.to_string())));
        }
    }

    /// The reader against documents written by hand, not by `render`:
    /// what the CLI smoke tests and `trace-merge` trust it with.
    #[test]
    fn json_reader_matches_hand_written_documents() {
        use Json::{Arr, Bool, Null, Num, Obj};
        let s = |t: &str| Json::Str(t.to_string());
        let nested = |depth: usize, leaf: Json| (0..depth).fold(leaf, |v, _| Arr(vec![v]));
        let obj = |key: &str, value: Json| Obj(vec![(key.to_string(), value)]);
        let cases = [
            ("null", Null),
            (" true\n", Bool(true)),
            ("false", Bool(false)),
            ("0", Num(0.0)),
            ("-12.5", Num(-12.5)),
            ("1e3", Num(1000.0)),
            ("2.5E-2", Num(0.025)),
            ("-1.5e+2", Num(-150.0)),
            (r#""""#, s("")),
            (r#""a\"b\\c\/d\n\t\r\b\f""#, s("a\"b\\c/d\n\t\r\u{8}\u{c}")),
            (r#""\u0041\u00e9\u20ac""#, s("A\u{e9}\u{20ac}")),
            (
                "\"h\u{e9}llo \u{2192} \u{1f30d}\"",
                s("h\u{e9}llo \u{2192} \u{1f30d}"),
            ),
            ("[]", Arr(vec![])),
            (" [ ] ", Arr(vec![])),
            ("{}", Obj(vec![])),
            ("{ }", Obj(vec![])),
            ("[[[[[[[[1]]]]]]]]", nested(8, Num(1.0))),
            (
                r#"{"a":{"b":[{"c":[null,{"d":"e"}]}]}}"#,
                obj(
                    "a",
                    obj("b", Arr(vec![obj("c", Arr(vec![Null, obj("d", s("e"))]))])),
                ),
            ),
            (
                "{ \"k\" : 1 ,\n  \"list\" : [1, 2 , 3] }",
                Obj(vec![
                    ("k".into(), Num(1.0)),
                    ("list".into(), Arr(vec![Num(1.0), Num(2.0), Num(3.0)])),
                ]),
            ),
        ];
        for (text, expected) in cases {
            assert_eq!(Json::parse(text).as_ref(), Ok(&expected), "{text}");
        }
        let doc = Json::parse(r#"{"n":2.5,"s":"x","a":[1]}"#).unwrap();
        assert_eq!(doc.get("n").and_then(Json::as_num), Some(2.5));
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(doc.get("a").and_then(Json::as_arr), Some(&[Num(1.0)][..]));
        assert!(doc.get("missing").is_none() && doc.get("n").unwrap().get("x").is_none());
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(
            Json::parse(&deepest).is_ok(),
            "{MAX_DEPTH} levels are allowed"
        );
    }

    #[test]
    fn json_reader_rejects_malformed_documents() {
        let (deep_arr, deep_obj) = ("[".repeat(100_000), "{\"a\":".repeat(100_000));
        let malformed = [
            "",
            "{",
            "[1,]",
            "[1 2]",
            "{}extra",
            "[] []",
            "\"unterminated",
            "\"ends in a backslash\\",
            "-",
            "1.2.3",
            r#"{"a" 1}"#,
            r#"{"a":1,}"#,
            r#"{1:2}"#,
            "tru",
            "nul",
            r#""\x""#,
            r#""\u12""#,
            r#""\uzzzz""#,
            &deep_arr,
            &deep_obj,
        ];
        for text in malformed {
            assert!(Json::parse(text).is_err(), "accepted {text:?}");
        }
    }

    fn frontend_doc(offset_us: f64) -> String {
        let events = vec![
            span("job", Track::Job(0), 100.0, 5000.0, Some(("trace_id", 1))),
            span("route", Track::Job(0), 120.0, 1.0, Some(("trace_id", 1))),
            span(
                "failover",
                Track::Job(0),
                2000.0,
                1.0,
                Some(("trace_id", 1)),
            ),
            SpanRecord {
                name: "shard-0",
                track: Track::Counter(CLOCK_OFFSET_TRACK),
                ts_us: 0.0,
                dur_us: offset_us,
                hour: None,
                arg: None,
            },
        ];
        render(&events, &[])
    }

    fn shard_doc() -> String {
        let events = vec![
            span("job", Track::Lane(0), 10.0, 1000.0, Some(("trace_id", 1))),
            span("hour", Track::Lane(0), 20.0, 500.0, None),
            SpanRecord {
                name: "redist_local",
                track: Track::Counter("copy bytes"),
                ts_us: 30.0,
                dur_us: 4096.0,
                hour: Some(0),
                arg: None,
            },
        ];
        render(&events, &[])
    }

    #[test]
    fn stitch_shifts_shard_clocks_and_draws_flow_arrows() {
        let merged = stitch(&[
            TraceDoc {
                label: "frontend".into(),
                text: frontend_doc(500.0),
            },
            TraceDoc {
                label: "shard-0".into(),
                text: shard_doc(),
            },
        ])
        .expect("stitch succeeds");
        let doc = Json::parse(&merged).expect("merged trace parses");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();

        // The shard's wall-clock job span moved by the offset: 10 + 500.
        let job = events
            .iter()
            .find(|e| {
                e.get("name").and_then(Json::as_str) == Some("job")
                    && e.get("ph").and_then(Json::as_str) == Some("X")
                    && e.get("pid").and_then(Json::as_num) == Some(17.0)
            })
            .expect("shard job span present");
        assert_eq!(job.get("ts").and_then(Json::as_num), Some(510.0));

        // Counter tracks pass through unshifted, on the shard namespace.
        let counter = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("redist_local"))
            .expect("copy-bytes counter preserved");
        assert_eq!(counter.get("ts").and_then(Json::as_num), Some(30.0));

        // Exactly one flow pair: the shard ran once, so one hop matches
        // (the route, since 510 < 2000 = the failover hop's time).
        let s: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("s"))
            .collect();
        let f: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("f"))
            .collect();
        assert_eq!(s.len(), 1);
        assert_eq!(f.len(), 1);
        assert_eq!(s[0].get("id"), f[0].get("id"));
        assert_eq!(s[0].get("name").and_then(Json::as_str), Some("route"));
        // Arrow lands on the shard span's track at its (shifted) start.
        assert_eq!(f[0].get("pid").and_then(Json::as_num), Some(17.0));
        assert_eq!(f[0].get("ts").and_then(Json::as_num), Some(510.0));

        // Two distinct process namespaces with prefixed shard names.
        assert!(merged.contains("\"shard-0: host (wall clock)\""));
        assert!(merged.contains("\"fabric jobs\""));

        // Timestamps are monotonic per track in document order.
        let mut last: std::collections::HashMap<(i64, i64), f64> = Default::default();
        for e in events {
            let (Some(ts), Some(pid)) = (
                e.get("ts").and_then(Json::as_num),
                e.get("pid").and_then(Json::as_num),
            ) else {
                continue;
            };
            let tid = e.get("tid").and_then(Json::as_num).unwrap_or(0.0);
            let key = (pid as i64, tid as i64);
            let prev = last.insert(key, ts).unwrap_or(f64::NEG_INFINITY);
            assert!(ts >= prev, "track {key:?} went backwards: {prev} -> {ts}");
        }
    }

    #[test]
    fn clock_offsets_are_read_from_the_frontend_counter_track() {
        let doc = Json::parse(&frontend_doc(321.0)).unwrap();
        let offsets = clock_offsets(&doc);
        assert_eq!(offsets.get("shard-0"), Some(&321.0));
    }
}
