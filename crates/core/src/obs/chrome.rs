//! Chrome trace-event JSON exporter.
//!
//! Renders flushed [`SpanRecord`]s as a Chrome trace (the JSON array
//! format with `"ph":"X"` complete events), loadable in Perfetto or
//! `about:tracing`. The JSON is formatted by hand — the vendored serde
//! shim is a no-op derive, so there is no serialisation machinery to
//! lean on (and none is needed for this fixed shape).
//!
//! Track mapping (see [`Track`]):
//!
//! * **pid 1 — "host (wall clock)"**: one row per execution lane
//!   (`tid = lane·64`) plus one row per pool worker under its lane
//!   (`tid = lane·64 + 1 + worker`), so a lane's phase spans sit
//!   directly above the worker tasks they forked;
//! * **pid 2 — "virtual machine"**: one row per charged phase category,
//!   timestamps in virtual µs — the paper's Fig 5–7 cost model, drawn;
//! * **pid 3 — "pipeline (virtual time)"**: one row per task-parallel
//!   stage — the paper's Fig 8/9 Gantt chart;
//! * **pid 4 — "counters"**: one `ph:"C"` series per counter track
//!   (copy bytes, lane occupancy, solver counts, clock offsets);
//! * **pid 5 — "fabric jobs"**: one row per fabric job.

use super::dist::Quoted;
use super::{SpanRecord, Track};
use std::collections::BTreeMap;
use std::fmt::Write as _;

const PID_HOST: u32 = 1;
const PID_VIRTUAL: u32 = 2;
const PID_PIPELINE: u32 = 3;
const PID_COUNTERS: u32 = 4;
const PID_JOBS: u32 = 5;

/// Stable pid/tid assignment for a track. Virtual and stage tracks get
/// tids in first-appearance order from `dynamic`.
fn pid_tid(track: Track, dynamic: &mut BTreeMap<(u32, &'static str), u32>) -> (u32, u32) {
    match track {
        Track::Lane(lane) => (PID_HOST, lane * 64),
        Track::PoolWorker { lane, worker } => (PID_HOST, lane * 64 + 1 + worker),
        Track::Virtual(label) => {
            let next = dynamic.len() as u32;
            (
                PID_VIRTUAL,
                *dynamic.entry((PID_VIRTUAL, label)).or_insert(next),
            )
        }
        Track::Stage(label) => {
            let next = dynamic.len() as u32;
            (
                PID_PIPELINE,
                *dynamic.entry((PID_PIPELINE, label)).or_insert(next),
            )
        }
        Track::Counter(label) => {
            let next = dynamic.len() as u32;
            (
                PID_COUNTERS,
                *dynamic.entry((PID_COUNTERS, label)).or_insert(next),
            )
        }
        Track::Job(job) => (PID_JOBS, job),
    }
}

fn track_name(track: Track) -> String {
    match track {
        Track::Lane(0) => "driver".to_string(),
        Track::Lane(lane) => format!("server-worker-{}", lane - 1),
        Track::PoolWorker { lane: 0, worker } => format!("pool-worker-{worker}"),
        Track::PoolWorker { lane, worker } => {
            format!("server-worker-{}/pool-{worker}", lane - 1)
        }
        Track::Virtual(label) | Track::Stage(label) | Track::Counter(label) => label.to_string(),
        Track::Job(job) => format!("job-{job}"),
    }
}

/// Render spans as a complete Chrome trace JSON document.
///
/// Still-open spans follow the complete events as unmatched `ph:"B"`
/// begin events — how the exporter flushes-on-drop: a run interrupted
/// mid-hour still produces a trace Perfetto loads, with the in-flight
/// spans visibly open-ended.
///
/// Pids are the process-local ones (1 to 5, below
/// [`super::dist::PID_STRIDE`]) in every process, fabric shards
/// included: [`super::dist::stitch`] is what gives each process of a
/// merged timeline its own pid namespace and process-name prefix.
pub fn render(events: &[SpanRecord], open: &[SpanRecord]) -> String {
    let mut dynamic: BTreeMap<(u32, &'static str), u32> = BTreeMap::new();
    // First pass: discover every (pid, tid) so metadata events can name
    // the tracks before any duration event references them.
    let mut tracks: BTreeMap<(u32, u32), String> = BTreeMap::new();
    for e in events.iter().chain(open) {
        let (pid, tid) = pid_tid(e.track, &mut dynamic);
        tracks
            .entry((pid, tid))
            .or_insert_with(|| track_name(e.track));
    }

    let mut out = String::with_capacity(events.len() * 128 + 1024);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let push = |out: &mut String, first: &mut bool, line: String| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(&line);
    };

    // Process-name metadata.
    let mut pids: Vec<u32> = tracks.keys().map(|&(pid, _)| pid).collect();
    pids.sort_unstable();
    pids.dedup();
    for pid in pids {
        let pname = match pid {
            PID_HOST => "host (wall clock)",
            PID_VIRTUAL => "virtual machine",
            PID_COUNTERS => "counters",
            PID_JOBS => "fabric jobs",
            _ => "pipeline (virtual time)",
        };
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{},\"tid\":0,\
                 \"args\":{{\"name\":{}}}}}",
                pid,
                Quoted(pname)
            ),
        );
    }
    // Thread-name metadata.
    for (&(pid, tid), name) in &tracks {
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{},\"tid\":{tid},\
                 \"args\":{{\"name\":{}}}}}",
                pid,
                Quoted(name)
            ),
        );
    }

    // Duration and counter events.
    for e in events {
        let (pid, tid) = pid_tid(e.track, &mut dynamic);
        if let Track::Counter(_) = e.track {
            // Counter sample: the record's dur field carries the value.
            push(
                &mut out,
                &mut first,
                format!(
                    "{{\"ph\":\"C\",\"name\":{},\"cat\":\"airshed\",\"pid\":{pid},\
                     \"tid\":{tid},\"ts\":{:.3},\"args\":{{\"value\":{:.6}}}}}",
                    Quoted(e.name),
                    e.ts_us,
                    e.dur_us
                ),
            );
            continue;
        }
        let mut args = String::new();
        if let Some(hour) = e.hour {
            let _ = write!(args, "\"hour\":{hour}");
        }
        if let Some((key, value)) = e.arg {
            if !args.is_empty() {
                args.push(',');
            }
            let _ = write!(args, "{}:{value}", Quoted(key));
        }
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"ph\":\"X\",\"name\":{},\"cat\":\"airshed\",\"pid\":{pid},\
                 \"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{{args}}}}}",
                Quoted(e.name),
                e.ts_us,
                e.dur_us
            ),
        );
    }
    // Still-open spans: begin events with no matching end.
    for e in open {
        let (pid, tid) = pid_tid(e.track, &mut dynamic);
        let mut args = String::new();
        if let Some(hour) = e.hour {
            let _ = write!(args, "\"hour\":{hour}");
        }
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"ph\":\"B\",\"name\":{},\"cat\":\"airshed\",\"pid\":{pid},\
                 \"tid\":{tid},\"ts\":{:.3},\"args\":{{{args}}}}}",
                Quoted(e.name),
                e.ts_us
            ),
        );
    }
    out.push_str("\n]}\n");
    out
}

impl super::SpanSink {
    /// Flush and [`render`] everything recorded so far as Chrome trace
    /// JSON, including spans whose guards are still open (flush-on-drop).
    pub fn chrome_trace(&self) -> String {
        render(&self.events(), &self.open_spans())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, track: Track, ts: f64, dur: f64) -> SpanRecord {
        SpanRecord {
            name,
            track,
            ts_us: ts,
            dur_us: dur,
            hour: Some(1),
            arg: None,
        }
    }

    #[test]
    fn renders_metadata_and_duration_events() {
        let events = vec![
            span("hour", Track::Lane(0), 0.0, 100.0),
            span("transport", Track::Lane(0), 10.0, 40.0),
            span("task", Track::PoolWorker { lane: 0, worker: 1 }, 12.0, 8.0),
            span("chemistry", Track::Virtual("chemistry"), 0.0, 5e6),
        ];
        let json = render(&events, &[]);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\""));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"name\":\"driver\""));
        assert!(json.contains("\"name\":\"pool-worker-1\""));
        assert!(json.contains("\"ph\":\"X\",\"name\":\"transport\""));
        assert!(json.contains("\"hour\":1"));
        // Balanced braces/brackets as a cheap well-formedness check.
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn counter_tracks_render_as_counter_events() {
        let events = vec![SpanRecord {
            name: "redist_local",
            track: Track::Counter("copy bytes"),
            ts_us: 1e6,
            dur_us: 0.25,
            hour: Some(1),
            arg: None,
        }];
        let json = render(&events, &[]);
        assert!(json.contains("\"ph\":\"C\",\"name\":\"redist_local\""));
        assert!(json.contains("\"value\":0.250000"));
        assert!(json.contains("\"name\":\"copy bytes\"")); // thread name
        assert!(json.contains("\"name\":\"counters\"")); // process
    }

    #[test]
    fn job_track_renders_on_the_fabric_jobs_process() {
        let events = vec![SpanRecord {
            name: "job",
            track: Track::Job(3),
            ts_us: 10.0,
            dur_us: 50.0,
            hour: None,
            arg: Some(("trace_id", 4)),
        }];
        let json = render(&events, &[]);
        assert!(json.contains("\"name\":\"fabric jobs\""));
        assert!(json.contains("\"name\":\"job-3\""));
        assert!(json.contains("\"trace_id\":4"));
        assert!(json.contains("\"pid\":5"));
    }

    #[test]
    fn open_spans_render_as_begin_events() {
        let done = vec![span("hour", Track::Lane(0), 0.0, 100.0)];
        let open = vec![span("chemistry", Track::Lane(0), 40.0, 0.0)];
        let json = render(&done, &open);
        assert!(json.contains("\"ph\":\"X\",\"name\":\"hour\""));
        assert!(json.contains("\"ph\":\"B\",\"name\":\"chemistry\""));
        let open_count = json.matches("\"ph\":\"B\"").count();
        assert_eq!(open_count, 1);
        // Well-formed despite the unmatched begin.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
