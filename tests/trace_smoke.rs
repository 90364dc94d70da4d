//! End-to-end smoke test for the observability exports: drive the real
//! `airshed` binary with `--trace-out` / `--metrics-out` on a tiny
//! scenario and validate both artifacts from the outside.
//!
//! The Chrome trace is read with the library's one JSON reader
//! (`core::obs::dist::Json`, whose own table test pins it against
//! hand-written documents; ci.sh's `python3 json.load` is the outside
//! opinion that the output *is* JSON): the document must parse, carry
//! at least one complete-event span per simulated phase, nest every phase
//! span inside an `hour` span on the driver lane, and name per-worker
//! pool tracks. The Prometheus snapshot must parse line by line and
//! carry the phase-latency histogram series. An `airshed ensemble`
//! snapshot must carry the server's ensemble family and no other.

use airshed::core::obs::dist::Json;
use std::collections::BTreeMap;
use std::process::Command;

/// A complete ("ph":"X") span pulled out of the trace.
struct Span {
    name: String,
    pid: f64,
    tid: f64,
    ts: f64,
    dur: f64,
}

#[test]
fn cli_trace_and_metrics_exports_are_valid_and_complete() {
    let dir = std::env::temp_dir().join(format!("airshed-trace-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("trace.json");
    let metrics_path = dir.join("metrics.prom");

    let status = Command::new(env!("CARGO_BIN_EXE_airshed"))
        .args([
            "run",
            "--dataset",
            "tiny:40",
            "--hours",
            "2",
            "--no-map",
            "--threads",
            "2",
            "--trace-out",
        ])
        .arg(&trace_path)
        .arg("--metrics-out")
        .arg(&metrics_path)
        .status()
        .expect("airshed binary runs");
    assert!(status.success(), "airshed run failed: {status}");

    // ---- the Chrome trace --------------------------------------------
    let text = std::fs::read_to_string(&trace_path).unwrap();
    let doc = Json::parse(&text).expect("trace must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("top-level traceEvents array");

    let mut spans = Vec::new();
    let mut thread_names = Vec::new();
    let mut counters = Vec::new();
    for e in events {
        match e.get("ph").and_then(Json::as_str) {
            Some("X") => spans.push(Span {
                name: e.get("name").and_then(Json::as_str).unwrap().to_string(),
                pid: e.get("pid").and_then(Json::as_num).unwrap(),
                tid: e.get("tid").and_then(Json::as_num).unwrap(),
                ts: e.get("ts").and_then(Json::as_num).unwrap(),
                dur: e.get("dur").and_then(Json::as_num).unwrap(),
            }),
            Some("C") => counters.push((
                e.get("name").and_then(Json::as_str).unwrap().to_string(),
                e.get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(Json::as_num)
                    .expect("counter events carry args.value"),
            )),
            Some("M") => {
                if e.get("name").and_then(Json::as_str) == Some("thread_name") {
                    let name = e
                        .get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Json::as_str)
                        .unwrap();
                    thread_names.push(name.to_string());
                }
            }
            other => panic!("unexpected event phase {other:?}"),
        }
    }

    // Every phase of the hour graph shows up at least once.
    for phase in [
        "inputhour",
        "pretrans",
        "transport",
        "chemistry",
        "aerosol",
        "outputhour",
        "charge_hour",
        "hour",
    ] {
        assert!(
            spans.iter().any(|s| s.name == phase),
            "no '{phase}' span in the trace"
        );
    }

    // Phase spans nest inside an hour span on the same (driver) track.
    // The virtual-machine process reuses phase names as labels, so the
    // wall-clock nesting check is scoped to the host process.
    let hours: Vec<&Span> = spans.iter().filter(|s| s.name == "hour").collect();
    assert_eq!(hours.len(), 2, "one hour span per simulated hour");
    let host_pid = hours[0].pid;
    let driver_tid = hours[0].tid;
    // Pool tasks reuse the phase name on their own per-worker tracks, so
    // the driver-lane nesting check keys on the driver tid and the task
    // spans are checked for time containment separately below.
    let is_phase = |s: &Span| {
        matches!(
            s.name.as_str(),
            "inputhour" | "pretrans" | "transport" | "chemistry" | "aerosol" | "outputhour"
        )
    };
    let nested = |s: &Span| {
        hours
            .iter()
            .any(|h| h.ts <= s.ts && h.ts + h.dur >= s.ts + s.dur - 1e-6)
    };
    let mut driver_phases = 0;
    let mut worker_tasks = 0;
    for s in spans.iter().filter(|s| s.pid == host_pid && is_phase(s)) {
        assert!(
            nested(s),
            "span '{}' at ts={} not inside any hour span",
            s.name,
            s.ts
        );
        if s.tid == driver_tid {
            driver_phases += 1;
        } else {
            worker_tasks += 1;
        }
    }
    assert!(driver_phases >= 12, "two hours of driver-lane phase spans");
    assert!(worker_tasks > 0, "pool task spans on per-worker tracks");

    // The rayon pool contributed per-worker tracks, and they are named.
    assert!(
        thread_names.iter().any(|n| n.starts_with("pool-worker-")),
        "pool worker tracks must be named: {thread_names:?}"
    );

    // The virtual-machine redistribution edges got their own process.
    assert!(
        spans.iter().any(|s| s.name.contains("->")),
        "redistribution edge spans (e.g. D_Trans->D_Chem) missing"
    );

    // Copy-traffic accounting: cumulative per-hour counters for all
    // three copy classes, each strictly positive by the last sample.
    for series in ["redist_local", "soa_staging", "result_serialization"] {
        let last = counters
            .iter()
            .filter(|(name, _)| name == series)
            .map(|&(_, v)| v)
            .next_back()
            .unwrap_or_else(|| panic!("no '{series}' counter samples in the trace"));
        assert!(last > 0.0, "'{series}' counter never became positive");
    }

    // ---- the Prometheus snapshot -------------------------------------
    let prom = std::fs::read_to_string(&metrics_path).unwrap();
    let mut samples = 0;
    for line in prom.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (_, value) = line.rsplit_once(' ').expect("sample lines end in a value");
        assert!(
            value == "+Inf" || value.parse::<f64>().is_ok(),
            "unparseable sample value in line: {line}"
        );
        samples += 1;
    }
    assert!(samples > 0, "metrics snapshot has samples");
    assert!(
        prom.contains("airshed_phase_seconds_count{phase=\"transport\"}"),
        "phase latency histogram missing from metrics"
    );
    assert!(
        prom.contains("airshed_pool_task_seconds_count"),
        "pool task histogram missing from metrics"
    );
    assert!(
        prom.contains("airshed_copy_bytes_total{kind=\"redist_local\""),
        "copy-traffic counters missing from metrics"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// `airshed ensemble` is a `ScenarioServer` client: its metrics snapshot
/// carries the server's ensemble rows and counts both what-if tiers, and
/// no second ensemble family beside them.
#[test]
fn ensemble_cli_exports_the_servers_ensemble_family_only() {
    let dir = std::env::temp_dir().join(format!("airshed-ensemble-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let metrics_path = dir.join("ensemble.prom");

    let output = Command::new(env!("CARGO_BIN_EXE_airshed"))
        .args([
            "ensemble",
            "--dataset",
            "tiny:60",
            "--members",
            "3",
            "--hours",
            "1",
            "--nodes",
            "4",
            "--queries",
            "0.9,2.0",
            "--metrics-out",
        ])
        .arg(&metrics_path)
        .output()
        .expect("airshed binary runs");
    assert!(output.status.success(), "airshed ensemble failed");
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(stdout.contains("surrogate hit"), "{stdout}");
    assert!(stdout.contains("exact fallback"), "{stdout}");

    let prom = std::fs::read_to_string(&metrics_path).unwrap();
    for line in [
        "airshed_server_ensemble_members_total 3",
        "airshed_server_surrogate_answers_total{tier=\"hit\"} 1",
        "airshed_server_surrogate_answers_total{tier=\"miss\"} 1",
    ] {
        assert!(prom.lines().any(|l| l == line), "missing {line}:\n{prom}");
    }
    assert!(
        !prom.lines().any(|l| l.starts_with("airshed_ensemble_")),
        "a second ensemble family:\n{prom}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// Tentpole check for distributed tracing: a real two-process fabric
/// run, stitched by `airshed trace-merge`, must read as ONE timeline —
/// shard tracks shifted onto the frontend clock in their own pid
/// namespaces, every shard-side `job` span sharing a trace_id with a
/// frontend `job` span, and flow arrows pairing dispatch hops with the
/// shard spans they started.
#[test]
fn fabric_traces_merge_into_one_coherent_timeline() {
    let dir = std::env::temp_dir().join(format!("airshed-trace-merge-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("fab.json");

    let status = Command::new(env!("CARGO_BIN_EXE_airshed"))
        .args([
            "fabric",
            "--shards",
            "2",
            // Two numerics keys (the batch stripes four placements per
            // emission policy): one per shard, so both shards trace.
            "--jobs",
            "8",
            "--workers",
            "1",
            "--dataset",
            "tiny:40",
            "--hours",
            "2",
            "--threads",
            "1",
            "--trace-out",
        ])
        .arg(&trace_path)
        .status()
        .expect("airshed binary runs");
    assert!(status.success(), "airshed fabric failed: {status}");

    let status = Command::new(env!("CARGO_BIN_EXE_airshed"))
        .args(["trace-merge", "--frontend"])
        .arg(&trace_path)
        .status()
        .expect("airshed binary runs");
    assert!(status.success(), "airshed trace-merge failed: {status}");

    let text = std::fs::read_to_string(dir.join("fab.merged.json")).unwrap();
    let doc = Json::parse(&text).expect("merged trace must be valid JSON");
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();

    let mut process_names: BTreeMap<i64, String> = BTreeMap::new();
    let mut last_ts: BTreeMap<(i64, i64), f64> = BTreeMap::new();
    let mut jobs: Vec<(i64, i64)> = Vec::new(); // ("job" X span) -> (pid, trace_id)
    let mut flows: BTreeMap<i64, (u32, u32)> = BTreeMap::new(); // flow id -> (starts, finishes)
    let mut counter_names = Vec::new();
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).unwrap_or("");
        let pid = e.get("pid").and_then(Json::as_num).unwrap_or(-1.0) as i64;
        let tid = e.get("tid").and_then(Json::as_num).unwrap_or(-1.0) as i64;
        let name = e.get("name").and_then(Json::as_str).unwrap_or("");
        if ph == "M" {
            if name == "process_name" {
                let n = e
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .unwrap();
                process_names.insert(pid, n.to_string());
            }
            continue;
        }
        match ph {
            "s" | "f" => {
                let id = e.get("id").and_then(Json::as_num).expect("flows carry ids") as i64;
                let c = flows.entry(id).or_default();
                if ph == "s" {
                    c.0 += 1;
                } else {
                    c.1 += 1;
                }
            }
            "C" => counter_names.push(name.to_string()),
            _ => {}
        }
        // Timestamps never run backwards within a (pid, tid) track.
        if let Some(ts) = e.get("ts").and_then(Json::as_num) {
            let last = last_ts.entry((pid, tid)).or_insert(f64::NEG_INFINITY);
            assert!(
                *last <= ts,
                "track ({pid},{tid}) went backwards: {last} > {ts}"
            );
            *last = ts;
            if ph == "X" && name == "job" {
                if let Some(id) = e
                    .get("args")
                    .and_then(|a| a.get("trace_id"))
                    .and_then(Json::as_num)
                {
                    jobs.push((pid, id as i64));
                }
            }
        }
    }

    // The frontend (namespace 0) and both shards are present, each in
    // its own pid namespace.
    let shard_namespaces: std::collections::BTreeSet<i64> = process_names
        .iter()
        .filter(|(_, n)| n.starts_with("shard-"))
        .map(|(pid, _)| *pid / 16)
        .collect();
    assert!(
        shard_namespaces.len() >= 2,
        "expected two shard pid namespaces: {process_names:?}"
    );

    // One trace across processes: every shard-side job span's trace_id
    // also names a frontend job span (its ancestor on the timeline).
    let frontend_jobs: std::collections::BTreeSet<i64> = jobs
        .iter()
        .filter(|(pid, _)| *pid < 16)
        .map(|&(_, id)| id)
        .collect();
    let shard_jobs: Vec<(i64, i64)> = jobs.into_iter().filter(|(pid, _)| *pid >= 16).collect();
    assert!(!shard_jobs.is_empty(), "no shard-side job spans made it");
    for (pid, id) in &shard_jobs {
        assert!(
            frontend_jobs.contains(id),
            "shard pid {pid} job trace_id {id} has no frontend ancestor"
        );
    }

    // Flow arrows pair up: each id has exactly one start and one finish.
    assert!(!flows.is_empty(), "no flow arrows in the merged trace");
    for (id, (s, f)) in &flows {
        assert_eq!((*s, *f), (1, 1), "flow {id} must pair start with finish");
    }

    // The copy-bytes counter tracks survive the merge.
    assert!(
        counter_names.iter().any(|n| n == "redist_local"),
        "copy counters missing after merge: {counter_names:?}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// Regression test for two exporter invariants that only show up under
/// concurrency: (1) spans recorded from different OS threads land in
/// different shard buffers, and `SpanSink::events()` must still hand
/// them back globally sorted by start time; (2) a span whose guard is
/// still alive at export time must appear in the Chrome trace as an
/// unmatched `ph:"B"` begin event (flush-on-drop), and flip to a
/// complete `ph:"X"` event once the guard drops.
#[test]
fn cross_shard_sort_and_open_span_flush_on_drop() {
    use airshed::core::obs::{Obs, SpanSink, Track};
    use std::sync::Arc;

    let sink = Arc::new(SpanSink::new());
    let obs = Obs::new(Arc::clone(&sink));

    // Interleaved spans from four lanes on four OS threads: each thread
    // hashes to its own shard, so the raw drain order is by shard, not
    // by time.
    let mut handles = Vec::new();
    for lane in 0..4u32 {
        let lane_obs = obs.with_lane(lane);
        handles.push(std::thread::spawn(move || {
            for _ in 0..8 {
                let _g = lane_obs.span("transport");
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    // Hold one guard open across the export.
    let open_guard = obs.span("hour");
    let trace = sink.chrome_trace();
    let events = sink.events();

    // (1) Global sort across shards.
    let mut lanes = std::collections::BTreeSet::new();
    for e in &events {
        if let Track::Lane(l) = e.track {
            lanes.insert(l);
        }
    }
    assert!(lanes.len() >= 2, "spans must span multiple lane tracks");
    assert!(
        events.windows(2).all(|w| w[0].ts_us <= w[1].ts_us),
        "events() must be sorted by start time across shards"
    );
    assert_eq!(sink.dropped(), 0, "no shard may drop spans");

    // (2) The still-open span renders as a begin event.
    let doc = Json::parse(&trace).expect("trace with open spans must still be valid JSON");
    let trace_events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    let phase_of = |e: &Json, name: &str| {
        e.get("name").and_then(Json::as_str) == Some(name)
            && e.get("ph").and_then(Json::as_str).is_some()
    };
    let open_hours: Vec<&Json> = trace_events
        .iter()
        .filter(|e| phase_of(e, "hour"))
        .collect();
    assert_eq!(open_hours.len(), 1, "exactly one 'hour' event while open");
    assert_eq!(
        open_hours[0].get("ph").and_then(Json::as_str),
        Some("B"),
        "a still-open span must flush as an unmatched begin event"
    );

    // Once the guard drops the same span becomes a complete event and
    // the begin event disappears.
    drop(open_guard);
    let trace = sink.chrome_trace();
    let doc = Json::parse(&trace).unwrap();
    let trace_events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    let closed_hours: Vec<&str> = trace_events
        .iter()
        .filter(|e| phase_of(e, "hour"))
        .map(|e| e.get("ph").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(
        closed_hours,
        vec!["X"],
        "a dropped guard must leave exactly one complete event"
    );
}
