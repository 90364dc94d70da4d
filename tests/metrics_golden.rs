//! Golden text of every Prometheus section the library renders, and a
//! well-formedness check of the exposition format over each of them.
//!
//! Every section is built in-process from a scripted, deterministic
//! session, so the files under `tests/golden/metrics/` pin exported
//! names, types, labels, help text and every exact counter:
//!
//! * `server.prom` — the `server-metrics` section of a fixed
//!   `ScenarioServer` batch (one worker, jobs awaited in turn, one
//!   ensemble sweep, two what-if queries). The wall-clock
//!   `airshed_server_job_seconds` `_bucket`/`_sum` samples and the
//!   process-wide `cache="plan"` rows are masked (`*`); the `le="+Inf"`
//!   bucket and `_count` are exact.
//! * `server_report.txt` — the same snapshot's text report, with its
//!   microsecond figures and process-wide plan-memo numbers masked.
//! * `router.prom` — `Router::prometheus` after a scripted two-shard
//!   session on the router's injected clock (failover, a trace-context
//!   mismatch, heartbeat plan counters, copy bytes). Nothing is masked.
//! * `ensemble.prom` — `ensemble::prometheus_section` over fixed
//!   `DedupStats`.
//! * `copy_traffic.prom` — the `copy-traffic` section one tiny traced
//!   episode publishes.
//!
//! `AIRSHED_BLESS=1 cargo test --test metrics_golden` rewrites the
//! files; that is only right when an exported name, label or help text
//! is meant to change.

use airshed::core::config::SimConfig;
use airshed::core::driver::{run_resumable_with, ChemLayout, Episode, PlanMemoStats};
use airshed::core::ensemble::{prometheus_section, DedupStats, EnsembleJob};
use airshed::core::obs::prom::escape_label_value;
use airshed::core::obs::{Obs, SpanSink};
use airshed::core::report::CopyBytes;
use airshed::core::{ExecSpec, PerfModel};
use airshed::fabric::{Msg, Router, RouterConfig};
use airshed::server::{ScenarioRequest, ScenarioServer, ServerConfig};
use std::collections::{BTreeMap, HashSet};
use std::path::PathBuf;
use std::sync::Arc;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/metrics")
}

/// Compare `text` with the golden file `name` (or rewrite it under
/// `AIRSHED_BLESS`).
fn assert_golden(name: &str, text: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("AIRSHED_BLESS").is_some() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, text).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
    if golden != text {
        let line = golden
            .lines()
            .zip(text.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(golden.lines().count().min(text.lines().count()));
        panic!(
            "{name}: rendered text differs from the golden at line {}:\n golden: {:?}\n now:    {:?}",
            line + 1,
            golden.lines().nth(line),
            text.lines().nth(line)
        );
    }
}

/// Replace the value of every sample line `mask` selects with `*`, and
/// drop the lines `drop` selects.
fn mask(text: &str, drop: impl Fn(&str) -> bool, mask: impl Fn(&str) -> bool) -> String {
    let mut out = String::new();
    for line in text.lines() {
        if drop(line) {
            continue;
        }
        if !line.starts_with('#') && mask(line) {
            let (series, _) = line.rsplit_once(' ').expect("sample has a value");
            out.push_str(series);
            out.push_str(" *");
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

// ---- the sessions -----------------------------------------------------

fn family(scale: f64) -> SimConfig {
    let mut c = SimConfig::test_tiny(4, 1);
    c.start_hour = 12;
    c.emission_scale = scale;
    c
}

/// A fixed batch through a one-worker server: returns the published
/// `server-metrics` section and the final snapshot's text report.
fn server_session() -> (String, String) {
    let sink = Arc::new(SpanSink::new());
    let server = ScenarioServer::start(ServerConfig {
        workers: 1,
        queue_capacity: 8,
        exec: ExecSpec::serial(),
        obs: Obs::new(sink.clone()),
        ..Default::default()
    });
    // Jobs awaited one at a time, so every cache outcome is fixed: two
    // families, a repeated job (result hit) and a second P of a
    // resident family (profile hit, result miss).
    let mut on_eight = family(1.0);
    on_eight.p = 8;
    for config in [family(1.0), family(1.0), family(0.5), on_eight] {
        let handle = server
            .submit(ScenarioRequest::new(config))
            .into_handle()
            .expect("no budget: accepted");
        handle.wait().expect("job completes");
    }
    let sweep = EnsembleJob::emission_sweep(family(1.0), &[1.0, 0.8, 0.6]);
    server.run_ensemble(&sweep, true);
    server.what_if(&family(1.0), 0.9, 0.5);
    server.what_if(&family(1.0), 0.05, 1e-12);
    let snapshot = server.shutdown();
    let section = sink
        .sections()
        .into_iter()
        .find(|(name, _)| *name == "server-metrics")
        .expect("the server publishes its registry")
        .1;
    (section, format!("{snapshot}"))
}

/// A scripted two-shard router session on the injected clock.
fn router_session() -> String {
    let (report, profile, _) = run_resumable_with(&family(1.0), None, ExecSpec::serial());
    let model = PerfModel::from_profile(&profile);
    let mut r = Router::new(RouterConfig {
        heartbeat_timeout_ms: 1000,
    });
    // The second name carries a quote and a backslash: its label value
    // must be escaped.
    r.add_shard("a", 1, 0);
    r.add_shard("b \"2\\x\"", 2, 0);
    r.calibrate(&family(1.0), model);
    let jobs: Vec<u64> = [1.0, 1.0, 0.5, 0.25]
        .iter()
        .enumerate()
        .map(|(i, &s)| r.submit(i, family(s), ChemLayout::Block))
        .collect();
    r.poll(0);
    let heartbeat = |seq, hits, misses, entries| Msg::Heartbeat {
        seq,
        sent_us: 0,
        plans: PlanMemoStats {
            hits,
            misses,
            entries,
        },
    };
    r.on_msg(0, heartbeat(1, 7, 2, 2), 100);
    r.on_msg(1, heartbeat(1, 30, 4, 3), 100);
    // A failure report whose trace context is not the job's: counted
    // as a mismatch, and the job is finished with the error.
    let wrong = r.job_ctx(jobs[1]).unwrap();
    r.on_msg(
        0,
        Msg::Failed {
            job: jobs[0],
            ctx: wrong,
            message: "chemistry blew up".into(),
        },
        150,
    );
    // Shard b completes what it holds, with measured wire times.
    let completed = |job: u64, r: &Router, bytes: u64| Msg::Completed {
        job,
        ctx: r.job_ctx(job).unwrap(),
        sent_us: 0,
        report: Box::new({
            let mut rep = report.clone();
            rep.copy_bytes = Some(CopyBytes {
                redist_local: bytes,
                soa_staging: 2 * bytes,
                result_serialization: 3,
            });
            rep
        }),
    };
    for (k, &job) in jobs.iter().enumerate().skip(1) {
        if r.job_shard(job) == Some(1) {
            r.note_wire(job, 40 + k as u64, true);
            let msg = completed(job, &r, 1000 * k as u64);
            r.on_msg(1, msg, 300 + 10 * k as u64);
        }
    }
    // Shard a goes silent; what it still holds fails over to b.
    r.on_msg(1, heartbeat(2, 41, 4, 3), 1400);
    r.poll(1700);
    for &job in &jobs {
        if r.job_shard(job) == Some(1) {
            let msg = completed(job, &r, 7);
            r.on_msg(1, msg, 2400);
        }
    }
    r.poll(2500);
    r.prometheus()
}

/// The `copy-traffic` section of one tiny traced episode, and the sink
/// it was published into (its spans feed the phase histograms).
fn episode_session() -> (String, Arc<SpanSink>) {
    let sink = Arc::new(SpanSink::new());
    let obs = Obs::new(sink.clone());
    let config = SimConfig::test_tiny(4, 1);
    Episode::new(&config, None, ExecSpec::serial(), &obs).run(1);
    let section = sink
        .sections()
        .into_iter()
        .find(|(name, _)| *name == "copy-traffic")
        .expect("a traced episode publishes its copy traffic")
        .1;
    (section, sink)
}

fn fixed_dedup() -> String {
    let stats = DedupStats {
        input_runs: 6,
        input_hours_deduped: 18,
        saved_bytes: 1_234_567,
        saved_seconds: 0.375,
        groups: 2,
    };
    prometheus_section(8, &stats, 2.5)
}

// ---- the exposition checker -------------------------------------------

/// Split one sample line into its metric name, its labels (values
/// unescaped) and its value, checking that each label value is exactly
/// `escape_label_value` of its unescaped form.
fn parse_sample(line: &str) -> (String, Vec<(String, String)>, f64) {
    let (series, value) = line.rsplit_once(' ').expect("sample has a value");
    let value: f64 = value
        .parse()
        .unwrap_or_else(|_| panic!("unparseable value in {line:?}"));
    let Some((name, rest)) = series.split_once('{') else {
        return (series.to_string(), Vec::new(), value);
    };
    let body = rest.strip_suffix('}').expect("label set closes");
    let mut labels = Vec::new();
    let mut chars = body.chars().peekable();
    while chars.peek().is_some() {
        let key: String = chars.by_ref().take_while(|&c| c != '=').collect();
        assert!(!key.is_empty(), "empty label key in {line:?}");
        assert_eq!(chars.next(), Some('"'), "label value quoted in {line:?}");
        let (mut raw, mut value) = (String::new(), String::new());
        loop {
            match chars.next().expect("label value terminates") {
                '"' => break,
                '\\' => {
                    let escaped = chars.next().expect("escape completes");
                    raw.push('\\');
                    raw.push(escaped);
                    value.push(match escaped {
                        '\\' => '\\',
                        '"' => '"',
                        'n' => '\n',
                        other => panic!("bad escape \\{other} in {line:?}"),
                    });
                }
                c => {
                    raw.push(c);
                    value.push(c);
                }
            }
        }
        assert_eq!(
            escape_label_value(&value),
            raw,
            "label round-trip in {line:?}"
        );
        labels.push((key, value));
        match chars.next() {
            None => break,
            Some(',') => {}
            Some(other) => panic!("unexpected {other:?} after a label in {line:?}"),
        }
    }
    (name.to_string(), labels, value)
}

/// Assert the exposition rules every rendered document must keep: one
/// `# HELP` and one `# TYPE` per family, its samples contiguous after
/// them, label values escaped, and histogram buckets cumulative with
/// `le="+Inf"` equal to `_count`. Returns the family names in order.
fn check_exposition(doc: &str, text: &str) -> Vec<String> {
    let mut families: Vec<String> = Vec::new();
    let mut seen = HashSet::new();
    let mut current: Option<(String, String)> = None; // (family, type)
    let mut pending_help: Option<String> = None;
    // Histogram series keyed by (family, labels without le).
    let mut buckets: BTreeMap<(String, String), Vec<(f64, f64)>> = BTreeMap::new();
    let mut counts: BTreeMap<(String, String), f64> = BTreeMap::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let family = rest.split(' ').next().unwrap().to_string();
            assert!(
                pending_help.is_none(),
                "{doc}: HELP without TYPE before {line:?}"
            );
            assert!(
                seen.insert(family.clone()),
                "{doc}: family {family} declared twice"
            );
            pending_help = Some(family);
            current = None;
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (family, kind) = rest.split_once(' ').expect("TYPE names a kind");
            assert_eq!(
                pending_help.take().as_deref(),
                Some(family),
                "{doc}: TYPE {family} must follow its HELP"
            );
            assert!(
                ["counter", "gauge", "histogram"].contains(&kind),
                "{doc}: unknown type {kind}"
            );
            families.push(family.to_string());
            current = Some((family.to_string(), kind.to_string()));
            continue;
        }
        assert!(!line.starts_with('#'), "{doc}: stray comment {line:?}");
        assert!(
            pending_help.is_none(),
            "{doc}: HELP without TYPE before {line:?}"
        );
        let (family, kind) = current
            .as_ref()
            .unwrap_or_else(|| panic!("{doc}: sample outside a family: {line:?}"));
        let (name, labels, value) = parse_sample(line);
        let suffix = name
            .strip_prefix(family.as_str())
            .unwrap_or_else(|| panic!("{doc}: {name} is not in family {family} (not contiguous)"));
        if kind != "histogram" {
            assert_eq!(suffix, "", "{doc}: {name} in {kind} family {family}");
            continue;
        }
        let series: Vec<String> = labels
            .iter()
            .filter(|(k, _)| k != "le")
            .map(|(k, v)| format!("{k}={v:?}"))
            .collect();
        let key = (family.clone(), series.join(","));
        match suffix {
            "_bucket" => {
                let le = &labels.last().expect("bucket has le").1;
                let le = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().expect("le is a number")
                };
                buckets.entry(key).or_default().push((le, value));
            }
            "_count" => {
                counts.insert(key, value);
            }
            "_sum" => {}
            other => panic!("{doc}: histogram sample suffix {other:?}"),
        }
    }
    assert!(pending_help.is_none(), "{doc}: trailing HELP without TYPE");
    assert_eq!(
        buckets.keys().collect::<Vec<_>>(),
        counts.keys().collect::<Vec<_>>(),
        "{doc}: every histogram series has buckets and a count"
    );
    for (key, series) in &buckets {
        assert!(
            series
                .windows(2)
                .all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1),
            "{doc}: {key:?} buckets must rise in le and be cumulative"
        );
        let (le, last) = *series.last().unwrap();
        assert!(le.is_infinite(), "{doc}: {key:?} ends at le=\"+Inf\"");
        assert_eq!(
            last, counts[key],
            "{doc}: {key:?} +Inf bucket equals _count"
        );
    }
    families
}

// ---- the tests ---------------------------------------------------------

#[test]
fn server_section_and_report_match_golden() {
    let (section, report) = server_session();
    check_exposition("server", &section);
    let masked = mask(
        &section,
        |l| l.starts_with("airshed_server_job_seconds_bucket") && !l.contains("le=\"+Inf\""),
        |l| l.starts_with("airshed_server_job_seconds_sum") || l.contains("cache=\"plan\""),
    );
    assert_golden("server.prom", &masked);

    let report: String = report
        .lines()
        .map(|line| {
            let line = match line.find("mean=") {
                Some(at) => format!("{} mean=* p50<* p99<* max=*", line[..at].trim_end()),
                None => line.to_string(),
            };
            if line.starts_with("  plan memo (process-wide):") {
                "  plan memo (process-wide): * hits / * misses, * plan sets resident".into()
            } else {
                line
            }
        })
        .map(|line| line + "\n")
        .collect();
    assert_golden("server_report.txt", &report);
}

#[test]
fn router_section_matches_golden() {
    let text = router_session();
    check_exposition("router", &text);
    assert_golden("router.prom", &text);
}

#[test]
fn ensemble_section_matches_golden() {
    let text = fixed_dedup();
    check_exposition("ensemble", &text);
    assert_golden("ensemble.prom", &text);
}

#[test]
fn copy_traffic_section_matches_golden() {
    let (text, _) = episode_session();
    check_exposition("copy-traffic", &text);
    assert_golden("copy_traffic.prom", &text);
}

/// One merged `SpanSink::prometheus` document — span-derived phase and
/// pool histograms, the server registry and the copy-traffic section —
/// keeps every family declared once with its samples contiguous.
#[test]
fn merged_sink_document_is_well_formed() {
    let sink = Arc::new(SpanSink::new());
    let obs = Obs::new(sink.clone());
    let server = ScenarioServer::start(ServerConfig {
        workers: 1,
        exec: ExecSpec::default(),
        obs: obs.clone(),
        ..Default::default()
    });
    let handle = server
        .submit(ScenarioRequest::new(family(1.0)))
        .into_handle()
        .expect("accepted");
    handle.wait().expect("job completes");
    server.shutdown();
    let text = sink.prometheus();
    let families = check_exposition("merged", &text);
    for family in [
        "airshed_phase_seconds",
        "airshed_server_submitted_total",
        "airshed_server_job_seconds",
        "airshed_copy_bytes_total",
    ] {
        assert!(
            families.iter().any(|f| f == family),
            "merged document lacks {family}:\n{text}"
        );
    }
}

/// The checker itself fails on each rule it states.
#[test]
fn checker_rejects_malformed_documents() {
    let head = "# HELP m_seconds h\n# TYPE m_seconds histogram\n";
    let bad = [
        // a family declared twice
        "# HELP c h\n# TYPE c counter\nc 1\n# HELP c h\n# TYPE c counter\nc 2\n".to_string(),
        // samples of one family split by another
        "# HELP a h\n# TYPE a counter\n# HELP b h\n# TYPE b counter\nb 1\na 1\n".to_string(),
        // TYPE without HELP
        "# TYPE a counter\na 1\n".to_string(),
        // an unescaped quote in a label value
        "# HELP a h\n# TYPE a counter\na{k=\"x\"y\"} 1\n".to_string(),
        // buckets that fall
        format!("{head}m_seconds_bucket{{le=\"1\"}} 3\nm_seconds_bucket{{le=\"2\"}} 2\nm_seconds_bucket{{le=\"+Inf\"}} 3\nm_seconds_count 3\n"),
        // +Inf bucket differing from _count
        format!("{head}m_seconds_bucket{{le=\"+Inf\"}} 3\nm_seconds_count 4\n"),
    ];
    for doc in bad {
        let caught = std::panic::catch_unwind(|| check_exposition("bad", &doc));
        assert!(caught.is_err(), "checker accepted:\n{doc}");
    }
}
