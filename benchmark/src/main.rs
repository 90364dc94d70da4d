//! One end-to-end benchmark for the whole airshed stack.
//!
//! `airshed-benchmark --workload NAME [--seed N] [--seconds S]
//! [--trace 0|1] [--smoke] [--out DIR]` runs one workload and prints, as
//! the last line of standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones of `BENCHMARK.json`, measured with no
//! tracing; with `--trace 1` they are the per-layer ones, measured by a
//! separate pass that records a span around every call into a layer's
//! public function and writes `<out>/<workload>.trace.json`. The exit
//! code is 0, or [`Checks::exit_code`] when a check failed, or 2 for a
//! usage or I/O error.
//!
//! `airshed-benchmark manifest` prints `BENCHMARK.json` from the tables
//! in [`contract`]; `airshed-benchmark compare A B MANIFEST` checks two
//! result directories of the same commit against each other
//! (`benchmark/aa.sh`). See `benchmark/README.md`.

mod contract;
mod ensemble_whatif;
mod fabric_families;
mod harness;
mod host;
mod inputs;
mod json;
mod la_episode;
mod probe;
mod server_replay;
mod stats;
mod trace;

use harness::{Checks, Ctx, Kind, Layers, Outcome, TracedVsUntraced};
use json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

type Run = fn(&Ctx) -> Outcome;
type TracedSuite = fn(&Ctx, &mut Tracer, &mut Layers, &mut Checks) -> TracedVsUntraced;

/// The untraced run and the traced suite of each workload, in the order
/// of [`contract::WORKLOADS`].
const SUITES: [(Run, TracedSuite); 4] = [
    (la_episode::run, la_episode::layers),
    (server_replay::run, server_replay::layers),
    (fabric_families::run, fabric_families::layers),
    (ensemble_whatif::run, ensemble_whatif::layers),
];

struct Args {
    workload: usize,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: usize::MAX,
        seed: 1,
        seconds: contract::RUN_SECONDS as f64,
        traced: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload = contract::WORKLOADS
                    .iter()
                    .position(|(w, _)| w == name)
                    .ok_or_else(|| format!("unknown workload '{name}'"))?;
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--traced" => parsed.traced = true,
            // Two units per metric: the round loop's minimum.
            "--smoke" => parsed.seconds = 0.0,
            "--out" => parsed.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if parsed.workload == usize::MAX {
        return Err("--workload is required".to_string());
    }
    if parsed.seconds.is_nan() || parsed.seconds < 0.0 {
        return Err("--seconds must be a number of seconds, zero or more".to_string());
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", contract::manifest());
            Ok(0)
        }
        Some("compare") if args.len() == 4 => compare(
            Path::new(&args[1]),
            Path::new(&args[2]),
            Path::new(&args[3]),
        ),
        _ => parse_args(&args).and_then(|args| run(&args, started)),
    };
    match result {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("airshed-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &Args, started: Instant) -> Result<u8, String> {
    let ctx = Ctx {
        workload: args.workload as u8,
        seed: args.seed,
        seconds: args.seconds,
        threads: harness::thread_budget(),
        started,
    };
    let (name, _) = contract::WORKLOADS[args.workload];
    let cpu = airshed::simd::cpu_features().join(",");
    println!(
        "workload {name}  seed {}  seconds {}  threads {}  cpu {cpu}  {}",
        ctx.seed,
        ctx.seconds,
        ctx.threads,
        if args.traced {
            "traced pass"
        } else {
            "untraced pass"
        }
    );
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let header = |checks: &Checks| {
        vec![
            ("workload".to_string(), Json::str(name)),
            ("seed".to_string(), Json::Num(ctx.seed as f64)),
            ("seconds".to_string(), Json::Num(ctx.seconds)),
            ("threads".to_string(), Json::Num(ctx.threads as f64)),
            ("cpu".to_string(), Json::str(cpu.clone())),
            ("correct".to_string(), Json::Bool(checks.failed == 0)),
            ("attempted".to_string(), Json::Num(checks.attempted as f64)),
            ("failed".to_string(), Json::Num(checks.failed as f64)),
            ("failed_frac".to_string(), Json::Num(checks.failed_frac())),
        ]
    };

    let (checks, metrics, file) = if args.traced {
        let (layers, checks) = traced_pass(&ctx, args, name)?;
        let exact = contract::LAYERS
            .iter()
            .filter(|l| l.exact)
            .map(|l| Json::str(l.name));
        let metrics = Json::obj(contract::LAYERS.iter().map(|l| {
            let value = layers.0[l.name];
            println!("{:<48} {:>16.6} {}", l.name, value, l.unit);
            (l.name, metric_json(value, l.unit))
        }));
        let mut file = header(&checks);
        file.push(("metrics".to_string(), metrics.clone()));
        file.push(("exact".to_string(), Json::Arr(exact.collect())));
        (
            checks,
            metrics,
            (format!("{name}.layers.json"), Json::Obj(file)),
        )
    } else {
        let outcome = SUITES[args.workload].0(&ctx);
        let metrics = contract_metrics(&outcome);
        let mut file = header(&outcome.checks);
        file.push(("contract".to_string(), metrics.clone()));
        file.push((
            "host_slowdown".to_string(),
            Json::Num(outcome.host.slowdown()),
        ));
        file.push((
            "probe_share".to_string(),
            Json::Num(outcome.host.spent_s() / started.elapsed().as_secs_f64()),
        ));
        let readings = outcome.host.readings_ms().iter().map(|&v| Json::Num(v));
        file.push((
            "probe_readings_ms".to_string(),
            Json::Arr(readings.collect()),
        ));
        file.push(("metrics".to_string(), own_metrics(&outcome)));
        (
            outcome.checks,
            metrics,
            (format!("{name}.json"), Json::Obj(file)),
        )
    };

    let path = args.out.join(file.0);
    std::fs::write(&path, file.1.render() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    for message in &checks.messages {
        eprintln!("FAILED CHECK: {message}");
    }
    println!(
        "failed_frac {} ({} of {} operations)  results in {}",
        checks.failed_frac(),
        checks.failed,
        checks.attempted,
        path.display()
    );
    let line = Json::obj([
        ("correct", Json::Bool(checks.failed == 0)),
        ("attempted", Json::Num(checks.attempted.max(1) as f64)),
        ("failed", Json::Num(checks.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", line.render());
    Ok(checks.exit_code())
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// The contract's end-to-end metrics: set-up, memory, and the workload's
/// own metrics in their three roles, at the nominal host speed wherever
/// the probe applies (`Metric::contract_value`).
fn contract_metrics(outcome: &Outcome) -> Json {
    let roles = &outcome.roles;
    let values = [
        outcome.setup_s,
        outcome.metric(roles.rate).contract_value(),
        outcome.metric(roles.primary.0).contract_value() * roles.primary.1,
        outcome.metric(roles.contrast.0).contract_value() * roles.contrast.1,
        harness::peak_rss_mb(),
    ];
    println!(
        "-- end-to-end metrics of BENCHMARK.json (host slowdown {:.4}: median of {} probe readings over the nominal {} ms)",
        outcome.host.slowdown(),
        outcome.host.readings_ms().len(),
        probe::NOMINAL_MS
    );
    Json::obj(contract::END_TO_END.iter().zip(values).map(|(m, value)| {
        println!("{:<24} {:>16.9} {}", m.name, value, m.unit);
        (m.name, metric_json(value, m.unit))
    }))
}

/// The workload's metrics under their own names and as measured (not
/// normalised), with the distribution each reported quartile came from.
fn own_metrics(outcome: &Outcome) -> Json {
    println!(
        "-- the workload's own metrics as measured (reported quartile; median, IQR, min, max, n over units; median at nominal host speed)"
    );
    Json::obj(outcome.metrics.iter().map(|m| {
        let s = &m.summary;
        println!(
            "{:<24} {:>16.6} {:<4} median {:.6}  iqr {:.6}  min {:.6}  max {:.6}  n {}  nominal {:.6}",
            m.name,
            m.value,
            m.unit,
            s.median,
            s.iqr(),
            s.min,
            s.max,
            s.n,
            m.contract_value()
        );
        let fields = [
            ("value", Json::Num(m.value)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
            ("n", Json::Num(s.n as f64)),
            ("min", Json::Num(s.min)),
            ("lower", Json::Num(s.lower)),
            ("median", Json::Num(s.median)),
            ("upper", Json::Num(s.upper)),
            ("max", Json::Num(s.max)),
            (
                "samples",
                Json::Arr(m.samples.iter().map(|&v| Json::Num(v)).collect()),
            ),
            (
                "nominal_samples",
                Json::Arr(m.nominal_samples.iter().map(|&v| Json::Num(v)).collect()),
            ),
        ];
        (m.name, Json::obj(fields))
    }))
}

/// The traced pass. Every per-layer metric is measured in every traced
/// run, whichever workload is named: each workload's suite runs a few
/// units of its own with a span around each call into a layer. The named
/// workload decides whose spans go to the trace file and whose units the
/// tracing overhead is taken from.
fn traced_pass(ctx: &Ctx, args: &Args, name: &str) -> Result<(Layers, Checks), String> {
    let mut tr = Tracer::new(true);
    let mut out = Layers::default();
    let mut checks = Checks::default();
    for (workload, (_, layers)) in SUITES.iter().enumerate() {
        tr.set_workload(workload as u8);
        checks.suite = workload as u8;
        let walls = layers(ctx, &mut tr, &mut out, &mut checks);
        if workload == args.workload {
            out.set("harness.trace_overhead_frac", walls.overhead_frac());
        }
    }
    host::layers(&mut out);

    checks.suite = args.workload as u8;
    checks.attempt(1);
    for layer in contract::LAYERS {
        match out.0.get(layer.name) {
            Some(v) if v.is_finite() => {}
            Some(_) => {
                checks.fail(Kind::Layer, || {
                    format!("per-layer metric {} is not finite", layer.name)
                });
                out.set(layer.name, 0.0);
            }
            None => {
                checks.fail(Kind::Layer, || {
                    format!("per-layer metric {} was not measured", layer.name)
                });
                out.set(layer.name, 0.0);
            }
        }
    }
    let path = args.out.join(format!("{name}.trace.json"));
    std::fs::write(
        &path,
        trace::chrome_json(tr.spans(), args.workload as u8, name),
    )
    .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("trace of {} spans in {}", tr.spans().len(), path.display());
    Ok((out, checks))
}

/// `compare A B MANIFEST`: two result directories of the same commit
/// and seed must agree on every end-to-end metric within its bound and
/// on every exact per-layer count bit for bit. Prints the spread seen.
fn compare(a: &Path, b: &Path, manifest: &Path) -> Result<u8, String> {
    let read = |path: PathBuf| -> Result<Json, String> {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let value_of = |doc: &Json, section: &str, name: &str| -> Result<f64, String> {
        doc.get(section)
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("no {section}.{name}.value"))
    };
    let manifest = read(manifest.to_path_buf())?;
    let mut agree = true;
    println!(
        "{:<18} {:<44} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "A", "B", "spread", "bound"
    );
    for workload in manifest.get("workloads").map_or(&[][..], Json::items) {
        let name = workload
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload without a name")?;
        let (ra, rb) = (
            read(a.join(format!("{name}.json")))?,
            read(b.join(format!("{name}.json")))?,
        );
        for metric in manifest.get("end_to_end").map_or(&[][..], Json::items) {
            let metric_name = metric
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let bound = metric
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without a bound")?;
            let (va, vb) = (
                value_of(&ra, "contract", metric_name)?,
                value_of(&rb, "contract", metric_name)?,
            );
            let spread = (va - vb).abs() / va.abs().min(vb.abs());
            let ok = spread <= bound;
            agree &= ok;
            println!(
                "{name:<18} {metric_name:<44} {va:>14.6} {vb:>14.6} {:>8.2}% {:>6.0}%{}",
                spread * 100.0,
                bound * 100.0,
                if ok { "" } else { "  DISAGREE" }
            );
        }
        let (la, lb) = (
            a.join(format!("{name}.layers.json")),
            b.join(format!("{name}.layers.json")),
        );
        if !(la.exists() && lb.exists()) {
            continue;
        }
        let (la, lb) = (read(la)?, read(lb)?);
        for exact in la.get("exact").map_or(&[][..], Json::items) {
            let metric_name = exact.as_str().ok_or("exact list holds a non-string")?;
            let (va, vb) = (
                value_of(&la, "metrics", metric_name)?,
                value_of(&lb, "metrics", metric_name)?,
            );
            let ok = va.to_bits() == vb.to_bits();
            agree &= ok;
            println!(
                "{name:<18} {metric_name:<44} {va:>14} {vb:>14} {:>9} {:>7}{}",
                if ok { "identical" } else { "differs" },
                "exact",
                if ok { "" } else { "  DISAGREE" }
            );
        }
    }
    println!(
        "{}",
        if agree {
            "A/A: every metric agrees"
        } else {
            "A/A: DISAGREEMENT"
        }
    );
    Ok(u8::from(!agree))
}
