//! The serving subcommands: `serve-batch` (a scenario batch through the
//! in-process scenario service), `fabric` (the same across shard processes
//! it spawns, or its `--local` single-process reference), `shard` (one of
//! those processes) and `trace-merge` (their traces, stitched).

use crate::flags::{config, exec, layout, parse, shard_args, Cmd, Options};
use crate::write_file;
use airshed::core::config::SimConfig;
use airshed::core::driver::ChemLayout;
use airshed::core::obs::dist::{self, TraceDoc};
use airshed::core::obs::Obs;
use airshed::core::report::RunReport;
use airshed::fabric::{
    report_fingerprint, run_shard, serve_batch, FrontendOptions, RouterConfig, ShardOptions,
};
use airshed::machine::MachineProfile;
use airshed::server::{JobHandle, ScenarioRequest, ScenarioServer, ServerConfig, SubmitOutcome};
use std::time::Duration;

/// One entry of a serve-batch or fabric workload.
pub struct Scenario {
    pub config: SimConfig,
    layout: ChemLayout,
}

impl Scenario {
    fn new(o: &Options, config: SimConfig) -> Scenario {
        Scenario {
            config,
            layout: layout(o),
        }
    }

    pub fn describe(&self) -> String {
        format!(
            "{} p={} hours={} emis={:.2} [{}]",
            self.config.dataset.name(),
            self.config.p,
            self.config.hours,
            self.config.emission_scale,
            self.config.machine.name
        )
    }

    fn request(&self, o: &Options) -> ScenarioRequest {
        ScenarioRequest {
            layout: self.layout,
            optimize: o.optimize,
            ..ScenarioRequest::new(self.config.clone())
        }
    }

    /// Wait for the submitted job and print its outcome line.
    fn report(&self, handle: &JobHandle, note: &str) {
        match handle.wait() {
            Ok(report) => println!(
                "{}  {}  {:>8.1}s virtual  peak O3 {:.1}{note}",
                handle.id(),
                self.describe(),
                report.total_seconds,
                report.peak_o3()
            ),
            Err(e) => println!("{}  {}  {e}", handle.id(), self.describe()),
        }
    }
}

/// Parse a scenario list file: one scenario per line, written with the
/// options of `airshed run` and no others (blank lines and `#` comments
/// skipped).
fn load_scenarios(path: &str) -> Result<Vec<Scenario>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut scenarios = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let words: Vec<String> = line.split_whitespace().map(String::from).collect();
        let o = parse(Cmd::Run, &words).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        scenarios.push(Scenario::new(&o, config(&o, o.nodes[0])));
    }
    if scenarios.is_empty() {
        return Err(format!("{path}: no scenarios"));
    }
    Ok(scenarios)
}

/// Job `i` of a built-in batch: four node counts striped over four
/// emission scales, the node count moving fastest.
fn striped(o: &Options, i: usize) -> SimConfig {
    const NODE_COUNTS: [usize; 4] = [4, 8, 16, 32];
    const EMISSION_SCALES: [f64; 4] = [1.0, 0.8, 0.6, 0.4];
    let mut c = config(o, NODE_COUNTS[i % 4]);
    c.emission_scale = EMISSION_SCALES[(i / 4) % 4];
    c
}

/// The built-in demo batch: 32 scenarios over four emission-control
/// policies and four node counts, so every (policy, placement) pair
/// appears twice — plenty of duplicate work for the caches to reuse.
/// With an admission budget, a deliberately monstrous episode of the
/// calibrated family is appended to demonstrate rejection.
pub fn demo_scenarios(o: &Options) -> Vec<Scenario> {
    let mut scenarios: Vec<Scenario> = (0..32)
        .map(|i| {
            let mut c = striped(o, i);
            c.hours = o.hours.clamp(1, 2);
            Scenario::new(o, c)
        })
        .collect();
    if o.budget.is_some() {
        // Same numerics family as scenario 0 (which calibrates the
        // admission model), but a 10 000-hour episode on one Paragon
        // node: predictably over any sane budget.
        let mut monster = config(o, 1);
        monster.hours = 10_000;
        monster.machine = MachineProfile::paragon();
        scenarios.push(Scenario::new(o, monster));
    }
    scenarios
}

pub fn cmd_serve_batch(o: &Options, obs: &Obs) -> Result<(), String> {
    let scenarios = match &o.scenarios {
        Some(path) => load_scenarios(path)?,
        None => demo_scenarios(o),
    };
    let exec = exec(o);
    eprintln!(
        "serving {} scenarios: {} workers (host backend {}), {} clients, queue capacity {}, budget {}",
        scenarios.len(),
        o.workers,
        exec.describe(),
        o.clients,
        o.queue_cap,
        o.budget
            .map_or("unlimited".to_string(), |b| format!("{b:.0} virtual s")),
    );

    let server = ScenarioServer::start(ServerConfig {
        workers: o.workers,
        queue_capacity: o.queue_cap,
        budget_seconds: o.budget,
        exec,
        obs: obs.clone(),
    });

    // Run the first scenario synchronously: it calibrates the admission
    // model for its family, so budget decisions on the rest are informed.
    let (first, rest) = scenarios.split_first().expect("non-empty batch");
    match server.submit(first.request(o)) {
        SubmitOutcome::Submitted(handle) => first.report(&handle, "  (calibration run)"),
        _ => return Err("calibration scenario was not accepted".into()),
    }

    // Fan the rest out across M client threads, striped round-robin.
    let started = std::time::Instant::now();
    std::thread::scope(|scope| {
        for client in 0..o.clients {
            let server = &server;
            scope.spawn(move || {
                let mut handles = Vec::new();
                for scenario in rest.iter().skip(client).step_by(o.clients) {
                    loop {
                        match server.submit(scenario.request(o)) {
                            SubmitOutcome::Submitted(h) => {
                                handles.push((h, scenario));
                                break;
                            }
                            SubmitOutcome::QueueFull => {
                                // Backpressure: ease off and retry.
                                std::thread::sleep(Duration::from_millis(5));
                            }
                            SubmitOutcome::Rejected {
                                predicted_seconds,
                                budget_seconds,
                            } => {
                                println!(
                                    "rejected  {}  predicted {predicted_seconds:.0}s > budget {budget_seconds:.0}s",
                                    scenario.describe()
                                );
                                break;
                            }
                            SubmitOutcome::ShuttingDown => break,
                        }
                    }
                }
                for (handle, scenario) in handles {
                    scenario.report(&handle, "");
                }
            });
        }
    });
    let wall = started.elapsed();

    let families = server.calibrated_families();
    let metrics = server.shutdown();
    println!();
    print!("{metrics}");
    println!(
        "  {} calibrated scenario families; batch wall time {:.2}s ({:.1} jobs/s)",
        families,
        wall.as_secs_f64(),
        metrics.completed as f64 / wall.as_secs_f64().max(1e-9)
    );
    if !metrics.reconciles() {
        return Err("metrics do not reconcile".into());
    }
    Ok(())
}

/// The fabric batch: `--jobs` scenarios striped over four node counts
/// and four emission-control policies — four distinct scenario
/// families, so routing exercises several calibrated models at once.
/// Deterministic by construction: the same options always produce the
/// same batch, which is what makes the `--local` reference comparable.
pub fn fabric_scenarios(o: &Options) -> Vec<Scenario> {
    (0..o.jobs)
        .map(|i| Scenario::new(o, striped(o, i)))
        .collect()
}

/// Write one `index<TAB>fingerprint<TAB>scenario` line per completed
/// job, in index order: the bit-identity artifact the CI smoke `cmp`s
/// between a fabric run and the `--local` reference.
fn write_fingerprints(
    path: &str,
    reports: &[(usize, RunReport)],
    scenarios: &[Scenario],
) -> Result<(), String> {
    let mut lines = String::new();
    for (i, report) in reports {
        lines.push_str(&format!(
            "{i}\t{}\t{}\n",
            report_fingerprint(report),
            scenarios[*i].describe()
        ));
    }
    write_file(path, lines)
}

/// Single-process reference for the fabric batch: the same scenarios
/// through one in-process scenario server, the executor every shard
/// runs, so each numerics key is computed once and replayed for its
/// other placements exactly as a shard would.
fn fabric_local(o: &Options, scenarios: &[Scenario], obs: &Obs) -> Result<(), String> {
    let exec = exec(o);
    eprintln!(
        "fabric --local: {} jobs single-process (host backend {})",
        scenarios.len(),
        exec.describe()
    );
    let started = std::time::Instant::now();
    let server = ScenarioServer::start(ServerConfig {
        workers: o.workers,
        queue_capacity: scenarios.len(),
        budget_seconds: None,
        exec,
        obs: obs.clone(),
    });
    let handles: Vec<_> = scenarios
        .iter()
        .map(|s| server.submit(s.request(o)).into_handle())
        .collect();
    let mut reports = Vec::new();
    for (i, handle) in handles.into_iter().enumerate() {
        let report = handle.ok_or("a job was refused")?.wait();
        let report = report.map_err(|e| format!("scenario {i}: {e}"))?;
        reports.push((i, RunReport::clone(&report)));
    }
    let wall = started.elapsed();
    let metrics = server.shutdown();
    println!(
        "{} jobs in {:.2}s ({:.1} jobs/s), {} numerics runs",
        reports.len(),
        wall.as_secs_f64(),
        reports.len() as f64 / wall.as_secs_f64().max(1e-9),
        metrics.profile_cache_misses
    );
    if let Some(path) = &o.out {
        write_fingerprints(path, &reports, scenarios)?;
    }
    Ok(())
}

pub fn cmd_fabric(o: &Options, obs: &Obs) -> Result<(), String> {
    let scenarios = fabric_scenarios(o);
    if o.local {
        return fabric_local(o, &scenarios, obs);
    }
    let expect = o.expect.unwrap_or(o.shards);
    let listener =
        std::net::TcpListener::bind(&o.listen).map_err(|e| format!("binding {}: {e}", o.listen))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    eprintln!(
        "fabric front-end on {addr}: spawning {} shards, {} jobs{}",
        o.shards,
        scenarios.len(),
        o.kill_shard.map_or(String::new(), |i| format!(
            ", shard {i} dies after {} hours",
            o.kill_after_hours
        ))
    );

    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut children = Vec::new();
    for i in 0..o.shards {
        // A shard is handed the front-end's own options (threads, workers,
        // heartbeat, fault plan pass through) with the per-shard
        // ones set here. Its observability artifacts land next to the
        // frontend's, at the `trace.json` + `shard-0` -> `trace.shard-0.json`
        // paths that `airshed trace-merge` auto-discovers.
        let name = format!("shard-{i}");
        let sharded = |path: &Option<String>| path.as_ref().map(|p| dist::sharded_path(p, &name));
        let shard = Options {
            connect: Some(addr.to_string()),
            die_after_hours: (o.kill_shard == Some(i)).then_some(o.kill_after_hours),
            trace_out: sharded(&o.trace_out),
            metrics_out: sharded(&o.metrics_out),
            shard_name: name,
            ..o.clone()
        };
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(shard_args(&shard));
        children.push(
            cmd.spawn()
                .map_err(|e| format!("spawning shard {i}: {e}"))?,
        );
    }

    let started = std::time::Instant::now();
    let pairs: Vec<(SimConfig, ChemLayout)> = scenarios
        .iter()
        .map(|s| (s.config.clone(), s.layout))
        .collect();
    let outcome = serve_batch(
        &listener,
        FrontendOptions {
            expect,
            router: RouterConfig {
                heartbeat_timeout_ms: o.hb_timeout_ms,
            },
            deadline: Some(Duration::from_secs(600)),
        },
        &pairs,
        obs,
    );
    let wall = started.elapsed();
    for (i, child) in children.iter_mut().enumerate() {
        match child.wait() {
            Ok(status) if status.success() => {}
            Ok(status) if o.kill_shard == Some(i) => {
                eprintln!("shard {i} exited {status} (the planned crash)")
            }
            Ok(status) => eprintln!("shard {i} exited {status}"),
            Err(e) => eprintln!("waiting for shard {i}: {e}"),
        }
    }
    let outcome = outcome?;

    if !outcome.failures.is_empty() {
        let (i, msg) = &outcome.failures[0];
        return Err(format!(
            "{} of {} jobs failed; first: scenario {i}: {msg}",
            outcome.failures.len(),
            scenarios.len()
        ));
    }
    if outcome.reports.len() != scenarios.len() {
        return Err(format!(
            "only {} of {} reports arrived",
            outcome.reports.len(),
            scenarios.len()
        ));
    }
    for (name, c) in &outcome.shards {
        println!(
            "shard {name}: routed {} stolen {} failed-over {} completed {} profile-hits {}",
            c.routed, c.stolen, c.failed_over, c.completed, c.profile_hits
        );
    }
    let failed_over: u64 = outcome.shards.iter().map(|(_, c)| c.failed_over).sum();
    if o.kill_shard.is_some() && failed_over == 0 {
        return Err("a shard kill was requested but no failover was observed".into());
    }
    println!(
        "{} jobs in {:.2}s ({:.1} jobs/s sustained)",
        outcome.reports.len(),
        wall.as_secs_f64(),
        outcome.reports.len() as f64 / wall.as_secs_f64().max(1e-9)
    );
    if let Some(path) = &o.out {
        write_fingerprints(path, &outcome.reports, &scenarios)?;
    }
    Ok(())
}

pub fn cmd_shard(o: &Options, obs: &Obs) -> Result<(), String> {
    run_shard(
        ShardOptions {
            connect: o.connect.clone().expect("required by the flag table"),
            name: o.shard_name.clone(),
            workers: o.workers,
            exec: exec(o),
            heartbeat_ms: o.heartbeat_ms,
            die_after_hours: o.die_after_hours,
            drop_after_hours: None,
        },
        obs,
    )
}

/// Recover the shard label a `sharded_path` name encodes:
/// `runs/trace.shard-0.json` -> `shard-0`. Falls back to the file stem
/// for paths outside the convention.
pub fn merge_label(path: &str) -> String {
    let file = path.rsplit('/').next().unwrap_or(path);
    let stem = file.rsplit_once('.').map_or(file, |(s, _)| s);
    stem.rsplit_once('.').map_or(stem, |(_, l)| l).to_string()
}

pub fn cmd_trace_merge(o: &Options, _obs: &Obs) -> Result<(), String> {
    let front_path = o
        .frontend_trace
        .as_deref()
        .expect("required by the flag table");
    let front_text =
        std::fs::read_to_string(front_path).map_err(|e| format!("reading {front_path}: {e}"))?;
    let front = dist::Json::parse(&front_text).map_err(|e| format!("{front_path}: {e}"))?;
    let mut docs = vec![TraceDoc {
        label: "frontend".to_string(),
        text: front_text,
    }];
    if o.shard_traces.is_empty() {
        // Every shard that said Hello left a clock-offset sample on the
        // frontend trace; its own trace sits at the sibling path the
        // fabric spawner passed it. A crashed shard never flushed one.
        for label in dist::clock_offsets(&front).keys() {
            let path = dist::sharded_path(front_path, label);
            match std::fs::read_to_string(&path) {
                Ok(text) => docs.push(TraceDoc {
                    label: label.clone(),
                    text,
                }),
                Err(_) => eprintln!(
                    "trace-merge: no trace for {label} at {path} (skipped — crashed shards write none)"
                ),
            }
        }
    } else {
        for path in &o.shard_traces {
            docs.push(TraceDoc {
                label: merge_label(path),
                text: std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?,
            });
        }
    }
    if docs.len() < 2 {
        eprintln!("trace-merge: no shard traces found; merging the frontend alone");
    }
    let merged = dist::stitch(&docs)?;
    let out = o
        .out
        .clone()
        .unwrap_or_else(|| dist::sharded_path(front_path, "merged"));
    std::fs::write(&out, merged).map_err(|e| format!("writing {out}: {e}"))?;
    eprintln!("wrote {out} ({} process traces merged)", docs.len());
    Ok(())
}
