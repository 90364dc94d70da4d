//! The `airshed` command-line interface.
//!
//! ```text
//! airshed run     --dataset tiny:120 --machine t3e --nodes 16 --hours 6
//! airshed sweep   --dataset la --nodes 4,8,16,32,64,128
//! airshed predict --dataset tiny:120 --machine t3e
//! airshed popexp  --dataset tiny:120 --nodes 16 --hours 5
//! airshed help
//! ```
//!
//! Everything the figure harness can do for the paper's datasets, on any
//! configuration, from one binary — the "downstream user" entry point.

use airshed::core::config::{DatasetChoice, SimConfig, Weather};
use airshed::core::driver::{ChemLayout, Episode, PlanLayouts};
use airshed::core::ensemble::{run_ensemble, EnsembleJob, MemberSpec};
use airshed::core::obs::dist::{self, TraceDoc};
use airshed::core::obs::oracle::{validate_profile, Oracle};
use airshed::core::obs::{Collector, Obs, SpanSink};
use airshed::core::plan::optimize::plan_cost;
use airshed::core::plan::{optimize_plan, replay_profile, replay_profile_with};
use airshed::core::predict::PerfModel;
use airshed::core::profile::SURFACE_SPECIES;
use airshed::core::surrogate::{what_if, ResponseSurface, WhatIfOutcome};
use airshed::core::taskpar::{
    optimize_split, replay_taskparallel_obs, replay_taskparallel_obs_with,
};
use airshed::core::viz;
use airshed::core::{BackendKind, ExecSpec};
use airshed::fabric::{
    report_fingerprint, run_shard, serve_batch, FaultPlan, FrontendOptions, RouterConfig,
    ShardOptions,
};
use airshed::machine::MachineProfile;
use airshed::popexp::{replay_with_popexp, Hosting};
use airshed::server::{ScenarioRequest, ScenarioServer, ServerConfig, SubmitOutcome};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

#[derive(Debug, Clone)]
struct Options {
    dataset: DatasetChoice,
    machine: MachineProfile,
    nodes: Vec<usize>,
    hours: usize,
    start_hour: usize,
    emission_scale: f64,
    weather: Weather,
    cyclic: bool,
    taskpar: bool,
    optimize: bool,
    map: bool,
    backend: Option<BackendKind>,
    threads: Option<usize>,
    // serve-batch knobs
    workers: usize,
    clients: usize,
    queue_cap: usize,
    budget: Option<f64>,
    scenarios: Option<String>,
    // observability exports (any subcommand)
    trace_out: Option<String>,
    metrics_out: Option<String>,
    // validate: also write the table as JSON
    json_out: Option<String>,
    // fabric / shard knobs
    shards: usize,
    expect: Option<usize>,
    listen: String,
    jobs: usize,
    kill_shard: Option<usize>,
    kill_after_hours: u64,
    local: bool,
    out: Option<String>,
    connect: Option<String>,
    shard_name: Option<String>,
    die_after_hours: Option<u64>,
    heartbeat_ms: u64,
    hb_timeout_ms: u64,
    fault: Option<String>,
    // trace-merge knobs
    frontend_trace: Option<String>,
    shard_traces: Vec<String>,
    // ensemble knobs
    members: usize,
    scale_range: (f64, f64),
    days: usize,
    no_dedup: bool,
    tolerance: f64,
    queries: Vec<f64>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            dataset: DatasetChoice::Tiny(120),
            machine: MachineProfile::t3e(),
            nodes: vec![16],
            hours: 6,
            start_hour: 8,
            emission_scale: 1.0,
            weather: Weather::Ventilated,
            cyclic: false,
            taskpar: false,
            optimize: false,
            map: true,
            backend: None,
            threads: None,
            workers: 4,
            clients: 4,
            queue_cap: 64,
            budget: None,
            scenarios: None,
            trace_out: None,
            metrics_out: None,
            json_out: None,
            shards: 2,
            expect: None,
            listen: "127.0.0.1:0".to_string(),
            jobs: 16,
            kill_shard: None,
            kill_after_hours: 4,
            local: false,
            out: None,
            connect: None,
            shard_name: None,
            die_after_hours: None,
            heartbeat_ms: 250,
            hb_timeout_ms: 2000,
            fault: None,
            frontend_trace: None,
            shard_traces: Vec::new(),
            members: 8,
            scale_range: (0.5, 1.5),
            days: 1,
            no_dedup: false,
            tolerance: 1.0e-3,
            queries: vec![0.9, 1.25, 2.0],
        }
    }
}

fn usage() {
    println!(
        "airshed — the Airshed pollution model in an HPF-style environment

USAGE:
    airshed <command> [options]

COMMANDS:
    run         simulate and report phase timings + surface ozone map
    sweep       replay one run across machines and node counts (Figure 2 style)
    predict     calibrate the analytic model and extrapolate (Figure 6/7 style)
    plan        show the plan the optimizer would run; with --optimize,
                search per-phase layouts and pipeline splits for the
                cheapest predicted plan and verify it against a replay
    popexp      integrated Airshed + population exposure (Figure 13 style)
    validate    run the performance oracle: predicted-vs-measured tables
                over a node sweep plus L/G/H recalibration (Figure 5-7 style)
    ensemble    run an emission-scaling (or multi-day) ensemble sweep with
                shared-input dedup, fit the surrogate response surface, and
                answer what-if queries from it (exact fallback when the
                error bound exceeds --tolerance)
    serve-batch run a scenario batch through the concurrent scenario service
    fabric      serve a batch across shard processes with oracle-routed
                load balancing (spawns shards; or --local for the
                single-process reference run)
    shard       run one shard process (normally spawned by fabric)
    trace-merge stitch per-process fabric traces into one Perfetto
                timeline (clock-offset corrected, flow arrows on hops)
    gridinfo    multiscale-grid statistics for a dataset
    help        this text

OPTIONS:
    --dataset la | ne | tiny:<columns>     (default tiny:120)
    --grid    alias for --dataset
    --machine t3e | t3d | paragon          (default t3e)
    --nodes   N[,N...]                     (default 16)
    --hours   N                            (default 6)
    --start   hour-of-day 0..23            (default 8)
    --emis    emission scale factor        (default 1.0)
    --stagnation  simulate a stagnant high-pressure smog episode
    --cyclic  use CYCLIC chemistry distribution
    --taskpar use the pipelined task-parallel driver
    --optimize    plan: search the layout/pipeline plan space;
                  serve-batch: re-plan every job from the admission
                  model (re-priced after each oracle recalibration)
    --no-map  skip the ASCII ozone map
    --backend serial | rayon | simd        (default rayon)
    --threads N  host threads for the rayon/simd pool (default: all cores)
    --trace-out F    write a Chrome trace-event JSON of the run to F
                     (open in Perfetto / chrome://tracing)
    --metrics-out F  write a Prometheus text-format metrics snapshot to F

VALIDATE OPTIONS:
    --nodes N,N,...  node counts to sweep (default 4,16,64 when a single
                     count is given)
    --json F         also write the predicted-vs-measured tables as JSON

ENSEMBLE OPTIONS:
    --members N      members in the emission sweep        (default 8)
    --scale-range lo:hi  emission scales swept, inclusive  (default 0.5:1.5)
    --days D         replicate the sweep over D episode days (default 1;
                     forks one input group per day)
    --no-dedup       run every member standalone (the baseline the dedup
                     savings compare against)
    --tolerance T    surrogate error bound a what-if accepts, ppm (default 1e-3)
    --queries S,S,.. what-if emission scales to answer     (default 0.9,1.25,2.0;
                     out-of-range scales exercise the exact fallback)

SERVE-BATCH OPTIONS:
    --workers N     worker pool size                    (default 4)
    --clients M     concurrent submitting clients       (default 4)
    --queue-cap N   bounded queue capacity              (default 64)
    --budget S      admission budget, virtual seconds   (default: admit all)
    --scenarios F   scenario list file, one run-style option line per
                    scenario ('#' comments and blank lines skipped);
                    without it a 32-scenario demo batch is generated

FABRIC OPTIONS:
    --shards N       shard processes to spawn              (default 2)
    --expect N       shard connections to wait for         (default: --shards)
    --listen A       front-end bind address                (default 127.0.0.1:0)
    --jobs N         scenarios in the batch                (default 16)
    --workers N      worker threads per shard              (default 4)
    --kill-shard I   give shard I --die-after-hours for the failover drill
    --kill-after-hours H  hours before the killed shard exits (default 4)
    --hb-timeout-ms T  declare a shard lost after T ms of silence (default 2000)
    --local          run the same batch single-process (reference results)
    --out F          write one 'index<TAB>fingerprint<TAB>scenario' line per
                     job to F — bit-exact comparable between fabric and --local

SHARD OPTIONS:
    --connect A      front-end address (required)
    --name S         shard name for metrics labels         (default shard)
    --workers N      worker threads                        (default 4)
    --heartbeat-ms T heartbeat period                      (default 250)
    --die-after-hours H  hard-exit after H completed hours (crash drill)
    --fault SPEC     wire fault injection: drop:N | delay:N:MS | truncate:N:KEEP

TRACE-MERGE OPTIONS:
    --frontend F     the frontend trace written by `fabric --trace-out F`
    --shard-trace F  a shard trace to merge (repeatable); without it the
                     shards named on the frontend's clock-offset track are
                     auto-discovered at F's sibling paths (trace.json ->
                     trace.shard-0.json); a crashed shard's missing trace
                     is skipped with a note
    --out F          merged trace path (default: frontend with `.merged`
                     inserted, trace.json -> trace.merged.json)

EXAMPLES:
    airshed run --dataset tiny:150 --nodes 32 --hours 8
    airshed fabric --shards 2 --jobs 16 --dataset tiny:60 --hours 3
    airshed fabric --shards 2 --jobs 16 --kill-shard 1 --kill-after-hours 4
    airshed fabric --shards 2 --jobs 8 --trace-out fab.json && \\
        airshed trace-merge --frontend fab.json   # -> fab.merged.json
    airshed sweep --dataset la --nodes 4,8,16,32,64,128
    airshed validate --grid la --nodes 4,16,64
    airshed plan --optimize --grid la --nodes 16 --hours 2
    airshed run --dataset tiny:120 --emis 0.5 --hours 6   # policy scenario
    airshed ensemble --dataset la --members 16 --hours 4 --queries 0.9,2.0
    airshed serve-batch --dataset tiny:60 --workers 4 --clients 8 --budget 2e4"
    );
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--dataset" | "--grid" => {
                let v = val("--dataset")?;
                o.dataset = match v.as_str() {
                    "la" | "LA" => DatasetChoice::LosAngeles,
                    "ne" | "NE" => DatasetChoice::NorthEast,
                    other => {
                        let n = other
                            .strip_prefix("tiny:")
                            .ok_or_else(|| format!("unknown dataset '{other}'"))?
                            .parse::<usize>()
                            .map_err(|e| format!("bad tiny size: {e}"))?;
                        DatasetChoice::Tiny(n)
                    }
                };
            }
            "--machine" => {
                let v = val("--machine")?;
                o.machine = MachineProfile::by_name(&v)
                    .ok_or_else(|| format!("unknown machine '{v}' (t3e|t3d|paragon)"))?;
            }
            "--nodes" => {
                let v = val("--nodes")?;
                o.nodes = v
                    .split(',')
                    .map(|s| s.trim().parse::<usize>())
                    .collect::<Result<_, _>>()
                    .map_err(|e| format!("bad node list: {e}"))?;
                if o.nodes.is_empty() || o.nodes.contains(&0) {
                    return Err("node counts must be positive".into());
                }
            }
            "--hours" => o.hours = val("--hours")?.parse().map_err(|e| format!("{e}"))?,
            "--start" => {
                o.start_hour = val("--start")?.parse().map_err(|e| format!("{e}"))?;
                if o.start_hour > 23 {
                    return Err("--start must be 0..23".into());
                }
            }
            "--emis" => {
                o.emission_scale = val("--emis")?.parse().map_err(|e| format!("{e}"))?;
                if o.emission_scale < 0.0 {
                    return Err("--emis must be non-negative".into());
                }
            }
            "--stagnation" => o.weather = Weather::Stagnation,
            "--backend" => o.backend = Some(val("--backend")?.parse()?),
            "--threads" => {
                o.threads = Some(val("--threads")?.parse().map_err(|e| format!("{e}"))?);
                if o.threads == Some(0) {
                    return Err("--threads must be positive".into());
                }
            }
            "--cyclic" => o.cyclic = true,
            "--taskpar" => o.taskpar = true,
            "--optimize" => o.optimize = true,
            "--no-map" => o.map = false,
            "--workers" => {
                o.workers = val("--workers")?.parse().map_err(|e| format!("{e}"))?;
                if o.workers == 0 {
                    return Err("--workers must be positive".into());
                }
            }
            "--clients" => {
                o.clients = val("--clients")?.parse().map_err(|e| format!("{e}"))?;
                if o.clients == 0 {
                    return Err("--clients must be positive".into());
                }
            }
            "--queue-cap" => {
                o.queue_cap = val("--queue-cap")?.parse().map_err(|e| format!("{e}"))?;
                if o.queue_cap == 0 {
                    return Err("--queue-cap must be positive".into());
                }
            }
            "--budget" => {
                let b: f64 = val("--budget")?.parse().map_err(|e| format!("{e}"))?;
                if b.is_nan() || b <= 0.0 {
                    return Err("--budget must be positive".into());
                }
                o.budget = Some(b);
            }
            "--scenarios" => o.scenarios = Some(val("--scenarios")?),
            "--shards" => {
                o.shards = val("--shards")?.parse().map_err(|e| format!("{e}"))?;
                if o.shards == 0 {
                    return Err("--shards must be positive".into());
                }
            }
            "--expect" => {
                let n: usize = val("--expect")?.parse().map_err(|e| format!("{e}"))?;
                if n == 0 {
                    return Err("--expect must be positive".into());
                }
                o.expect = Some(n);
            }
            "--listen" => o.listen = val("--listen")?,
            "--jobs" => {
                o.jobs = val("--jobs")?.parse().map_err(|e| format!("{e}"))?;
                if o.jobs == 0 {
                    return Err("--jobs must be positive".into());
                }
            }
            "--kill-shard" => {
                o.kill_shard = Some(val("--kill-shard")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--kill-after-hours" => {
                o.kill_after_hours = val("--kill-after-hours")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
                if o.kill_after_hours == 0 {
                    return Err("--kill-after-hours must be positive".into());
                }
            }
            "--local" => o.local = true,
            "--out" => o.out = Some(val("--out")?),
            "--connect" => o.connect = Some(val("--connect")?),
            "--name" => o.shard_name = Some(val("--name")?),
            "--die-after-hours" => {
                let h: u64 = val("--die-after-hours")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
                if h == 0 {
                    return Err("--die-after-hours must be positive".into());
                }
                o.die_after_hours = Some(h);
            }
            "--heartbeat-ms" => {
                o.heartbeat_ms = val("--heartbeat-ms")?.parse().map_err(|e| format!("{e}"))?;
                if o.heartbeat_ms == 0 {
                    return Err("--heartbeat-ms must be positive".into());
                }
            }
            "--hb-timeout-ms" => {
                o.hb_timeout_ms = val("--hb-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
                if o.hb_timeout_ms == 0 {
                    return Err("--hb-timeout-ms must be positive".into());
                }
            }
            "--fault" => {
                let spec = val("--fault")?;
                FaultPlan::parse(&spec)?; // validate eagerly
                o.fault = Some(spec);
            }
            "--frontend" => o.frontend_trace = Some(val("--frontend")?),
            "--shard-trace" => o.shard_traces.push(val("--shard-trace")?),
            "--members" => {
                o.members = val("--members")?.parse().map_err(|e| format!("{e}"))?;
                if o.members < 2 {
                    return Err("--members must be at least 2".into());
                }
            }
            "--scale-range" => {
                let spec = val("--scale-range")?;
                let (lo, hi) = spec
                    .split_once(':')
                    .ok_or_else(|| format!("--scale-range wants lo:hi, got '{spec}'"))?;
                let lo: f64 = lo.parse().map_err(|e| format!("{e}"))?;
                let hi: f64 = hi.parse().map_err(|e| format!("{e}"))?;
                if !(lo >= 0.0 && hi > lo) {
                    return Err("--scale-range wants 0 <= lo < hi".into());
                }
                o.scale_range = (lo, hi);
            }
            "--days" => {
                o.days = val("--days")?.parse().map_err(|e| format!("{e}"))?;
                if o.days == 0 {
                    return Err("--days must be positive".into());
                }
            }
            "--no-dedup" => o.no_dedup = true,
            "--tolerance" => {
                o.tolerance = val("--tolerance")?.parse().map_err(|e| format!("{e}"))?;
                if o.tolerance < 0.0 {
                    return Err("--tolerance must be non-negative".into());
                }
            }
            "--queries" => {
                o.queries = val("--queries")?
                    .split(',')
                    .map(|s| s.trim().parse::<f64>().map_err(|e| format!("{e}")))
                    .collect::<Result<Vec<f64>, String>>()?;
            }
            "--trace-out" => o.trace_out = Some(val("--trace-out")?),
            "--metrics-out" => o.metrics_out = Some(val("--metrics-out")?),
            "--json" => o.json_out = Some(val("--json")?),
            other => return Err(format!("unknown option '{other}' (try: airshed help)")),
        }
    }
    Ok(o)
}

fn config(o: &Options, p: usize) -> SimConfig {
    SimConfig {
        dataset: o.dataset,
        machine: o.machine,
        p,
        hours: o.hours,
        start_hour: o.start_hour,
        kh: 0.012,
        chem_opts: Default::default(),
        weather: o.weather,
        emission_scale: o.emission_scale,
    }
}

fn exec(o: &Options) -> ExecSpec {
    ExecSpec::resolve(o.backend, o.threads)
}

fn layout(o: &Options) -> ChemLayout {
    if o.cyclic {
        ChemLayout::Cyclic
    } else {
        ChemLayout::Block
    }
}

/// Run the numerics of `config`, traced through `obs`.
fn simulate(
    config: &SimConfig,
    exec: ExecSpec,
    obs: &Obs,
) -> (airshed::core::RunReport, airshed::core::WorkProfile) {
    let (report, profile, _) = Episode::new(config, None, exec, obs).run(config.hours);
    (report, profile)
}

fn cmd_run(o: &Options, obs: &Obs) {
    let p = o.nodes[0];
    let exec = exec(o);
    eprintln!(
        "simulating {} for {} hours on {} x{} nodes (host backend {})...",
        o.dataset.name(),
        o.hours,
        o.machine.name,
        p,
        exec.describe()
    );
    let (report, profile) = simulate(&config(o, p), exec, obs);
    let report = if o.cyclic {
        replay_profile(&profile, o.machine, p, ChemLayout::Cyclic)
    } else {
        report
    };
    print!("{report}");
    if o.taskpar && p >= 3 {
        let tp = replay_taskparallel_obs(&profile, o.machine, p, 1, 1, obs);
        println!(
            "task-parallel pipeline (1 in / {} compute / 1 out): {:.1}s ({:+.1}% vs data-parallel)",
            p - 2,
            tp.total_seconds,
            100.0 * (report.total_seconds / tp.total_seconds - 1.0)
        );
        let (pi, po, best) = optimize_split(&profile, o.machine, p);
        println!("optimal split in={pi}/out={po}: {:.1}s", best.total_seconds);
    }
    if o.map {
        let dataset = o.dataset.build();
        let n = dataset.nodes();
        if let Some(last) = profile.hours.last() {
            println!("\nsurface ozone, final hour:");
            print!(
                "{}",
                viz::ascii_map_auto(&dataset, &last.surface[..n], 64, 20)
            );
        }
    }
}

fn cmd_gridinfo(o: &Options, obs: &Obs) {
    let _span = obs.span("gridinfo");
    let dataset = o.dataset.build();
    println!(
        "dataset {} over {:.0} x {:.0} km",
        dataset.spec.name,
        dataset.spec.domain.width(),
        dataset.spec.domain.height()
    );
    print!("{}", airshed::grid::grid_stats(&dataset));
    if o.map {
        let density: Vec<f64> = (0..dataset.nodes())
            .map(|s| dataset.spec.urban_density(dataset.mesh.free_point(s)))
            .collect();
        println!("\nurban density (drives the refinement):");
        print!("{}", viz::ascii_map_auto(&dataset, &density, 64, 20));
    }
}

fn cmd_sweep(o: &Options, obs: &Obs) {
    let (_, profile) = simulate(&config(o, o.nodes[0]), exec(o), obs);
    println!(
        "{:>6} {:>12} {:>12} {:>14}",
        "P", "T3E (s)", "T3D (s)", "Paragon (s)"
    );
    for &p in &o.nodes {
        let row: Vec<f64> = MachineProfile::paper_machines()
            .iter()
            .map(|m| replay_profile(&profile, *m, p, layout(o)).total_seconds)
            .collect();
        println!(
            "{:>6} {:>12.2} {:>12.2} {:>14.2}",
            p, row[0], row[1], row[2]
        );
    }
}

fn cmd_predict(o: &Options, obs: &Obs) {
    let (_, profile) = simulate(&config(o, o.nodes[0]), exec(o), obs);
    let model = PerfModel::from_profile(&profile);
    println!(
        "{:>6} {:>14} {:>14} {:>8}",
        "P", "predicted (s)", "simulated (s)", "error"
    );
    let sweep = if o.nodes.len() > 1 {
        o.nodes.clone()
    } else {
        vec![4, 8, 16, 32, 64, 128]
    };
    for &p in &sweep {
        let pred = model.predict(&o.machine, p);
        let meas = replay_profile(&profile, o.machine, p, layout(o));
        println!(
            "{:>6} {:>14.2} {:>14.2} {:>7.1}%",
            p,
            pred.total,
            meas.total_seconds,
            100.0 * (pred.total - meas.total_seconds).abs() / meas.total_seconds
        );
    }
}

fn cmd_plan(o: &Options, obs: &Obs) {
    let p = o.nodes[0];
    let exec = exec(o);
    eprintln!(
        "planning {} for {} hours on {} x{} nodes (host backend {})...",
        o.dataset.name(),
        o.hours,
        o.machine.name,
        p,
        exec.describe()
    );
    // One numerics run captures the work profile the planner folds over;
    // every plan below is a replay of the same (bit-identical) physics.
    let (_, profile) = simulate(&config(o, p), exec, obs);
    let default_layouts = PlanLayouts::default();
    let default_predicted = plan_cost(&profile, &o.machine, p, default_layouts);
    let default_measured = replay_profile_with(&profile, o.machine, p, default_layouts);
    println!(
        "{:<8} {:>38} {:>14} {:>13}",
        "plan", "layouts", "predicted (s)", "measured (s)"
    );
    println!(
        "{:<8} {:>38} {:>14.1} {:>13.1}",
        "default",
        default_layouts.to_string(),
        default_predicted,
        default_measured.total_seconds
    );
    if !o.optimize {
        println!("(pass --optimize to search the layout and pipeline plan space)");
        return;
    }
    let choice = optimize_plan(&profile, &o.machine, p);
    let (chosen_measured, chosen_desc) = match choice.split {
        Some((p_in, p_out)) => {
            let tp = replay_taskparallel_obs_with(
                &profile,
                o.machine,
                p,
                p_in,
                p_out,
                choice.layouts,
                obs,
            );
            (
                tp.total_seconds,
                format!(
                    "{} pipeline {p_in}/{}/{p_out}",
                    choice.layouts,
                    p - p_in - p_out
                ),
            )
        }
        None => {
            let r = replay_profile_with(&profile, o.machine, p, choice.layouts);
            (r.total_seconds, choice.layouts.to_string())
        }
    };
    println!(
        "{:<8} {:>38} {:>14.1} {:>13.1}",
        "chosen", chosen_desc, choice.predicted_seconds, chosen_measured
    );
    println!(
        "predicted saving {:.1}s ({:.1}%), measured saving {:.1}s",
        choice.saving_seconds(),
        100.0 * choice.saving_seconds() / default_predicted.max(1e-12),
        default_measured.total_seconds - chosen_measured
    );
    // Record the decision on the trace/metrics exports: counter samples
    // for the deltas, a text section naming the chosen layouts.
    obs.record_counter("default", "plan predicted", 0.0, default_predicted, None);
    obs.record_counter(
        "chosen",
        "plan predicted",
        0.0,
        choice.predicted_seconds,
        None,
    );
    obs.record_counter(
        "saving",
        "plan predicted",
        0.0,
        choice.saving_seconds(),
        None,
    );
    obs.publish(
        "plan",
        format!(
            "# chosen plan: {chosen_desc}\n# predicted {:.3}s vs default {:.3}s\n",
            choice.predicted_seconds, default_predicted
        ),
    );
    // The optimizer's contract: the default is always a candidate, so the
    // chosen plan can never predict worse.
    assert!(
        choice.predicted_seconds <= default_predicted,
        "optimizer regressed past the default plan"
    );
    println!(
        "plan OK: predicted {:.1}s <= default {:.1}s",
        choice.predicted_seconds, default_predicted
    );
}

fn cmd_validate(o: &Options, obs: &Obs) -> Result<(), String> {
    // An explicit multi-count list is swept as given; a single count
    // (including the default) expands to the Figure 6/7 sweep.
    let nodes = if o.nodes.len() > 1 {
        o.nodes.clone()
    } else {
        vec![4, 16, 64]
    };
    let exec = exec(o);
    eprintln!(
        "validating {} for {} hours on {} at P in {:?} (host backend {})...",
        o.dataset.name(),
        o.hours,
        o.machine.name,
        nodes,
        exec.describe()
    );
    // Run the numerics once with a live oracle attached, so a --trace-out
    // export of this command carries the per-hour residual counter track.
    let live = Arc::new(Oracle::new(o.machine));
    let obs_with_oracle = obs.clone().with_oracle(Arc::clone(&live));
    let (_, profile) = simulate(&config(o, nodes[0]), exec, &obs_with_oracle);
    // Then sweep the node counts through a fresh oracle on plan replays.
    let v = validate_profile(&profile, o.machine, &nodes);
    print!("{}", v.text());
    if let Some(path) = &o.json_out {
        std::fs::write(path, v.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

fn cmd_popexp(o: &Options, obs: &Obs) {
    let (_, profile) = simulate(&config(o, o.nodes[0]), exec(o), obs);
    println!(
        "{:>6} {:>14} {:>16} {:>10}",
        "P", "native (s)", "foreign (s)", "overhead"
    );
    for &p in &o.nodes {
        if p < 4 {
            eprintln!("skipping P={p}: integrated app needs >= 4 nodes");
            continue;
        }
        let native = replay_with_popexp(&profile, o.machine, p, Hosting::NativeTask);
        let foreign = replay_with_popexp(&profile, o.machine, p, Hosting::ForeignModule);
        println!(
            "{:>6} {:>14.1} {:>16.1} {:>9.3}%",
            p,
            native.total_seconds,
            foreign.total_seconds,
            100.0 * (foreign.total_seconds / native.total_seconds - 1.0)
        );
    }
    let p = o.nodes[0].max(4);
    let r = replay_with_popexp(&profile, o.machine, p, Hosting::ForeignModule);
    println!("\nhourly exposure (PVM-hosted PopExp):");
    for e in &r.exposures {
        println!(
            "  hour {:>2}: person-dose {:>12.4e}  people over O3 standard {:>12.0}",
            e.hour, e.person_dose, e.people_above_o3_threshold
        );
    }
}

/// One entry of a serve-batch workload.
#[derive(Clone)]
struct Scenario {
    config: SimConfig,
    layout: ChemLayout,
}

impl Scenario {
    fn describe(&self) -> String {
        format!(
            "{} p={} hours={} emis={:.2} [{}]",
            self.config.dataset.name(),
            self.config.p,
            self.config.hours,
            self.config.emission_scale,
            self.config.machine.name
        )
    }
}

/// Parse a scenario list file: one scenario per line, written with the
/// same options as `airshed run` (blank lines and `#` comments skipped).
fn load_scenarios(path: &str) -> Result<Vec<Scenario>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut scenarios = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let words: Vec<String> = line.split_whitespace().map(String::from).collect();
        let o = parse(&words).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        scenarios.push(Scenario {
            config: config(&o, o.nodes[0]),
            layout: layout(&o),
        });
    }
    if scenarios.is_empty() {
        return Err(format!("{path}: no scenarios"));
    }
    Ok(scenarios)
}

/// The built-in demo batch: 32 scenarios over four emission-control
/// policies and four node counts, so every (policy, placement) pair
/// appears twice — plenty of duplicate work for the caches to reuse.
/// With an admission budget, a deliberately monstrous episode of the
/// calibrated family is appended to demonstrate rejection.
fn demo_scenarios(o: &Options) -> Vec<Scenario> {
    let emission_scales = [1.0, 0.8, 0.6, 0.4];
    let node_counts = [4, 8, 16, 32];
    let mut scenarios = Vec::new();
    for i in 0..32 {
        let mut c = config(o, node_counts[i % node_counts.len()]);
        c.hours = o.hours.clamp(1, 2);
        c.emission_scale = emission_scales[(i / node_counts.len()) % emission_scales.len()];
        scenarios.push(Scenario {
            config: c,
            layout: layout(o),
        });
    }
    if o.budget.is_some() {
        // Same numerics family as scenario 0 (which calibrates the
        // admission model), but a 10 000-hour episode on one Paragon
        // node: predictably over any sane budget.
        let mut monster = config(o, 1);
        monster.hours = 10_000;
        monster.machine = MachineProfile::paragon();
        scenarios.push(Scenario {
            config: monster,
            layout: layout(o),
        });
    }
    scenarios
}

fn cmd_serve_batch(o: &Options, obs: &Obs) -> Result<(), String> {
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
    match server.submit(ScenarioRequest {
        config: first.config.clone(),
        layout: first.layout,
        optimize: o.optimize,
        deadline: None,
        resume: None,
    }) {
        SubmitOutcome::Submitted(handle) => match handle.wait() {
            Ok(report) => println!(
                "{}  {}  {:>8.1}s virtual  peak O3 {:.1}  (calibration run)",
                handle.id(),
                first.describe(),
                report.total_seconds,
                report.peak_o3()
            ),
            Err(e) => println!("{}  {}  {e}", handle.id(), first.describe()),
        },
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
                    let request = ScenarioRequest {
                        config: scenario.config.clone(),
                        layout: scenario.layout,
                        optimize: o.optimize,
                        deadline: None,
                        resume: None,
                    };
                    loop {
                        match server.submit(request.clone()) {
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
                    match handle.wait() {
                        Ok(report) => println!(
                            "{}  {}  {:>8.1}s virtual  peak O3 {:.1}",
                            handle.id(),
                            scenario.describe(),
                            report.total_seconds,
                            report.peak_o3()
                        ),
                        Err(e) => println!("{}  {}  {e}", handle.id(), scenario.describe()),
                    }
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
fn fabric_scenarios(o: &Options) -> Vec<Scenario> {
    let node_counts = [4, 8, 16, 32];
    let emission_scales = [1.0, 0.8, 0.6, 0.4];
    (0..o.jobs)
        .map(|i| {
            let mut c = config(o, node_counts[i % node_counts.len()]);
            c.emission_scale = emission_scales[(i / node_counts.len()) % emission_scales.len()];
            Scenario {
                config: c,
                layout: layout(o),
            }
        })
        .collect()
}

/// One `index<TAB>fingerprint<TAB>scenario` line per completed job,
/// in index order: the bit-identity artifact the CI smoke `cmp`s
/// between a fabric run and the `--local` reference.
fn fingerprint_lines(
    reports: &[(usize, airshed::core::report::RunReport)],
    scenarios: &[Scenario],
) -> String {
    let mut lines = String::new();
    for (i, report) in reports {
        lines.push_str(&format!(
            "{i}\t{}\t{}\n",
            report_fingerprint(report),
            scenarios[*i].describe()
        ));
    }
    lines
}

/// Single-process reference for the fabric batch: the same scenarios
/// through the same hourly checkpoint machinery, profile-cached per
/// scenario family exactly as a shard would compute them.
fn fabric_local(o: &Options, scenarios: &[Scenario]) -> Result<(), String> {
    use airshed::server::cache::NumericsKey;
    use airshed::server::worker::run_hourly;
    let exec = exec(o);
    eprintln!(
        "fabric --local: {} jobs single-process (host backend {})",
        scenarios.len(),
        exec.describe()
    );
    let started = std::time::Instant::now();
    let never = std::sync::atomic::AtomicBool::new(false);
    let mut profiles: std::collections::HashMap<NumericsKey, Arc<airshed::core::WorkProfile>> =
        std::collections::HashMap::new();
    let mut reports = Vec::new();
    for (i, s) in scenarios.iter().enumerate() {
        let key = NumericsKey::of(&s.config);
        let profile = match profiles.get(&key) {
            Some(p) => Arc::clone(p),
            None => {
                let p = run_hourly(&s.config, None, &never, None, exec, &Obs::off(), None)
                    .map_err(|e| format!("scenario {i}: {e:?}"))?;
                let p = Arc::new(p);
                profiles.insert(key, Arc::clone(&p));
                p
            }
        };
        let report = replay_profile(&profile, s.config.machine, s.config.p, s.layout);
        reports.push((i, report));
    }
    let wall = started.elapsed();
    println!(
        "{} jobs in {:.2}s ({:.1} jobs/s), {} scenario families",
        reports.len(),
        wall.as_secs_f64(),
        reports.len() as f64 / wall.as_secs_f64().max(1e-9),
        profiles.len()
    );
    if let Some(path) = &o.out {
        std::fs::write(path, fingerprint_lines(&reports, scenarios))
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

fn cmd_fabric(o: &Options, obs: &Obs) -> Result<(), String> {
    let scenarios = fabric_scenarios(o);
    if o.local {
        return fabric_local(o, &scenarios);
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
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("shard")
            .arg("--connect")
            .arg(addr.to_string())
            .arg("--name")
            .arg(format!("shard-{i}"))
            .arg("--workers")
            .arg(o.workers.to_string())
            .arg("--heartbeat-ms")
            .arg(o.heartbeat_ms.to_string());
        match o.backend {
            Some(BackendKind::Serial) => {
                cmd.arg("--backend").arg("serial");
            }
            Some(BackendKind::Simd) => {
                cmd.arg("--backend").arg("simd");
            }
            Some(BackendKind::Rayon) | None => {}
        }
        if let Some(t) = o.threads {
            cmd.arg("--threads").arg(t.to_string());
        }
        if o.kill_shard == Some(i) {
            cmd.arg("--die-after-hours")
                .arg(o.kill_after_hours.to_string());
        }
        if let Some(spec) = &o.fault {
            cmd.arg("--fault").arg(spec);
        }
        // Per-shard observability artifacts land next to the frontend's,
        // at the `trace.json` + `shard-0` -> `trace.shard-0.json` paths
        // that `airshed trace-merge` auto-discovers.
        if let Some(path) = &o.trace_out {
            cmd.arg("--trace-out")
                .arg(dist::sharded_path(path, &format!("shard-{i}")));
        }
        if let Some(path) = &o.metrics_out {
            cmd.arg("--metrics-out")
                .arg(dist::sharded_path(path, &format!("shard-{i}")));
        }
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
        std::fs::write(path, fingerprint_lines(&outcome.reports, &scenarios))
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

fn fmt_bytes(b: u64) -> String {
    if b >= 10_000_000 {
        format!("{:.1} MB", b as f64 / 1.0e6)
    } else {
        format!("{:.1} KB", b as f64 / 1.0e3)
    }
}

fn cmd_ensemble(o: &Options, obs: &Obs) -> Result<(), String> {
    let p = o.nodes[0];
    let base = config(o, p);
    let run_exec = exec(o);
    let (lo, hi) = o.scale_range;
    let n = o.members;
    let scales: Vec<f64> = (0..n)
        .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
        .collect();
    let mut job = EnsembleJob::new(base.clone());
    for d in 0..o.days {
        for &s in &scales {
            // Members inherit the base weather so the sweep stays in
            // the regime the user asked for (--stagnation included).
            job.push(MemberSpec {
                emission_scale: s,
                weather: o.weather,
                day: d,
            });
        }
    }
    let dedup = !o.no_dedup;
    eprintln!(
        "running {}-member ensemble on {} ({}h from hour {}, {} input group{}, dedup {})...",
        job.len(),
        o.dataset.name(),
        o.hours,
        o.start_hour,
        job.input_groups().len(),
        if job.input_groups().len() == 1 {
            ""
        } else {
            "s"
        },
        if dedup { "on" } else { "off" },
    );
    let result = run_ensemble(&job, run_exec, obs, dedup);

    println!("member  perturbation                      total(s)  peak O3(ppb)  input stage");
    for (i, m) in result.members.iter().enumerate() {
        let stage = match m.report.dedup_saved_bytes {
            Some(0) => "ran it".to_string(),
            Some(b) => format!("shared, {} saved", fmt_bytes(b)),
            None => "standalone".to_string(),
        };
        println!(
            "{:>6}  {:<32}  {:>8.1}  {:>12.1}  {stage}",
            i,
            m.spec.describe(),
            m.report.total_seconds,
            1000.0 * m.report.peak_o3(),
        );
    }
    let d = &result.dedup;
    println!(
        "dedup: {} shared input-stage run(s) across {} group(s) for {} members; \
         {} member-hours deduped, {} and {:.3}s of input generation saved; \
         sweep wall {:.2}s",
        d.input_runs,
        d.groups,
        result.members.len(),
        d.input_hours_deduped,
        fmt_bytes(d.saved_bytes),
        d.saved_seconds,
        result.wall_seconds,
    );

    match ResponseSurface::from_ensemble(&result) {
        Ok(surface) => {
            let (slo, shi) = surface.range();
            println!(
                "surrogate: degree-{} response surface over {} members, {} cells, \
                 scales [{:.2}, {:.2}], max residual {:.3e} ppm",
                surface.degree(),
                surface.members(),
                surface.cells(),
                slo,
                shi,
                surface.error_bound(),
            );
            let nodes = surface.cells() / SURFACE_SPECIES.len();
            for &q in &o.queries {
                let answer = what_if(Some(&surface), &base, q, o.tolerance, run_exec, obs);
                let peak_o3 = 1000.0
                    * answer.field()[..nodes]
                        .iter()
                        .fold(0.0f64, |a, &v| a.max(v));
                match answer {
                    WhatIfOutcome::Surrogate { bound, .. } => println!(
                        "what-if x{q:<5}: surrogate hit   peak O3 {peak_o3:>6.1} ppb \
                         (bound {bound:.2e} <= tol {:.2e}, simulator not invoked)",
                        o.tolerance
                    ),
                    WhatIfOutcome::Exact { report, reason, .. } => println!(
                        "what-if x{q:<5}: exact fallback  peak O3 {peak_o3:>6.1} ppb \
                         ({}; simulated {:.1}s virtual)",
                        reason
                            .map(|r| r.to_string())
                            .unwrap_or_else(|| "no surface".to_string()),
                        report.total_seconds
                    ),
                }
            }
        }
        Err(e) => println!("surrogate: not fitted ({e}); what-if queries would run exact"),
    }
    Ok(())
}

fn cmd_shard(o: &Options, obs: &Obs) -> Result<(), String> {
    let connect = o
        .connect
        .clone()
        .ok_or_else(|| "shard needs --connect <front-end address>".to_string())?;
    let fault = match &o.fault {
        Some(spec) => FaultPlan::parse(spec)?,
        None => FaultPlan::none(),
    };
    run_shard(
        ShardOptions {
            connect,
            name: o.shard_name.clone().unwrap_or_else(|| "shard".to_string()),
            workers: o.workers,
            exec: exec(o),
            heartbeat_ms: o.heartbeat_ms,
            die_after_hours: o.die_after_hours,
            drop_after_hours: None,
            fault,
        },
        obs,
    )
}

/// Recover the shard label a `sharded_path` name encodes:
/// `runs/trace.shard-0.json` -> `shard-0`. Falls back to the file stem
/// for paths outside the convention.
fn merge_label(path: &str) -> String {
    let file = path.rsplit('/').next().unwrap_or(path);
    let stem = file.rsplit_once('.').map_or(file, |(s, _)| s);
    stem.rsplit_once('.').map_or(stem, |(_, l)| l).to_string()
}

fn cmd_trace_merge(o: &Options) -> Result<(), String> {
    let front_path = o
        .frontend_trace
        .clone()
        .ok_or_else(|| "trace-merge needs --frontend <frontend trace.json>".to_string())?;
    let front_text =
        std::fs::read_to_string(&front_path).map_err(|e| format!("reading {front_path}: {e}"))?;
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
            let path = dist::sharded_path(&front_path, label);
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
        .unwrap_or_else(|| dist::sharded_path(&front_path, "merged"));
    std::fs::write(&out, merged).map_err(|e| format!("writing {out}: {e}"))?;
    eprintln!("wrote {out} ({} process traces merged)", docs.len());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
        return ExitCode::FAILURE;
    };
    // `--help` anywhere on the line wins, before option parsing: the
    // conventional escape hatch (`airshed validate --help`).
    if args.iter().any(|a| matches!(a.as_str(), "--help" | "-h")) || cmd == "help" {
        usage();
        return ExitCode::SUCCESS;
    }
    let opts = match parse(&args[1..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // One span sink for the whole invocation, shared by every layer the
    // command touches; spans cost nothing when neither export is asked for.
    let sink =
        (opts.trace_out.is_some() || opts.metrics_out.is_some()).then(|| Arc::new(SpanSink::new()));
    let obs = match &sink {
        Some(sink) => Obs::new(Arc::clone(sink) as Arc<dyn Collector>),
        None => Obs::off(),
    };
    match cmd.as_str() {
        "run" => cmd_run(&opts, &obs),
        "gridinfo" => cmd_gridinfo(&opts, &obs),
        "sweep" => cmd_sweep(&opts, &obs),
        "predict" => cmd_predict(&opts, &obs),
        "plan" => cmd_plan(&opts, &obs),
        "validate" => {
            if let Err(e) = cmd_validate(&opts, &obs) {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
        "popexp" => cmd_popexp(&opts, &obs),
        "ensemble" => {
            if let Err(e) = cmd_ensemble(&opts, &obs) {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
        "serve-batch" => {
            if let Err(e) = cmd_serve_batch(&opts, &obs) {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
        "fabric" => {
            if let Err(e) = cmd_fabric(&opts, &obs) {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
        "shard" => {
            if let Err(e) = cmd_shard(&opts, &obs) {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
        "trace-merge" => {
            if let Err(e) = cmd_trace_merge(&opts) {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
        other => {
            eprintln!("error: unknown command '{other}'");
            usage();
            return ExitCode::FAILURE;
        }
    }
    if let Some(sink) = sink {
        // Shard processes namespace their pids/tids by shard name so
        // the merged timeline never collides tracks across processes.
        let trace = if cmd == "shard" {
            let name = opts.shard_name.as_deref().unwrap_or("shard");
            sink.chrome_trace_namespaced(dist::pid_base(name), name)
        } else {
            sink.chrome_trace()
        };
        let exports = [
            (opts.trace_out.as_deref(), trace),
            (opts.metrics_out.as_deref(), sink.prometheus()),
        ];
        for (path, text) in exports {
            let Some(path) = path else { continue };
            if let Err(e) = std::fs::write(path, text) {
                eprintln!("error: writing {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {path}");
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_defaults() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.nodes, vec![16]);
        assert_eq!(o.hours, 6);
        assert!(!o.cyclic);
    }

    #[test]
    fn parse_full_option_set() {
        let o = parse(&args(
            "--dataset tiny:99 --machine paragon --nodes 4,8,16 --hours 12 --start 5 --emis 0.5 --stagnation --cyclic --taskpar --no-map",
        ))
        .unwrap();
        assert_eq!(o.weather, Weather::Stagnation);
        assert_eq!(o.dataset, DatasetChoice::Tiny(99));
        assert_eq!(o.machine.name, "Intel Paragon");
        assert_eq!(o.nodes, vec![4, 8, 16]);
        assert_eq!(o.hours, 12);
        assert_eq!(o.start_hour, 5);
        assert_eq!(o.emission_scale, 0.5);
        assert!(o.cyclic && o.taskpar && !o.map);
        assert!(!o.optimize);
    }

    #[test]
    fn parse_optimize_flag() {
        assert!(!parse(&[]).unwrap().optimize);
        assert!(parse(&args("--optimize")).unwrap().optimize);
    }

    #[test]
    fn parse_dataset_names() {
        assert_eq!(
            parse(&args("--dataset la")).unwrap().dataset,
            DatasetChoice::LosAngeles
        );
        assert_eq!(
            parse(&args("--dataset ne")).unwrap().dataset,
            DatasetChoice::NorthEast
        );
    }

    #[test]
    fn parse_serve_batch_options() {
        let o = parse(&args(
            "--workers 8 --clients 16 --queue-cap 4 --budget 2e4 --scenarios batch.txt",
        ))
        .unwrap();
        assert_eq!(o.workers, 8);
        assert_eq!(o.clients, 16);
        assert_eq!(o.queue_cap, 4);
        assert_eq!(o.budget, Some(2e4));
        assert_eq!(o.scenarios.as_deref(), Some("batch.txt"));
        assert!(parse(&args("--workers 0")).is_err());
        assert!(parse(&args("--clients 0")).is_err());
        assert!(parse(&args("--queue-cap 0")).is_err());
        assert!(parse(&args("--budget -3")).is_err());
    }

    #[test]
    fn demo_batch_has_duplicates_and_a_monster_under_budget() {
        let o = parse(&args("--budget 100")).unwrap();
        let scenarios = demo_scenarios(&o);
        assert_eq!(scenarios.len(), 33);
        assert_eq!(scenarios.last().unwrap().config.hours, 10_000);
        // Duplicate (policy, placement) pairs so caches have work to reuse.
        assert_eq!(
            scenarios[0].config.emission_scale,
            scenarios[16].config.emission_scale
        );
        assert_eq!(scenarios[0].config.p, scenarios[16].config.p);
        let no_budget = demo_scenarios(&parse(&[]).unwrap());
        assert_eq!(no_budget.len(), 32);
    }

    #[test]
    fn parse_observability_options() {
        let o = parse(&args("--trace-out trace.json --metrics-out metrics.prom")).unwrap();
        assert_eq!(o.trace_out.as_deref(), Some("trace.json"));
        assert_eq!(o.metrics_out.as_deref(), Some("metrics.prom"));
        let o = parse(&[]).unwrap();
        assert!(o.trace_out.is_none() && o.metrics_out.is_none());
        assert!(parse(&args("--trace-out")).is_err());
        assert!(parse(&args("--metrics-out")).is_err());
    }

    #[test]
    fn parse_trace_merge_options() {
        let o = parse(&args(
            "--frontend fab.json --shard-trace fab.shard-0.json --shard-trace fab.shard-1.json --out merged.json",
        ))
        .unwrap();
        assert_eq!(o.frontend_trace.as_deref(), Some("fab.json"));
        assert_eq!(o.shard_traces, vec!["fab.shard-0.json", "fab.shard-1.json"]);
        assert_eq!(o.out.as_deref(), Some("merged.json"));
        assert!(parse(&[]).unwrap().frontend_trace.is_none());
        assert!(parse(&args("--frontend")).is_err());
        // Labels recover from the sharded-path convention.
        assert_eq!(merge_label("runs/fab.shard-3.json"), "shard-3");
        assert_eq!(merge_label("fab.json"), "fab");
        assert_eq!(merge_label("noext"), "noext");
    }

    #[test]
    fn parse_validate_options() {
        let o = parse(&args("--grid la --nodes 4,16,64 --json v.json")).unwrap();
        assert_eq!(o.dataset, DatasetChoice::LosAngeles);
        assert_eq!(o.nodes, vec![4, 16, 64]);
        assert_eq!(o.json_out.as_deref(), Some("v.json"));
        // --grid is a strict alias for --dataset.
        assert_eq!(
            parse(&args("--grid tiny:33")).unwrap().dataset,
            parse(&args("--dataset tiny:33")).unwrap().dataset
        );
        assert!(parse(&args("--grid venus")).is_err());
        assert!(parse(&args("--json")).is_err());
    }

    #[test]
    fn parse_backend_options() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.backend, None);
        assert_eq!(exec(&o).kind, BackendKind::Rayon);
        let o = parse(&args("--backend serial")).unwrap();
        assert_eq!(exec(&o), ExecSpec::serial());
        let o = parse(&args("--backend rayon --threads 4")).unwrap();
        assert_eq!(exec(&o), ExecSpec::rayon(4));
        let o = parse(&args("--backend simd --threads 2")).unwrap();
        assert_eq!(exec(&o), ExecSpec::simd(2));
        let o = parse(&args("--backend simd")).unwrap();
        assert_eq!(exec(&o).kind, BackendKind::Simd);
        assert!(exec(&o).threads >= 1);
        assert!(parse(&args("--backend omp")).is_err());
        assert!(parse(&args("--threads 0")).is_err());
    }

    #[test]
    fn parse_fabric_options() {
        let o = parse(&args(
            "--shards 3 --expect 2 --listen 127.0.0.1:7700 --jobs 8 --kill-shard 1 \
             --kill-after-hours 2 --hb-timeout-ms 500 --out fp.txt --local",
        ))
        .unwrap();
        assert_eq!(o.shards, 3);
        assert_eq!(o.expect, Some(2));
        assert_eq!(o.listen, "127.0.0.1:7700");
        assert_eq!(o.jobs, 8);
        assert_eq!(o.kill_shard, Some(1));
        assert_eq!(o.kill_after_hours, 2);
        assert_eq!(o.hb_timeout_ms, 500);
        assert_eq!(o.out.as_deref(), Some("fp.txt"));
        assert!(o.local);
        assert!(parse(&args("--shards 0")).is_err());
        assert!(parse(&args("--jobs 0")).is_err());
        assert!(parse(&args("--kill-after-hours 0")).is_err());
        assert!(parse(&args("--hb-timeout-ms 0")).is_err());
    }

    #[test]
    fn parse_shard_options() {
        let o = parse(&args(
            "--connect 127.0.0.1:7700 --name s0 --workers 2 --heartbeat-ms 100 \
             --die-after-hours 4 --fault drop:3,truncate:5:2",
        ))
        .unwrap();
        assert_eq!(o.connect.as_deref(), Some("127.0.0.1:7700"));
        assert_eq!(o.shard_name.as_deref(), Some("s0"));
        assert_eq!(o.heartbeat_ms, 100);
        assert_eq!(o.die_after_hours, Some(4));
        assert_eq!(o.fault.as_deref(), Some("drop:3,truncate:5:2"));
        // Fault specs are validated at parse time, not at shard start.
        assert!(parse(&args("--fault explode:9")).is_err());
        assert!(parse(&args("--die-after-hours 0")).is_err());
        assert!(parse(&args("--heartbeat-ms 0")).is_err());
    }

    #[test]
    fn fabric_batch_is_deterministic_with_multiple_families() {
        let o = parse(&args("--jobs 16 --hours 3")).unwrap();
        let a = fabric_scenarios(&o);
        let b = fabric_scenarios(&o);
        assert_eq!(a.len(), 16);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.describe(), y.describe());
        }
        use airshed::server::cache::NumericsKey;
        let families: std::collections::HashSet<_> = a
            .iter()
            .map(|s| NumericsKey::of(&s.config).family())
            .collect();
        assert_eq!(families.len(), 4, "four emission-scale families");
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(parse(&args("--dataset venus")).is_err());
        assert!(parse(&args("--machine sp2")).is_err());
        assert!(parse(&args("--nodes 0")).is_err());
        assert!(parse(&args("--nodes")).is_err());
        assert!(parse(&args("--start 99")).is_err());
        assert!(parse(&args("--emis -1")).is_err());
        assert!(parse(&args("--frobnicate")).is_err());
    }
}
