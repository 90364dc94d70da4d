//! `fabric_families` — cold numerics behind the wire, with family
//! structure. A unit is one `serve_batch` over loopback TCP to two fresh
//! in-process `run_shard` threads (`workers = max(1, T/2)` each, serial
//! exec, no faults): 12 jobs = 4 families × 3 placements, in an order the
//! seed shuffles. Router, `wire`/`proto`, shard workers and per-hour
//! checkpoint streaming all work; shards have no profile cache, so this
//! is where cache-affinity routing can show and `server_replay` cannot.
//!
//! Set-up runs the same batch through a local `ScenarioServer` for the
//! reference fingerprints and the local wall.

use crate::harness::{
    setup_s, time_lower_quartile, Checks, Ctx, Kind, Layers, Metric, Outcome, Roles,
    TracedVsUntraced,
};
use crate::inputs;
use crate::probe::HostSpeed;
use crate::stats::percentile;
use crate::trace::Tracer;
use airshed::core::checkpoint::Checkpoint;
use airshed::core::config::{DatasetChoice, SimConfig};
use airshed::core::driver::ChemLayout;
use airshed::core::obs::dist::TraceContext;
use airshed::core::obs::SpanSink;
use airshed::core::report::LatencyAnatomy;
use airshed::core::state::SimState;
use airshed::core::{ExecSpec, Obs};
use airshed::fabric::wire::{read_frame, write_frame};
use airshed::fabric::{
    report_fingerprint, run_shard, serve_batch, FabricOutcome, FrontendOptions, Msg, RouterConfig,
    ShardOptions,
};
use airshed::server::{ScenarioRequest, ScenarioServer, ServerConfig};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 2;

/// The batch and what a local server made of it.
struct Reference {
    batch: Vec<(SimConfig, ChemLayout)>,
    fingerprints: Vec<String>,
    local_wall_s: f64,
}

fn set_up(ctx: &Ctx, checks: &mut Checks) -> Reference {
    let batch = inputs::fabric_batch(ctx.seed);
    let server = ScenarioServer::start(ServerConfig {
        workers: ctx.threads,
        exec: ExecSpec::serial(),
        ..ServerConfig::default()
    });
    let start = Instant::now();
    let handles: Vec<_> = batch
        .iter()
        .map(|(config, layout)| {
            let mut request = ScenarioRequest::new(config.clone());
            request.layout = *layout;
            server.submit(request).into_handle()
        })
        .collect();
    checks.attempt(handles.len() as u64);
    let mut fingerprints = Vec::with_capacity(batch.len());
    for (i, handle) in handles.iter().enumerate() {
        match handle.as_ref().map(|h| h.wait()) {
            Some(Ok(report)) => fingerprints.push(report_fingerprint(&report)),
            _ => {
                checks.fail(Kind::Operation, || {
                    format!("local reference job {i} did not complete")
                });
                fingerprints.push(String::new());
            }
        }
    }
    let local_wall_s = start.elapsed().as_secs_f64();
    server.shutdown();
    Reference {
        batch,
        fingerprints,
        local_wall_s,
    }
}

/// One unit: bind, start the shards, serve `scenarios`, join the shards.
/// The wall covers bind to `serve_batch` returning (accept and `Hello`
/// included).
fn serve(
    ctx: &Ctx,
    scenarios: &[(SimConfig, ChemLayout)],
    obs: &Obs,
) -> Result<(FabricOutcome, f64), String> {
    let start = Instant::now();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let connect = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?
        .to_string();
    std::thread::scope(|scope| {
        let shards: Vec<_> = (0..SHARDS)
            .map(|i| {
                let options = ShardOptions {
                    connect: connect.clone(),
                    name: format!("shard-{i}"),
                    workers: (ctx.threads / SHARDS).max(1),
                    exec: ExecSpec::serial(),
                    // Short beats: a shard's exit waits out one period.
                    heartbeat_ms: 50,
                    ..ShardOptions::default()
                };
                scope.spawn(move || run_shard(options, obs))
            })
            .collect();
        let options = FrontendOptions {
            expect: SHARDS,
            deadline: Some(Duration::from_secs(120)),
            // No shard is ever lost here, so a heartbeat a starved vCPU
            // delays must not be taken for one: the fault paths have
            // their own tests and no metric.
            router: RouterConfig {
                heartbeat_timeout_ms: 60_000,
            },
        };
        let served = serve_batch(&listener, options, scenarios, obs);
        let wall_s = start.elapsed().as_secs_f64();
        for shard in shards {
            shard
                .join()
                .map_err(|_| "shard thread panicked".to_string())?
                .map_err(|e| format!("shard: {e}"))?;
        }
        served.map(|outcome| (outcome, wall_s))
    })
}

fn anatomies(outcome: &FabricOutcome) -> Vec<LatencyAnatomy> {
    outcome
        .reports
        .iter()
        .filter_map(|(_, r)| r.anatomy)
        .collect()
}

impl Reference {
    /// Serve the batch once and check what came back. Returns the
    /// outcome and the unit wall.
    fn run_unit(
        &self,
        ctx: &Ctx,
        unit: usize,
        obs: &Obs,
        checks: &mut Checks,
    ) -> Option<(FabricOutcome, f64)> {
        checks.attempt(self.batch.len() as u64);
        let (outcome, wall_s) = match serve(ctx, &self.batch, obs) {
            Ok(served) => served,
            Err(e) => {
                checks.fail(Kind::Operation, || format!("unit {unit}: {e}"));
                return None;
            }
        };
        for (i, message) in &outcome.failures {
            checks.fail(Kind::Operation, || {
                format!("unit {unit} job {i}: {message}")
            });
        }
        checks.require(
            Kind::Count,
            outcome.reports.len() == self.batch.len(),
            || {
                format!(
                    "unit {unit}: {} of {} reports",
                    outcome.reports.len(),
                    self.batch.len()
                )
            },
        );
        for (i, report) in &outcome.reports {
            checks.same_fingerprint(
                &format!("unit {unit} job {i}"),
                &report_fingerprint(report),
                &self.fingerprints[*i],
            );
        }
        let routed: u64 = outcome.shards.iter().map(|(_, c)| c.routed).sum();
        checks.require(Kind::Count, routed == self.batch.len() as u64, || {
            format!("unit {unit}: {routed} jobs routed")
        });
        Some((outcome, wall_s))
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut checks = Checks::in_suite(ctx.workload);
    let mut host = HostSpeed::new(ctx.threads);
    let (reference, _) = host.around(|| set_up(ctx, &mut checks));
    let setup_s = setup_s(ctx, &host);

    let (mut batches, mut p50s, mut slowest) = (Vec::new(), Vec::new(), Vec::new());
    crate::harness::run_rounds(ctx.seconds, |round| {
        let (served, paced) =
            host.around(|| reference.run_unit(ctx, round, &Obs::off(), &mut checks));
        let Some((outcome, wall_s)) = served else {
            return;
        };
        batches.push(paced.of(wall_s));
        let latencies: Vec<f64> = anatomies(&outcome)
            .iter()
            .map(|a| a.end_to_end_ms as f64 / 1e3)
            .collect();
        if !latencies.is_empty() {
            p50s.push(paced.of(percentile(&latencies, 0.5)));
            slowest.push(paced.of(percentile(&latencies, 1.0)));
        }
    });
    let jobs = reference.batch.len() as f64;

    Outcome {
        setup_s,
        host,
        metrics: vec![
            Metric::rate_paced("batch_jobs_per_s", "1/s", &batches, jobs),
            Metric::time_paced("job_latency_p50_s", "s", &p50s, 1.0),
            Metric::time_paced("job_latency_max_s", "s", &slowest, 1.0),
        ],
        roles: Roles {
            rate: "batch_jobs_per_s",
            primary: ("job_latency_p50_s", 1.0),
            contrast: ("job_latency_max_s", 1.0),
        },
        checks,
    }
}

/// The traced pass: one batch with the wire stamps on (an enabled `Obs`
/// handle is what makes shards stamp `sent_us`, which the router's
/// latency anatomy needs for its wire segments; its spans are not read),
/// one plain batch, an empty batch for the connect cost, and the codecs
/// on their own.
pub fn layers(
    ctx: &Ctx,
    tr: &mut Tracer,
    out: &mut Layers,
    checks: &mut Checks,
) -> TracedVsUntraced {
    let reference = set_up(ctx, checks);
    let stamped = Obs::new(Arc::new(SpanSink::new()));
    let traced = tr.span("fabric.serve_batch", 0, |_| {
        reference.run_unit(ctx, 0, &stamped, checks)
    });
    let untraced = reference.run_unit(ctx, 1, &Obs::off(), checks);
    let connect = tr.span("fabric.connect", 2, |_| serve(ctx, &[], &Obs::off()));
    checks.attempt(1);
    match connect {
        Ok((_, wall_s)) => out.set("fabric.frontend.connect_ms", wall_s * 1e3),
        Err(e) => checks.fail(Kind::Operation, || format!("empty batch: {e}")),
    }

    let mut walls = TracedVsUntraced {
        traced_s: 0.0,
        untraced_s: untraced.as_ref().map_or(0.0, |(_, wall_s)| *wall_s),
    };
    if let Some((outcome, wall_s)) = traced {
        walls.traced_s = wall_s;
        let anatomy = anatomies(&outcome);
        let total_us: f64 = anatomy.iter().map(|a| a.end_to_end_ms as f64 * 1e3).sum();
        let share = |segment: fn(&LatencyAnatomy) -> f64| -> f64 {
            anatomy.iter().map(segment).sum::<f64>() / total_us
        };
        let queued = share(|a| a.queued_ms as f64 * 1e3);
        let exec = share(|a| a.exec_us as f64);
        let wire = share(|a| a.wire_us as f64);
        let reply = share(|a| a.reply_us as f64);
        out.set("fabric.anatomy.queued_frac", queued);
        out.set("fabric.anatomy.exec_frac", exec);
        out.set("fabric.anatomy.wire_frac", wire);
        out.set("fabric.anatomy.reply_frac", reply);
        out.set(
            "fabric.anatomy.unattributed_frac",
            1.0 - queued - exec - wire - reply,
        );
        out.set(
            "fabric.exec_s_per_job",
            anatomy.iter().map(|a| a.exec_us as f64 / 1e6).sum::<f64>()
                / anatomy.len().max(1) as f64,
        );
        out.set("fabric.vs_local_ratio", wall_s / reference.local_wall_s);
        let routed: Vec<f64> = outcome
            .shards
            .iter()
            .map(|(_, c)| c.routed as f64)
            .collect();
        let mean = routed.iter().sum::<f64>() / routed.len() as f64;
        out.set(
            "fabric.router.routed_imbalance",
            routed.iter().cloned().fold(0.0, f64::max) / mean,
        );
        out.set(
            "fabric.router.stolen",
            outcome.shards.iter().map(|(_, c)| c.stolen as f64).sum(),
        );
        if let Some((_, report)) = outcome.reports.first() {
            codecs(report.clone(), out, checks);
        }
    }
    walls
}

/// `core::checkpoint`, `fabric::proto` and `fabric::wire` one call at a
/// time: a `tiny:60` state, a real `Completed`, a 1 MiB frame.
fn codecs(report: airshed::core::RunReport, out: &mut Layers, checks: &mut Checks) {
    let checkpoint = Checkpoint {
        next_hour: 9,
        state: SimState::from_background(&DatasetChoice::Tiny(60).build()),
    };
    let bytes = checkpoint.encode();
    out.set("core.checkpoint.bytes", bytes.len() as f64);
    out.set(
        "core.checkpoint.encode_ms",
        time_lower_quartile(25, || checkpoint.encode()) * 1e3,
    );
    out.set(
        "core.checkpoint.decode_ms",
        time_lower_quartile(25, || Checkpoint::decode(&bytes).map(|c| c.next_hour)) * 1e3,
    );

    let completed = Msg::Completed {
        job: 1,
        ctx: TraceContext::for_job(1),
        sent_us: 0,
        report: Box::new(report),
    };
    let payload = completed.encode();
    out.set("fabric.proto.completed_bytes", payload.len() as f64);
    out.set(
        "fabric.proto.encode_us",
        time_lower_quartile(25, || completed.encode()) * 1e6,
    );
    out.set(
        "fabric.proto.decode_us",
        time_lower_quartile(25, || Msg::decode(completed.tag(), &payload).is_ok()) * 1e6,
    );
    checks.attempt(1);
    checks.require(
        Kind::Output,
        Msg::decode(completed.tag(), &payload).is_ok(),
        || "a Completed message does not decode".to_string(),
    );

    let frame = vec![0x5au8; 1 << 20];
    let mut buffer = Vec::with_capacity(frame.len() + 16);
    let frame_s = time_lower_quartile(25, || {
        buffer.clear();
        write_frame(&mut buffer, 7, &frame).expect("write to memory");
        read_frame(&mut buffer.as_slice()).map(|(_, payload)| payload.len())
    });
    out.set(
        "fabric.wire.frame_mb_per_s",
        frame.len() as f64 / 1e6 / frame_s,
    );
}
