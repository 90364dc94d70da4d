//! The front-end process: accept shard connections, drive the
//! [`Router`], and shuffle frames.
//!
//! All policy lives in the router; this module only does IO. One reader
//! thread per shard funnels decoded messages into an mpsc channel; the
//! main loop multiplexes those events with periodic [`Router::poll`]
//! calls (which is where heartbeat timeouts and re-dispatch happen) and
//! writes the resulting `Assign`/`Shutdown` frames. A failed write or a
//! closed reader both collapse to [`Router::on_disconnect`] — the
//! router treats them identically to a heartbeat timeout.

use crate::proto::{self, Msg};
use crate::router::{Router, RouterConfig, ShardCounters};
use airshed_core::codec::{intern, WireError};
use airshed_core::config::SimConfig;
use airshed_core::driver::ChemLayout;
use airshed_core::obs::dist::CLOCK_OFFSET_TRACK;
use airshed_core::obs::Track;
use airshed_core::Obs;
use airshed_core::RunReport;
use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Front-end tuning.
#[derive(Debug, Clone, Copy)]
pub struct FrontendOptions {
    /// Number of shard connections to wait for before serving.
    pub expect: usize,
    pub router: RouterConfig,
    /// Overall wall-clock budget for the batch.
    pub deadline: Option<Duration>,
}

impl Default for FrontendOptions {
    fn default() -> FrontendOptions {
        FrontendOptions {
            expect: 2,
            router: RouterConfig::default(),
            deadline: Some(Duration::from_secs(600)),
        }
    }
}

/// What a batch produced.
pub struct FabricOutcome {
    /// `(scenario index, report)` for every job that completed.
    pub reports: Vec<(usize, RunReport)>,
    /// `(scenario index, error)` for every job that terminally failed.
    pub failures: Vec<(usize, String)>,
    /// Per-shard `(name, counters)` in connection order.
    pub shards: Vec<(String, ShardCounters)>,
    /// Fabric metrics in Prometheus exposition format.
    pub prometheus: String,
}

enum Event {
    Msg(usize, Msg),
    Gone(usize),
}

/// Serve one batch of scenarios over `listener`: wait for
/// `opts.expect` shards to connect and say `Hello`, route every
/// scenario, and run the event loop until each job reaches a terminal
/// state. Returns an error only when the batch cannot finish (all
/// shards lost, or the deadline expires).
///
/// The fabric metrics are published through `obs` under the
/// `fabric-metrics` section, so `--metrics-out` exports them alongside
/// the rest of the Prometheus surface.
pub fn serve_batch(
    listener: &TcpListener,
    opts: FrontendOptions,
    scenarios: &[(SimConfig, ChemLayout)],
    obs: &Obs,
) -> Result<FabricOutcome, String> {
    let mut router = Router::new(opts.router);
    let (tx, rx) = mpsc::channel::<Event>();
    let mut writers: Vec<Option<TcpStream>> = Vec::new();
    let mut readers = Vec::new();
    // Best clock-offset estimate per shard (µs this frontend's trace
    // clock is ahead of the shard's): min over `recv - sent` of every
    // Hello/Heartbeat sample — each is the true offset plus a one-way
    // wire delay, so the minimum is the tightest upper bound.
    let mut offsets: Vec<f64> = vec![f64::INFINITY; opts.expect];

    // Phase 1: collect the fleet. Shards introduce themselves with a
    // Hello frame carrying their name and worker count.
    for (i, offset) in offsets.iter_mut().enumerate() {
        let (stream, addr) = listener
            .accept()
            .map_err(|e| format!("accept failed: {e}"))?;
        stream.set_nodelay(true).ok();
        let mut reader = stream
            .try_clone()
            .map_err(|e| format!("clone failed: {e}"))?;
        let hello = proto::recv(&mut reader).map_err(|e| format!("bad hello from {addr}: {e}"))?;
        let Msg::Hello {
            name,
            workers,
            sent_us,
        } = hello
        else {
            return Err(format!(
                "expected Hello from {addr}, got tag {}",
                hello.tag()
            ));
        };
        if obs.enabled() && sent_us > 0 {
            *offset = obs.us_since_epoch(Instant::now()) - sent_us as f64;
        }
        let shard = router.add_shard(&name, workers as usize, 0);
        debug_assert_eq!(shard, i);
        let tx = tx.clone();
        readers.push(std::thread::spawn(move || loop {
            match proto::recv(&mut reader) {
                Ok(msg) => {
                    if tx.send(Event::Msg(shard, msg)).is_err() {
                        return;
                    }
                }
                Err(WireError::Closed) => {
                    let _ = tx.send(Event::Gone(shard));
                    return;
                }
                Err(e) => {
                    eprintln!("airshed-fabric: shard {shard} stream error: {e}");
                    let _ = tx.send(Event::Gone(shard));
                    return;
                }
            }
        }));
        writers.push(Some(stream));
    }
    drop(tx);

    // Phase 2: route everything, then run the event loop.
    for (i, (config, layout)) in scenarios.iter().enumerate() {
        router.submit(i, config.clone(), *layout);
    }

    let epoch = Instant::now();
    let deadline = opts.deadline.map(|d| epoch + d);
    let mut reports = Vec::new();
    let mut failures = Vec::new();

    while reports.len() + failures.len() < scenarios.len() {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            shutdown(&mut writers, &mut readers);
            return Err(format!(
                "fabric deadline expired with {} jobs outstanding",
                router.outstanding()
            ));
        }
        let now_ms = epoch.elapsed().as_millis() as u64;
        for (shard, msg) in router.poll(now_ms) {
            if obs.enabled() {
                if let Msg::Assign { job, ctx, .. } = &msg {
                    // A dispatch mark on the job's track: the stitcher
                    // draws the flow arrow from here to the shard-side
                    // execute span with the same trace_id.
                    let now = Instant::now();
                    obs.record_interval(
                        router.job_hop(*job),
                        Track::Job(*job as u32),
                        now,
                        now + Duration::from_micros(1),
                        None,
                        Some(("trace_id", ctx.trace_id as i64)),
                    );
                }
            }
            let ok = match writers[shard].as_mut() {
                Some(w) => proto::send(w, &msg).is_ok(),
                None => false,
            };
            if !ok {
                writers[shard] = None;
                router.on_disconnect(shard);
            }
        }
        if router.live_shards() == 0 && router.outstanding() > 0 {
            shutdown(&mut writers, &mut readers);
            return Err(format!(
                "all shards lost with {} jobs outstanding",
                router.outstanding()
            ));
        }
        // Block briefly for traffic, then drain whatever queued up.
        match rx.recv_timeout(Duration::from_millis(20)) {
            Ok(ev) => {
                let mut pending = vec![ev];
                while let Ok(ev) = rx.try_recv() {
                    pending.push(ev);
                }
                let now_ms = epoch.elapsed().as_millis() as u64;
                for ev in pending {
                    match ev {
                        Event::Msg(shard, msg) => {
                            if obs.enabled() {
                                observe_msg(obs, &mut router, &mut offsets, shard, &msg);
                            }
                            router.on_msg(shard, msg, now_ms);
                        }
                        Event::Gone(shard) => {
                            writers[shard] = None;
                            router.on_disconnect(shard);
                        }
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                // Every reader exited; the next live_shards() check
                // decides whether that is completion or catastrophe.
            }
        }
        // Only a shard's Completed or Failed finishes a job, so the
        // events just handled are the one place results come from.
        for (scenario, result) in router.take_finished() {
            finish_job_span(obs, epoch, scenario);
            match result {
                Ok(report) => reports.push((scenario, report)),
                Err(message) => failures.push((scenario, message)),
            }
        }
    }

    shutdown(&mut writers, &mut readers);
    if obs.enabled() {
        // Persist the per-shard clock offsets as a counter track so the
        // trace stitcher can place every process on this timeline from
        // the frontend trace alone.
        let ts = obs.us_since_epoch(Instant::now());
        for (s, &offset) in offsets.iter().enumerate().take(router.shard_count()) {
            if !offset.is_finite() {
                continue;
            }
            // The peer chose this name in its Hello: interned, a
            // long-lived frontend keeps one copy per name, and a name
            // the bounded table refuses goes without a counter.
            if let Ok(name) = intern(router.shard_name(s)) {
                obs.record_counter(name, CLOCK_OFFSET_TRACK, ts, offset, None);
            }
        }
    }
    let prometheus = router.prometheus();
    obs.publish("fabric-metrics", prometheus.clone());
    obs.flush();
    let shards = (0..router.shard_count())
        .map(|s| (router.shard_name(s).to_string(), router.counters(s)))
        .collect();
    reports.sort_by_key(|(i, _)| *i);
    failures.sort_by_key(|(i, _)| *i);
    Ok(FabricOutcome {
        reports,
        failures,
        shards,
        prometheus,
    })
}

/// Refine the shard's clock-offset estimate from heartbeat samples and
/// turn shard-stamped `sent_us` values into one-way wire times for the
/// router's latency anatomy. Must run *before* the message reaches
/// [`Router::on_msg`]: completion consumes the job record.
fn observe_msg(obs: &Obs, router: &mut Router, offsets: &mut [f64], shard: usize, msg: &Msg) {
    let recv_us = obs.us_since_epoch(Instant::now());
    match msg {
        Msg::Heartbeat { sent_us, .. } if *sent_us > 0 => {
            let sample = recv_us - *sent_us as f64;
            if sample < offsets[shard] {
                offsets[shard] = sample;
            }
        }
        Msg::Progress { job, sent_us, .. } | Msg::Completed { job, sent_us, .. }
            if *sent_us > 0 && offsets[shard].is_finite() =>
        {
            let wire = (recv_us - (*sent_us as f64 + offsets[shard])).max(0.0);
            router.note_wire(*job, wire as u64, matches!(msg, Msg::Completed { .. }));
        }
        _ => {}
    }
}

/// Close job `scenario`'s lifecycle span on the fabric-jobs track:
/// submit (the batch epoch — all jobs are submitted together) to the
/// moment its result drained. Tagged with the trace id every shard-side
/// span of this job carries.
fn finish_job_span(obs: &Obs, epoch: Instant, scenario: usize) {
    if obs.enabled() {
        obs.record_interval(
            "job",
            Track::Job(scenario as u32),
            epoch,
            Instant::now(),
            None,
            Some(("trace_id", scenario as i64 + 1)),
        );
    }
}

/// Tell live shards to exit, unblock their readers, and join them.
fn shutdown(writers: &mut [Option<TcpStream>], readers: &mut Vec<std::thread::JoinHandle<()>>) {
    for w in writers.iter_mut() {
        if let Some(stream) = w.as_mut() {
            let _ = proto::send(stream, &Msg::Shutdown);
            let _ = stream.flush();
            let _ = stream.shutdown(Shutdown::Both);
        }
        *w = None;
    }
    for handle in readers.drain(..) {
        let _ = handle.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airshed_core::obs::SpanSink;
    use std::sync::Arc;

    /// Serve an empty traced batch to stand-in shards that say a stamped
    /// Hello under `names` and then wait for the end; returns the names
    /// of the clock-offset counters the frontend recorded.
    fn clock_offset_names(names: &[&str]) -> Vec<&'static str> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shards: Vec<_> = names
            .iter()
            .map(|name| {
                let hello = Msg::Hello {
                    name: name.to_string(),
                    workers: 1,
                    sent_us: 1,
                };
                std::thread::spawn(move || {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    proto::send(&mut stream, &hello).unwrap();
                    while proto::recv(&mut stream).is_ok() {}
                })
            })
            .collect();
        let sink = Arc::new(SpanSink::new());
        let opts = FrontendOptions {
            expect: names.len(),
            ..FrontendOptions::default()
        };
        serve_batch(&listener, opts, &[], &Obs::new(sink.clone())).unwrap();
        for shard in shards {
            shard.join().unwrap();
        }
        sink.events()
            .into_iter()
            .filter(|e| e.track == Track::Counter(CLOCK_OFFSET_TRACK))
            .map(|e| e.name)
            .collect()
    }

    #[test]
    fn traced_batches_share_one_copy_of_each_shard_name() {
        let names = ["intern-a", "intern-b"];
        let first = clock_offset_names(&names);
        let second = clock_offset_names(&names);
        assert_eq!(first.len(), names.len());
        assert_eq!(second.len(), names.len());
        for name in &first {
            let again = second.iter().find(|n| *n == name).expect("same shards");
            assert!(
                std::ptr::eq(*name, *again),
                "{name}: a second traced batch made a second copy of the name"
            );
        }
    }
}
