//! The front-end process: the socket driver of the [`Router`], the
//! front-end's one state machine.
//!
//! [`serve_batch`] is the IO: accept shards and read their `Hello`s, one
//! reader thread per shard funnelling decoded messages into an mpsc
//! channel, the writes, the deadline and the trace marks. Every decision
//! is the router's: each event goes to [`Router::step`], whose
//! [`Step`](crate::router::Step) says what to write. A failed write or a
//! closed reader both become [`Event::Gone`] — the router treats them
//! identically to a heartbeat timeout.

use crate::proto::{self, Msg};
use crate::router::{Event, FabricOutcome, Router, RouterConfig};
use airshed_core::codec::{intern, WireError};
use airshed_core::config::SimConfig;
use airshed_core::driver::ChemLayout;
use airshed_core::obs::dist::CLOCK_OFFSET_TRACK;
use airshed_core::Obs;
use std::collections::VecDeque;
use std::io::{ErrorKind, Write};
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

/// Serve one batch of scenarios over `listener`: wait for
/// `opts.expect` shards to connect and say `Hello`, route every
/// scenario, and run the event loop until each job reaches a terminal
/// state. Returns an error only when the batch cannot finish (all
/// shards lost, or the deadline expires). The deadline runs from entry,
/// so it bounds the wait for the fleet too.
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
    let deadline = opts.deadline.map(|d| Instant::now() + d);
    let mut router = Router::new(opts.router, opts.expect, scenarios);
    let (tx, rx) = mpsc::channel::<Event>();
    let mut writers: Vec<Option<TcpStream>> = Vec::new();
    let mut readers = Vec::new();
    let recv_us = || obs.enabled().then(|| obs.us_since_epoch(Instant::now()));
    let mut events = VecDeque::new();

    // Phase 1: collect the fleet. Shards introduce themselves with a
    // Hello frame carrying their name and worker count.
    listener
        .set_nonblocking(deadline.is_some())
        .map_err(|e| format!("listener: {e}"))?;
    for shard in 0..opts.expect {
        let (stream, addr) = loop {
            match listener.accept() {
                Ok(accepted) => break accepted,
                Err(e) if e.kind() != ErrorKind::WouldBlock => {
                    return Err(format!("accept failed: {e}"))
                }
                Err(_) if deadline.is_some_and(|d| Instant::now() >= d) => {
                    return Err(format!(
                        "fabric deadline expired with {shard} of {} shards connected",
                        opts.expect
                    ))
                }
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        };
        stream.set_nonblocking(false).ok();
        stream.set_nodelay(true).ok();
        let mut reader = stream
            .try_clone()
            .map_err(|e| format!("clone failed: {e}"))?;
        // Bounded, so a peer that connects and stalls cannot hang it.
        reader.set_read_timeout(opts.deadline).ok();
        let hello = proto::recv(&mut reader).map_err(|e| format!("bad hello from {addr}: {e}"))?;
        reader.set_read_timeout(None).ok();
        if !matches!(hello, Msg::Hello { .. }) {
            return Err(format!(
                "expected Hello from {addr}, got tag {}",
                hello.tag()
            ));
        }
        events.push_back((Event::Msg(shard, hello), recv_us()));
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

    // Phase 2: the Hellos submit the batch; step until every job is
    // terminal. The batch clock starts here, so the fleet starts live.
    let epoch = Instant::now();
    let served = loop {
        if router.is_done() {
            break Ok(());
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break Err(format!(
                "fabric deadline expired with {} jobs outstanding",
                router.outstanding()
            ));
        }
        let (event, recv) = events.pop_front().unwrap_or_else(|| {
            let event = rx
                .recv_timeout(Duration::from_millis(20))
                .unwrap_or(Event::Tick);
            (event, recv_us())
        });
        let step = match router.step(event, epoch.elapsed().as_millis() as u64, recv) {
            Ok(step) => step,
            Err(lost) => break Err(lost.to_string()),
        };
        step.trace(obs, &router, epoch, Instant::now());
        for (shard, msg) in step.frames {
            let sent = writers[shard]
                .as_mut()
                .is_some_and(|w| proto::send(w, &msg).is_ok());
            if !sent {
                writers[shard] = None;
                events.push_back((Event::Gone(shard), None));
            }
        }
    };
    shutdown(&mut writers, &mut readers);
    served?;

    if obs.enabled() {
        // Persist the per-shard clock offsets as a counter track so the
        // trace stitcher can place every process on this timeline from
        // the frontend trace alone.
        let ts = obs.us_since_epoch(Instant::now());
        for (name, offset) in router.clock_offsets() {
            // The peer chose this name in its Hello: interned, a
            // long-lived frontend keeps one copy per name, and a name
            // the bounded table refuses goes without a counter.
            if let Ok(name) = intern(name) {
                obs.record_counter(name, CLOCK_OFFSET_TRACK, ts, offset, None);
            }
        }
    }
    let outcome = router.into_outcome();
    obs.publish("fabric-metrics", outcome.prometheus.clone());
    obs.flush();
    Ok(outcome)
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
    use airshed_core::obs::{SpanSink, Track};
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

    /// A peer that connects and sends 3 bytes of a Hello is refused
    /// within the deadline, with the typed error.
    #[test]
    fn a_stalled_hello_is_refused_within_the_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        peer.write_all(b"AF\x01").unwrap();
        let opts = FrontendOptions {
            expect: 1,
            deadline: Some(Duration::from_millis(200)),
            ..FrontendOptions::default()
        };
        let (done, outcome) = mpsc::channel();
        std::thread::spawn(move || {
            let served = serve_batch(&listener, opts, &[], &Obs::off());
            let _ = done.send(served.err());
        });
        let refused = outcome.recv_timeout(Duration::from_secs(30));
        let message = refused.expect("serve_batch hangs on a stalled Hello");
        let message = message.expect("a stalled Hello is an error");
        assert!(message.starts_with("bad hello from"), "{message}");
        drop(peer);
    }

    /// A fleet of two where only one shard ever connects is refused
    /// within the deadline, naming how many connected.
    #[test]
    fn a_missing_shard_is_refused_within_the_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let hello = Msg::Hello {
            name: "lonely".to_string(),
            workers: 1,
            sent_us: 1,
        };
        proto::send(&mut peer, &hello).unwrap();
        let opts = FrontendOptions {
            expect: 2,
            deadline: Some(Duration::from_millis(200)),
            ..FrontendOptions::default()
        };
        let (done, outcome) = mpsc::channel();
        std::thread::spawn(move || {
            let served = serve_batch(&listener, opts, &[], &Obs::off());
            let _ = done.send(served.err());
        });
        let refused = outcome.recv_timeout(Duration::from_secs(30));
        let message = refused.expect("serve_batch hangs waiting for the second shard");
        let message = message.expect("a missing shard is an error");
        assert_eq!(
            message,
            "fabric deadline expired with 1 of 2 shards connected"
        );
        drop(peer);
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
