//! # `obs` — the unified observability layer
//!
//! One span model for the three timing stories the repo used to tell
//! separately (the virtual machine's phase timeline, the server's
//! metrics registry, the backend run reports):
//!
//! * a [`SpanRecord`] is a named interval on a [`Track`] — wall-clock
//!   µs for real execution (driver hours, engine phases, pool tasks,
//!   server job lifecycle) or virtual-machine µs for each charged plan
//!   node (recorded from `plan::charge_hours`'s observer, the one source
//!   of a node's virtual `(start, end)`) and the pipeline schedule;
//! * a [`SpanSink`] receives spans (sharded, effectively per-thread
//!   buffers, flushed at hour boundaries);
//! * the [`Obs`] handle is what instrumented code carries: a sink or
//!   nothing. `Clone`, cheap, and **zero-cost when disabled** — every
//!   instrumentation site checks for the sink and skips even the
//!   `Instant::now()` calls, so a disabled run performs no atomic
//!   operations, no allocation, and no clock reads on behalf of
//!   tracing. Bit-identity of results is preserved by construction:
//!   spans only *observe* phase boundaries, they never reorder work.
//!
//! Exporters live outside the hot loop: [`SpanSink::chrome_trace`]
//! renders the Chrome trace-event JSON (loadable in Perfetto /
//! `about:tracing`) and [`SpanSink::prometheus`] renders a Prometheus
//! text-format snapshot, both from the flushed buffers after the run.
//!
//! ```
//! use airshed_core::obs::{Obs, SpanSink};
//! use std::sync::Arc;
//!
//! let sink = Arc::new(SpanSink::new());
//! let obs = Obs::new(sink.clone());
//! {
//!     let _hour = obs.span_hour("hour", 0);
//!     let _phase = obs.span_hour("transport", 0);
//! } // guards drop; spans are recorded
//! obs.flush();
//! let trace = sink.chrome_trace();
//! assert!(trace.contains("\"name\":\"transport\""));
//! ```

pub mod chrome;
pub mod dist;
pub mod metrics;
pub mod oracle;
pub mod prom;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Which horizontal track of the trace a span belongs to.
///
/// Tracks map 1:1 onto Chrome trace rows: one per execution lane (the
/// CLI driver is lane 0, server worker *k* is lane *k+1*), one per pool
/// worker thread under its lane, one per virtual-machine phase category,
/// and one per pipeline stage (the paper's Fig 8/9 Gantt rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Track {
    /// The main thread of an execution lane (driver loop, server worker).
    Lane(u32),
    /// Worker `worker` of the host thread pool serving lane `lane`.
    PoolWorker { lane: u32, worker: u32 },
    /// A virtual-machine-time track (charged plan nodes).
    Virtual(&'static str),
    /// A pipeline-stage track in virtual time (task-parallel schedule).
    Stage(&'static str),
    /// A counter series (Chrome `ph:"C"` samples — copy bytes, lane
    /// occupancy, clock offsets). For counter records the span's
    /// `dur_us` field carries the sampled *value*, not a duration.
    Counter(&'static str),
    /// A per-job wall-clock track on the fabric frontend: one row per
    /// scenario, carrying the job lifecycle span and its
    /// route/steal/failover dispatch marks (see [`dist`]).
    Job(u32),
}

/// One recorded interval. Timestamps are microseconds from the
/// handle's epoch (wall clock) or from virtual t=0 (virtual tracks).
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Span name (phase label, lifecycle stage, task name).
    pub name: &'static str,
    /// Which track the span renders on.
    pub track: Track,
    /// Start, µs from epoch.
    pub ts_us: f64,
    /// Duration in µs.
    pub dur_us: f64,
    /// Simulated hour the span belongs to, if any.
    pub hour: Option<u32>,
    /// One optional integer attribute (worker index, job id, …).
    pub arg: Option<(&'static str, i64)>,
}

const SHARDS: usize = 16;

/// The span sink: spans land in one of 16 sharded buffers
/// picked by thread id, so concurrent recorders practically never
/// contend (each worker thread hashes to a stable shard and takes an
/// uncontended lock — one CAS). `flush` drains the shards into the
/// ordered event list; exporters read only that list.
pub struct SpanSink {
    shards: Vec<Mutex<Vec<SpanRecord>>>,
    events: Mutex<Vec<SpanRecord>>,
    sections: Mutex<Vec<(&'static str, String)>>,
    open: Mutex<std::collections::HashMap<u64, SpanRecord>>,
    dropped: AtomicU64,
}

impl Default for SpanSink {
    fn default() -> Self {
        SpanSink::new()
    }
}

impl SpanSink {
    pub fn new() -> SpanSink {
        SpanSink {
            shards: (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
            events: Mutex::new(Vec::new()),
            sections: Mutex::new(Vec::new()),
            open: Mutex::new(std::collections::HashMap::new()),
            dropped: AtomicU64::new(0),
        }
    }

    fn shard_index() -> usize {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        std::thread::current().id().hash(&mut h);
        (h.finish() as usize) % SHARDS
    }

    /// All spans recorded so far, flushed and ordered by start time.
    pub fn events(&self) -> Vec<SpanRecord> {
        self.flush();
        let mut out = self.events.lock().unwrap().clone();
        out.sort_by(|a, b| a.ts_us.total_cmp(&b.ts_us));
        out
    }

    /// Published Prometheus sections, in publication order.
    pub fn sections(&self) -> Vec<(&'static str, String)> {
        self.sections.lock().unwrap().clone()
    }

    /// Spans ever dropped because a shard lock was poisoned (diagnostic;
    /// should stay 0).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Spans whose guards have not dropped yet, ordered by start time.
    /// The Chrome exporter emits these as unmatched begin events so an
    /// interrupted run's trace still loads in Perfetto.
    pub fn open_spans(&self) -> Vec<SpanRecord> {
        let mut out: Vec<SpanRecord> = self.open.lock().unwrap().values().cloned().collect();
        out.sort_by(|a, b| a.ts_us.total_cmp(&b.ts_us));
        out
    }

    /// Buffer one span; callable from any thread.
    fn record(&self, span: SpanRecord) {
        match self.shards[Self::shard_index()].lock() {
            Ok(mut shard) => shard.push(span),
            Err(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Move buffered spans into the exportable event list (called at
    /// hour boundaries and before export).
    fn flush(&self) {
        let mut events = self.events.lock().unwrap();
        for shard in &self.shards {
            if let Ok(mut shard) = shard.lock() {
                events.append(&mut shard);
            }
        }
    }

    /// Attach an already-rendered Prometheus text section (the server
    /// flushes its registry through this on drop).
    fn publish(&self, section: &'static str, text: String) {
        let mut sections = self.sections.lock().unwrap();
        // Re-publishing a section replaces it (the server publishes its
        // registry both at shutdown and on drop).
        if let Some(slot) = sections.iter_mut().find(|(name, _)| *name == section) {
            slot.1 = text;
        } else {
            sections.push((section, text));
        }
    }

    /// A guard-backed span just opened (`span.dur_us` is 0); it is
    /// exported as an open span until [`span_closed`](Self::span_closed)
    /// — flush-on-drop, so an interrupted run's trace still loads.
    fn span_opened(&self, id: u64, span: SpanRecord) {
        self.open.lock().unwrap().insert(id, span);
    }

    fn span_closed(&self, id: u64) {
        self.open.lock().unwrap().remove(&id);
    }
}

/// The handle instrumented code carries: a sink or nothing. Cloning is
/// cheap (one `Arc` bump); all clones share the sink and the wall-clock
/// epoch, so spans from every lane land on one common time axis.
#[derive(Clone)]
pub struct Obs {
    sink: Option<Arc<SpanSink>>,
    lane: u32,
    epoch: Instant,
}

impl Obs {
    /// An enabled handle recording into `sink`, lane 0.
    pub fn new(sink: Arc<SpanSink>) -> Obs {
        Obs {
            sink: Some(sink),
            lane: 0,
            epoch: Instant::now(),
        }
    }

    /// The disabled handle: no allocation, and no clock reads or atomics
    /// at any instrumentation site.
    pub fn off() -> Obs {
        Obs {
            sink: None,
            lane: 0,
            epoch: Instant::now(),
        }
    }

    /// A clone bound to a different execution lane (server worker `k`
    /// uses lane `k+1`; the CLI driver keeps lane 0).
    pub fn with_lane(&self, lane: u32) -> Obs {
        Obs {
            lane,
            ..self.clone()
        }
    }

    /// Whether spans are being recorded at all. Instrumentation sites
    /// branch on this before touching the clock.
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// This handle's execution lane.
    pub fn lane(&self) -> u32 {
        self.lane
    }

    /// Microseconds elapsed since the handle's epoch for `at`.
    pub fn us_since_epoch(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Open a wall-clock span on this lane's main track; the span is
    /// recorded when the returned guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.span_inner(name, None, None)
    }

    /// Like [`span`](Obs::span) with a simulated-hour attribute.
    pub fn span_hour(&self, name: &'static str, hour: u32) -> SpanGuard<'_> {
        self.span_inner(name, Some(hour), None)
    }

    /// Like [`span`](Obs::span) with one integer attribute.
    pub fn span_arg(&self, name: &'static str, key: &'static str, value: i64) -> SpanGuard<'_> {
        self.span_inner(name, None, Some((key, value)))
    }

    fn span_inner(
        &self,
        name: &'static str,
        hour: Option<u32>,
        arg: Option<(&'static str, i64)>,
    ) -> SpanGuard<'_> {
        let mut start = None;
        let mut id = 0;
        if let Some(sink) = &self.sink {
            let now = Instant::now();
            static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
            id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
            start = Some(now);
            sink.span_opened(
                id,
                SpanRecord {
                    name,
                    track: Track::Lane(self.lane),
                    ts_us: self.us_since_epoch(now),
                    dur_us: 0.0,
                    hour,
                    arg,
                },
            );
        }
        SpanGuard {
            obs: self,
            name,
            hour,
            arg,
            start,
            id,
        }
    }

    /// Record a wall-clock interval measured elsewhere (pool tasks hand
    /// their start/end `Instant`s over from the worker threads).
    pub fn record_interval(
        &self,
        name: &'static str,
        track: Track,
        start: Instant,
        end: Instant,
        hour: Option<u32>,
        arg: Option<(&'static str, i64)>,
    ) {
        let Some(sink) = &self.sink else { return };
        sink.record(SpanRecord {
            name,
            track,
            ts_us: self.us_since_epoch(start),
            dur_us: end.saturating_duration_since(start).as_secs_f64() * 1e6,
            hour,
            arg,
        });
    }

    /// Record a virtual-time interval (seconds of machine time) on a
    /// virtual or stage track.
    pub fn record_virtual(
        &self,
        name: &'static str,
        track: Track,
        start_s: f64,
        end_s: f64,
        hour: Option<u32>,
    ) {
        let Some(sink) = &self.sink else { return };
        sink.record(SpanRecord {
            name,
            track,
            ts_us: start_s * 1e6,
            dur_us: (end_s - start_s).max(0.0) * 1e6,
            hour,
            arg: None,
        });
    }

    /// Record one counter sample (Chrome `ph:"C"` series) at `ts_us` on
    /// the counter track named `track_label`; `name` names the series
    /// within the track. The value rides in the record's `dur_us` field
    /// (see [`Track::Counter`]).
    pub fn record_counter(
        &self,
        name: &'static str,
        track_label: &'static str,
        ts_us: f64,
        value: f64,
        hour: Option<u32>,
    ) {
        let Some(sink) = &self.sink else { return };
        sink.record(SpanRecord {
            name,
            track: Track::Counter(track_label),
            ts_us,
            dur_us: value,
            hour,
            arg: None,
        });
    }

    /// Move buffered spans to the exportable list (hour boundary).
    pub fn flush(&self) {
        if let Some(sink) = &self.sink {
            sink.flush();
        }
    }

    /// Attach a pre-rendered Prometheus section to the export.
    pub fn publish(&self, section: &'static str, text: String) {
        if let Some(sink) = &self.sink {
            sink.publish(section, text);
        }
    }
}

/// Adapter from the host pool's [`PoolObserver`] hook to spans: each
/// completed pool task becomes one span named after the owning phase,
/// on that worker's [`Track::PoolWorker`] row, with the task's queue
/// position as a `seq` attribute.
///
/// `airshed-hpf` cannot depend on this crate, so it defines the
/// observer trait and this adapter implements it.
///
/// [`PoolObserver`]: airshed_hpf::host::PoolObserver
pub struct PoolHook<'a> {
    obs: &'a Obs,
    name: &'static str,
    hour: Option<u32>,
}

impl<'a> PoolHook<'a> {
    /// A hook attributing pool tasks to phase `name` in `hour`.
    pub fn new(obs: &'a Obs, name: &'static str, hour: Option<u32>) -> PoolHook<'a> {
        PoolHook { obs, name, hour }
    }

    /// The hook as an optional trait object: `None` when the handle is
    /// disabled, so the pool takes its zero-cost unobserved path.
    pub fn as_observer(&self) -> Option<&dyn airshed_hpf::host::PoolObserver> {
        if self.obs.enabled() {
            Some(self)
        } else {
            None
        }
    }
}

impl airshed_hpf::host::PoolObserver for PoolHook<'_> {
    fn task(&self, worker: usize, seq: usize, start: Instant, end: Instant) {
        self.obs.record_interval(
            self.name,
            Track::PoolWorker {
                lane: self.obs.lane,
                worker: worker as u32,
            },
            start,
            end,
            self.hour,
            Some(("seq", seq as i64)),
        );
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.enabled())
            .field("lane", &self.lane)
            .finish()
    }
}

/// RAII wall-clock span: opened by [`Obs::span`], recorded on drop.
/// Holds `Some(start)` only when the handle has a sink, so the disabled
/// path is a single branch on drop.
pub struct SpanGuard<'a> {
    obs: &'a Obs,
    name: &'static str,
    hour: Option<u32>,
    arg: Option<(&'static str, i64)>,
    start: Option<Instant>,
    id: u64,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let (Some(start), Some(sink)) = (self.start, &self.obs.sink) {
            let end = Instant::now();
            sink.span_closed(self.id);
            sink.record(SpanRecord {
                name: self.name,
                track: Track::Lane(self.obs.lane),
                ts_us: self.obs.us_since_epoch(start),
                dur_us: end.saturating_duration_since(start).as_secs_f64() * 1e6,
                hour: self.hour,
                arg: self.arg,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_handle_records_nothing() {
        let obs = Obs::off();
        assert!(!obs.enabled());
        let _g = obs.span("phase");
        drop(_g);
        obs.flush();
        // Nothing observable; mostly asserting it does not panic.
    }

    #[test]
    fn spans_land_in_sink_after_flush() {
        let sink = Arc::new(SpanSink::new());
        let obs = Obs::new(sink.clone());
        {
            let _outer = obs.span_hour("hour", 3);
            let _inner = obs.span_hour("transport", 3);
            std::thread::sleep(Duration::from_millis(1));
        }
        obs.flush();
        let events = sink.events();
        assert_eq!(events.len(), 2);
        // Sorted by start: outer ("hour") starts first.
        assert_eq!(events[0].name, "hour");
        assert_eq!(events[1].name, "transport");
        assert!(events[0].dur_us >= events[1].dur_us);
        assert_eq!(events[0].hour, Some(3));
        // Nesting: inner lies within outer.
        assert!(events[1].ts_us >= events[0].ts_us);
        assert!(events[1].ts_us + events[1].dur_us <= events[0].ts_us + events[0].dur_us + 1.0);
    }

    #[test]
    fn spans_from_worker_threads_survive_thread_exit() {
        let sink = Arc::new(SpanSink::new());
        let obs = Obs::new(sink.clone());
        std::thread::scope(|scope| {
            for w in 0..4u32 {
                let obs = obs.clone();
                scope.spawn(move || {
                    let now = Instant::now();
                    obs.record_interval(
                        "task",
                        Track::PoolWorker { lane: 0, worker: w },
                        now,
                        now + Duration::from_micros(10),
                        Some(0),
                        Some(("seq", w as i64)),
                    );
                });
            }
        });
        obs.flush();
        assert_eq!(sink.events().len(), 4);
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn open_spans_are_tracked_until_guards_drop() {
        let sink = Arc::new(SpanSink::new());
        let obs = Obs::new(sink.clone());
        let g = obs.span_hour("hour", 7);
        let open = sink.open_spans();
        assert_eq!(open.len(), 1);
        assert_eq!(open[0].name, "hour");
        assert_eq!(open[0].hour, Some(7));
        assert_eq!(open[0].dur_us, 0.0);
        drop(g);
        assert!(sink.open_spans().is_empty());
        obs.flush();
        assert_eq!(sink.events().len(), 1);
    }

    #[test]
    fn counter_records_carry_the_value_in_dur() {
        let sink = Arc::new(SpanSink::new());
        let obs = Obs::new(sink.clone());
        obs.record_counter("redist_local", "copy bytes", 2e6, 0.125, Some(2));
        obs.flush();
        let events = sink.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].track, Track::Counter("copy bytes"));
        assert_eq!(events[0].dur_us, 0.125);
    }

    #[test]
    fn publish_replaces_section() {
        let sink = Arc::new(SpanSink::new());
        let obs = Obs::new(sink.clone());
        obs.publish("server", "v1".into());
        obs.publish("server", "v2".into());
        obs.publish("other", "x".into());
        let sections = sink.sections();
        assert_eq!(sections.len(), 2);
        assert_eq!(sections[0], ("server", "v2".to_string()));
    }
}
