//! The fabric's two ends under a seeded simulation.
//!
//! One scheduler, seeded per case, drives the real [`Frontend`] (and the
//! [`Router`](airshed::fabric::Router) inside it) against N in-process
//! shards over simulated connections. Each shard is a real [`ShardCore`]
//! over a stand-in executor: an inbox, workers, and single-flight
//! Lead/Wait/Replay of real data. Each numerics key runs once per test
//! process through `run_hourly`, whose `on_hour` hook yields the
//! per-hour `ResumePoint`s a job's `Hour` events carry, and each
//! completion is `replay_profile` of that profile on the job's own
//! placement — which the checkpoint contract makes equal to what a
//! resumed run reports.
//!
//! The events are the failure modes of a connection in Sundararajan and
//! Harwood's survey of parallel computing on the Internet (PAPERS.md):
//!
//! * delivery delay, first-in first-out per connection (TCP order) while
//!   shards interleave freely;
//! * dropped `Heartbeat`/`Progress` frames;
//! * a stall mid-frame: the shard goes silent with its socket open and
//!   the frame it was sending never completes, so only heartbeat expiry
//!   can fail it over;
//! * a kill: the connection closes (`Gone`);
//! * a sever: the shard's own `drop_after_hours` closes the connection
//!   and cancels its jobs;
//! * a zombie: a stall that ends after the shard was declared lost, so
//!   its frames — the one cut mid-send first — arrive from a lost shard;
//! * steals, which arise from the dispatch windows.
//!
//! After every front-end step: `submitted == reports + failures +
//! outstanding`, no scenario finishes twice, no trace-context mismatch,
//! and every `Assign` carries `TraceContext::for_job(job)`. After every
//! shard step: a severed shard writes, submits and cancels nothing more,
//! and a sever cancels every job its executor held. At the end:
//! every fingerprint equals the single-process reference, every latency
//! anatomy has `segments >= 1` and `queued_ms <= end_to_end_ms`, a
//! silenced or severed shard was declared lost, and on traced cases the
//! job spans and dispatch marks carry the job's `trace_id` too. Every
//! seed replays: a second run writes the same frames at the same times.
//! A step bound turns a hang into a failure, and every failure names its
//! seed.
//!
//! `cargo test` runs a small budget; `cargo test --release --test
//! fabric_sim -- --ignored` runs the large one.

use airshed::core::codec;
use airshed::core::config::{DatasetChoice, SimConfig};
use airshed::core::driver::{ChemLayout, PlanMemoStats};
use airshed::core::obs::dist::{TraceContext, HOP_NAMES};
use airshed::core::obs::{SpanSink, Track};
use airshed::core::plan::replay_profile;
use airshed::core::{ExecSpec, Obs, PerfModel, RunReport, WorkProfile};
use airshed::fabric::{
    report_fingerprint, AllShardsLost, Event, Frontend, Msg, RouterConfig, ScenarioJob, ShardCore,
    ShardEvent, ShardOptions,
};
use airshed::server::cache::NumericsKey;
use airshed::server::worker::{panic_message, run_hourly};
use airshed::server::ResumePoint;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

const HOURS: usize = 3;
const SCALES: [f64; 3] = [1.0, 0.7, 0.4];
const PLACEMENTS: [usize; 3] = [2, 4, 8];
const LAYOUTS: [ChemLayout; 2] = [ChemLayout::Block, ChemLayout::Cyclic];

/// Simulated milliseconds.
const HEARTBEAT_MS: u64 = 50;
const TIMEOUT_MS: u64 = 400;
/// The socket driver's receive timeout: how often the front-end steps
/// with no traffic.
const TICK_MS: u64 = 20;
/// A dropped frame never follows this many dropped frames of its shard,
/// so drops alone stay well inside the heartbeat timeout.
const MAX_DROPS_IN_A_ROW: u32 = 3;
/// Far more events than any case needs: a case that gets here hangs.
const MAX_STEPS: usize = 100_000;

/// One numerics key's real data.
struct KeyRun {
    /// `points[h]` is the resume point after hour `h + 1`.
    points: Vec<ResumePoint>,
    profile: WorkProfile,
    model: PerfModel,
}

fn config(scale: f64, p: usize) -> SimConfig {
    let mut c = SimConfig::test_tiny(p, HOURS);
    c.dataset = DatasetChoice::Tiny(40);
    c.start_hour = 7;
    c.emission_scale = scale;
    c
}

/// Every key's run, once per test process and shared by all seeds.
fn runs() -> &'static HashMap<NumericsKey, KeyRun> {
    static RUNS: OnceLock<HashMap<NumericsKey, KeyRun>> = OnceLock::new();
    RUNS.get_or_init(|| {
        SCALES
            .iter()
            .map(|&scale| {
                let c = config(scale, 2);
                let mut points = Vec::new();
                let mut on_hour = |rp: &ResumePoint| points.push(rp.clone());
                let never = AtomicBool::new(false);
                let profile = run_hourly(
                    &c,
                    None,
                    &never,
                    None,
                    ExecSpec::serial(),
                    &Obs::off(),
                    Some(&mut on_hour),
                )
                .unwrap();
                let run = KeyRun {
                    points,
                    model: PerfModel::from_profile(&profile),
                    profile,
                };
                (NumericsKey::of(&c), run)
            })
            .collect()
    })
}

/// What a shard reports for `job`, and the single-process reference.
fn report(config: &SimConfig, layout: ChemLayout) -> RunReport {
    let run = &runs()[&NumericsKey::of(config)];
    replay_profile(&run.profile, config.machine, config.p, layout)
}

fn digest(value: impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// splitmix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.next() as usize % items.len()]
    }

    fn chance(&mut self, p: f64) -> bool {
        ((self.next() >> 11) as f64) < p * (1u64 << 53) as f64
    }
}

/// Which failure modes a case may draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mix {
    /// Delay and drops only.
    Wire,
    /// Delay, drops, and one shard stalled mid-frame for good.
    Silence,
    /// Everything, with one shard left healthy so the batch can finish.
    Any,
    /// Every shard killed or stalled before anything completes.
    Total,
}

#[derive(Debug, Clone, Copy)]
enum Fault {
    /// Silent for good, socket open.
    Stall,
    /// Silent for this long — past the heartbeat timeout — then speaks.
    Zombie { for_ms: u64 },
    /// The connection closes.
    Kill,
    /// The shard's `drop_after_hours`: it severs itself after this many
    /// hours (the fault's time is unused).
    Sever { after_hours: u64 },
}

/// Everything a seed decides.
struct Case {
    seed: u64,
    batch: Vec<(SimConfig, ChemLayout)>,
    workers: Vec<usize>,
    max_delay_ms: u64,
    drop_p: f64,
    hour_ms: (u64, u64),
    /// `(at ms, shard, fault)`, at most one per shard.
    faults: Vec<(u64, usize, Fault)>,
    traced: bool,
}

impl Case {
    fn draw(seed: u64, mix: Mix) -> Case {
        let mut rng = Rng(seed ^ 0xfab1_c0de);
        let shards = rng.range(2, 3) as usize;
        let workers = (0..shards).map(|_| rng.range(1, 2) as usize).collect();
        let batch = (0..rng.range(3, 9))
            .map(|_| {
                let c = config(rng.pick(&SCALES), rng.pick(&PLACEMENTS));
                (c, rng.pick(&LAYOUTS))
            })
            .collect();
        let max_delay_ms = rng.range(0, 60);
        let drop_p = if rng.chance(0.3) {
            0.0
        } else {
            rng.range(5, 30) as f64 / 100.0
        };
        let lo = rng.range(20, 60);
        let hour_ms = (lo, lo + rng.range(0, 80));
        let mut faults = Vec::new();
        match mix {
            Mix::Wire => {}
            Mix::Silence => {
                faults.push((rng.range(0, 600), rng.range(0, 1) as usize, Fault::Stall))
            }
            Mix::Any => {
                let healthy = rng.range(0, shards as u64 - 1) as usize;
                for s in (0..shards).filter(|&s| s != healthy) {
                    if rng.chance(0.8) {
                        let fault = match rng.range(0, 3) {
                            0 => Fault::Stall,
                            1 => Fault::Zombie {
                                for_ms: TIMEOUT_MS + TICK_MS + rng.range(50, 600),
                            },
                            2 => Fault::Kill,
                            _ => Fault::Sever {
                                after_hours: rng.range(1, 4),
                            },
                        };
                        faults.push((rng.range(0, 500), s, fault));
                    }
                }
            }
            Mix::Total => {
                // Before the first hour of any key can finish.
                for s in 0..shards {
                    let fault = rng.pick(&[Fault::Stall, Fault::Kill]);
                    faults.push((rng.range(0, HOURS as u64 * lo - 1), s, fault));
                }
            }
        }
        Case {
            seed,
            batch,
            workers,
            max_delay_ms,
            drop_p,
            hour_ms,
            faults,
            traced: seed.is_multiple_of(3),
        }
    }

    fn describe(&self) -> String {
        format!(
            "seed {}: {} jobs on shards with {:?} workers, delay <= {} ms, drop p {}, \
             hours {:?} ms, faults {:?}, traced {}",
            self.seed,
            self.batch.len(),
            self.workers,
            self.max_delay_ms,
            self.drop_p,
            self.hour_ms,
            self.faults,
            self.traced
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Runs the key's numerics hour by hour.
    Lead,
    /// Waits for this shard's leader of the key (single flight).
    Wait,
    /// Replays a resident profile.
    Replay,
}

struct Running {
    job: u64,
    work: ScenarioJob,
    key: NumericsKey,
    hours_done: usize,
    phase: Phase,
}

/// One shard process: the real [`ShardCore`], and a stand-in for the
/// `ScenarioServer` it submits to — a worker pool over a single-flight
/// profile store.
struct ShardModel {
    core: ShardCore,
    workers: usize,
    inbox: VecDeque<(u64, TraceContext, ScenarioJob)>,
    running: Vec<Running>,
    resident: HashSet<NumericsKey>,
    /// Frozen and silent while `now < wake_at` (`u64::MAX`: for good).
    wake_at: u64,
    dead: bool,
    /// When the core severed the connection.
    severed_at: Option<u64>,
    drops_in_a_row: u32,
    /// How far this shard's trace clock runs behind the front-end's.
    skew_us: u64,
}

enum Ev {
    /// Shard -> front-end: a frame, or `None` for the closed connection.
    Up(usize, Option<Msg>),
    /// Front-end -> shard.
    Down(usize, Msg),
    Beat(usize),
    /// The next milestone of a running job.
    Work(usize, u64),
    Fault(usize, Fault),
    Tick,
}

impl Ev {
    /// The shard whose connection or process the event belongs to.
    fn shard(&self) -> Option<usize> {
        match *self {
            Ev::Up(s, _) | Ev::Down(s, _) | Ev::Beat(s) | Ev::Work(s, _) | Ev::Fault(s, _) => {
                Some(s)
            }
            Ev::Tick => None,
        }
    }
}

/// What the budget exercised, summed over cases.
#[derive(Debug, Default)]
struct Coverage {
    cases: u64,
    traced: u64,
    dropped: u64,
    stolen: u64,
    failed_over: u64,
    resumed: u64,
    zombie_frames: u64,
    severed: u64,
    lost_verdicts: u64,
    /// A digest of every frame the front-end wrote and every result it
    /// took, with their times: what a replay of the seed must repeat.
    trail: u64,
}

struct Sim<'a> {
    case: &'a Case,
    rng: Rng,
    now: u64,
    seq: u64,
    queue: BTreeMap<(u64, u64), Ev>,
    shards: Vec<ShardModel>,
    up_last: Vec<u64>,
    down_last: Vec<u64>,
    frontend: Frontend,
    finished: Vec<bool>,
    assigns: usize,
    sink: Arc<SpanSink>,
    obs: Obs,
    base: Instant,
    cov: Coverage,
}

impl<'a> Sim<'a> {
    fn new(case: &'a Case) -> Sim<'a> {
        let mut rng = Rng(case.seed);
        let shards = (case.workers.iter().enumerate())
            .map(|(s, &workers)| {
                let drop_after_hours = case.faults.iter().find_map(|f| match *f {
                    (_, shard, Fault::Sever { after_hours }) if shard == s => Some(after_hours),
                    _ => None,
                });
                let opts = ShardOptions {
                    name: format!("sim-{s}"),
                    workers,
                    heartbeat_ms: HEARTBEAT_MS,
                    drop_after_hours,
                    ..ShardOptions::default()
                };
                ShardModel {
                    core: ShardCore::new(&opts),
                    workers,
                    inbox: VecDeque::new(),
                    running: Vec::new(),
                    resident: HashSet::new(),
                    wake_at: 0,
                    dead: false,
                    severed_at: None,
                    drops_in_a_row: 0,
                    skew_us: rng.range(0, 500_000),
                }
            })
            .collect();
        let sink = Arc::new(SpanSink::new());
        let n = case.workers.len();
        Sim {
            case,
            rng,
            now: 0,
            seq: 0,
            queue: BTreeMap::new(),
            shards,
            up_last: vec![0; n],
            down_last: vec![0; n],
            frontend: Frontend::new(
                RouterConfig {
                    heartbeat_timeout_ms: TIMEOUT_MS,
                },
                n,
                &case.batch,
            ),
            finished: vec![false; case.batch.len()],
            assigns: 0,
            obs: if case.traced {
                Obs::new(sink.clone())
            } else {
                Obs::off()
            },
            sink,
            base: Instant::now(),
            cov: Coverage::default(),
        }
    }

    fn at(&mut self, t: u64, ev: Ev) {
        self.seq += 1;
        self.queue.insert((t, self.seq), ev);
    }

    /// The front-end's trace clock (µs), offset so shard clocks that run
    /// behind it stay positive.
    fn clock_us(&self) -> u64 {
        1_000_000 + self.now * 1000
    }

    fn stamp(&self, shard: usize) -> u64 {
        if self.case.traced {
            self.clock_us() - self.shards[shard].skew_us
        } else {
            0
        }
    }

    /// Run to a verdict: `Ok` once every job is terminal.
    fn run(mut self) -> Result<Coverage, (AllShardsLost, Coverage)> {
        let n = self.shards.len();
        // The accept phase: every shard's Hello, in connection order.
        for s in 0..n {
            let hello = self.shards[s].core.hello(self.stamp(s));
            if let Err(lost) = self.front(Event::Msg(s, hello)) {
                return Err((lost, self.cov));
            }
        }
        for s in 0..n {
            self.at(HEARTBEAT_MS, Ev::Beat(s));
        }
        let case = self.case;
        for &(t, s, fault) in &case.faults {
            self.at(t, Ev::Fault(s, fault));
        }
        self.at(TICK_MS, Ev::Tick);

        for _ in 0..MAX_STEPS {
            if self.frontend.is_done() {
                self.finish();
                return Ok(self.cov);
            }
            let ((t, _), ev) = self.queue.pop_first().expect("the tick never stops");
            self.now = t;
            let stepped = match ev {
                Ev::Tick => {
                    self.at(t + TICK_MS, Ev::Tick);
                    self.front(Event::Tick)
                }
                Ev::Up(s, Some(msg)) => {
                    if !self.frontend.router().shard_is_alive(s) {
                        self.cov.zombie_frames += 1;
                    }
                    self.front(Event::Msg(s, msg))
                }
                Ev::Up(s, None) => self.front(Event::Gone(s)),
                Ev::Down(s, _) | Ev::Beat(s) | Ev::Work(s, _) | Ev::Fault(s, _) => {
                    self.shard(s, ev);
                    Ok(())
                }
            };
            if let Err(lost) = stepped {
                let reported = self.frontend.reports().len() + self.frontend.failures().len();
                assert_eq!(lost.outstanding, self.case.batch.len() - reported);
                return Err((lost, self.cov));
            }
        }
        panic!("no verdict after {MAX_STEPS} events: the fabric hangs");
    }

    /// One front-end step, then the per-step properties.
    fn front(&mut self, event: Event) -> Result<(), AllShardsLost> {
        let recv_us = self.case.traced.then(|| self.clock_us() as f64);
        let step = self.frontend.step(event, self.now, recv_us)?;
        let now = self.base + Duration::from_millis(self.now);
        step.trace(&self.obs, self.frontend.router(), self.base, now);
        for &(scenario, ctx) in &step.finished {
            self.cov.trail = digest((self.cov.trail, self.now, scenario));
            assert!(
                !std::mem::replace(&mut self.finished[scenario], true),
                "scenario {scenario} finished twice"
            );
            assert_eq!(ctx, TraceContext::for_job(scenario as u64));
        }
        for (s, msg) in step.frames {
            if let Msg::Assign { job, ctx, .. } = &msg {
                self.cov.trail = digest((self.cov.trail, self.now, s, *job));
                assert_eq!(*ctx, TraceContext::for_job(*job), "Assign of job {job}");
                self.assigns += 1;
            }
            let delay = self.rng.range(0, self.case.max_delay_ms);
            let arrive = (self.now + delay).max(self.down_last[s]);
            self.down_last[s] = arrive;
            self.at(arrive, Ev::Down(s, msg));
        }
        let f = &self.frontend;
        if f.router().shard_count() == self.shards.len() {
            let done = f.reports().len() + f.failures().len();
            assert_eq!(
                self.case.batch.len(),
                done + f.router().outstanding(),
                "submitted != reports + failures + outstanding"
            );
            assert_eq!(done, self.finished.iter().filter(|&&f| f).count());
            assert_eq!(f.router().ctx_mismatches(), 0, "trace-context mismatch");
        }
        Ok(())
    }

    /// Shard -> front-end, first in first out per connection; a
    /// heartbeat or progress frame may be dropped.
    fn send(&mut self, s: usize, msg: Msg) {
        let droppable = matches!(msg, Msg::Heartbeat { .. } | Msg::Progress { .. });
        let shard = &mut self.shards[s];
        if droppable
            && shard.drops_in_a_row < MAX_DROPS_IN_A_ROW
            && self.rng.chance(self.case.drop_p)
        {
            shard.drops_in_a_row += 1;
            self.cov.dropped += 1;
            return;
        }
        shard.drops_in_a_row = 0;
        self.up(s, Some(msg));
    }

    fn up(&mut self, s: usize, frame: Option<Msg>) {
        let delay = self.rng.range(0, self.case.max_delay_ms);
        let arrive = (self.now + delay).max(self.up_last[s]);
        self.up_last[s] = arrive;
        self.at(arrive, Ev::Up(s, frame));
    }

    fn shard(&mut self, s: usize, ev: Ev) {
        let ShardModel { dead, wake_at, .. } = self.shards[s];
        if dead {
            return;
        }
        if self.now < wake_at {
            // Frozen: everything waits for the shard to wake, if it does.
            if wake_at != u64::MAX {
                self.at(wake_at, ev);
            }
            return;
        }
        match ev {
            Ev::Down(_, msg @ Msg::Assign { .. }) => self.step_shard(s, ShardEvent::Frame(msg)),
            Ev::Down(_, other) => panic!("the front-end sent tag {}", other.tag()),
            Ev::Beat(_) => {
                self.step_shard(s, ShardEvent::Tick(PlanMemoStats::default()));
                self.at(self.now + HEARTBEAT_MS, Ev::Beat(s));
            }
            Ev::Work(_, job) => self.work(s, job),
            Ev::Fault(_, Fault::Kill) => {
                self.shards[s].dead = true;
                self.up(s, None);
            }
            Ev::Fault(_, Fault::Stall) => self.freeze(s, u64::MAX),
            Ev::Fault(_, Fault::Zombie { for_ms }) => self.freeze(s, self.now + for_ms),
            Ev::Fault(_, Fault::Sever { .. }) => {}
            Ev::Up(..) | Ev::Tick => unreachable!("not a shard event"),
        }
    }

    /// One step of the shard's core, its asks applied to the stand-in
    /// executor and the connection, then the sever properties.
    fn step_shard(&mut self, s: usize, event: ShardEvent) {
        let sent_us = self.stamp(s);
        let shard = &mut self.shards[s];
        let step = shard.core.step(event, self.now, sent_us);
        if shard.severed_at.is_some() {
            let idle = step.frames.is_empty() && step.submits.is_empty() && step.cancels.is_empty();
            assert!(idle, "shard {s} acts after its sever");
            return;
        }
        if step.sever {
            let queued = shard.inbox.iter().map(|&(job, ..)| job);
            let held = BTreeSet::from_iter(queued.chain(shard.running.iter().map(|r| r.job)));
            let cancelled = BTreeSet::from_iter(step.cancels.iter().copied());
            assert_eq!(cancelled, held, "shard {s} severed, its jobs uncancelled");
        }
        // A cancelled job stops at its next hour boundary, and the real
        // driver's loop ends with the sever: nothing more of it is stepped.
        shard.inbox.retain(|(job, ..)| !step.cancels.contains(job));
        shard.running.retain(|r| !step.cancels.contains(&r.job));
        let submitted = !step.submits.is_empty();
        shard.inbox.extend(step.submits);
        for msg in step.frames {
            self.send(s, msg);
        }
        if step.sever {
            self.shards[s].severed_at = Some(self.now);
            self.cov.severed += 1;
            self.up(s, None);
        }
        if submitted {
            self.start_jobs(s);
        }
    }

    /// Stall until `wake_at`, in order: the frames still on their way
    /// out were cut mid-send and complete when the shard wakes, or
    /// never; frames to it wait in its socket; its timers stop.
    fn freeze(&mut self, s: usize, wake_at: u64) {
        self.shards[s].wake_at = wake_at;
        let now = self.now;
        let held: Vec<_> = self
            .queue
            .iter()
            .filter(|(&(t, _), ev)| t > now && ev.shard() == Some(s))
            .map(|(&key, _)| key)
            .collect();
        for key in held {
            let ev = self.queue.remove(&key).unwrap();
            if wake_at != u64::MAX {
                self.at(wake_at, ev);
            }
        }
        self.up_last[s] = self.up_last[s].max(wake_at);
        self.down_last[s] = self.down_last[s].max(wake_at);
    }

    fn hour_ms(&mut self) -> u64 {
        let (lo, hi) = self.case.hour_ms;
        self.rng.range(lo, hi)
    }

    /// Fill free workers from the inbox.
    fn start_jobs(&mut self, s: usize) {
        while self.shards[s].running.len() < self.shards[s].workers {
            let Some((job, _, work)) = self.shards[s].inbox.pop_front() else {
                return;
            };
            let key = NumericsKey::of(&work.config);
            let shard = &self.shards[s];
            let phase = if shard.resident.contains(&key) {
                Phase::Replay
            } else if shard
                .running
                .iter()
                .any(|r| r.key == key && r.phase == Phase::Lead)
            {
                Phase::Wait
            } else {
                Phase::Lead
            };
            let mut hours_done = 0;
            if let (Phase::Lead, Some(rp)) = (phase, &work.resume) {
                // A resumed job must carry one of its own key's checkpoints.
                hours_done = rp.partial.hours.len();
                let own = &runs()[&key].points;
                assert!(
                    (1..=HOURS).contains(&hours_done),
                    "job {job} resumes at {hours_done}"
                );
                assert_eq!(
                    codec::encode(rp),
                    codec::encode(&own[hours_done - 1]),
                    "job {job} resumes from a checkpoint that is not its key's hour {hours_done}"
                );
                self.cov.resumed += 1;
            }
            let next = match phase {
                Phase::Lead if hours_done < work.config.hours => Some(self.hour_ms()),
                Phase::Lead | Phase::Replay => Some(self.rng.range(1, 5)),
                Phase::Wait => None,
            };
            if let Some(ms) = next {
                self.at(self.now + ms, Ev::Work(s, job));
            }
            self.shards[s].running.push(Running {
                job,
                work,
                key,
                hours_done,
                phase,
            });
        }
    }

    fn work(&mut self, s: usize, job: u64) {
        let Some(i) = self.shards[s].running.iter().position(|r| r.job == job) else {
            return;
        };
        let (wall, next_ms) = (Duration::from_millis(self.hour_ms()), self.hour_ms());
        let r = &mut self.shards[s].running[i];
        if r.phase == Phase::Lead {
            let key = r.key.clone();
            let hours = r.work.config.hours;
            if r.hours_done < hours {
                r.hours_done += 1;
                let done = r.hours_done;
                let resume = Box::new(runs()[&key].points[done - 1].clone());
                self.step_shard(s, ShardEvent::Hour(job, resume, wall));
                if self.shards[s].severed_at.is_some() {
                    return;
                }
                if done < hours {
                    self.at(self.now + next_ms, Ev::Work(s, job));
                    return;
                }
            }
            // Model first, as the real server reports it.
            let model = runs()[&key].model.clone();
            self.step_shard(s, ShardEvent::Calibrated(job, model));
            let shard = &mut self.shards[s];
            shard.resident.insert(key.clone());
            let waiting: Vec<u64> = shard
                .running
                .iter_mut()
                .filter(|w| w.key == key && w.phase == Phase::Wait)
                .map(|w| {
                    w.phase = Phase::Replay;
                    w.job
                })
                .collect();
            for w in waiting {
                let ms = self.rng.range(1, 5);
                self.at(self.now + ms, Ev::Work(s, w));
            }
        }
        let r = self.shards[s].running.remove(i);
        let result = Ok(Arc::new(report(&r.work.config, r.work.layout)));
        self.step_shard(s, ShardEvent::Finished(job, result));
        self.start_jobs(s);
    }

    /// The end-of-batch properties.
    fn finish(&mut self) {
        let f = &self.frontend;
        assert!(f.failures().is_empty(), "{:?}", f.failures());
        for (i, got) in f.reports() {
            let (config, layout) = &self.case.batch[*i];
            assert_eq!(
                report_fingerprint(got),
                report_fingerprint(&report(config, *layout)),
                "scenario {i} differs from the single-process run"
            );
            let a = got
                .anatomy
                .expect("a fabric completion carries its anatomy");
            assert!(a.segments >= 1, "scenario {i} finished undispatched");
            assert!(a.queued_ms <= a.end_to_end_ms, "scenario {i}: {a:?}");
        }
        let router = f.router();
        for &(t, s, fault) in &self.case.faults {
            // Silence is noticed within the timeout plus one tick, a
            // closed connection once its last frame is read.
            let noticed = match (fault, self.shards[s].severed_at) {
                (Fault::Stall | Fault::Zombie { .. }, _) => t + TIMEOUT_MS + TICK_MS,
                (Fault::Kill, _) => t + self.case.max_delay_ms,
                (Fault::Sever { .. }, Some(at)) => at + self.case.max_delay_ms,
                (Fault::Sever { .. }, None) => u64::MAX,
            };
            if self.now > noticed {
                assert!(
                    !router.shard_is_alive(s),
                    "shard {s} survived {fault:?} at {t} ms"
                );
            }
        }
        for s in 0..router.shard_count() {
            let c = router.counters(s);
            self.cov.stolen += c.stolen;
            self.cov.failed_over += c.failed_over;
        }
        if self.case.traced {
            self.cov.traced += 1;
            self.check_trace();
        }
    }

    /// The front-end's job spans, its dispatch marks and the `Assign`
    /// frames all carry the job's one `trace_id`.
    fn check_trace(&self) {
        let (mut spans, mut marks) = (0, 0);
        for e in self.sink.events() {
            let Track::Job(job) = e.track else {
                continue;
            };
            let trace_id = TraceContext::for_job(job as u64).trace_id as i64;
            assert_eq!(
                e.arg,
                Some(("trace_id", trace_id)),
                "{} of job {job}",
                e.name
            );
            if e.name == "job" {
                spans += 1;
            } else {
                assert!(HOP_NAMES.contains(&e.name), "{}", e.name);
                marks += 1;
            }
        }
        assert_eq!(spans, self.case.batch.len(), "one span per job");
        assert_eq!(marks, self.assigns, "one dispatch mark per Assign");
    }
}

/// Run every seed of `seeds` under `mix`; a failure names its seed.
fn simulate(mix: Mix, seeds: Range<u64>) -> Coverage {
    let mut total = Coverage::default();
    for seed in seeds {
        let case = Case::draw(seed, mix);
        let outcome = catch_unwind(AssertUnwindSafe(|| Sim::new(&case).run()));
        let cov = match (mix, outcome) {
            (Mix::Total, Ok(Err((lost, mut cov)))) => {
                assert!(lost.outstanding > 0);
                assert!(lost.to_string().starts_with("all shards lost"), "{lost}");
                cov.lost_verdicts += 1;
                cov
            }
            (Mix::Total, Ok(Ok(_))) => {
                panic!("{}: the batch finished without a shard", case.describe())
            }
            (_, Ok(Ok(cov))) => cov,
            (_, Ok(Err((lost, _)))) => panic!("{}: {lost}", case.describe()),
            (_, Err(panic)) => panic!(
                "fabric simulation failed, {}: {}",
                case.describe(),
                panic_message(panic.as_ref())
            ),
        };
        // A second run hashes the router's maps differently.
        let (Ok(again) | Err((_, again))) = Sim::new(&case).run();
        assert_eq!(
            cov.trail,
            again.trail,
            "{}: the seed does not replay",
            case.describe()
        );
        total.cases += 1;
        total.traced += cov.traced;
        total.dropped += cov.dropped;
        total.stolen += cov.stolen;
        total.failed_over += cov.failed_over;
        total.resumed += cov.resumed;
        total.zombie_frames += cov.zombie_frames;
        total.severed += cov.severed;
        total.lost_verdicts += cov.lost_verdicts;
    }
    println!("{mix:?}: {total:?}");
    total
}

#[test]
fn dropped_and_delayed_frames_keep_fingerprints_and_contexts() {
    let cov = simulate(Mix::Wire, 0..16);
    assert!(cov.dropped > 0 && cov.traced > 0, "{cov:?}");
}

#[test]
fn a_shard_silenced_mid_frame_fails_over_on_heartbeat_expiry() {
    let cov = simulate(Mix::Silence, 0..16);
    assert!(cov.failed_over > 0 && cov.resumed > 0, "{cov:?}");
}

#[test]
fn seeded_interleavings_keep_every_contract() {
    let cov = simulate(Mix::Any, 0..48);
    assert!(
        cov.stolen > 0 && cov.failed_over > 0 && cov.resumed > 0 && cov.zombie_frames > 0,
        "{cov:?}"
    );
    assert!(cov.severed > 0, "{cov:?}");
}

#[test]
fn losing_every_shard_is_a_typed_error() {
    let cov = simulate(Mix::Total, 0..16);
    assert_eq!(cov.lost_verdicts, cov.cases);
}

#[test]
#[ignore = "large budget: run in release (scripts/ci.sh does)"]
fn seeded_interleavings_keep_every_contract_soak() {
    simulate(Mix::Any, 0..20_000);
    simulate(Mix::Total, 0..2_000);
}
