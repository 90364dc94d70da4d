//! One hostile-input property for every decoder in the workspace.
//!
//! For seeded random values of every [`Codec`] type — the fabric's
//! messages and jobs, every payload they carry, and the checkpoint file
//! behind its magic — and for the golden corpus under
//! `tests/golden/codec/`:
//!
//! * `enc(dec(enc(x))) == enc(x)`;
//! * every proper prefix of an encoding is an `Err`;
//! * seeded byte flips and inflated count fields give `Ok` or a typed
//!   [`WireError`], never a panic;
//! * no decode holds more than `(D + 2r)·n` bytes of heap for an
//!   `n`-byte input (the bound `airshed_core::codec` derives), measured
//!   by the counting allocator below.
//!
//! `cargo test` runs a small budget; `cargo test --release -p
//! airshed-fabric --test codec -- --ignored` runs the large one.
//! A failure names the type, the seed and the mutation.

use airshed_chem::youngboris::{AsymptoticForm, YbOptions};
use airshed_core::checkpoint::Checkpoint;
use airshed_core::codec::{self, intern, Codec, WireError, MAX_INTERNED_NAMES};
use airshed_core::config::{DatasetChoice, SimConfig, Weather};
use airshed_core::driver::{run_with_profile_on, ChemLayout, PlanLayouts, PlanMemoStats};
use airshed_core::obs::dist::TraceContext;
use airshed_core::plan::replay_profile;
use airshed_core::predict::{CommOccurrences, PerfModel, PricedModel, PRICE_MEMO_ENTRIES};
use airshed_core::profile::{HourProfile, StepProfile, WorkProfile};
use airshed_core::report::{CommStepSummary, CopyBytes, LatencyAnatomy, RunReport};
use airshed_core::state::{HourSummary, SimState};
use airshed_core::ExecSpec;
use airshed_fabric::proto::MAX_NODES;
use airshed_fabric::{Msg, ScenarioJob};
use airshed_machine::MachineProfile;
use airshed_server::ResumePoint;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

// ---------------------------------------------------------------------------
// Counting allocator: per-thread live bytes and their peak, so tests
// running side by side do not see each other's allocations. A realloc
// counts as a resize.
// ---------------------------------------------------------------------------

struct Counting;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn account(delta: i64) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping touches only
// const-initialised thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        account(layout.size() as i64);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        account(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        account(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f()`'s result and the most heap this thread held above its starting
/// point while computing it.
fn peak_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(start));
    let r = f();
    (r, (PEAK.with(Cell::get) - start) as usize)
}

/// `size_of` over `MIN_BYTES`: the most heap one element can cost per
/// byte it was encoded in.
fn ratio<T: Codec>() -> f64 {
    size_of::<T>() as f64 / T::MIN_BYTES as f64
}

/// The codec's allocation bound for an `n`-byte input, `(D + 2r)·n`:
/// `D = 3` is the deepest nesting of vectors (a profile's hours, an
/// hour's steps, a step's per-layer work) and `r` the largest ratio of
/// a vector element or boxed value. Derived, not tuned.
fn bound(n: usize) -> usize {
    let r = [
        ratio::<f64>(),
        ratio::<StepProfile>(),
        ratio::<HourProfile>(),
        ratio::<HourSummary>(),
        ratio::<CommStepSummary>(),
        ratio::<RunReport>(),
        ratio::<ScenarioJob>(),
        ratio::<ResumePoint>(),
    ]
    .into_iter()
    .fold(0.0, f64::max);
    ((3.0 + 2.0 * r) * n as f64) as usize
}

/// What a hostile peer can make a process keep through names is bounded
/// by the interning cap, once per process, not per decode: fill the set
/// so a flipped name is refused (a typed error) rather than kept.
fn fill_the_name_set() {
    for i in 0..MAX_INTERNED_NAMES {
        if intern(&format!("fixture {i}")).is_err() {
            break;
        }
    }
}

// ---------------------------------------------------------------------------
// Seeded values of every Codec type
// ---------------------------------------------------------------------------

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
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    fn coin(&mut self) -> bool {
        self.next() & 1 == 1
    }
    fn u32(&mut self) -> u32 {
        self.next() as u32
    }
    fn usize(&mut self) -> usize {
        [0, 1, 7, usize::MAX, self.next() as usize][self.below(5) as usize]
    }
    /// Any bit pattern, NaN payloads and `-0.0` included.
    fn f64(&mut self) -> f64 {
        let special = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NAN,
            1.5e300,
        ];
        match self.below(3) {
            0 => special[self.below(6) as usize],
            1 => self.next() as f64 / u64::MAX as f64,
            _ => f64::from_bits(self.next()),
        }
    }
    /// A finite positive value of any magnitude.
    fn positive(&mut self) -> f64 {
        Some(self.f64().abs())
            .filter(|x| x.is_finite() && *x > 0.0)
            .unwrap_or(1.0)
    }
    fn f64s(&mut self) -> Vec<f64> {
        self.vec(Rng::f64)
    }
    fn vec<T>(&mut self, mut f: impl FnMut(&mut Rng) -> T) -> Vec<T> {
        (0..self.below(4)).map(|_| f(self)).collect()
    }
    fn string(&mut self) -> String {
        self.vec(|r| ["a", "Z", " ", "é", "✓", "->"][r.below(6) as usize])
            .concat()
    }
    fn option<T>(&mut self, f: impl FnOnce(&mut Rng) -> T) -> Option<T> {
        self.coin().then(|| f(self))
    }
    /// Names decode through the interning set, which tests keep full:
    /// only canonical names round-trip.
    fn name(&mut self) -> &'static str {
        [
            "LA",
            "NE",
            "TINY",
            "TEST",
            "Cray T3E",
            "Cray T3D",
            "Intel Paragon",
        ][self.below(7) as usize]
    }
}

fn machine(r: &mut Rng) -> MachineProfile {
    MachineProfile {
        name: r.name(),
        rate: r.f64(),
        latency: r.f64(),
        byte_cost: r.f64(),
        copy_cost: r.f64(),
        word_size: r.usize(),
    }
}

/// Any configuration `SimConfig::validate` accepts.
fn config(r: &mut Rng) -> SimConfig {
    let (a, b) = (r.positive(), r.positive());
    SimConfig {
        dataset: [
            DatasetChoice::LosAngeles,
            DatasetChoice::NorthEast,
            DatasetChoice::Tiny(r.usize()),
        ][r.below(3) as usize],
        machine: machine(r),
        p: r.usize().max(1),
        hours: r.usize(),
        start_hour: r.usize(),
        kh: Some(r.f64()).filter(|k| k.is_finite()).unwrap_or(0.0),
        chem_opts: YbOptions {
            eps: r.positive(),
            atol: r.f64(),
            h_min: a.min(b),
            h_max: a.max(b),
            stiff_ratio: r.f64(),
            form: [AsymptoticForm::Rational, AsymptoticForm::Exponential][r.below(2) as usize],
        },
        weather: [Weather::Ventilated, Weather::Stagnation][r.below(2) as usize],
        emission_scale: if r.coin() { 0.0 } else { r.positive() },
    }
}

fn layout(r: &mut Rng) -> ChemLayout {
    [
        ChemLayout::Block,
        ChemLayout::Cyclic,
        ChemLayout::BlockCyclic(r.usize()),
    ][r.below(3) as usize]
}

fn ctx(r: &mut Rng) -> TraceContext {
    TraceContext {
        trace_id: r.next(),
        parent_span: r.next(),
        job_id: r.next(),
    }
}

fn summary(r: &mut Rng) -> HourSummary {
    HourSummary {
        hour: r.usize(),
        max_o3: r.f64(),
        mean_o3: r.f64(),
        mean_nox: r.f64(),
        mean_total_n: r.f64(),
    }
}

fn profile(r: &mut Rng) -> WorkProfile {
    WorkProfile {
        dataset: r.name(),
        shape: [r.usize(), r.usize(), r.usize()],
        hours: r.vec(|r| HourProfile {
            input_work: r.f64(),
            pretrans_work: r.f64(),
            output_work: r.f64(),
            input_bytes: r.usize(),
            steps: r.vec(|r| StepProfile {
                transport1: r.f64s(),
                transport2: r.f64s(),
                chemistry: r.f64s(),
                aerosol: r.f64(),
            }),
            surface: r.f64s(),
        }),
        summaries: r.vec(summary),
    }
}

/// A valid model: one per-item entry per layer and per column.
fn model(r: &mut Rng) -> PerfModel {
    let shape = [r.usize(), r.below(4) as usize, r.below(4) as usize];
    PerfModel {
        shape,
        seq_io: r.f64(),
        seq_transport: r.f64(),
        seq_chemistry: r.f64(),
        seq_aerosol: r.f64(),
        steps: r.usize(),
        hours: r.usize(),
        occurrences: CommOccurrences {
            repl_to_trans: r.usize(),
            trans_to_chem: r.usize(),
            chem_to_repl: r.usize(),
            trans_to_repl: r.usize(),
        },
        transport_per_item: (0..shape[1]).map(|_| r.f64()).collect(),
        chemistry_per_item: (0..shape[2]).map(|_| r.f64()).collect(),
    }
}

fn report(r: &mut Rng) -> RunReport {
    RunReport {
        dataset: r.string(),
        machine: r.string(),
        p: r.usize(),
        hours: r.usize(),
        total_seconds: r.f64(),
        io_seconds: r.f64(),
        transport_seconds: r.f64(),
        chemistry_seconds: r.f64(),
        communication_seconds: r.f64(),
        popexp_seconds: r.f64(),
        comm_steps: r.vec(|r| CommStepSummary {
            label: r.string(),
            total_seconds: r.f64(),
            count: r.usize(),
        }),
        summaries: r.vec(summary),
        backend: r.string(),
        predicted_seconds: r.option(Rng::f64),
        plan_layouts: r.option(Rng::string),
        plan_delta_seconds: r.option(Rng::f64),
        dedup_saved_bytes: r.option(Rng::next),
        dedup_saved_seconds: r.option(Rng::f64),
        anatomy: r.option(|r| LatencyAnatomy {
            queued_ms: r.next(),
            exec_us: r.next(),
            wire_us: r.next(),
            reply_us: r.next(),
            end_to_end_ms: r.next(),
            hours: r.u32(),
            segments: r.u32(),
            stolen: r.u32(),
            failed_over: r.u32(),
        }),
        copy_bytes: r.option(|r| CopyBytes {
            redist_local: r.next(),
            soa_staging: r.next(),
            result_serialization: r.next(),
        }),
    }
}

/// A valid checkpoint: as many concentrations as its shape says, every
/// one finite and non-negative.
fn checkpoint(r: &mut Rng) -> Checkpoint {
    let [species, layers, nodes] = [0; 3].map(|_| r.below(4) as usize);
    Checkpoint {
        next_hour: r.usize(),
        state: SimState {
            conc: (0..species * layers * nodes)
                .map(|_| [0.0, -0.0, r.next() as f64 / 7.0][r.below(3) as usize])
                .collect(),
            species,
            layers,
            nodes,
        },
    }
}

fn resume(r: &mut Rng) -> ResumePoint {
    ResumePoint {
        checkpoint: checkpoint(r),
        partial: profile(r),
    }
}

/// A job the codec accepts: one to `MAX_NODES` nodes, and no
/// `CYCLIC(0)` (the refused ones are
/// `an_assign_a_shard_cannot_replay_is_refused`).
fn job(r: &mut Rng) -> ScenarioJob {
    let mut config = config(r);
    config.p = config.p.clamp(1, MAX_NODES);
    let layout = match layout(r) {
        ChemLayout::BlockCyclic(b) => ChemLayout::BlockCyclic(b.max(1)),
        other => other,
    };
    ScenarioJob {
        config,
        layout,
        resume: r.option(resume),
    }
}

fn msg(r: &mut Rng) -> Msg {
    match r.below(8) {
        0 => Msg::Hello {
            name: r.string(),
            workers: r.u32(),
            sent_us: r.next(),
        },
        1 => Msg::Heartbeat {
            seq: r.next(),
            sent_us: r.next(),
            plans: PlanMemoStats {
                hits: r.next(),
                misses: r.next(),
                entries: r.next(),
            },
        },
        2 => Msg::Assign {
            job: r.next(),
            ctx: ctx(r),
            work: Box::new(job(r)),
        },
        3 => Msg::Progress {
            job: r.next(),
            ctx: ctx(r),
            sent_us: r.next(),
            hour_us: r.next(),
            resume: Box::new(resume(r)),
        },
        4 => Msg::Completed {
            job: r.next(),
            ctx: ctx(r),
            sent_us: r.next(),
            report: Box::new(report(r)),
        },
        5 => Msg::Failed {
            job: r.next(),
            ctx: ctx(r),
            message: r.string(),
        },
        6 => Msg::Calibrated {
            job: r.next(),
            model: model(r),
        },
        _ => Msg::Shutdown,
    }
}

// ---------------------------------------------------------------------------
// The property
// ---------------------------------------------------------------------------

/// One decoder and the encoder that inverts it.
struct Format<'a, T> {
    name: &'a str,
    decode: &'a dyn Fn(&[u8]) -> Result<T, WireError>,
    encode: &'a dyn Fn(&T) -> Vec<u8>,
}

impl<T> Format<'_, T> {
    /// Decode under the property's two guards: no panic, and no more
    /// heap than the bound allows.
    fn decode_guarded(&self, bytes: &[u8], case: &dyn Fn() -> String) -> Result<T, WireError> {
        let (result, peak) =
            peak_during(|| catch_unwind(AssertUnwindSafe(|| (self.decode)(bytes))));
        let result =
            result.unwrap_or_else(|_| panic!("{}: decoder panicked ({})", self.name, case()));
        assert!(
            peak <= bound(bytes.len()),
            "{}: {peak} bytes held decoding {} ({})",
            self.name,
            bytes.len(),
            case()
        );
        result
    }

    /// The whole property on one encoding, with `mutations` seeded byte
    /// flips and inflated counts at every offset when `every_offset`, or
    /// at `mutations` seeded offsets otherwise.
    fn check(&self, bytes: &[u8], seed: u64, mutations: usize, every_offset: bool) {
        let back = self
            .decode_guarded(bytes, &|| format!("seed {seed}, intact"))
            .unwrap_or_else(|e| panic!("{}: seed {seed} does not decode: {e}", self.name));
        assert!(
            (self.encode)(&back) == bytes,
            "{}: seed {seed} re-encodes differently",
            self.name
        );
        if every_offset {
            for cut in 0..bytes.len() {
                let r = self.decode_guarded(&bytes[..cut], &|| format!("seed {seed}, cut {cut}"));
                assert!(
                    r.is_err(),
                    "{}: seed {seed}, a {cut}-byte prefix decodes",
                    self.name
                );
            }
        }
        let mut rng = Rng(seed);
        for flip in 0..mutations {
            let mut b = bytes.to_vec();
            for _ in 0..=rng.below(3) {
                if !b.is_empty() {
                    let at = rng.below(b.len() as u64) as usize;
                    b[at] ^= rng.below(255) as u8 + 1;
                }
            }
            let _ = self.decode_guarded(&b, &|| format!("seed {seed}, flip set {flip}"));
        }
        let offsets: Vec<usize> = if every_offset {
            (0..bytes.len().saturating_sub(3)).collect()
        } else if bytes.len() > 4 {
            (0..mutations)
                .map(|_| rng.below(bytes.len() as u64 - 3) as usize)
                .collect()
        } else {
            Vec::new()
        };
        for at in offsets {
            // The rest of the input, claimed at 1 to 80 bytes per element
            // (every element minimum in the tree), and the largest count.
            let unread = (bytes.len() - at - 4) as u32;
            let claims = [1, 4, 8, 20, 40, 80].map(|per_element| unread / per_element);
            for claim in claims.into_iter().chain([u32::MAX]) {
                let mut b = bytes.to_vec();
                b[at..at + 4].copy_from_slice(&claim.to_le_bytes());
                let _ = self.decode_guarded(&b, &|| {
                    format!("seed {seed}, count {claim} written at byte {at}")
                });
            }
        }
    }
}

fn codec_format<'a, T: Codec>(name: &'a str) -> Format<'a, T> {
    Format {
        name,
        decode: &|b| codec::decode::<T>(b),
        encode: &|v| codec::encode(v),
    }
}

/// Run the property over `cases` seeded values of `T`.
fn property<T: Codec>(name: &str, cases: u64, gen: fn(&mut Rng) -> T) {
    let format = codec_format::<T>(name);
    for seed in 0..cases {
        let value = gen(&mut Rng(seed));
        format.check(&codec::encode(&value), seed, 16, true);
    }
}

fn every_codec_type(cases: u64) {
    fill_the_name_set();
    property("TraceContext", cases, ctx);
    property("SimConfig", cases, config);
    property("ChemLayout", cases, layout);
    property("MachineProfile", cases, machine);
    property("HourSummary", cases, summary);
    property("WorkProfile", cases, profile);
    property("PerfModel", cases, model);
    property("RunReport", cases, report);
    property("Checkpoint", cases, checkpoint);
    property("ResumePoint", cases, resume);
    property("ScenarioJob", cases, job);
    property("Msg", cases, msg);
    property("Option<Vec<String>>", cases, |r| {
        r.option(|r| r.vec(Rng::string))
    });
    // The checkpoint file behind its magic, and a message payload under
    // its frame's tag.
    let file = Format {
        name: "ASHCKPT1 file",
        decode: &Checkpoint::decode,
        encode: &Checkpoint::encode,
    };
    for seed in 0..cases {
        file.check(&checkpoint(&mut Rng(seed)).encode(), seed, 16, true);
    }
    for seed in 0..cases {
        let m = msg(&mut Rng(seed));
        let tag = m.tag();
        let payload = Format {
            name: "Msg payload",
            decode: &|b| Msg::decode(tag, b),
            encode: &Msg::encode,
        };
        payload.check(&m.encode(), seed, 16, true);
    }
}

#[test]
fn every_codec_type_round_trips_and_refuses_hostile_bytes() {
    every_codec_type(24);
}

#[test]
#[ignore = "large budget: run in release (scripts/ci.sh does)"]
fn every_codec_type_round_trips_and_refuses_hostile_bytes_soak() {
    every_codec_type(1_500);
}

/// The golden corpus is real data at full size: every file round-trips
/// and survives seeded corruption under the same guards.
#[test]
fn golden_files_survive_seeded_corruption() {
    fill_the_name_set();
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/codec");
    for tag in [1u8, 3, 4, 5, 6, 7, 9, 10] {
        let bytes = std::fs::read(dir.join(format!("msg_tag{tag}.bin"))).unwrap();
        let payload = Format {
            name: &format!("golden tag {tag}"),
            decode: &|b| Msg::decode(tag, b),
            encode: &Msg::encode,
        };
        payload.check(&bytes, u64::from(tag), 32, bytes.len() < 4096);
    }
    let bytes = std::fs::read(dir.join("checkpoint.ashckpt1")).unwrap();
    let file = Format {
        name: "golden checkpoint",
        decode: &Checkpoint::decode,
        encode: &Checkpoint::encode,
    };
    file.check(&bytes, 0, 32, false);
}

/// `Msg::Assign` carrying one tiny job on `p` nodes under `layout`,
/// encoded and decoded again.
fn assign(p: usize, layout: ChemLayout) -> Result<Msg, WireError> {
    let config = SimConfig {
        p,
        ..SimConfig::test_tiny(4, 1)
    };
    assign_config(config, layout)
}

/// `Msg::Assign` carrying `config` under `layout`, encoded and decoded
/// again.
fn assign_config(config: SimConfig, layout: ChemLayout) -> Result<Msg, WireError> {
    let msg = Msg::Assign {
        job: 7,
        ctx: TraceContext {
            trace_id: 1,
            parent_span: 2,
            job_id: 7,
        },
        work: Box::new(ScenarioJob {
            config,
            layout,
            resume: None,
        }),
    };
    Msg::decode(msg.tag(), &msg.encode())
}

/// An `Assign` whose configuration would hang or panic a worker — a NaN
/// chemistry tolerance (every substep at `h_min`), `h_min > h_max` (the
/// step control's clamp panics), a NaN emission scale (the scaling's
/// assert) and their neighbours — is a typed decode error, not a job;
/// the stock configurations decode.
#[test]
fn an_assign_a_worker_cannot_run_is_refused() {
    for config in [
        SimConfig::new(DatasetChoice::LosAngeles, 16),
        SimConfig::new(DatasetChoice::Tiny(60), 1),
        SimConfig::test_tiny(4, 1),
    ] {
        assert!(assign_config(config, ChemLayout::Block).is_ok());
    }
    type Spoil = fn(&mut SimConfig);
    let spoilt: [(&str, Spoil); 10] = [
        ("NaN eps", |c| c.chem_opts.eps = f64::NAN),
        ("zero eps", |c| c.chem_opts.eps = 0.0),
        ("infinite eps", |c| c.chem_opts.eps = f64::INFINITY),
        ("h_min > h_max", |c| {
            c.chem_opts.h_min = 2.0 * c.chem_opts.h_max
        }),
        ("zero h_min", |c| c.chem_opts.h_min = 0.0),
        ("NaN h_max", |c| c.chem_opts.h_max = f64::NAN),
        ("NaN kh", |c| c.kh = f64::NAN),
        ("NaN emission scale", |c| c.emission_scale = f64::NAN),
        ("negative emission scale", |c| c.emission_scale = -0.5),
        ("infinite emission scale", |c| {
            c.emission_scale = f64::INFINITY
        }),
    ];
    for (what, spoil) in spoilt {
        let mut config = SimConfig::test_tiny(4, 1);
        spoil(&mut config);
        match assign_config(config, ChemLayout::Block) {
            Err(WireError::Malformed(_)) => {}
            other => panic!("{what}: {other:?}"),
        }
    }
}

/// An `Assign` a shard cannot replay — no nodes, more nodes than
/// `MAX_NODES` (whose plans would abort the shard on allocation), or a
/// block-cyclic run of no items — is a typed decode error, not a job.
#[test]
fn an_assign_a_shard_cannot_replay_is_refused() {
    assert!(assign(4, ChemLayout::BlockCyclic(1)).is_ok());
    assert!(assign(MAX_NODES, ChemLayout::Block).is_ok());
    for (p, layout) in [
        (4, ChemLayout::BlockCyclic(0)),
        (0, ChemLayout::Block),
        (1 << 36, ChemLayout::Block),
        (MAX_NODES + 1, ChemLayout::Block),
    ] {
        match assign(p, layout) {
            Err(WireError::Malformed(_)) => {}
            other => panic!("p = {p}, {layout}: {other:?}"),
        }
    }
}

/// A decoded `Assign` carrying `CYCLIC(2^62)` on 64 nodes — a run so
/// long that `p·b` overflows — replays as a shard replays it, without
/// panicking: every column lands on node 0, as under `CYCLIC(n)` for
/// the grid's `n` columns.
#[test]
fn an_assign_whose_run_overflows_replays_on_node_zero() {
    let Ok(Msg::Assign { work, .. }) = assign(64, ChemLayout::BlockCyclic(1 << 62)) else {
        panic!("the job is well formed");
    };
    let (_, profile) = run_with_profile_on(&work.config, ExecSpec::serial());
    let replay = |layout| replay_profile(&profile, work.config.machine, work.config.p, layout);
    let report = replay(work.layout);
    let one_run = replay(ChemLayout::BlockCyclic(profile.shape[2]));
    assert!(report.total_seconds > 0.0);
    assert_eq!(
        report.total_seconds.to_bits(),
        one_run.total_seconds.to_bits()
    );
}

/// A machine arrives in an `Assign` frame, so the machines one family
/// is priced on are outside input: over three times the memo's bound of
/// distinct hostile machines (NaN, ±∞, 0 and any bit pattern in every
/// field) the serving price memo stays within its bound, a hit returns
/// the priced bits, and nothing panics. A NaN price is a value here.
#[test]
fn hostile_machines_keep_the_price_memo_bounded() {
    let (_, profile) = run_with_profile_on(&SimConfig::test_tiny(2, 1), ExecSpec::serial());
    let priced = PricedModel::new(PerfModel::from_profile(&profile));
    let mut r = Rng(41);
    for case in 0..3 * PRICE_MEMO_ENTRIES {
        let machine = machine(&mut r);
        let p = 1 + r.below(64) as usize;
        let plan = PlanLayouts::chem([ChemLayout::Block, ChemLayout::Cyclic][r.below(2) as usize]);
        let price = priced.hour_price(&machine, p, plan);
        let again = priced.hour_price(&machine, p, plan);
        assert_eq!(
            again.to_bits(),
            price.to_bits(),
            "case {case}: {machine:?} P={p}"
        );
        assert!(priced.memo_entries() <= PRICE_MEMO_ENTRIES, "case {case}");
    }
}

/// A vector never reserves more memory than there are unread bytes: a
/// count admitted at its elements' minimum size, over bytes whose first
/// element is refused, holds no more than those bytes.
#[test]
fn a_refused_first_element_holds_no_more_than_the_bytes_behind_its_count() {
    fn check<T: Codec>() {
        let body = vec![0xff; 4096];
        let mut bytes = ((body.len() / T::MIN_BYTES) as u32).to_le_bytes().to_vec();
        bytes.extend(body);
        let (result, peak) = peak_during(|| codec::decode::<Vec<T>>(&bytes));
        assert!(result.is_err());
        assert!(peak <= bytes.len(), "{peak} bytes held for {}", bytes.len());
    }
    check::<StepProfile>();
    check::<HourProfile>();
    check::<CommStepSummary>();
}

/// A profile whose hour count and first step count each claim every
/// byte left behind them — at one byte per element, at eight, or at the
/// element's own minimum (the largest claim the count check admits) —
/// holds no more than the codec's bound. Reserving for the claim, as a
/// per-element check of 8 bytes against 80-byte `HourProfile` and
/// `StepProfile` values would, held ≈ 19× the input.
#[test]
fn an_inflated_profile_holds_no_more_than_the_bound() {
    let (_, profile) = run_with_profile_on(&SimConfig::test_tiny(2, 1), ExecSpec::serial());
    let bytes = codec::encode(&profile);
    // The dataset name (u32 length and bytes) and the shape (three u64s)
    // come first, then the hour count; the first hour's three works and
    // input bytes (four u64s) come before its step count.
    let hours_at = 4 + profile.dataset.len() + 24;
    let steps_at = hours_at + 4 + 32;
    let count_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    assert_eq!(count_at(hours_at) as usize, profile.hours.len());
    assert_eq!(count_at(steps_at) as usize, profile.hours[0].steps.len());
    let claim_rest = |b: &mut Vec<u8>, at: usize, per_element: usize| {
        let n = ((b.len() - at - 4) / per_element) as u32;
        b[at..at + 4].copy_from_slice(&n.to_le_bytes());
    };
    let mut worst = 0.0f64;
    for per_hour in [1, 8, HourProfile::MIN_BYTES] {
        for per_step in [1, 8, StepProfile::MIN_BYTES] {
            let mut b = bytes.clone();
            claim_rest(&mut b, hours_at, per_hour);
            claim_rest(&mut b, steps_at, per_step);
            let (result, peak) = peak_during(|| codec::decode::<WorkProfile>(&b));
            assert!(result.is_err(), "the claims cannot all be met");
            assert!(
                peak <= bound(b.len()),
                "{per_hour}/{per_step} bytes per hour/step: {peak} bytes held for a {}-byte input, bound {}",
                b.len(),
                bound(b.len())
            );
            worst = worst.max(peak as f64 / b.len() as f64);
        }
    }
    println!(
        "inflated profile: at most {worst:.2}x its {} bytes held (bound {:.2}x)",
        bytes.len(),
        bound(1_000_000) as f64 / 1e6
    );
}
