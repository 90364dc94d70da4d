//! The fabric message set and its hand-rolled codecs.
//!
//! One [`Msg`] enum covers both directions of a front-end <-> shard
//! connection; [`Msg::encode`]/[`Msg::decode`] map it onto the
//! [`crate::wire`] frame format. The domain payloads — [`SimConfig`],
//! [`MachineProfile`], [`WorkProfile`], [`RunReport`], [`PerfModel`],
//! [`ResumePoint`] — are encoded field-by-field with fixed-width
//! little-endian integers and raw `f64` bits (checkpoints reuse the
//! existing `ASHCKPT1` binary codec verbatim), so every number crosses
//! the wire bit-exactly and a failover resumed on another shard keeps
//! the repo's bit-identity guarantee.

use crate::wire::{Dec, Enc, WireError};
use airshed_chem::youngboris::{AsymptoticForm, YbOptions};
use airshed_core::checkpoint::Checkpoint;
use airshed_core::config::{DatasetChoice, SimConfig, Weather};
use airshed_core::driver::{ChemLayout, PlanMemoStats};
use airshed_core::obs::dist::TraceContext;
use airshed_core::predict::CommOccurrences;
use airshed_core::profile::{HourProfile, StepProfile};
use airshed_core::report::{CommStepSummary, CopyBytes, LatencyAnatomy};
use airshed_core::state::HourSummary;
use airshed_core::{PerfModel, RunReport, WorkProfile};
use airshed_machine::MachineProfile;
use airshed_server::ResumePoint;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::{Mutex, PoisonError};

/// Frame tag bytes, one per [`Msg`] variant. Tag 8 carried a message
/// that no longer exists; it is retired, never reused, so an old peer's
/// frame decodes to [`WireError::UnknownTag`].
pub mod tags {
    pub const HELLO: u8 = 1;
    pub const HEARTBEAT: u8 = 2;
    pub const ASSIGN: u8 = 3;
    pub const PROGRESS: u8 = 4;
    pub const COMPLETED: u8 = 5;
    pub const FAILED: u8 = 6;
    pub const CALIBRATED: u8 = 7;
    pub const SHUTDOWN: u8 = 9;
}

/// One scenario as shipped to a shard: the configuration, the replay
/// layout, and (after a failover) the resume state carrying the hours
/// already completed elsewhere.
#[derive(Debug, Clone)]
pub struct ScenarioJob {
    pub config: SimConfig,
    pub layout: ChemLayout,
    pub resume: Option<ResumePoint>,
}

/// Every message on a fabric connection.
///
/// Job-bearing messages carry a [`TraceContext`] so every shard-side
/// span parents under the front-end's job span; handshake and telemetry
/// messages carry `sent_us` (µs on the sender's trace clock, 0 when
/// untraced) so the front-end can bound each shard's clock offset and
/// the trace stitcher can place all processes on one timeline.
#[derive(Debug, Clone)]
pub enum Msg {
    /// Shard -> front-end, once per connection: identity and capacity.
    Hello {
        name: String,
        workers: u32,
        sent_us: u64,
    },
    /// Shard -> front-end liveness beacon with queue-depth telemetry and
    /// the shard process's plan-memo counters (cumulative; the front-end
    /// keeps the latest).
    Heartbeat {
        seq: u64,
        running: u32,
        queued: u32,
        sent_us: u64,
        plans: PlanMemoStats,
    },
    /// Front-end -> shard: run this job.
    Assign {
        job: u64,
        ctx: TraceContext,
        work: Box<ScenarioJob>,
    },
    /// Shard -> front-end, each hour boundary: the resume state the
    /// front-end will re-route from if this shard dies. `hour_us` is
    /// the shard-measured wall time of the hour just finished.
    Progress {
        job: u64,
        ctx: TraceContext,
        sent_us: u64,
        hour_us: u64,
        resume: Box<ResumePoint>,
    },
    /// Shard -> front-end: terminal success.
    Completed {
        job: u64,
        ctx: TraceContext,
        sent_us: u64,
        report: Box<RunReport>,
    },
    /// Shard -> front-end: terminal failure (panic in the numerics).
    Failed {
        job: u64,
        ctx: TraceContext,
        message: String,
    },
    /// Shard -> front-end: a fresh numerics run calibrated this job's
    /// scenario family; here is its §4 performance model.
    Calibrated { job: u64, model: PerfModel },
    /// Front-end -> shard: drain and exit.
    Shutdown,
}

impl Msg {
    /// The frame tag for this message.
    pub fn tag(&self) -> u8 {
        match self {
            Msg::Hello { .. } => tags::HELLO,
            Msg::Heartbeat { .. } => tags::HEARTBEAT,
            Msg::Assign { .. } => tags::ASSIGN,
            Msg::Progress { .. } => tags::PROGRESS,
            Msg::Completed { .. } => tags::COMPLETED,
            Msg::Failed { .. } => tags::FAILED,
            Msg::Calibrated { .. } => tags::CALIBRATED,
            Msg::Shutdown => tags::SHUTDOWN,
        }
    }

    /// Encode the payload (tag not included — it lives in the frame
    /// header).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            Msg::Hello {
                name,
                workers,
                sent_us,
            } => {
                e.str(name);
                e.u32(*workers);
                e.u64(*sent_us);
            }
            Msg::Heartbeat {
                seq,
                running,
                queued,
                sent_us,
                plans,
            } => {
                e.u64(*seq);
                e.u32(*running);
                e.u32(*queued);
                e.u64(*sent_us);
                e.u64(plans.hits);
                e.u64(plans.misses);
                e.u64(plans.entries);
            }
            Msg::Assign { job, ctx, work } => {
                e.u64(*job);
                enc_ctx(&mut e, ctx);
                enc_job(&mut e, work);
            }
            Msg::Progress {
                job,
                ctx,
                sent_us,
                hour_us,
                resume,
            } => {
                e.u64(*job);
                enc_ctx(&mut e, ctx);
                e.u64(*sent_us);
                e.u64(*hour_us);
                enc_resume(&mut e, resume);
            }
            Msg::Completed {
                job,
                ctx,
                sent_us,
                report,
            } => {
                e.u64(*job);
                enc_ctx(&mut e, ctx);
                e.u64(*sent_us);
                enc_report(&mut e, report);
            }
            Msg::Failed { job, ctx, message } => {
                e.u64(*job);
                enc_ctx(&mut e, ctx);
                e.str(message);
            }
            Msg::Calibrated { job, model } => {
                e.u64(*job);
                enc_model(&mut e, model);
            }
            Msg::Shutdown => {}
        }
        e.finish()
    }

    /// Decode a payload under a frame tag.
    pub fn decode(tag: u8, payload: &[u8]) -> Result<Msg, WireError> {
        let mut d = Dec::new(payload);
        let msg = match tag {
            tags::HELLO => Msg::Hello {
                name: d.str()?,
                workers: d.u32()?,
                sent_us: d.u64()?,
            },
            tags::HEARTBEAT => Msg::Heartbeat {
                seq: d.u64()?,
                running: d.u32()?,
                queued: d.u32()?,
                sent_us: d.u64()?,
                plans: PlanMemoStats {
                    hits: d.u64()?,
                    misses: d.u64()?,
                    entries: d.u64()?,
                },
            },
            tags::ASSIGN => Msg::Assign {
                job: d.u64()?,
                ctx: dec_ctx(&mut d)?,
                work: Box::new(dec_job(&mut d)?),
            },
            tags::PROGRESS => Msg::Progress {
                job: d.u64()?,
                ctx: dec_ctx(&mut d)?,
                sent_us: d.u64()?,
                hour_us: d.u64()?,
                resume: Box::new(dec_resume(&mut d)?),
            },
            tags::COMPLETED => Msg::Completed {
                job: d.u64()?,
                ctx: dec_ctx(&mut d)?,
                sent_us: d.u64()?,
                report: Box::new(dec_report(&mut d)?),
            },
            tags::FAILED => Msg::Failed {
                job: d.u64()?,
                ctx: dec_ctx(&mut d)?,
                message: d.str()?,
            },
            tags::CALIBRATED => Msg::Calibrated {
                job: d.u64()?,
                model: dec_model(&mut d)?,
            },
            tags::SHUTDOWN => Msg::Shutdown,
            other => return Err(WireError::UnknownTag(other)),
        };
        d.done()?;
        Ok(msg)
    }
}

/// Send one message over a raw writer.
pub fn send(w: &mut impl std::io::Write, msg: &Msg) -> std::io::Result<()> {
    crate::wire::write_frame(w, msg.tag(), &msg.encode())
}

/// Receive one message (blocking).
pub fn recv(r: &mut impl std::io::Read) -> Result<Msg, WireError> {
    let (tag, payload) = crate::wire::read_frame(r)?;
    Msg::decode(tag, &payload)
}

// ---------------------------------------------------------------------------
// Domain codecs
// ---------------------------------------------------------------------------

/// Names the codebase itself gives datasets and machines: decoding one
/// allocates nothing.
const CANONICAL_NAMES: [&str; 7] = [
    "LA",
    "NE",
    "TINY",
    "TEST",
    "Cray T3E",
    "Cray T3D",
    "Intel Paragon",
];
/// Most distinct non-canonical names one process will intern, and the
/// longest: together they bound what socket bytes can make it keep.
const MAX_INTERNED_NAMES: usize = 64;
const MAX_INTERNED_NAME_LEN: usize = 64;

/// Intern a decoded dataset or machine name into the `&'static str` the
/// profile structs carry. A name outside [`CANONICAL_NAMES`] (a test
/// fixture, a custom machine) is leaked once and found again on every
/// later decode; past the caps a new name is a decode error.
fn intern(name: &str) -> Result<&'static str, WireError> {
    static INTERNED: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    if let Some(canonical) = CANONICAL_NAMES.iter().find(|c| **c == name) {
        return Ok(canonical);
    }
    if name.len() > MAX_INTERNED_NAME_LEN {
        return Err(WireError::Malformed("name too long"));
    }
    // An insert leaves the set valid at every step, so a poisoned lock
    // still guards a usable set.
    let mut interned = INTERNED.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(known) = interned.get(name) {
        return Ok(known);
    }
    if interned.len() >= MAX_INTERNED_NAMES {
        return Err(WireError::Malformed("too many distinct names"));
    }
    let leaked: &'static str = Box::leak(name.into());
    interned.insert(leaked);
    Ok(leaked)
}

/// Trace context rides as three fixed u64s — no option prefix, so an
/// untraced run still carries the (all-zero) field and the frame layout
/// never forks on whether tracing is on. That is what keeps traced and
/// untraced runs bit-identical in everything the fingerprint covers.
fn enc_ctx(e: &mut Enc, c: &TraceContext) {
    e.u64(c.trace_id);
    e.u64(c.parent_span);
    e.u64(c.job_id);
}

fn dec_ctx(d: &mut Dec) -> Result<TraceContext, WireError> {
    Ok(TraceContext {
        trace_id: d.u64()?,
        parent_span: d.u64()?,
        job_id: d.u64()?,
    })
}

fn enc_config(e: &mut Enc, c: &SimConfig) {
    match c.dataset {
        DatasetChoice::LosAngeles => e.u8(0),
        DatasetChoice::NorthEast => e.u8(1),
        DatasetChoice::Tiny(n) => {
            e.u8(2);
            e.usize(n);
        }
    }
    enc_machine(e, &c.machine);
    e.usize(c.p);
    e.usize(c.hours);
    e.usize(c.start_hour);
    e.f64(c.kh);
    let o = &c.chem_opts;
    e.f64(o.eps);
    e.f64(o.atol);
    e.f64(o.h_min);
    e.f64(o.h_max);
    e.f64(o.stiff_ratio);
    e.bool(o.form == AsymptoticForm::Exponential);
    e.bool(c.weather == Weather::Stagnation);
    e.f64(c.emission_scale);
}

fn dec_config(d: &mut Dec) -> Result<SimConfig, WireError> {
    let dataset = match d.u8()? {
        0 => DatasetChoice::LosAngeles,
        1 => DatasetChoice::NorthEast,
        2 => DatasetChoice::Tiny(d.usize()?),
        _ => return Err(WireError::Malformed("unknown dataset choice")),
    };
    let machine = dec_machine(d)?;
    let p = d.usize()?;
    let hours = d.usize()?;
    let start_hour = d.usize()?;
    let kh = d.f64()?;
    let chem_opts = YbOptions {
        eps: d.f64()?,
        atol: d.f64()?,
        h_min: d.f64()?,
        h_max: d.f64()?,
        stiff_ratio: d.f64()?,
        form: if d.bool()? {
            AsymptoticForm::Exponential
        } else {
            AsymptoticForm::Rational
        },
    };
    let weather = if d.bool()? {
        Weather::Stagnation
    } else {
        Weather::Ventilated
    };
    let emission_scale = d.f64()?;
    Ok(SimConfig {
        dataset,
        machine,
        p,
        hours,
        start_hour,
        kh,
        chem_opts,
        weather,
        emission_scale,
    })
}

fn enc_machine(e: &mut Enc, m: &MachineProfile) {
    e.str(m.name);
    e.f64(m.rate);
    e.f64(m.latency);
    e.f64(m.byte_cost);
    e.f64(m.copy_cost);
    e.usize(m.word_size);
}

fn dec_machine(d: &mut Dec) -> Result<MachineProfile, WireError> {
    Ok(MachineProfile {
        name: intern(&d.str()?)?,
        rate: d.f64()?,
        latency: d.f64()?,
        byte_cost: d.f64()?,
        copy_cost: d.f64()?,
        word_size: d.usize()?,
    })
}

fn enc_layout(e: &mut Enc, l: ChemLayout) {
    match l {
        ChemLayout::Block => e.u8(0),
        ChemLayout::Cyclic => e.u8(1),
        ChemLayout::BlockCyclic(b) => {
            e.u8(2);
            e.usize(b);
        }
    }
}

fn dec_layout(d: &mut Dec) -> Result<ChemLayout, WireError> {
    match d.u8()? {
        0 => Ok(ChemLayout::Block),
        1 => Ok(ChemLayout::Cyclic),
        2 => Ok(ChemLayout::BlockCyclic(d.usize()?)),
        _ => Err(WireError::Malformed("unknown chem layout")),
    }
}

fn enc_job(e: &mut Enc, j: &ScenarioJob) {
    enc_config(e, &j.config);
    enc_layout(e, j.layout);
    match &j.resume {
        None => e.bool(false),
        Some(r) => {
            e.bool(true);
            enc_resume(e, r);
        }
    }
}

fn dec_job(d: &mut Dec) -> Result<ScenarioJob, WireError> {
    let config = dec_config(d)?;
    let layout = dec_layout(d)?;
    let resume = if d.bool()? {
        Some(dec_resume(d)?)
    } else {
        None
    };
    Ok(ScenarioJob {
        config,
        layout,
        resume,
    })
}

fn enc_resume(e: &mut Enc, r: &ResumePoint) {
    // Checkpoints already have a validated binary codec (`ASHCKPT1`);
    // nest those bytes rather than inventing a second format.
    e.bytes(&r.checkpoint.encode());
    enc_profile(e, &r.partial);
}

fn dec_resume(d: &mut Dec) -> Result<ResumePoint, WireError> {
    let ckpt = d.bytes()?;
    let checkpoint =
        Checkpoint::decode(ckpt).map_err(|_| WireError::Malformed("bad checkpoint"))?;
    let partial = dec_profile(d)?;
    Ok(ResumePoint {
        checkpoint,
        partial,
    })
}

/// The one byte encoding of a [`WorkProfile`]: what `Progress` frames
/// carry as the partial profile and what the figure harness's disk cache
/// stores after its magic.
pub fn enc_profile(e: &mut Enc, p: &WorkProfile) {
    e.str(p.dataset);
    for &s in &p.shape {
        e.usize(s);
    }
    e.u32(p.hours.len() as u32);
    for h in &p.hours {
        e.f64(h.input_work);
        e.f64(h.pretrans_work);
        e.f64(h.output_work);
        e.usize(h.input_bytes);
        e.u32(h.steps.len() as u32);
        for s in &h.steps {
            e.f64s(&s.transport1);
            e.f64s(&s.transport2);
            e.f64s(&s.chemistry);
            e.f64(s.aerosol);
        }
        e.f64s(&h.surface);
    }
    e.u32(p.summaries.len() as u32);
    for s in &p.summaries {
        enc_summary(e, s);
    }
}

/// Inverse of [`enc_profile`]. Every length prefix is checked against the
/// bytes actually present before anything is reserved for it, so a
/// truncated or corrupt input is an `Err`, never a huge allocation.
pub fn dec_profile(d: &mut Dec) -> Result<WorkProfile, WireError> {
    let dataset = intern(&d.str()?)?;
    let shape = [d.usize()?, d.usize()?, d.usize()?];
    let n_hours = d.len_prefix(8)?;
    let mut hours = Vec::with_capacity(n_hours);
    for _ in 0..n_hours {
        let input_work = d.f64()?;
        let pretrans_work = d.f64()?;
        let output_work = d.f64()?;
        let input_bytes = d.usize()?;
        let n_steps = d.len_prefix(8)?;
        let mut steps = Vec::with_capacity(n_steps);
        for _ in 0..n_steps {
            steps.push(StepProfile {
                transport1: d.f64s()?,
                transport2: d.f64s()?,
                chemistry: d.f64s()?,
                aerosol: d.f64()?,
            });
        }
        let surface = d.f64s()?;
        hours.push(HourProfile {
            input_work,
            pretrans_work,
            output_work,
            input_bytes,
            steps,
            surface,
        });
    }
    let n_sum = d.len_prefix(8)?;
    let summaries = (0..n_sum)
        .map(|_| dec_summary(d))
        .collect::<Result<_, _>>()?;
    Ok(WorkProfile {
        dataset,
        shape,
        hours,
        summaries,
    })
}

fn enc_summary(e: &mut Enc, s: &HourSummary) {
    e.usize(s.hour);
    e.f64(s.max_o3);
    e.f64(s.mean_o3);
    e.f64(s.mean_nox);
    e.f64(s.mean_total_n);
}

fn dec_summary(d: &mut Dec) -> Result<HourSummary, WireError> {
    Ok(HourSummary {
        hour: d.usize()?,
        max_o3: d.f64()?,
        mean_o3: d.f64()?,
        mean_nox: d.f64()?,
        mean_total_n: d.f64()?,
    })
}

fn enc_report(e: &mut Enc, r: &RunReport) {
    e.str(&r.dataset);
    e.str(&r.machine);
    e.usize(r.p);
    e.usize(r.hours);
    e.f64(r.total_seconds);
    e.f64(r.io_seconds);
    e.f64(r.transport_seconds);
    e.f64(r.chemistry_seconds);
    e.f64(r.communication_seconds);
    e.f64(r.popexp_seconds);
    e.u32(r.comm_steps.len() as u32);
    for c in &r.comm_steps {
        e.str(&c.label);
        e.f64(c.total_seconds);
        e.usize(c.count);
    }
    e.u32(r.summaries.len() as u32);
    for s in &r.summaries {
        enc_summary(e, s);
    }
    e.str(&r.backend);
    match r.predicted_seconds {
        None => e.bool(false),
        Some(p) => {
            e.bool(true);
            e.f64(p);
        }
    }
    match &r.plan_layouts {
        None => e.bool(false),
        Some(l) => {
            e.bool(true);
            e.str(l);
        }
    }
    match r.plan_delta_seconds {
        None => e.bool(false),
        Some(s) => {
            e.bool(true);
            e.f64(s);
        }
    }
    match r.dedup_saved_bytes {
        None => e.bool(false),
        Some(b) => {
            e.bool(true);
            e.u64(b);
        }
    }
    match r.dedup_saved_seconds {
        None => e.bool(false),
        Some(s) => {
            e.bool(true);
            e.f64(s);
        }
    }
    match &r.anatomy {
        None => e.bool(false),
        Some(a) => {
            e.bool(true);
            e.u64(a.queued_ms);
            e.u64(a.exec_us);
            e.u64(a.wire_us);
            e.u64(a.reply_us);
            e.u64(a.end_to_end_ms);
            e.u32(a.hours);
            e.u32(a.segments);
            e.u32(a.stolen);
            e.u32(a.failed_over);
        }
    }
    match &r.copy_bytes {
        None => e.bool(false),
        Some(c) => {
            e.bool(true);
            e.u64(c.redist_local);
            e.u64(c.soa_staging);
            e.u64(c.result_serialization);
        }
    }
}

fn dec_report(d: &mut Dec) -> Result<RunReport, WireError> {
    let dataset = d.str()?;
    let machine = d.str()?;
    let p = d.usize()?;
    let hours = d.usize()?;
    let total_seconds = d.f64()?;
    let io_seconds = d.f64()?;
    let transport_seconds = d.f64()?;
    let chemistry_seconds = d.f64()?;
    let communication_seconds = d.f64()?;
    let popexp_seconds = d.f64()?;
    let n_comm = d.len_prefix(8)?;
    let mut comm_steps = Vec::with_capacity(n_comm);
    for _ in 0..n_comm {
        comm_steps.push(CommStepSummary {
            label: d.str()?,
            total_seconds: d.f64()?,
            count: d.usize()?,
        });
    }
    let n_sum = d.len_prefix(8)?;
    let summaries = (0..n_sum)
        .map(|_| dec_summary(d))
        .collect::<Result<_, _>>()?;
    let backend = d.str()?;
    let predicted_seconds = if d.bool()? { Some(d.f64()?) } else { None };
    let plan_layouts = if d.bool()? { Some(d.str()?) } else { None };
    let plan_delta_seconds = if d.bool()? { Some(d.f64()?) } else { None };
    let dedup_saved_bytes = if d.bool()? { Some(d.u64()?) } else { None };
    let dedup_saved_seconds = if d.bool()? { Some(d.f64()?) } else { None };
    let anatomy = if d.bool()? {
        Some(LatencyAnatomy {
            queued_ms: d.u64()?,
            exec_us: d.u64()?,
            wire_us: d.u64()?,
            reply_us: d.u64()?,
            end_to_end_ms: d.u64()?,
            hours: d.u32()?,
            segments: d.u32()?,
            stolen: d.u32()?,
            failed_over: d.u32()?,
        })
    } else {
        None
    };
    let copy_bytes = if d.bool()? {
        Some(CopyBytes {
            redist_local: d.u64()?,
            soa_staging: d.u64()?,
            result_serialization: d.u64()?,
        })
    } else {
        None
    };
    Ok(RunReport {
        dataset,
        machine,
        p,
        hours,
        total_seconds,
        io_seconds,
        transport_seconds,
        chemistry_seconds,
        communication_seconds,
        popexp_seconds,
        comm_steps,
        summaries,
        backend,
        predicted_seconds,
        plan_layouts,
        plan_delta_seconds,
        dedup_saved_bytes,
        dedup_saved_seconds,
        anatomy,
        copy_bytes,
    })
}

fn enc_model(e: &mut Enc, m: &PerfModel) {
    for &s in &m.shape {
        e.usize(s);
    }
    e.f64(m.seq_io);
    e.f64(m.seq_transport);
    e.f64(m.seq_chemistry);
    e.f64(m.seq_aerosol);
    e.usize(m.steps);
    e.usize(m.hours);
    let o = &m.occurrences;
    e.usize(o.repl_to_trans);
    e.usize(o.trans_to_chem);
    e.usize(o.chem_to_repl);
    e.usize(o.trans_to_repl);
    e.f64s(&m.transport_per_item);
    e.f64s(&m.chemistry_per_item);
}

fn dec_model(d: &mut Dec) -> Result<PerfModel, WireError> {
    let model = PerfModel {
        shape: [d.usize()?, d.usize()?, d.usize()?],
        seq_io: d.f64()?,
        seq_transport: d.f64()?,
        seq_chemistry: d.f64()?,
        seq_aerosol: d.f64()?,
        steps: d.usize()?,
        hours: d.usize()?,
        occurrences: CommOccurrences {
            repl_to_trans: d.usize()?,
            trans_to_chem: d.usize()?,
            chem_to_repl: d.usize()?,
            trans_to_repl: d.usize()?,
        },
        transport_per_item: d.f64s()?,
        chemistry_per_item: d.f64s()?,
    };
    // Layout pricing folds these per layer and per column.
    if model.transport_per_item.len() != model.shape[1]
        || model.chemistry_per_item.len() != model.shape[2]
    {
        return Err(WireError::Malformed("per-item work does not match shape"));
    }
    Ok(model)
}

/// Canonical fingerprint of a [`RunReport`]'s *deterministic* content:
/// every `f64` as its exact bit pattern, every count verbatim. The
/// host-dependent fields — `backend` (which machine ran the kernels),
/// `predicted_seconds` and the `plan_*` annotations (routing-time model
/// state) — are excluded,
/// so a report computed behind the fabric (possibly resumed across a
/// shard failover) fingerprints identically to a single-process run of
/// the same scenario. The CI smoke test diffs these files.
pub fn report_fingerprint(r: &RunReport) -> String {
    let mut s = String::new();
    let _ = write!(s, "{}|{}|p{}|h{}", r.dataset, r.machine, r.p, r.hours);
    for v in [
        r.total_seconds,
        r.io_seconds,
        r.transport_seconds,
        r.chemistry_seconds,
        r.communication_seconds,
        r.popexp_seconds,
    ] {
        let _ = write!(s, "|{:016x}", v.to_bits());
    }
    for c in &r.comm_steps {
        let _ = write!(
            s,
            "|{}:{:016x}:{}",
            c.label,
            c.total_seconds.to_bits(),
            c.count
        );
    }
    for h in &r.summaries {
        let _ = write!(
            s,
            "|{}:{:016x}:{:016x}:{:016x}:{:016x}",
            h.hour,
            h.max_o3.to_bits(),
            h.mean_o3.to_bits(),
            h.mean_nox.to_bits(),
            h.mean_total_n.to_bits()
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use airshed_core::driver::run_resumable_with;
    use airshed_core::ExecSpec;

    fn sample_config() -> SimConfig {
        let mut c = SimConfig::test_tiny(4, 2);
        c.start_hour = 9;
        c.emission_scale = 0.85;
        c.machine = MachineProfile::t3d();
        c
    }

    /// Tags 1, 2, 3, 6 and 9 here; 4, 5 and 7 carry run artifacts and
    /// round-trip in `full_run_artifacts_round_trip_bit_exactly`.
    #[test]
    fn control_messages_round_trip() {
        for msg in [
            Msg::Hello {
                name: "s0".into(),
                workers: 3,
                sent_us: 12_345,
            },
            Msg::Heartbeat {
                seq: 42,
                running: 2,
                queued: 7,
                sent_us: 67_890,
                plans: PlanMemoStats {
                    hits: 40,
                    misses: 2,
                    entries: 2,
                },
            },
            Msg::Assign {
                job: 5,
                ctx: TraceContext::for_job(5),
                work: Box::new(ScenarioJob {
                    config: sample_config(),
                    layout: ChemLayout::BlockCyclic(4),
                    resume: None,
                }),
            },
            Msg::Failed {
                job: 9,
                ctx: TraceContext::for_job(9),
                message: "chemistry blew up".into(),
            },
            Msg::Shutdown,
        ] {
            let back = Msg::decode(msg.tag(), &msg.encode()).unwrap();
            assert_eq!(format!("{msg:?}"), format!("{back:?}"));
        }
    }

    #[test]
    fn config_and_model_round_trip_bit_exactly() {
        let c = sample_config();
        let msg = Msg::Assign {
            job: 5,
            ctx: TraceContext::for_job(5),
            work: Box::new(ScenarioJob {
                config: c.clone(),
                layout: ChemLayout::Cyclic,
                resume: None,
            }),
        };
        let Msg::Assign { job, ctx, work } = Msg::decode(msg.tag(), &msg.encode()).unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(job, 5);
        assert_eq!(ctx, TraceContext::for_job(5));
        assert_eq!(
            work.config.emission_scale.to_bits(),
            c.emission_scale.to_bits()
        );
        assert_eq!(work.config.machine, c.machine);
        assert_eq!(work.config.hours, 2);
        assert_eq!(work.layout, ChemLayout::Cyclic);
        // The family key — what the router prices by — survives intact.
        use airshed_server::cache::NumericsKey;
        assert_eq!(
            NumericsKey::of(&work.config).family(),
            NumericsKey::of(&c).family()
        );
    }

    #[test]
    fn full_run_artifacts_round_trip_bit_exactly() {
        // Run one real tiny hour, then push the checkpoint, profile,
        // report and perf model through the wire and back.
        let mut cfg = SimConfig::test_tiny(4, 1);
        cfg.start_hour = 12;
        let (report, profile, ckpt) = run_resumable_with(&cfg, None, ExecSpec::default());
        let model = PerfModel::from_profile(&profile);

        let progress = Msg::Progress {
            job: 1,
            ctx: TraceContext::for_job(1),
            sent_us: 500,
            hour_us: 7_000,
            resume: Box::new(ResumePoint {
                checkpoint: ckpt.clone(),
                partial: profile.clone(),
            }),
        };
        let Msg::Progress {
            resume,
            ctx,
            sent_us,
            hour_us,
            ..
        } = Msg::decode(progress.tag(), &progress.encode()).unwrap()
        else {
            panic!("wrong variant");
        };
        assert_eq!(ctx, TraceContext::for_job(1));
        assert_eq!((sent_us, hour_us), (500, 7_000));
        assert_eq!(resume.checkpoint.next_hour, ckpt.next_hour);
        assert_eq!(resume.checkpoint.state.conc, ckpt.state.conc);
        assert_eq!(resume.partial.dataset, profile.dataset);
        assert_eq!(resume.partial.shape, profile.shape);
        assert_eq!(resume.partial.hours.len(), profile.hours.len());
        for (a, b) in resume.partial.hours.iter().zip(&profile.hours) {
            assert_eq!(a.surface, b.surface);
            for (sa, sb) in a.steps.iter().zip(&b.steps) {
                assert_eq!(sa.chemistry, sb.chemistry);
                assert_eq!(sa.transport1, sb.transport1);
            }
        }

        let mut annotated = report.clone();
        annotated.anatomy = Some(LatencyAnatomy {
            queued_ms: 3,
            exec_us: 9_500,
            wire_us: 40,
            reply_us: 25,
            end_to_end_ms: 12,
            hours: 1,
            segments: 1,
            stolen: 0,
            failed_over: 0,
        });
        annotated.copy_bytes = Some(CopyBytes {
            redist_local: 123,
            soa_staging: 456,
            result_serialization: 789,
        });
        let completed = Msg::Completed {
            job: 1,
            ctx: TraceContext::for_job(1),
            sent_us: 900,
            report: Box::new(annotated.clone()),
        };
        let Msg::Completed { report: back, .. } =
            Msg::decode(completed.tag(), &completed.encode()).unwrap()
        else {
            panic!("wrong variant");
        };
        assert_eq!(report_fingerprint(&back), report_fingerprint(&report));
        assert_eq!(back.total_seconds.to_bits(), report.total_seconds.to_bits());
        assert_eq!(back.anatomy, annotated.anatomy);
        assert_eq!(back.copy_bytes, annotated.copy_bytes);

        let calibrated = Msg::Calibrated {
            job: 1,
            model: model.clone(),
        };
        let Msg::Calibrated { model: m2, .. } =
            Msg::decode(calibrated.tag(), &calibrated.encode()).unwrap()
        else {
            panic!("wrong variant");
        };
        let t3e = MachineProfile::t3e();
        assert_eq!(
            m2.predict(&t3e, 16).total.to_bits(),
            model.predict(&t3e, 16).total.to_bits()
        );
    }

    #[test]
    fn custom_names_are_interned_once_and_capped_with_a_typed_error() {
        let assign_on = |name: &'static str| {
            let mut config = sample_config();
            config.machine.name = name;
            Msg::Assign {
                job: 1,
                ctx: TraceContext::for_job(1),
                work: Box::new(ScenarioJob {
                    config,
                    layout: ChemLayout::Block,
                    resume: None,
                }),
            }
        };
        let decoded_name = |msg: &Msg| -> Result<&'static str, WireError> {
            match Msg::decode(msg.tag(), &msg.encode())? {
                Msg::Assign { work, .. } => Ok(work.config.machine.name),
                other => panic!("wrong variant {other:?}"),
            }
        };
        // The same custom-named frame, 10 000 times: one leaked string.
        let custom = assign_on("Beowulf under the desk");
        let first = decoded_name(&custom).unwrap();
        assert_eq!(first, "Beowulf under the desk");
        for _ in 0..10_000 {
            let again = decoded_name(&custom).unwrap();
            assert!(std::ptr::eq(first, again), "decode leaked a second copy");
        }
        // A canonical name is the constant, whatever the set holds.
        assert!(std::ptr::eq(
            decoded_name(&assign_on("Cray T3E")).unwrap(),
            intern("Cray T3E").unwrap()
        ));
        // Too long: refused before it is kept.
        let long = assign_on(
            "a machine whose name goes on for rather longer than any name has a reason to",
        );
        assert!(matches!(
            decoded_name(&long),
            Err(WireError::Malformed("name too long"))
        ));
        // Fill the set: the name past the cap is a typed error, and the
        // names already seen still decode to their one copy.
        let refused = (0..=MAX_INTERNED_NAMES)
            .map(|i| intern(&format!("cap fixture {i}")))
            .filter(Result::is_err)
            .count();
        assert!(refused >= 1, "the cap never tripped");
        assert!(matches!(
            decoded_name(&assign_on("one name too many")),
            Err(WireError::Malformed("too many distinct names"))
        ));
        assert!(std::ptr::eq(first, decoded_name(&custom).unwrap()));
    }

    #[test]
    fn fingerprint_ignores_host_dependent_fields() {
        let mut cfg = SimConfig::test_tiny(2, 1);
        cfg.start_hour = 12;
        let (mut report, _, _) = run_resumable_with(&cfg, None, ExecSpec::default());
        let a = report_fingerprint(&report);
        report.backend = "rayon(64)".into();
        report.predicted_seconds = Some(123.0);
        report.plan_layouts = Some("transport=BLOCK chemistry=CYCLIC".into());
        report.plan_delta_seconds = Some(4.5);
        report.anatomy = Some(LatencyAnatomy {
            queued_ms: 7,
            exec_us: 12_000,
            end_to_end_ms: 19,
            hours: 1,
            segments: 2,
            stolen: 1,
            ..Default::default()
        });
        report.copy_bytes = Some(CopyBytes {
            redist_local: 1 << 20,
            soa_staging: 1 << 18,
            result_serialization: 1 << 12,
        });
        assert_eq!(a, report_fingerprint(&report));
        report.total_seconds += 1.0;
        assert_ne!(a, report_fingerprint(&report));
    }

    #[test]
    fn corrupt_payloads_fail_cleanly() {
        let msg = Msg::Hello {
            name: "s1".into(),
            workers: 2,
            sent_us: 0,
        };
        let mut payload = msg.encode();
        // Unknown tag — 8 among them: retired with the message it
        // carried, so an old peer's frame is a typed error.
        for tag in [0, 8, 10, 200] {
            assert!(matches!(
                Msg::decode(tag, &payload),
                Err(WireError::UnknownTag(t)) if t == tag
            ));
        }
        // Trailing garbage.
        payload.push(0);
        assert!(Msg::decode(tags::HELLO, &payload).is_err());
        // Truncated payload.
        assert!(Msg::decode(tags::HELLO, &payload[..3]).is_err());
        let mut cfg = SimConfig::test_tiny(2, 1);
        cfg.start_hour = 12;
        let (_, profile, ckpt) = run_resumable_with(&cfg, None, ExecSpec::default());
        // A family model whose per-item work is not one entry per layer
        // is refused: layout pricing folds it per layer.
        let mut model = PerfModel::from_profile(&profile);
        model.transport_per_item.pop();
        let short = Msg::Calibrated { job: 1, model };
        assert!(matches!(
            Msg::decode(tags::CALIBRATED, &short.encode()),
            Err(WireError::Malformed("per-item work does not match shape"))
        ));
        // An Assign whose checkpoint bytes are corrupted must error, not
        // panic: flip a byte inside the nested ASHCKPT1 block.
        let assign = Msg::Assign {
            job: 3,
            ctx: TraceContext::for_job(3),
            work: Box::new(ScenarioJob {
                config: cfg,
                layout: ChemLayout::Block,
                resume: Some(ResumePoint {
                    checkpoint: ckpt,
                    partial: profile,
                }),
            }),
        };
        let mut bytes = assign.encode();
        let at = bytes.len() / 2;
        bytes[at] ^= 0xff;
        // Either the checkpoint validator or a codec bound trips; both
        // are WireErrors. (The flip could land in profile f64 data and
        // still decode — find a byte that actually breaks decoding.)
        let mut broke = false;
        for at in std::iter::once(at).chain((96..200).step_by(4)) {
            let mut b = assign.encode();
            b[at] ^= 0xff;
            if Msg::decode(tags::ASSIGN, &b).is_err() {
                broke = true;
                break;
            }
        }
        assert!(broke, "no corruption detected at any probed offset");
        let _ = bytes;
    }
}
