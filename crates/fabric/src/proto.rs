//! The fabric message set.
//!
//! One [`Msg`] enum covers both directions of a front-end <-> shard
//! connection; [`Msg::encode`]/[`Msg::decode`] map it onto the
//! [`crate::wire`] frame format. Its layout, and [`ScenarioJob`]'s, are
//! declared here, once, with [`codec!`](macro@airshed_core::codec): each variant's tag
//! and its fields in order. The payloads they carry — [`SimConfig`],
//! [`RunReport`], [`PerfModel`], `WorkProfile`, [`ResumePoint`] with its
//! nested `ASHCKPT1` checkpoint — are declared where their types live
//! (`airshed_core::codec`, `airshed_server`), so every number crosses the
//! wire bit-exactly and a failover resumed on another shard keeps the
//! repo's bit-identity guarantee.

use airshed_core::codec;
use airshed_core::codec::{Dec, Enc, Tagged, WireError};
use airshed_core::config::SimConfig;
use airshed_core::driver::{ChemLayout, PlanMemoStats};
use airshed_core::obs::dist::TraceContext;
use airshed_core::{PerfModel, RunReport};
use airshed_server::ResumePoint;
use std::fmt::Write as _;

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

/// The most nodes a job may ask a shard to replay on: 512× the paper's
/// largest machine (128 nodes). A replay plans four redistributions of
/// one 40-byte load per node, so the bound holds a job's plans to
/// ≈ 10 MB; an unbounded `P` would be an allocation the shard process
/// cannot survive (an abort, which no worker guard catches).
pub const MAX_NODES: usize = 65_536;

codec! {
    ScenarioJob { config, layout, resume },
    // A shard replays the job on `config.p` nodes under `layout`: a
    // machine needs a node (and no more than `MAX_NODES`) and a
    // block-cyclic run needs an item.
    validate = |job| match (job.config.p, job.layout) {
        (0, _) => Err(WireError::Malformed("a job needs at least one node")),
        (p, _) if p > MAX_NODES => Err(WireError::Malformed("a job on more than MAX_NODES nodes")),
        (_, ChemLayout::BlockCyclic(0)) => Err(WireError::Malformed("a CYCLIC(0) layout")),
        _ => Ok(()),
    }
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

codec! { enum Msg {
    tags::HELLO => Hello { name, workers, sent_us },
    tags::HEARTBEAT => Heartbeat { seq, running, queued, sent_us, plans },
    tags::ASSIGN => Assign { job, ctx, work },
    tags::PROGRESS => Progress { job, ctx, sent_us, hour_us, resume },
    tags::COMPLETED => Completed { job, ctx, sent_us, report },
    tags::FAILED => Failed { job, ctx, message },
    tags::CALIBRATED => Calibrated { job, model },
    tags::SHUTDOWN => Shutdown,
} }

impl Msg {
    /// The frame tag for this message.
    pub fn tag(&self) -> u8 {
        Tagged::tag(self)
    }

    /// Encode the payload (tag not included — it lives in the frame
    /// header).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        self.enc_fields(&mut e);
        e.finish()
    }

    /// Decode a payload under a frame tag.
    pub fn decode(tag: u8, payload: &[u8]) -> Result<Msg, WireError> {
        let mut d = Dec::new(payload);
        let msg = Msg::dec_fields(tag, &mut d)?;
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
    use airshed_core::codec::{intern, MAX_INTERNED_NAMES};
    use airshed_core::driver::run_resumable_with;
    use airshed_core::report::{CopyBytes, LatencyAnatomy};
    use airshed_core::ExecSpec;
    use airshed_machine::MachineProfile;

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
