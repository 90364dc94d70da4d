//! Golden bytes of every format that leaves a process: one `Msg` payload
//! per live wire tag (1–7 and 9) and one `ASHCKPT1` checkpoint. The
//! figure cache's `ASHPRF08` file is pinned beside its codec in
//! `crates/bench/src/cache.rs`. The files under `tests/golden/codec/`
//! were captured once and never change with the code: a codec edit
//! that moves one byte, or a decoder that no longer reads what an older
//! peer wrote, fails here.
//!
//! `AIRSHED_BLESS=1 cargo test --test codec_golden` rewrites the files;
//! a format change that does that must also change its magic or tag.

use airshed::core::checkpoint::Checkpoint;
use airshed::core::config::{SimConfig, Weather};
use airshed::core::driver::{run_resumable_with, ChemLayout, PlanMemoStats};
use airshed::core::obs::dist::TraceContext;
use airshed::core::report::{CopyBytes, LatencyAnatomy};
use airshed::core::{ExecSpec, PerfModel};
use airshed::fabric::{Msg, ScenarioJob};
use airshed::machine::MachineProfile;
use airshed::server::ResumePoint;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/codec")
}

/// Every golden file's name and the bytes today's encoders write for it:
/// literal control messages plus the artifacts of one
/// `SimConfig::test_tiny(2, 1)` run.
fn corpus() -> Vec<(String, Vec<u8>)> {
    let run = SimConfig::test_tiny(2, 1);
    let (report, profile, checkpoint) = run_resumable_with(&run, None, ExecSpec::serial());
    let resume = ResumePoint {
        checkpoint: checkpoint.clone(),
        partial: profile.clone(),
    };
    let mut config = run.clone();
    config.machine = MachineProfile::t3d();
    config.emission_scale = 0.85;
    config.weather = Weather::Stagnation;
    let mut annotated = report;
    annotated.predicted_seconds = Some(12.5);
    annotated.plan_layouts = Some("transport=BLOCK chemistry=CYCLIC".into());
    annotated.plan_delta_seconds = Some(0.25);
    annotated.dedup_saved_bytes = Some(4096);
    annotated.dedup_saved_seconds = Some(0.125);
    annotated.anatomy = Some(LatencyAnatomy {
        queued_ms: 3,
        exec_us: 9_500,
        wire_us: 40,
        reply_us: 25,
        end_to_end_ms: 12,
        hours: 1,
        segments: 2,
        stolen: 1,
        failed_over: 0,
    });
    annotated.copy_bytes = Some(CopyBytes {
        redist_local: 123,
        soa_staging: 456,
        result_serialization: 789,
    });
    let messages = [
        Msg::Hello {
            name: "s0".into(),
            workers: 2,
            sent_us: 1_234,
        },
        Msg::Heartbeat {
            seq: 42,
            running: 1,
            queued: 3,
            sent_us: 5_678,
            plans: PlanMemoStats {
                hits: 40,
                misses: 2,
                entries: 2,
            },
        },
        Msg::Assign {
            job: 7,
            ctx: TraceContext::for_job(7),
            work: Box::new(ScenarioJob {
                config,
                layout: ChemLayout::BlockCyclic(4),
                resume: Some(resume.clone()),
            }),
        },
        Msg::Progress {
            job: 7,
            ctx: TraceContext::for_job(7),
            sent_us: 500,
            hour_us: 7_000,
            resume: Box::new(resume),
        },
        Msg::Completed {
            job: 7,
            ctx: TraceContext::for_job(7),
            sent_us: 900,
            report: Box::new(annotated),
        },
        Msg::Failed {
            job: 9,
            ctx: TraceContext::for_job(9),
            message: "chemistry blew up".into(),
        },
        Msg::Calibrated {
            job: 7,
            model: PerfModel::from_profile(&profile),
        },
        Msg::Shutdown,
    ];
    let mut files: Vec<(String, Vec<u8>)> = messages
        .iter()
        .map(|m| (format!("msg_tag{}.bin", m.tag()), m.encode()))
        .collect();
    files.push(("checkpoint.ashckpt1".into(), checkpoint.encode()));
    files
}

fn first_difference(a: &[u8], b: &[u8]) -> usize {
    a.iter()
        .zip(b)
        .position(|(x, y)| x != y)
        .unwrap_or(a.len().min(b.len()))
}

#[test]
fn every_format_encodes_to_its_golden_bytes() {
    let dir = golden_dir();
    let bless = std::env::var_os("AIRSHED_BLESS").is_some();
    for (name, bytes) in corpus() {
        let path = dir.join(&name);
        if bless {
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(&path, &bytes).unwrap();
            continue;
        }
        let golden = std::fs::read(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            golden == bytes,
            "{name}: {} bytes encoded, {} golden, first difference at byte {}",
            bytes.len(),
            golden.len(),
            first_difference(&bytes, &golden)
        );
    }
}

#[test]
fn every_golden_file_decodes_and_re_encodes_to_itself() {
    let dir = golden_dir();
    let mut tags = Vec::new();
    for (name, _) in corpus() {
        let golden = std::fs::read(dir.join(&name)).unwrap_or_else(|e| panic!("{name}: {e}"));
        let again = match name.strip_prefix("msg_tag") {
            Some(rest) => {
                let tag: u8 = rest.trim_end_matches(".bin").parse().unwrap();
                tags.push(tag);
                let msg = Msg::decode(tag, &golden).unwrap_or_else(|e| panic!("{name}: {e}"));
                assert_eq!(msg.tag(), tag);
                msg.encode()
            }
            None => Checkpoint::decode(&golden)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .encode(),
        };
        assert!(again == golden, "{name}: re-encoding moved a byte");
    }
    assert_eq!(tags, [1, 2, 3, 4, 5, 6, 7, 9], "one file per live tag");
}
