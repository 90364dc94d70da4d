//! Checkpoint/restart integration: a run split at an hour boundary must
//! be bit-identical to an uninterrupted one — the proof that no hidden
//! state crosses the hour loop.

use airshed::core::checkpoint::Checkpoint;
use airshed::core::config::SimConfig;
use airshed::core::driver::{run_resumable_with, run_with_profile_on, ChemLayout};
use airshed::core::plan::replay_profile;
use airshed::core::ExecSpec;
use airshed::fabric::report_fingerprint;
use airshed::server::{JobError, ResumePoint, ScenarioRequest, ScenarioServer, ServerConfig};
use std::time::Duration;

fn config(hours: usize) -> SimConfig {
    let mut c = SimConfig::test_tiny(4, hours);
    c.start_hour = 9;
    c
}

#[test]
fn split_run_is_bit_identical_to_straight_run() {
    // Straight 4-hour run.
    let (straight_report, straight_profile, straight_end) =
        run_resumable_with(&config(4), None, ExecSpec::rayon(3));

    // 2 hours, checkpoint through a (serialised!) file, 2 more hours —
    // written at one thread count and resumed at another, neither the
    // straight run's: a checkpoint does not remember who wrote it.
    let (_, first_profile, ckpt) = run_resumable_with(&config(2), None, ExecSpec::simd(2));
    let path =
        std::env::temp_dir().join(format!("airshed_restart_test_{}.bin", std::process::id()));
    ckpt.save(&path).unwrap();
    let restored = Checkpoint::load(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(restored.next_hour, 11);
    let (_, second_profile, resumed_end) =
        run_resumable_with(&config(2), Some(restored), ExecSpec::serial());

    // Final states identical to the bit.
    assert_eq!(straight_end.state.conc, resumed_end.state.conc);
    assert_eq!(straight_end.next_hour, resumed_end.next_hour);

    // Hour-by-hour science identical.
    let joined: Vec<_> = first_profile
        .summaries
        .iter()
        .chain(second_profile.summaries.iter())
        .collect();
    assert_eq!(joined.len(), straight_profile.summaries.len());
    for (a, b) in joined.iter().zip(&straight_profile.summaries) {
        assert_eq!(a.hour, b.hour);
        assert_eq!(a.max_o3, b.max_o3);
        assert_eq!(a.mean_nox, b.mean_nox);
    }

    // And the captured work matches, hour for hour.
    let straight_work: Vec<f64> = straight_profile
        .hours
        .iter()
        .flat_map(|h| h.steps.iter().map(|s| s.chemistry.iter().sum::<f64>()))
        .collect();
    let split_work: Vec<f64> = first_profile
        .hours
        .iter()
        .chain(second_profile.hours.iter())
        .flat_map(|h| h.steps.iter().map(|s| s.chemistry.iter().sum::<f64>()))
        .collect();
    assert_eq!(straight_work, split_work);
    let _ = straight_report;
}

#[test]
fn checkpoint_shape_mismatch_is_rejected() {
    let (_, _, ckpt) = run_resumable_with(&config(1), None, ExecSpec::default());
    let mut other = SimConfig::test_tiny(4, 1);
    other.dataset = airshed::core::config::DatasetChoice::Tiny(200);
    let result =
        std::panic::catch_unwind(|| run_resumable_with(&other, Some(ckpt), ExecSpec::default()));
    assert!(result.is_err(), "shape mismatch must panic loudly");
}

#[test]
fn server_resumes_an_interrupted_scenario_bit_identically() {
    // The uninterrupted reference for a 4-hour episode.
    let cfg = config(4);
    let (_, straight_profile) = run_with_profile_on(&cfg, ExecSpec::default());
    let reference = replay_profile(&straight_profile, cfg.machine, cfg.p, ChemLayout::Block);

    // A 2-hour prefix, as if the server had been stopped mid-scenario;
    // its checkpoint plus captured work form the resume point.
    let mut half = cfg.clone();
    half.hours = 2;
    let (_, partial, checkpoint) = run_resumable_with(&half, None, ExecSpec::default());

    // The same request on a two-thread server and on an inline one: both
    // fingerprint as the reference, so the server's thread count is not
    // part of a result.
    let resume = ResumePoint {
        checkpoint,
        partial,
    };
    for exec in [ExecSpec::simd(2), ExecSpec::serial()] {
        let server = ScenarioServer::start(ServerConfig {
            workers: 1,
            exec,
            ..Default::default()
        });
        let handle = server
            .submit(ScenarioRequest::new(cfg.clone()).resuming(resume.clone()))
            .into_handle()
            .expect("resumed job accepted");
        let report = handle.wait().expect("resumed job completes");

        // Bit-identical to never having been interrupted.
        assert_eq!(report.total_seconds, reference.total_seconds);
        assert_eq!(report.peak_o3(), reference.peak_o3());
        assert_eq!(report.summaries.len(), reference.summaries.len());
        for (a, b) in report.summaries.iter().zip(&reference.summaries) {
            assert_eq!(a.hour, b.hour);
            assert_eq!(a.max_o3, b.max_o3);
            assert_eq!(a.mean_nox, b.mean_nox);
        }
        assert_eq!(report_fingerprint(&report), report_fingerprint(&reference));

        let metrics = server.shutdown();
        assert_eq!(metrics.completed, 1);
        assert!(metrics.reconciles());
    }
}

#[test]
fn deadline_interrupted_job_resumes_with_no_work_lost() {
    // End-to-end interruption: the server itself expires the deadline at
    // an hour boundary and hands back the resume point, which a second
    // request finishes. On a fast machine the first attempt may complete
    // outright — both paths must yield the reference report.
    let cfg = config(3);
    let (_, straight_profile) = run_with_profile_on(&cfg, ExecSpec::default());
    let reference = replay_profile(&straight_profile, cfg.machine, cfg.p, ChemLayout::Block);

    let server = ScenarioServer::start(ServerConfig {
        workers: 1,
        ..Default::default()
    });
    let first = server
        .submit(ScenarioRequest::new(cfg.clone()).with_deadline(Duration::from_millis(200)))
        .into_handle()
        .expect("accepted");
    let report = match first.wait() {
        Ok(report) => report,
        Err(JobError::DeadlineExpired { resume }) => {
            let mut request = ScenarioRequest::new(cfg.clone());
            if let Some(r) = resume {
                assert!(!r.partial.hours.is_empty(), "resume point carries work");
                request = request.resuming(*r);
            }
            server
                .submit(request)
                .into_handle()
                .expect("resume accepted")
                .wait()
                .expect("resumed job completes")
        }
        Err(other) => panic!("unexpected job error: {other}"),
    };
    assert_eq!(report.total_seconds, reference.total_seconds);
    assert_eq!(report.peak_o3(), reference.peak_o3());
    let metrics = server.shutdown();
    assert!(metrics.reconciles());
}

#[test]
fn plain_run_matches_resumable_fresh_run() {
    let (a, pa) = run_with_profile_on(&config(2), ExecSpec::default());
    let (b, pb, _) = run_resumable_with(&config(2), None, ExecSpec::default());
    assert_eq!(a.total_seconds, b.total_seconds);
    assert_eq!(pa.summaries.len(), pb.summaries.len());
    assert_eq!(pa.hours[0].surface, pb.hours[0].surface);
}
