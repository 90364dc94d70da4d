//! Failure-injection and edge-case robustness: degenerate configurations
//! must either work or fail loudly — never return garbage.

use airshed::chem::youngboris::{integrate_cell, YbOptions, YbWorkspace};
use airshed::chem::Mechanism;
use airshed::core::config::{DatasetChoice, SimConfig};
use airshed::core::driver::{run_resumable_with, run_with_profile_on, ChemLayout};
use airshed::core::plan::replay_profile;
use airshed::core::ExecSpec;
use airshed::hpf::dist::Distribution;
use airshed::hpf::redist::plan;
use airshed::machine::MachineProfile;

#[test]
fn single_node_run_works() {
    let mut cfg = SimConfig::test_tiny(1, 1);
    cfg.start_hour = 12;
    let (r, prof) = run_with_profile_on(&cfg, ExecSpec::default());
    assert!(r.total_seconds > 0.0);
    // On one node every redistribution is pure local copying.
    for c in &r.comm_steps {
        assert!(c.total_seconds >= 0.0);
    }
    // Replay on 1..3 nodes stays consistent.
    for p in 1..=3 {
        let rr = replay_profile(&prof, MachineProfile::t3d(), p, ChemLayout::Block);
        assert!(rr.total_seconds.is_finite());
    }
}

#[test]
fn more_nodes_than_columns_is_handled() {
    // 80-column dataset replayed on 512 nodes: trailing nodes own nothing,
    // everything must still add up.
    let cfg = SimConfig::test_tiny(4, 1);
    let (_, prof) = run_with_profile_on(&cfg, ExecSpec::default());
    let r = replay_profile(&prof, MachineProfile::t3e(), 512, ChemLayout::Block);
    assert!(r.total_seconds.is_finite() && r.total_seconds > 0.0);
    assert!(r.chemistry_seconds > 0.0);
}

#[test]
fn zero_emission_scenario_relaxes_to_background() {
    let mut cfg = SimConfig::test_tiny(4, 2);
    cfg.emission_scale = 0.0;
    cfg.start_hour = 1; // night: no photochemistry either
    let (r, _) = run_with_profile_on(&cfg, ExecSpec::default());
    // Without emissions or sun, NOx can only decay.
    let first = r.summaries.first().unwrap().mean_nox;
    let last = r.summaries.last().unwrap().mean_nox;
    assert!(
        last <= first * 1.01,
        "NOx grew without sources: {first} -> {last}"
    );
}

#[test]
fn chemistry_survives_extreme_states() {
    let m = Mechanism::carbon_bond();
    let mut ws = YbWorkspace::new(airshed::chem::N_SPECIES);
    // All-zero state.
    let mut zero = vec![0.0; airshed::chem::N_SPECIES];
    integrate_cell(
        &m,
        &mut zero,
        298.0,
        1.0,
        30.0,
        &YbOptions::default(),
        &mut ws,
    );
    assert!(zero.iter().all(|&c| c.is_finite() && c >= 0.0));
    // Grossly polluted state.
    let mut extreme = vec![1.0; airshed::chem::N_SPECIES];
    integrate_cell(
        &m,
        &mut extreme,
        310.0,
        1.0,
        30.0,
        &YbOptions::default(),
        &mut ws,
    );
    assert!(extreme.iter().all(|&c| c.is_finite() && c >= 0.0));
    // Freezing, dark, trace-level state.
    let mut cold = vec![1e-12; airshed::chem::N_SPECIES];
    integrate_cell(
        &m,
        &mut cold,
        250.0,
        0.0,
        60.0,
        &YbOptions::default(),
        &mut ws,
    );
    assert!(cold.iter().all(|&c| c.is_finite() && c >= 0.0));
}

#[test]
fn planner_handles_degenerate_shapes() {
    // Single-element dimensions, single node, huge node counts.
    for shape in [[1usize, 1, 1], [35, 1, 700], [1, 5, 1]] {
        for p in [1usize, 2, 1000] {
            let pl = plan(
                &shape,
                &Distribution::block(3, 1),
                &Distribution::block(3, 2),
                p,
                8,
            );
            assert_eq!(
                pl.total_bytes_sent(),
                pl.total_bytes_recv(),
                "{shape:?} p={p}"
            );
        }
    }
}

#[test]
fn tiny_datasets_of_any_size_build() {
    for target in [10usize, 33, 257] {
        let d = DatasetChoice::Tiny(target).build();
        assert!(d.nodes() > 0);
        assert!(d.mesh.n_elems() > 0);
        assert!(d.mesh.nodal_area.iter().all(|&a| a > 0.0));
    }
}

// --- fabric shard loss, deterministically -------------------------------
//
// The fabric's failover logic lives in `airshed::fabric::Router`, a
// state machine that takes every timestamp as an explicit `now_ms`
// argument. These tests drive heartbeat timeouts from a scripted clock
// — no wall sleeps, no timing-dependent flakiness — and assert the
// same behaviors the multi-process CI smoke exercises for real.

/// A router session on the scripted clock, with a one-second
/// heartbeat timeout.
fn scripted_router() -> airshed::fabric::Router {
    let cfg = airshed::fabric::RouterConfig {
        heartbeat_timeout_ms: 1000,
    };
    airshed::fabric::Router::new(cfg, 0, &[])
}

/// Job `i` of a batch in which every job has numerics of its own: the
/// router co-locates jobs that share a numerics key, and these tests are
/// about balancing, stealing and failover of independent work.
fn distinct_tiny(i: usize, hours: usize) -> SimConfig {
    let mut cfg = SimConfig::test_tiny(4, hours);
    cfg.emission_scale = 1.0 + i as f64 / 100.0;
    cfg
}

#[test]
fn fabric_shard_loss_fails_over_on_missed_heartbeats_deterministically() {
    use airshed::fabric::Msg;

    let mut r = scripted_router();
    r.add_shard("s0", 4, 0);
    r.add_shard("s1", 4, 0);
    let jobs: Vec<u64> = (0..4)
        .map(|i| {
            r.submit(
                i,
                distinct_tiny(i, 2),
                airshed::core::driver::ChemLayout::Block,
            )
        })
        .collect();
    // No calibrated models yet: least-loaded routing splits the batch.
    assert_eq!(r.counters(0).routed, 2);
    assert_eq!(r.counters(1).routed, 2);
    let assigns = r.poll(0);
    assert_eq!(assigns.len(), 4, "both windows fill");

    // At t=900 nobody has timed out yet; then only s0 heartbeats.
    assert_eq!(r.poll(900).len(), 0);
    assert_eq!(r.live_shards(), 2);
    r.on_msg(
        0,
        Msg::Heartbeat {
            seq: 1,
            sent_us: 0,
            plans: Default::default(),
        },
        900,
    );

    // At t=1700, s1 has been silent for 1700ms > 1000ms: it is lost and
    // its two jobs are re-routed to s0, whose four-worker window has
    // room to take them in flight immediately.
    let reassigns = r.poll(1700);
    assert!(!r.shard_is_alive(1));
    assert_eq!(r.live_shards(), 1);
    assert_eq!(r.counters(0).failed_over, 2);
    assert_eq!(reassigns.len(), 2);
    for (shard, msg) in &reassigns {
        assert_eq!(*shard, 0);
        assert!(matches!(msg, Msg::Assign { .. }));
    }
    // Failover is idempotent: polling again changes nothing.
    assert_eq!(r.poll(1800).len(), 0);
    assert_eq!(r.counters(0).failed_over, 2);
    assert_eq!(r.outstanding(), jobs.len());
}

#[test]
fn fabric_steal_keeps_one_trace_context_across_victim_and_thief() {
    use airshed::fabric::Msg;

    let mut r = scripted_router();
    r.add_shard("victim", 1, 0);
    r.add_shard("thief", 1, 0);
    // Three one-hour jobs into two one-job windows: both windows fill,
    // the third queues behind the victim (ties route to index 0).
    let jobs: Vec<u64> = (0..3)
        .map(|i| {
            r.submit(
                i,
                distinct_tiny(i, 1),
                airshed::core::driver::ChemLayout::Block,
            )
        })
        .collect();
    let assigns = r.poll(0);
    assert_eq!(assigns.len(), 2, "one-job windows fill, the third queues");
    let queued = jobs[2];
    let ctx = r.job_ctx(queued).expect("queued job has a stamped context");
    assert_eq!(ctx.trace_id, queued + 1);
    let thief_job = assigns
        .iter()
        .find_map(|(s, m)| match m {
            Msg::Assign { job, .. } if *s == 1 => Some(*job),
            _ => None,
        })
        .expect("the thief got one job");

    // The thief finishes its own job and runs dry while the victim's
    // window is still full: the queued job is stolen, and the Assign it
    // rides out on carries the context stamped at submit.
    let (_, profile, _) =
        run_resumable_with(&SimConfig::test_tiny(4, 1), None, ExecSpec::default());
    let report = replay_profile(&profile, MachineProfile::t3e(), 4, ChemLayout::Block);
    let thief_ctx = r.job_ctx(thief_job).unwrap();
    r.on_msg(
        1,
        Msg::Completed {
            job: thief_job,
            ctx: thief_ctx,
            sent_us: 0,
            report: Box::new(report.clone()),
        },
        100,
    );
    let reassigns = r.poll(100);
    assert_eq!(r.counters(1).stolen, 1);
    assert_eq!(r.job_hop(queued), "steal");
    let (shard, msg) = reassigns
        .iter()
        .find(|(_, m)| matches!(m, Msg::Assign { job, .. } if *job == queued))
        .expect("the stolen job dispatches to the thief");
    assert_eq!(*shard, 1);
    match msg {
        Msg::Assign {
            ctx: stolen_ctx, ..
        } => assert_eq!(*stolen_ctx, ctx, "one trace id across victim and thief"),
        other => panic!("expected Assign, got tag {}", other.tag()),
    }

    // Completion on the thief: the anatomy records the steal.
    r.on_msg(
        1,
        Msg::Completed {
            job: queued,
            ctx,
            sent_us: 0,
            report: Box::new(report),
        },
        250,
    );
    let stolen_report = r
        .results()
        .iter()
        .find(|(i, _)| *i == 2)
        .map(|(_, r)| r.as_ref().expect("the stolen job completed"))
        .expect("the stolen job finished");
    let a = stolen_report.anatomy.expect("completion fills the anatomy");
    assert_eq!(a.stolen, 1);
    assert_eq!(a.segments, 1, "stolen before its first dispatch");
    assert_eq!(r.ctx_mismatches(), 0);
}

#[test]
fn fabric_failover_resumes_from_progress_checkpoints() {
    use airshed::fabric::Msg;
    use airshed::server::ResumePoint;

    // A real one-hour checkpoint of a two-hour episode.
    let mut cfg = SimConfig::test_tiny(4, 2);
    cfg.start_hour = 9;
    let mut first_hour = cfg.clone();
    first_hour.hours = 1;
    let (_, partial, checkpoint) = run_resumable_with(&first_hour, None, ExecSpec::default());
    let resume = ResumePoint {
        checkpoint,
        partial,
    };

    let mut r = scripted_router();
    r.add_shard("doomed", 1, 0);
    r.add_shard("survivor", 1, 0);
    let job = r.submit(0, cfg, airshed::core::driver::ChemLayout::Block);
    assert_eq!(r.job_shard(job), Some(0), "ties route to the lower index");
    let assigns = r.poll(0);
    assert_eq!(assigns.len(), 1);

    // The doomed shard reports one completed hour, then goes silent;
    // the survivor keeps heartbeating. The progress echoes the trace
    // context the router stamped at submit.
    let ctx = r.job_ctx(job).expect("outstanding job has a context");
    assert_eq!(ctx.trace_id, job + 1);
    r.on_msg(
        0,
        Msg::Progress {
            job,
            ctx,
            sent_us: 0,
            hour_us: 2_500,
            resume: Box::new(resume),
        },
        500,
    );
    r.on_msg(
        1,
        Msg::Heartbeat {
            seq: 1,
            sent_us: 0,
            plans: Default::default(),
        },
        1400,
    );
    let reassigns = r.poll(1700);
    assert!(!r.shard_is_alive(0));
    assert_eq!(r.counters(1).failed_over, 1);
    assert_eq!(reassigns.len(), 1);
    let (shard, msg) = &reassigns[0];
    assert_eq!(*shard, 1);
    match msg {
        Msg::Assign {
            job: id,
            ctx: reassigned_ctx,
            work,
        } => {
            assert_eq!(*id, job);
            assert_eq!(
                *reassigned_ctx, ctx,
                "the failed-over assignment keeps one trace id"
            );
            let resume = work
                .resume
                .as_ref()
                .expect("failover carries the checkpoint");
            assert_eq!(resume.partial.hours.len(), 1, "resumes after hour 1");
            assert_eq!(
                resume.checkpoint.next_hour, 10,
                "started at 9, one hour done"
            );
        }
        other => panic!("expected Assign, got tag {}", other.tag()),
    }
    assert_eq!(r.job_hours_done(job), 1);
    assert_eq!(r.job_hop(job), "failover");
    assert_eq!(r.ctx_mismatches(), 0);

    // Completion on the survivor: the report's latency anatomy records
    // the failover segment and the shard-measured hour.
    let (_, profile, _) =
        run_resumable_with(&SimConfig::test_tiny(4, 1), None, ExecSpec::default());
    let report = replay_profile(&profile, MachineProfile::t3e(), 4, ChemLayout::Block);
    r.on_msg(
        1,
        Msg::Completed {
            job,
            ctx,
            sent_us: 0,
            report: Box::new(report),
        },
        2400,
    );
    let finished = r.results();
    assert_eq!(finished.len(), 1);
    let report = finished[0].1.as_ref().expect("job completed");
    let a = report.anatomy.expect("fabric completion fills anatomy");
    assert_eq!(a.failed_over, 1, "one failover segment recorded");
    assert_eq!(a.segments, 2, "original dispatch plus the re-dispatch");
    assert_eq!(a.hours, 1);
    assert_eq!(a.exec_us, 2_500);
    assert_eq!(a.end_to_end_ms, 2400);
    assert_eq!(r.ctx_mismatches(), 0);
}
