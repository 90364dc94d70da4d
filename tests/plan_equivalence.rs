//! Golden equivalence for the plan layer.
//!
//! A change to how the plan layer prices an hour must not move a single
//! bit of virtual time: every value the data-parallel (BLOCK and
//! CYCLIC), task-parallel (Figure 9, pipeline split) and §6 (Figure 13)
//! replays produce across LA/NE-shaped profiles × {Paragon, T3D, T3E} ×
//! P ∈ {4, 16, 64} is pinned as an exact bit pattern under
//! `tests/golden/plan/`. Those files were captured while the pre-IR
//! charging code still ran here as the graph lowering's oracle and
//! agreed with it bit for bit; they do not change with the code. The
//! text and JSON of `airshed validate` on the LA-shaped profile are
//! pinned as bytes under `tests/golden/validate/`, captured while the
//! oracle still rode along on every driver hour. The virtual-time spans
//! a traced run records (one per charged plan node) are pinned under
//! `tests/golden/trace/`, captured while the machine still kept a trace
//! of its own.
//!
//! Profiles are synthesized with a deterministic LCG (no `rand`), so the
//! test is fast, self-contained, and exercises the real LA/NE array
//! shapes without running the numerics; only the traced-episode test
//! runs two hours of the tiny grid.

use airshed::core::driver::{ChemLayout, HourPlans, PlanLayouts, WORD};
use airshed::core::obs::oracle::validate_profile;
use airshed::core::obs::{Obs, SpanSink, Track};
use airshed::core::plan::PhaseGraph;
use airshed::core::profile::{HourProfile, StepProfile, WorkProfile};
use airshed::core::report::RunReport;
use airshed::core::taskpar::{optimize_split, replay_taskparallel};
use airshed::machine::MachineProfile;
use airshed::popexp::fig13_sweep;
use std::path::PathBuf;
use std::sync::Arc;

/// Deterministic pseudo-random stream (64-bit LCG, MMIX constants).
struct Lcg(u64);

impl Lcg {
    fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    /// Uniform in [0, 1).
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Synthesize a work profile for the given array shape: a couple of
/// hours with uneven per-layer transport and per-column chemistry work
/// (the urban/rural imbalance matters for BLOCK vs the slowest node).
fn synthetic_profile(name: &'static str, shape: [usize; 3], seed: u64) -> WorkProfile {
    let mut rng = Lcg(seed);
    let [species, layers, nodes] = shape;
    let mut hours = Vec::new();
    for _ in 0..2 {
        let mut steps = Vec::new();
        for _ in 0..3 {
            let transport1: Vec<f64> = (0..layers)
                .map(|_| 1.0e7 * (0.5 + rng.next_f64()))
                .collect();
            let transport2: Vec<f64> = (0..layers)
                .map(|_| 1.0e7 * (0.5 + rng.next_f64()))
                .collect();
            // A few "urban" columns are ~10x the rural baseline.
            let chemistry: Vec<f64> = (0..nodes)
                .map(|i| {
                    let base = 1.0e5 * (0.5 + rng.next_f64());
                    if i % 97 == 0 {
                        base * 10.0
                    } else {
                        base
                    }
                })
                .collect();
            steps.push(StepProfile {
                transport1,
                transport2,
                chemistry,
                aerosol: 5.0e6 * (0.5 + rng.next_f64()),
            });
        }
        hours.push(HourProfile {
            input_work: 2.0e8 * (0.5 + rng.next_f64()),
            pretrans_work: 1.0e8 * (0.5 + rng.next_f64()),
            output_work: 1.5e8 * (0.5 + rng.next_f64()),
            input_bytes: species * layers * nodes * WORD / 4,
            steps,
            surface: Vec::new(),
        });
    }
    WorkProfile {
        dataset: name,
        shape,
        hours,
        summaries: Vec::new(),
    }
}

/// The LA and NE array shapes (species, layers, grid columns).
fn paper_profiles() -> [WorkProfile; 2] {
    [
        synthetic_profile("LA", [35, 5, 700], 0x1a),
        synthetic_profile("NE", [35, 5, 3328], 0x2e),
    ]
}

const SWEEP_P: [usize; 3] = [4, 16, 64];

/// `name value`: the value's bit pattern in hex (what is compared), then
/// the value itself for a reader.
fn bits(name: &str, x: f64) -> String {
    format!("{name} {:016x} {x:e}", x.to_bits())
}

/// Compare `lines` with `tests/golden/plan/<file>`, line by line.
/// `AIRSHED_BLESS=1 cargo test --test plan_equivalence` rewrites the
/// files instead; that is only right when a value is meant to move.
fn assert_golden(file: &str, lines: &[String]) {
    let text: String = lines.iter().map(|l| format!("{l}\n")).collect();
    assert_golden_text(&format!("plan/{file}"), &text);
}

/// Compare `text` byte for byte with `tests/golden/<file>`, naming every
/// moved line (`AIRSHED_BLESS=1` rewrites the file instead).
fn assert_golden_text(file: &str, text: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    if std::env::var_os("AIRSHED_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, text).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{file}: {e}"));
    let moved: Vec<String> = golden
        .lines()
        .zip(text.lines())
        .filter(|(want, got)| want != got)
        .map(|(want, got)| format!("  golden {want}\n  now    {got}"))
        .collect();
    assert!(
        moved.is_empty(),
        "{file}: values moved\n{}",
        moved.join("\n")
    );
    assert_eq!(
        golden.lines().count(),
        text.lines().count(),
        "{file}: line count"
    );
    assert_eq!(golden, text, "{file}: bytes");
}

/// Every time field of a replay report, `tag`-prefixed.
fn report_lines(tag: &str, r: &RunReport) -> Vec<String> {
    let mut out = vec![
        bits(&format!("{tag} total"), r.total_seconds),
        bits(&format!("{tag} io"), r.io_seconds),
        bits(&format!("{tag} transport"), r.transport_seconds),
        bits(&format!("{tag} chemistry"), r.chemistry_seconds),
        bits(&format!("{tag} communication"), r.communication_seconds),
    ];
    for c in &r.comm_steps {
        out.push(bits(
            &format!("{tag} {} x{}", c.label, c.count),
            c.total_seconds,
        ));
    }
    out
}

#[test]
fn data_parallel_replay_matches_golden() {
    let mut lines = Vec::new();
    for profile in &paper_profiles() {
        for mp in MachineProfile::paper_machines() {
            for p in SWEEP_P {
                let r = airshed::core::plan::replay_profile(profile, mp, p, ChemLayout::Block);
                let tag = format!("{} {} p={p}", profile.dataset, mp.name);
                lines.extend(report_lines(&tag, &r));
            }
        }
    }
    assert_golden("replay_profile.txt", &lines);
}

#[test]
fn cyclic_layout_replay_matches_golden() {
    let mut lines = Vec::new();
    for profile in &paper_profiles() {
        for mp in MachineProfile::paper_machines() {
            for p in SWEEP_P {
                let r = airshed::core::plan::replay_profile(profile, mp, p, ChemLayout::Cyclic);
                let tag = format!("{} {} p={p}", profile.dataset, mp.name);
                lines.extend(report_lines(&tag, &r));
            }
        }
    }
    assert_golden("replay_profile_cyclic.txt", &lines);
}

/// The task-parallel report of one split, `tag`-prefixed.
fn taskpar_lines(
    profile: &WorkProfile,
    mp: MachineProfile,
    p: usize,
    split: (usize, usize),
) -> Vec<String> {
    let tp = replay_taskparallel(profile, mp, p, split, PlanLayouts::default(), &Obs::off());
    let tag = format!("{} {} p={p} split={split:?}", profile.dataset, mp.name);
    let mut out = vec![
        bits(&format!("{tag} makespan"), tp.total_seconds),
        bits(&format!("{tag} unpipelined"), tp.unpipelined_seconds),
    ];
    for (stage, busy) in ["input", "compute", "output"].iter().zip(tp.stage_busy) {
        out.push(bits(&format!("{tag} busy {stage}"), busy));
    }
    out
}

#[test]
fn taskparallel_stages_match_golden() {
    let mut lines = Vec::new();
    for profile in &paper_profiles() {
        for mp in MachineProfile::paper_machines() {
            for p in SWEEP_P {
                for split in [(1, 1), (2, 1)] {
                    if split.0 + split.1 < p {
                        lines.extend(taskpar_lines(profile, mp, p, split));
                    }
                }
            }
        }
    }
    // A multi-node input group (pretrans parallelism capped at layers).
    lines.extend(taskpar_lines(
        &paper_profiles()[0],
        MachineProfile::paragon(),
        16,
        (5, 2),
    ));
    assert_golden("taskparallel.txt", &lines);
}

#[test]
fn pipeline_split_choices_match_golden() {
    // The calls behind the pipeline-split ablation: the best split of
    // every paper node count from 4 up, on the Paragon.
    let mp = MachineProfile::paragon();
    let mut lines = Vec::new();
    for profile in &paper_profiles() {
        for p in [4usize, 8, 16, 32, 64, 128] {
            let (p_in, p_out, best) = optimize_split(profile, mp, p, PlanLayouts::default());
            let tag = format!("{} {} p={p}", profile.dataset, mp.name);
            lines.push(bits(
                &format!("{tag} in={p_in} out={p_out}"),
                best.total_seconds,
            ));
        }
    }
    assert_golden("optimize_split.txt", &lines);
}

#[test]
fn fig13_sweep_matches_golden() {
    // §6's integrated application on the tiny fixture, native vs foreign.
    let profile = airshed::core::testsupport::tiny_profile();
    let mut lines = Vec::new();
    for mp in MachineProfile::paper_machines() {
        for row in fig13_sweep(profile, mp, &[8, 16, 32, 64, 128]) {
            let tag = format!("{} {} p={}", profile.dataset, mp.name, row.p);
            lines.push(bits(&format!("{tag} native"), row.native_seconds));
            lines.push(bits(&format!("{tag} foreign"), row.foreign_seconds));
        }
    }
    assert_golden("fig13_sweep.txt", &lines);
}

#[test]
fn validate_tables_match_golden() {
    // `airshed validate`'s text and JSON (the Figures 5–7 tables and the
    // per-phase model residuals) on the LA-shaped profile, T3E, P = 4,
    // 16, 64: a fold over the profile's replay, so every byte is pinned.
    let profile = &paper_profiles()[0];
    let v = validate_profile(profile, MachineProfile::t3e(), &SWEEP_P);
    assert_golden_text("validate/la_t3e.txt", &v.text());
    assert_golden_text("validate/la_t3e.json", &v.to_json());
}

#[test]
fn virtual_spans_of_a_traced_episode_match_golden() {
    // Every `Track::Virtual` span a traced episode records — tiny grid,
    // two hours, P = 4 on the T3E — as `name hour ts_us dur_us`, the two
    // times as bit patterns: where each plan node sits on the virtual
    // timeline, in recording order.
    use airshed::core::driver::Episode;
    use airshed::core::{ExecSpec, SimConfig};

    let config = SimConfig::test_tiny(4, 2);
    assert_eq!(config.machine, MachineProfile::t3e());
    let sink = Arc::new(SpanSink::new());
    let episode = Episode::new(&config, None, ExecSpec::default(), &Obs::new(sink.clone()));
    episode.run(config.hours);
    let lines: Vec<String> = sink
        .events()
        .iter()
        .filter(|s| matches!(s.track, Track::Virtual(_)))
        .map(|s| {
            format!(
                "{} {} {:016x} {:016x}",
                s.name,
                s.hour.expect("virtual spans carry their hour"),
                s.ts_us.to_bits(),
                s.dur_us.to_bits()
            )
        })
        .collect();
    assert!(!lines.is_empty(), "a traced episode records virtual spans");
    let text: String = lines.iter().map(|l| format!("{l}\n")).collect();
    assert_golden_text("trace/episode_tiny_t3e_p4.txt", &text);
}

#[test]
fn optimized_plans_are_bit_identical_and_never_lose_to_default() {
    // The optimizer golden suite: across LA/NE × {Paragon, T3D, T3E} ×
    // P ∈ {4, 16, 64}, the chosen plan (a) predicts no worse than the
    // default, (b) charges *exactly* its predicted cost when replayed
    // (the cost fold is the virtual machine, bit for bit), and (c)
    // changes nothing about the science — the replayed reports differ
    // only in time accounting, never in the carried concentrations.
    use airshed::core::plan::{optimize_plan, replay_profile_with};

    for profile in &paper_profiles() {
        for mp in MachineProfile::paper_machines() {
            for p in SWEEP_P {
                let choice = optimize_plan(profile, &mp, p);
                let tag = format!("{} {} p={p}", profile.dataset, mp.name);
                assert!(
                    choice.predicted_seconds <= choice.default_seconds,
                    "{tag}: {choice:?}"
                );
                let default = replay_profile_with(profile, mp, p, PlanLayouts::default());
                assert_eq!(choice.default_seconds, default.total_seconds, "{tag}");
                // The pipelined lowering (when adopted) is checked by the
                // taskpar golden test; the data-parallel fold must be exact.
                if choice.split.is_none() {
                    let chosen = replay_profile_with(profile, mp, p, choice.layouts);
                    assert_eq!(choice.predicted_seconds, chosen.total_seconds, "{tag}");
                    // Identical science: both replays carry the profile's
                    // hour summaries untouched.
                    assert_eq!(chosen.summaries.len(), default.summaries.len(), "{tag}");
                    assert_eq!(
                        chosen.peak_o3().to_bits(),
                        default.peak_o3().to_bits(),
                        "{tag}"
                    );
                }
            }
        }
    }
}

#[test]
fn graph_edges_conserve_bytes_for_lcg_shapes_and_layouts() {
    // Deterministic sweep over irregular shapes, node counts and both
    // chemistry layouts: every comm edge of every graph must conserve
    // bytes (Σ sent = Σ received). The `proptest` version of this lives
    // in `crates/core/tests/proptest_plan.rs`; this one keeps the
    // invariant pinned without a `rand` dependency.
    let mut rng = Lcg(0xc0de5eed);
    for _ in 0..40 {
        let shape = [
            2 + (rng.next_u64() % 40) as usize,
            1 + (rng.next_u64() % 8) as usize,
            10 + (rng.next_u64() % 900) as usize,
        ];
        let p = 1 + (rng.next_u64() % 80) as usize;
        let layout = if rng.next_u64().is_multiple_of(2) {
            ChemLayout::Block
        } else {
            ChemLayout::Cyclic
        };
        let profile = synthetic_profile("FUZZ", shape, rng.next_u64());
        let plans = HourPlans::with_layouts(&shape, p, PlanLayouts::chem(layout));
        let graph = PhaseGraph::for_hour(&profile.hours[0], &plans, p);
        for edge in &graph.edges {
            assert!(
                edge.conserves_bytes(),
                "{} shape={shape:?} p={p} layout={layout:?}: sent {} != recv {}",
                edge.label,
                edge.total_bytes_sent(),
                edge.total_bytes_recv()
            );
        }
    }
}
