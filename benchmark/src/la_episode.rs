//! `la_episode` — the paper's own problem. LA grid, T3E, P = 16,
//! `ExecSpec::simd(T)` through `driver::run_resumable_with`; kernels and
//! phases do nearly all the work and the serving layers none.
//!
//! Set-up spins up two checkpoints (after hour 02 and after hour 12);
//! units alternate a night hour (03) and a day hour (13) resumed from
//! them. Day against night is the "same layer used differently" axis:
//! stiff sunlit chemistry where four-lane lockstep wins most, against
//! heterogeneous night columns where the strictest lane governs.

use crate::harness::{
    setup_s, time_lower_quartile, Checks, Ctx, Kind, Layers, Metric, Outcome, Roles,
    TracedVsUntraced,
};
use crate::inputs;
use crate::probe::{self, HostSpeed, Paced};
use crate::trace::{self, Tracer};
use airshed::chem::mechanism::Mechanism;
use airshed::chem::simd::{integrate_cell4, Yb4Workspace};
use airshed::chem::species::N_SPECIES;
use airshed::chem::youngboris::{integrate_cell, integrate_cell_with_k, YbStats, YbWorkspace};
use airshed::core::checkpoint::Checkpoint;
use airshed::core::config::SimConfig;
use airshed::core::driver::{charge_hour, copy_bytes_for_hour, run_resumable_with, HourPlans};
use airshed::core::phases::PhaseEngine;
use airshed::core::profile::{HourProfile, StepProfile, SURFACE_SPECIES};
use airshed::core::report::RunReport;
use airshed::core::state::SimState;
use airshed::core::ExecSpec;
use airshed::fabric::report_fingerprint;
use airshed::grid::datasets::Dataset;
use airshed::machine::Machine;
use airshed::simd::F64x4;
use airshed::transport::operator::TransportWorkspace;
use std::time::Instant;

const NIGHT: usize = 0;
const DAY: usize = 1;
const KIND: [&str; 2] = ["night", "day"];
/// Hour each kind's checkpoint is spun up from (one hour before the
/// measured one).
const SPIN_UP_HOUR: [usize; 2] = [2, 12];

/// The two checkpoints and the configs that resume from them.
struct Episode {
    configs: [SimConfig; 2],
    checkpoints: [Checkpoint; 2],
    exec: ExecSpec,
}

fn set_up(ctx: &Ctx, mut host: Option<&mut HostSpeed>) -> Episode {
    let exec = ExecSpec::simd(ctx.threads);
    let configs = SPIN_UP_HOUR.map(|h| inputs::la_hour_config(ctx.seed, h));
    let checkpoints = [NIGHT, DAY].map(|k| {
        let spin_up = || run_resumable_with(&configs[k], None, exec).2;
        probe::around(host.as_deref_mut(), spin_up).0
    });
    Episode {
        configs,
        checkpoints,
        exec,
    }
}

/// What one hour produced, reduced to what repeats must reproduce.
struct HourOutput {
    fingerprint: String,
    checkpoint: Vec<u8>,
}

impl HourOutput {
    fn of(report: &RunReport, next: &Checkpoint) -> HourOutput {
        HourOutput {
            fingerprint: report_fingerprint(report),
            checkpoint: next.encode(),
        }
    }

    /// simd is exactly reproducible: every repeat must match the first.
    fn check_repeat(&self, first: &HourOutput, what: &str, checks: &mut Checks) {
        checks.same_fingerprint(what, &self.fingerprint, &first.fingerprint);
        checks.require(Kind::Output, self.checkpoint == first.checkpoint, || {
            format!("{what}: checkpoint bytes differ from the first repeat")
        });
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut host = HostSpeed::new(ctx.threads);
    let episode = set_up(ctx, Some(&mut host));
    let setup_s = setup_s(ctx, &host);

    let mut checks = Checks::in_suite(ctx.workload);
    let mut hours: [Vec<Paced>; 2] = [Vec::new(), Vec::new()];
    let mut first: [Option<HourOutput>; 2] = [None, None];
    crate::harness::run_rounds(ctx.seconds, |round| {
        for kind in [NIGHT, DAY] {
            let resume = episode.checkpoints[kind].clone();
            let ((report, _, next), paced) = host
                .around(|| run_resumable_with(&episode.configs[kind], Some(resume), episode.exec));
            hours[kind].push(paced);
            checks.attempt(1);
            let output = HourOutput::of(&report, &next);
            match &first[kind] {
                Some(first) => output.check_repeat(
                    first,
                    &format!("{} hour, round {round}", KIND[kind]),
                    &mut checks,
                ),
                None => first[kind] = Some(output),
            }
        }
    });
    // Two hours, one of each kind, per round.
    let hours_per_s = |wall: fn(&Paced) -> f64| -> Vec<f64> {
        hours[NIGHT]
            .iter()
            .zip(&hours[DAY])
            .map(|(night, day)| 2.0 / (wall(night) + wall(day)))
            .collect()
    };

    Outcome {
        setup_s,
        host,
        metrics: vec![
            Metric::time_paced("hour_wall_day_s", "s", &hours[DAY], 1.0),
            Metric::time_paced("hour_wall_night_s", "s", &hours[NIGHT], 1.0),
            Metric::rate("la_hours_per_s", "1/s", &hours_per_s(|p| p.wall_s))
                .at_nominal(hours_per_s(Paced::nominal_s)),
        ],
        roles: Roles {
            rate: "la_hours_per_s",
            primary: ("hour_wall_day_s", 1.0),
            contrast: ("hour_wall_night_s", 1.0),
        },
        checks,
    }
}

// --- traced pass ----------------------------------------------------------

/// Every `SAMPLE_STRIDE`-th column is integrated again, cell by cell and
/// in lockstep groups of four, to count substeps and lane utilisation.
const SAMPLE_STRIDE: usize = 11;

/// The sampled columns' cells just before one chemistry step, with the
/// step's meteorology.
struct StepSample {
    /// `cells[c][l * N_SPECIES + s]`, one entry per sampled column.
    cells: Vec<Vec<f64>>,
    temp_k: f64,
    sun_layers: Vec<f64>,
    dt_min: f64,
}

/// What the harness-driven hour yields beside its spans.
struct HarnessHour {
    output: HourOutput,
    /// Production/loss evaluations the engine charged, whole grid.
    charged_evals: f64,
    samples: Vec<StepSample>,
    copy: airshed::core::report::CopyBytes,
    state: Vec<f64>,
}

/// The driver's hour loop, replayed call by call on a [`PhaseEngine`]
/// with one span per call. It does everything `run_resumable_with` does
/// for one resumed hour — dataset build, engine set-up, plans, the
/// phases, `charge_hour`, copy accounting, report and checkpoint — so
/// the `hour` span's self time is the driver's named remainder.
fn harness_hour(
    tr: &mut Tracer,
    config: &SimConfig,
    resume: Checkpoint,
    exec: ExecSpec,
    unit: u32,
) -> HarnessHour {
    tr.span("hour", unit, |tr| {
        let dataset = config.dataset.build();
        let mut engine = PhaseEngine::new(dataset, config.kh, config.chem_opts);
        engine.exec = exec;
        if config.emission_scale != 1.0 {
            engine.scale_emissions(config.emission_scale);
        }
        let (mut state, hour) = (resume.state, resume.next_hour);
        let cell_volumes = SimState::cell_volumes(&engine.dataset);
        let shape = state.shape();
        let mut machine = Machine::new(config.machine, config.p);
        let plans = HourPlans::new(&shape, config.p);

        let (input, input_work) = tr.span("inputhour", unit, |_| engine.input_hour(hour));
        let (op, pretrans_work) = tr.span("pretrans", unit, |_| engine.pretrans(&input));
        let mut steps = Vec::with_capacity(input.nsteps);
        let mut samples = Vec::with_capacity(input.nsteps);
        for _ in 0..input.nsteps {
            let transport1 = tr.span("transport", unit, |_| {
                engine.transport_half_step(&op, &mut state)
            });
            samples.push(tr.span("harness.sample", unit, |_| {
                let mut cells = Vec::new();
                for n in (0..state.nodes).step_by(SAMPLE_STRIDE) {
                    let mut column = vec![0.0; N_SPECIES * state.layers];
                    state.read_column_cells(n, &mut column);
                    cells.push(column);
                }
                StepSample {
                    cells,
                    temp_k: input.temp_k,
                    sun_layers: input.sun_layers.clone(),
                    dt_min: input.dt_min,
                }
            }));
            let chemistry = tr.span("chemistry", unit, |_| {
                engine.chemistry_step(&mut state, &input)
            });
            let (_, aerosol) = tr.span("aerosol", unit, |_| {
                engine.aerosol_step(&mut state, &input, &cell_volumes)
            });
            let transport2 = tr.span("transport", unit, |_| {
                engine.transport_half_step(&op, &mut state)
            });
            steps.push(StepProfile {
                transport1,
                transport2,
                chemistry,
                aerosol,
            });
        }
        let (summary, output_work) =
            tr.span("outputhour", unit, |_| engine.output_hour(&state, hour));

        let mut surface = Vec::with_capacity(SURFACE_SPECIES.len() * state.nodes);
        for &s in &SURFACE_SPECIES {
            surface.extend_from_slice(state.plane(s, 0));
        }
        let profile = HourProfile {
            input_work,
            pretrans_work,
            output_work,
            input_bytes: input.data_bytes(),
            steps,
            surface,
        };
        tr.span("charge_hour", unit, |_| {
            charge_hour(&mut machine, &profile, &plans)
        });
        let mut copy = copy_bytes_for_hour(&plans, profile.steps.len(), profile.surface.len());
        copy.soa_staging = engine.take_staged_bytes();

        // Invert the engine's work charge to recover the evaluations it
        // counted: work = evals · reactions · coeff + a per-column term.
        let per_eval = engine.mech.n_reactions() as f64 * engine.coeffs.chem_per_reaction_eval;
        let per_column = N_SPECIES as f64 * engine.coeffs.vertical_per_column_species;
        let charged_evals = profile
            .steps
            .iter()
            .flat_map(|s| s.chemistry.iter())
            .map(|w| ((w - per_column) / per_eval).round())
            .sum();

        let mut report =
            RunReport::from_machine(engine.dataset.spec.name, &machine, 1, vec![summary]);
        report.backend = exec.describe();
        report.copy_bytes = Some(copy);
        let next = Checkpoint {
            next_hour: hour + 1,
            state,
        };
        HarnessHour {
            output: HourOutput::of(&report, &next),
            charged_evals,
            samples,
            copy,
            state: next.state.conc,
        }
    })
}

/// Scalar and lockstep integrator statistics over the sampled cells.
#[derive(Default)]
struct SampleStats {
    scalar: YbStats,
    /// Σ scalar substeps over cells that were part of a full lane group.
    grouped_scalar_substeps: u64,
    lockstep_substeps: u64,
}

fn integrate_samples(samples: &[StepSample], config: &SimConfig) -> SampleStats {
    let mech = Mechanism::carbon_bond();
    let mut ws = YbWorkspace::new(N_SPECIES);
    let mut ws4 = Yb4Workspace::new(N_SPECIES);
    let mut k = Vec::new();
    let mut stats = SampleStats::default();
    for sample in samples {
        let layers = sample.sun_layers.len();
        for l in 0..layers {
            mech.rate_constants(sample.temp_k, sample.sun_layers[l], &mut k);
            let cell_of = |c: usize| &sample.cells[c][l * N_SPECIES..(l + 1) * N_SPECIES];
            let mut substeps = Vec::with_capacity(sample.cells.len());
            for c in 0..sample.cells.len() {
                let mut cell = cell_of(c).to_vec();
                let s = integrate_cell_with_k(
                    &mech,
                    &mut cell,
                    &k,
                    sample.dt_min,
                    &config.chem_opts,
                    &mut ws,
                );
                stats.scalar.absorb(s);
                substeps.push(s.substeps);
            }
            for full_group in 0..sample.cells.len() / F64x4::LANES {
                let first = full_group * F64x4::LANES;
                let group = first..first + F64x4::LANES;
                let mut lanes: Vec<F64x4> = (0..N_SPECIES)
                    .map(|s| {
                        F64x4::new(
                            cell_of(first)[s],
                            cell_of(first + 1)[s],
                            cell_of(first + 2)[s],
                            cell_of(first + 3)[s],
                        )
                    })
                    .collect();
                let s4 = integrate_cell4(
                    &mech,
                    &mut lanes,
                    &k,
                    sample.dt_min,
                    &config.chem_opts,
                    &mut ws4,
                );
                stats.lockstep_substeps += s4.substeps;
                stats.grouped_scalar_substeps += substeps[group].iter().sum::<u64>();
            }
        }
    }
    stats
}

/// The simd backend is epsilon-bounded against serial — the tolerance of
/// `tests/backend_determinism.rs`.
fn within_simd_tolerance(serial: &[f64], simd: &[f64]) -> bool {
    serial.len() == simd.len()
        && serial
            .iter()
            .zip(simd)
            .all(|(a, b)| b.is_finite() && *b >= 0.0 && (a - b).abs() / (a.abs() + 1e-7) <= 0.05)
}

const PHASES: [&str; 6] = [
    "inputhour",
    "pretrans",
    "transport",
    "chemistry",
    "aerosol",
    "outputhour",
];

/// The traced pass: the harness-driven hour (twice per kind; each phase
/// reports its smaller total), the same hour through the driver on
/// `simd(T)` and on `serial`, and the kernels on their own.
pub fn layers(
    ctx: &Ctx,
    tr: &mut Tracer,
    out: &mut Layers,
    checks: &mut Checks,
) -> TracedVsUntraced {
    let episode = set_up(ctx, None);
    let mut traced_s = 0.0;
    let mut untraced_s = 0.0;
    let mut chemistry_s = 0.0;
    let mut charged_evals = 0.0;
    let mut scalar = YbStats::default();
    let mut day_state = Vec::new();

    for kind in [NIGHT, DAY] {
        let config = &episode.configs[kind];
        let resume = || episode.checkpoints[kind].clone();

        // The driver itself, untraced: the reference output and wall.
        let t0 = Instant::now();
        let (report, _, next) = run_resumable_with(config, Some(resume()), episode.exec);
        let driver_wall = t0.elapsed().as_secs_f64();
        let reference = HourOutput::of(&report, &next);
        checks.attempt(1);

        let mut phase_ms = [f64::INFINITY; 6];
        let mut overhead = f64::INFINITY;
        let mut harness_wall = f64::INFINITY;
        let mut chem_wall = f64::INFINITY;
        let mut hour = None;
        for rep in 0..2 {
            let mark = tr.mark();
            let h = harness_hour(tr, config, resume(), episode.exec, (2 * kind + rep) as u32);
            checks.attempt(1);
            h.output.check_repeat(
                &reference,
                &format!("harness-driven {} hour", KIND[kind]),
                checks,
            );
            let spans = &tr.spans()[mark..];
            let sampling = trace::total_us(spans, "harness.sample");
            let wall = spans[0].duration_us() - sampling;
            let mut phases_us = 0.0;
            for (p, name) in PHASES.iter().enumerate() {
                let us = trace::total_us(spans, name);
                phases_us += us;
                phase_ms[p] = phase_ms[p].min(us / 1e3);
            }
            overhead = overhead.min((wall - phases_us) / wall);
            harness_wall = harness_wall.min(wall / 1e6);
            chem_wall = chem_wall.min(trace::total_us(spans, "chemistry") / 1e6);
            hour = Some(h);
        }
        let hour = hour.expect("two harness hours ran");
        let when = KIND[kind];
        for (phase, ms) in PHASES.iter().zip(phase_ms) {
            out.set(format!("core.phases.{phase}_ms.{when}"), ms);
        }
        traced_s += harness_wall;
        untraced_s += driver_wall;
        chemistry_s += chem_wall;
        charged_evals += hour.charged_evals;

        // Plain single-thread baseline of the same unit, and the simd
        // result's distance from it.
        let t0 = Instant::now();
        let (_, _, serial_next) = run_resumable_with(config, Some(resume()), ExecSpec::serial());
        let serial_wall = t0.elapsed().as_secs_f64();
        checks.attempt(1);
        checks.require(
            Kind::Output,
            within_simd_tolerance(&serial_next.state.conc, &hour.state),
            || format!("simd {} hour is outside the serial tolerance", KIND[kind]),
        );

        let stats = integrate_samples(&hour.samples, config);
        scalar.absorb(stats.scalar);
        let utilisation = stats.grouped_scalar_substeps as f64
            / (F64x4::LANES as u64 * stats.lockstep_substeps) as f64;
        out.set(format!("core.driver.hour_overhead_frac.{when}"), overhead);
        out.set(
            format!("core.driver.hour_wall_serial_s.{when}"),
            serial_wall,
        );
        out.set(format!("chem.evals_per_hour.{when}"), hour.charged_evals);
        out.set(
            format!("chem.substeps_per_hour.{when}"),
            stats.scalar.substeps as f64,
        );
        out.set(format!("chem.lane_utilisation.{when}"), utilisation);
        if kind == DAY {
            out.set(
                "core.copy_bytes_per_hour.redist_local",
                hour.copy.redist_local as f64,
            );
            out.set(
                "core.copy_bytes_per_hour.soa_staging",
                hour.copy.soa_staging as f64,
            );
            out.set(
                "core.copy_bytes_per_hour.result_serialization",
                hour.copy.result_serialization as f64,
            );
            day_state = hour.state;
        }
    }
    out.set(
        "chem.rejected_frac",
        scalar.rejected as f64 / (scalar.substeps + scalar.rejected) as f64,
    );
    out.set("chem.evals_per_s", charged_evals / chemistry_s);

    kernels(&episode, &day_state, out);
    TracedVsUntraced {
        traced_s,
        untraced_s,
    }
}

/// A fixed set of polluted cells: background air with NO, NO2, O3 and
/// the reactive organics raised by cell-dependent factors.
fn polluted_cells() -> Vec<Vec<f64>> {
    use airshed::chem::species::{background_vector, FORM, NO, NO2, O3, OLE, PAR, XYL};
    (0..32)
        .map(|i| {
            let mut cell = background_vector();
            let f = 1.0 + i as f64 / 4.0;
            cell[NO] = 0.004 * f;
            cell[NO2] = 0.012 * f;
            cell[O3] = 0.03 + 0.002 * i as f64;
            for s in [FORM, PAR, OLE, XYL] {
                cell[s] *= 1.0 + 0.5 * f;
            }
            cell
        })
        .collect()
}

fn kernels(episode: &Episode, day_state: &[f64], out: &mut Layers) {
    // chem: one Young–Boris cell, scalar and four lanes at a time.
    let mech = Mechanism::carbon_bond();
    let opts = episode.configs[DAY].chem_opts;
    let cells = polluted_cells();
    let (temp_k, sun, dt_min) = (298.0, 0.8, 6.0);
    let mut ws = YbWorkspace::new(N_SPECIES);
    let scalar_s = time_lower_quartile(9, || {
        for cell in &cells {
            let mut c = cell.clone();
            std::hint::black_box(integrate_cell(
                &mech, &mut c, temp_k, sun, dt_min, &opts, &mut ws,
            ));
        }
    });
    out.set("chem.yb_cell_us", scalar_s * 1e6 / cells.len() as f64);
    let mut k = Vec::new();
    mech.rate_constants(temp_k, sun, &mut k);
    let mut ws4 = Yb4Workspace::new(N_SPECIES);
    let lanes: Vec<Vec<F64x4>> = cells
        .chunks_exact(F64x4::LANES)
        .map(|g| {
            (0..N_SPECIES)
                .map(|s| F64x4::new(g[0][s], g[1][s], g[2][s], g[3][s]))
                .collect()
        })
        .collect();
    let lockstep_s = time_lower_quartile(9, || {
        for group in &lanes {
            let mut c = group.clone();
            std::hint::black_box(integrate_cell4(&mech, &mut c, &k, dt_min, &opts, &mut ws4));
        }
    });
    out.set("chem.yb_cell4_us", lockstep_s * 1e6 / cells.len() as f64);

    // grid, met, transport: LA data set, 13:00 winds, layer 0.
    out.set(
        "grid.dataset_build_ms",
        time_lower_quartile(5, Dataset::los_angeles) * 1e3,
    );
    let config = &episode.configs[DAY];
    let engine = PhaseEngine::new(config.dataset.build(), config.kh, config.chem_opts);
    out.set(
        "met.input_hour_ms",
        time_lower_quartile(5, || engine.input_hour(13)) * 1e3,
    );
    let (input, _) = engine.input_hour(13);
    out.set(
        "transport.assemble_ms",
        time_lower_quartile(5, || engine.pretrans(&input)) * 1e3,
    );
    let (op, _) = engine.pretrans(&input);
    let nodes = engine.dataset.nodes();
    let layers = engine.dataset.spec.layers;
    let plane = |s: usize| &day_state[s * layers * nodes..][..nodes];
    let mut tws = TransportWorkspace::new();
    let mut iterations = 0;
    for s in 0..N_SPECIES {
        let mut field = plane(s).to_vec();
        iterations += op
            .half_step(0, &mut field, engine.background(s), &mut tws)
            .iterations;
    }
    out.set("transport.bicgstab_iters", iterations as f64);
    let scalar_s = time_lower_quartile(5, || {
        for s in 0..N_SPECIES {
            let mut field = plane(s).to_vec();
            std::hint::black_box(op.half_step(0, &mut field, engine.background(s), &mut tws));
        }
    });
    out.set("transport.half_step_us", scalar_s * 1e6 / N_SPECIES as f64);
    let simd_s = time_lower_quartile(5, || {
        for s in 0..N_SPECIES {
            let mut field = plane(s).to_vec();
            std::hint::black_box(op.half_step_simd(0, &mut field, engine.background(s), &mut tws));
        }
    });
    out.set(
        "transport.half_step_simd_us",
        simd_s * 1e6 / N_SPECIES as f64,
    );
}
