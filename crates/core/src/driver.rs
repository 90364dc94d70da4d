//! The data-parallel Airshed driver — Figure 1's loop with the three
//! redistribution steps of §2.2.
//!
//! [`Episode`] executes the real numerics once (host-side), an hour at
//! a time, while charging the configured virtual machine; it finishes
//! into the timing report and the captured [`WorkProfile`].
//! [`crate::plan::replay_profile`] re-charges a captured profile on a
//! different machine or node count without re-running the kernels — the
//! results are identical because the numerics are deterministic and
//! P-independent. Both take their redistribution plans from
//! [`HourPlans::shared`], which keeps each plan set in a process-wide
//! [`ShardedLru`] (least recently used out, like every memo here).

use crate::backend::ExecSpec;
use crate::checkpoint::Checkpoint;
use crate::config::SimConfig;
use crate::memo::ShardedLru;
use crate::obs::{Obs, Track};
use crate::phases::PhaseEngine;
use crate::plan::{charge_hours, Placement};
use crate::profile::{HourProfile, StepProfile, WorkProfile};
use crate::report::{CopyBytes, RunReport};
use crate::state::SimState;
use airshed_hpf::dist::Distribution;
use airshed_hpf::redist::{labels, plan, AirshedRedists, RedistPlan};
use airshed_machine::Machine;
use airshed_met::hourly::HourlyInput;
use airshed_transport::operator::HorizontalTransport;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock};

/// Machine word size — 8 bytes on all three paper machines.
pub const WORD: usize = 8;

/// The historical name of [`airshed_hpf::dist::Layout`] (chemistry was
/// the first phase to gain a layout knob); like
/// [`crate::plan::ItemLayout`], it is that one type.
pub use airshed_hpf::dist::Layout as ChemLayout;

/// One layout choice per distributed phase — the optimizer's decision
/// variable. `Default` is the paper's plan: `BLOCK` everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PlanLayouts {
    /// Transport distributes vertical layers (dimension 1).
    pub transport: ChemLayout,
    /// Chemistry distributes grid columns (dimension 2).
    pub chemistry: ChemLayout,
}

impl PlanLayouts {
    pub fn new(transport: ChemLayout, chemistry: ChemLayout) -> PlanLayouts {
        PlanLayouts {
            transport,
            chemistry,
        }
    }

    /// The historical single-knob form: default transport, chosen
    /// chemistry layout.
    pub fn chem(chemistry: ChemLayout) -> PlanLayouts {
        PlanLayouts {
            transport: ChemLayout::Block,
            chemistry,
        }
    }
}

impl std::fmt::Display for PlanLayouts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "transport={} chemistry={}",
            self.transport, self.chemistry
        )
    }
}

/// All redistribution plans one run needs — a pure function of
/// `(shape, P, layouts)`, so the process derives each set once:
/// [`HourPlans::shared`] is how everything outside this type gets one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HourPlans {
    /// Array shape `[species, layers, nodes]` the plans were built for.
    pub shape: [usize; 3],
    pub main: AirshedRedists,
    /// `D_Trans -> D_Repl` at the hour boundary (before `outputhour`).
    pub trans_to_repl: RedistPlan,
    /// The per-phase layouts the plans were built for.
    pub layouts: PlanLayouts,
}

/// Plan sets the process-wide memo keeps. A server sees one set per
/// distinct `(shape, P, layouts)` placement it replays on and an
/// optimizing one ≈ 14 candidates per `(shape, P)`; past the bound the
/// least recently used set goes first.
pub const PLAN_MEMO_ENTRIES: usize = 256;

/// Largest `P` whose plan set the memo keeps. An entry is four load
/// vectors of `P` × 40 B, so the memo holds at most `256 × 160 B × 1024`
/// = 40 MiB, and 5 MiB at the paper's largest machine (`P` = 128); a
/// larger `P` is planned per call, as every `P` was before the memo.
const PLAN_MEMO_MAX_P: usize = 1024;

type PlanKey = ([usize; 3], usize, PlanLayouts);

/// The memo behind [`HourPlans::shared`]: 32 sets a shard.
static PLAN_MEMO: LazyLock<ShardedLru<PlanKey, Arc<HourPlans>>> =
    LazyLock::new(|| ShardedLru::new(PLAN_MEMO_ENTRIES / 32, PLAN_MEMO_ENTRIES));
static PLAN_MEMO_HITS: AtomicU64 = AtomicU64::new(0);
static PLAN_MEMO_MISSES: AtomicU64 = AtomicU64::new(0);

/// Counters of the process-wide plan memo behind [`HourPlans::shared`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanMemoStats {
    /// Lookups answered with a plan set already derived.
    pub hits: u64,
    /// Lookups that planned (a cold key, or one past the bound).
    pub misses: u64,
    /// Plan sets resident now.
    pub entries: u64,
}

impl HourPlans {
    /// The plan set for `(shape, p, layouts)`, derived at most once
    /// while it stays resident in a bounded process-wide memo
    /// ([`PLAN_MEMO_ENTRIES`] sets). Process-wide rather than per server
    /// or per optimizer because the value depends on nothing but the key
    /// — there is nothing to invalidate and every caller (replay, layout
    /// search, pipeline split, oracle) wants the same set.
    pub fn shared(shape: &[usize; 3], p: usize, layouts: PlanLayouts) -> Arc<HourPlans> {
        let plan = || Arc::new(HourPlans::with_layouts(shape, p, layouts));
        let (plans, hit) = if p > PLAN_MEMO_MAX_P {
            (plan(), false)
        } else {
            PLAN_MEMO.get_or_insert_with((*shape, p, layouts), plan)
        };
        [&PLAN_MEMO_MISSES, &PLAN_MEMO_HITS][usize::from(hit)].fetch_add(1, Ordering::Relaxed);
        plans
    }

    /// Hits, misses and resident entries of the memo behind
    /// [`HourPlans::shared`], for the whole process.
    pub fn memo_stats() -> PlanMemoStats {
        PlanMemoStats {
            hits: PLAN_MEMO_HITS.load(Ordering::Relaxed),
            misses: PLAN_MEMO_MISSES.load(Ordering::Relaxed),
            entries: PLAN_MEMO.len() as u64,
        }
    }

    /// The paper's plan set (all-`BLOCK`), planned afresh — the memo's
    /// miss path; callers want [`HourPlans::shared`].
    pub fn new(shape: &[usize; 3], p: usize) -> HourPlans {
        Self::with_layouts(shape, p, PlanLayouts::default())
    }

    /// Plans for an explicit per-phase layout choice, planned afresh
    /// (the memo's miss path; callers want [`HourPlans::shared`]): each
    /// of the hour's four edges is planned from the chosen
    /// distributions. With the default (all-`BLOCK`) layouts these are
    /// exactly the paper's plans, `hpf::redist::airshed_redists`.
    pub fn with_layouts(shape: &[usize; 3], p: usize, layouts: PlanLayouts) -> HourPlans {
        let d_repl = Distribution::replicated(3);
        let d_trans = layouts.transport.distribution_on(1);
        let d_chem = layouts.chemistry.distribution_on(2);
        let edge = |src: &Distribution, dst: &Distribution, label| RedistPlan {
            label,
            ..plan(shape, src, dst, p, WORD)
        };
        HourPlans {
            shape: *shape,
            main: AirshedRedists {
                repl_to_trans: edge(&d_repl, &d_trans, labels::REPL_TO_TRANS),
                trans_to_chem: edge(&d_trans, &d_chem, labels::TRANS_TO_CHEM),
                chem_to_repl: edge(&d_chem, &d_repl, labels::CHEM_TO_REPL),
            },
            trans_to_repl: edge(&d_trans, &d_repl, labels::TRANS_TO_REPL),
            layouts,
        }
    }
}

/// Bytes one simulated hour copies outside the kernels, computed from
/// the redistribution plans and the grid shape — the measured `c` side
/// of the zero-copy roadmap item. `redist_local` multiplies each
/// plan's local-copy bytes by its per-hour execution count (the same
/// counts `comm_steps` records: `D_Trans->D_Chem` and `D_Chem->D_Repl`
/// once per step, `D_Repl->D_Trans` once per step plus once at hour
/// start, `D_Trans->D_Repl` once per hour); `soa_staging` is the
/// chemistry column staging (read + write-back per step, matching what
/// [`PhaseEngine`] actually stages); `result_serialization` is the
/// hour's surface snapshot. Deterministic, so live runs, replays and
/// fabric shards agree byte for byte.
pub fn copy_bytes_for_hour(plans: &HourPlans, steps: usize, surface_len: usize) -> CopyBytes {
    let s = steps as u64;
    let copied = |p: &RedistPlan| p.total_bytes_copied() as u64;
    let col_len = plans.shape[0] * plans.shape[1];
    CopyBytes {
        redist_local: copied(&plans.main.trans_to_chem) * s
            + copied(&plans.main.chem_to_repl) * s
            + copied(&plans.main.repl_to_trans) * (s + 1)
            + copied(&plans.trans_to_repl),
        soa_staging: (2 * plans.shape[2] * col_len * WORD) as u64 * s,
        result_serialization: (surface_len * WORD) as u64,
    }
}

/// Charge one hour's captured work to the machine: [`charge_hours`]
/// over that hour, each distributed node at its heaviest node, in the
/// main loop's phase/redistribution order (the `plan_equivalence`
/// goldens pin every bit).
pub fn charge_hour(machine: &mut Machine, hp: &HourProfile, plans: &HourPlans) {
    let hour = std::slice::from_ref(hp);
    charge_hours(machine, hour, plans, None, |_, _, _, _| {});
}

/// The shared input stage of one simulated hour: the hourly input
/// bundle (`inputhour`) and the transport operators assembled from its
/// winds (`pretrans`), with the work each charged. It depends only on
/// the weather regime and the hour — never on emissions — which is why
/// an ensemble runs it once per group and every member steps on it.
pub struct InputStage {
    hour: usize,
    pub(crate) input: HourlyInput,
    input_work: f64,
    op: HorizontalTransport,
    pretrans_work: f64,
}

/// One run of Figure 1's hour loop, stepped an hour at a time — the
/// only code that knows the phase order. The standalone driver steps it
/// `config.hours` times, a server worker or fabric shard checks
/// cancellation and streams checkpoints between steps, and an ensemble
/// steps one episode per member on a shared [`InputStage`]. Real
/// numerics run once on the host while the configured virtual machine
/// is charged; a run split at any hour boundary is bit-identical to an
/// uninterrupted one (no hidden state crosses the hour loop), and the
/// execution backend never affects the results, only wall-clock.
///
/// With an enabled [`Obs`] handle every hour opens one "hour" span, one
/// span per phase invocation inside it (the [`PhaseKind`] labels) and
/// one "charge_hour" around the hour's charge; the engine's pool forks
/// report per-task worker spans through the same handle; the charge
/// ([`charge_hours`], the loop replays charge through too) records
/// every plan node and redistribution edge on a [`Track::Virtual`] row,
/// at the virtual `(start, end)` the machine charged it; and at each
/// hour boundary the cumulative `copy bytes` counters are sampled and
/// the span buffers are flushed. With a
/// disabled handle there are no clock reads and no tracing, and the
/// results are bit-identical either way
/// (instrumentation never reorders the item-ordered reductions).
///
/// [`PhaseKind`]: airshed_machine::accounting::PhaseKind
pub struct Episode {
    engine: PhaseEngine,
    /// The state and the next hour to simulate.
    checkpoint: Checkpoint,
    /// Hours captured so far.
    profile: WorkProfile,
    machine: Machine,
    plans: Arc<HourPlans>,
    cell_volumes: Vec<f64>,
    copy_total: CopyBytes,
}

impl Episode {
    /// Set up a run of `config` on `exec`, starting from the background
    /// state at `config.start_hour` or from the `resume` checkpoint.
    /// `config.hours` is not read: the caller decides how often to step.
    pub fn new(
        config: &SimConfig,
        resume: Option<Checkpoint>,
        exec: ExecSpec,
        obs: &Obs,
    ) -> Episode {
        let mut engine = PhaseEngine::new(config.dataset.build(), config.kh, config.chem_opts);
        engine.exec = exec;
        engine.obs = obs.clone();
        if config.weather == crate::config::Weather::Stagnation {
            engine.generator = airshed_met::hourly::InputGenerator::stagnation();
        }
        if config.emission_scale != 1.0 {
            engine.scale_emissions(config.emission_scale);
        }
        let spec = &engine.dataset.spec;
        let shape = [spec.species, spec.layers, engine.dataset.nodes()];
        let checkpoint = resume.unwrap_or_else(|| Checkpoint {
            next_hour: config.start_hour,
            state: SimState::from_background(&engine.dataset),
        });
        assert_eq!(
            checkpoint.state.shape(),
            shape,
            "checkpoint shape does not match the configured dataset"
        );
        Episode {
            profile: WorkProfile {
                dataset: spec.name,
                shape,
                hours: Vec::new(),
                summaries: Vec::new(),
            },
            cell_volumes: SimState::cell_volumes(&engine.dataset),
            plans: HourPlans::shared(&shape, config.p, PlanLayouts::default()),
            engine,
            checkpoint,
            machine: Machine::new(config.machine, config.p),
            copy_total: CopyBytes::default(),
        }
    }

    /// Adopt the hours an interrupted run of the same scenario already
    /// captured (the partial profile that travels with its checkpoint):
    /// they are charged to the machine and the copy totals as if this
    /// episode had run them, so it finishes into the same report and
    /// profile as an uninterrupted run.
    pub fn adopt(&mut self, partial: WorkProfile) {
        assert!(self.profile.hours.is_empty(), "adopt before the first step");
        assert_eq!(
            partial.shape, self.profile.shape,
            "partial profile does not match the configured dataset"
        );
        let placement = Placement::of(&partial, self.machine.p(), self.plans.layouts);
        self.copy_total = placement.charge(&partial, &mut self.machine);
        self.profile = partial;
    }

    /// Run `inputhour` and `pretrans` for the next hour.
    pub fn input_stage(&mut self) -> InputStage {
        let hour = self.checkpoint.next_hour;
        let tag = hour as u32;
        self.engine.set_obs_hour(tag);
        let (input, input_work) = {
            let _s = self.engine.obs.span_hour("inputhour", tag);
            self.engine.input_hour(hour)
        };
        let (op, pretrans_work) = {
            let _s = self.engine.obs.span_hour("pretrans", tag);
            self.engine.pretrans(&input)
        };
        InputStage {
            hour,
            input,
            input_work,
            op,
            pretrans_work,
        }
    }

    /// Simulate the next hour: on this episode's own input stage, or on
    /// a `shared` one that another episode of the same weather regime
    /// and hour already ran (see [`InputStage`]).
    pub fn step(&mut self, shared: Option<&InputStage>) {
        let obs = self.engine.obs.clone();
        let hour = self.checkpoint.next_hour;
        let tag = hour as u32;
        self.engine.set_obs_hour(tag);
        {
            let _hour_span = obs.span_hour("hour", tag);
            let own;
            let stage = match shared {
                Some(stage) => stage,
                None => {
                    own = self.input_stage();
                    &own
                }
            };
            assert_eq!(stage.hour, hour, "input stage is for another hour");
            let (engine, input) = (&self.engine, &stage.input);
            let state = &mut self.checkpoint.state;

            let mut steps = Vec::with_capacity(input.nsteps);
            for _ in 0..input.nsteps {
                let transport1 = {
                    let _s = obs.span_hour("transport", tag);
                    engine.transport_half_step(&stage.op, state)
                };
                let chemistry = {
                    let _s = obs.span_hour("chemistry", tag);
                    engine.chemistry_step(state, input)
                };
                let (_aero, aerosol) = {
                    let _s = obs.span_hour("aerosol", tag);
                    engine.aerosol_step(state, input, &self.cell_volumes)
                };
                let transport2 = {
                    let _s = obs.span_hour("transport", tag);
                    engine.transport_half_step(&stage.op, state)
                };
                steps.push(StepProfile {
                    transport1,
                    transport2,
                    chemistry,
                    aerosol,
                });
            }
            debug_assert!(state.is_physical(), "state went unphysical at hour {hour}");

            let (summary, output_work) = {
                let _s = obs.span_hour("outputhour", tag);
                engine.output_hour(state, hour)
            };
            let mut surface =
                Vec::with_capacity(crate::profile::SURFACE_SPECIES.len() * state.nodes);
            for &s in &crate::profile::SURFACE_SPECIES {
                surface.extend_from_slice(state.plane(s, 0));
            }
            let hp = HourProfile {
                input_work: stage.input_work,
                pretrans_work: stage.pretrans_work,
                output_work,
                input_bytes: input.data_bytes(),
                steps,
                surface,
            };
            {
                let _s = obs.span_hour("charge_hour", tag);
                let hour = std::slice::from_ref(&hp);
                charge_hours(
                    &mut self.machine,
                    hour,
                    &self.plans,
                    None,
                    |_, label, s, e| {
                        obs.record_virtual(label, Track::Virtual(label), s, e, Some(tag));
                    },
                );
            }
            self.profile.hours.push(hp);
            self.profile.summaries.push(summary);
            self.checkpoint.next_hour += 1;
        }
        let hp = self.profile.hours.last().expect("just pushed");
        // Copy-traffic accounting: redistribution local copies and the
        // surface snapshot from the plans, SoA staging as measured by
        // the engine (they agree today; the measured number is the one
        // that drops when the zero-copy refactor lands).
        let mut cb = copy_bytes_for_hour(&self.plans, hp.steps.len(), hp.surface.len());
        cb.soa_staging = self.engine.take_staged_bytes();
        self.copy_total.add(&cb);
        if obs.enabled() {
            // Cumulative copy-bytes counters, one series per copy
            // class, sampled at the hour boundary.
            let now_us = obs.us_since_epoch(std::time::Instant::now());
            for (kind, v) in copy_classes(&self.copy_total) {
                obs.record_counter(kind, "copy bytes", now_us, v as f64, Some(tag));
            }
            obs.flush();
        }
    }

    /// The state and the next hour to simulate.
    pub fn checkpoint(&self) -> &Checkpoint {
        &self.checkpoint
    }

    /// The work profile captured so far (adopted hours included).
    pub fn profile(&self) -> &WorkProfile {
        &self.profile
    }

    /// Step `hours` times, then [`finish`](Episode::finish).
    pub fn run(mut self, hours: usize) -> (RunReport, WorkProfile, Checkpoint) {
        for _ in 0..hours {
            self.step(None);
        }
        self.finish()
    }

    /// Close the run: the timing report for the hours captured (the
    /// backend choice recorded in it), the reusable work profile, and a
    /// checkpoint for the following hour. Publishes the `copy-traffic`
    /// Prometheus section through the obs handle.
    pub fn finish(self) -> (RunReport, WorkProfile, Checkpoint) {
        let obs = &self.engine.obs;
        if obs.enabled() {
            obs.publish(
                "copy-traffic",
                crate::obs::prom::render(COPY_TRAFFIC, &self.copy_total),
            );
        }
        let mut report = RunReport::from_machine(
            self.profile.dataset,
            &self.machine,
            self.profile.hours.len(),
            self.profile.summaries.clone(),
        );
        report.backend = self.engine.exec.describe();
        report.copy_bytes = Some(self.copy_total);
        (report, self.profile, self.checkpoint)
    }
}

/// The copy classes as `(kind, bytes)`: the per-hour trace counters.
fn copy_classes(cb: &CopyBytes) -> [(&'static str, u64); 3] {
    [
        ("redist_local", cb.redist_local),
        ("soa_staging", cb.soa_staging),
        ("result_serialization", cb.result_serialization),
    ]
}

crate::metrics! {
    /// The `copy-traffic` section: each copy class with the phase it is
    /// attributed to.
    const COPY_TRAFFIC: [CopyBytes] = {
        counter "airshed_copy_bytes_total" "Bytes copied outside the kernels, by copy class." {
            redist_local {kind = "redist_local", phase = "communication"},
            soa_staging {kind = "soa_staging", phase = "chemistry"},
            result_serialization {kind = "result_serialization", phase = "output"},
        }
    };
}

/// Execute `config.hours` hours untraced on `exec`, optionally resuming
/// from a checkpoint: an [`Episode`] stepped to the end. Returns the
/// report, the work profile, and a checkpoint for the following hour.
pub fn run_resumable_with(
    config: &SimConfig,
    resume: Option<Checkpoint>,
    exec: ExecSpec,
) -> (RunReport, WorkProfile, Checkpoint) {
    Episode::new(config, resume, exec, &Obs::off()).run(config.hours)
}

/// [`run_resumable_with`] from the background state, without the
/// checkpoint.
pub fn run_with_profile_on(config: &SimConfig, exec: ExecSpec) -> (RunReport, WorkProfile) {
    let (report, profile, _) = run_resumable_with(config, None, exec);
    (report, profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::plan::replay_profile;
    use crate::testsupport::{tiny_config, tiny_profile, tiny_run};
    use airshed_machine::MachineProfile;

    #[test]
    fn run_produces_consistent_report() {
        let (r, prof) = tiny_run();
        assert_eq!(r.p, 4);
        assert_eq!(r.hours, 3);
        assert!(r.total_seconds > 0.0);
        // Attributed phases must add up to the elapsed time (no group
        // overlap in the data-parallel driver).
        let sum =
            r.io_seconds + r.transport_seconds + r.chemistry_seconds + r.communication_seconds;
        assert!(
            (sum - r.total_seconds).abs() < 1e-6 * r.total_seconds,
            "sum {sum} vs total {}",
            r.total_seconds
        );
        assert_eq!(prof.hours.len(), 3);
        assert!(prof.total_steps() >= 3 * prof.hours.len());
    }

    #[test]
    fn replay_matches_original_run_exactly() {
        let (r, prof) = tiny_run();
        let r2 = replay_profile(prof, tiny_config().machine, 4, ChemLayout::Block);
        assert!((r.total_seconds - r2.total_seconds).abs() < 1e-12);
        assert!((r.communication_seconds - r2.communication_seconds).abs() < 1e-12);
        assert!((r.chemistry_seconds - r2.chemistry_seconds).abs() < 1e-12);
    }

    #[test]
    fn chemistry_scales_io_does_not() {
        let prof = tiny_profile();
        let r2 = replay_profile(prof, MachineProfile::t3e(), 2, ChemLayout::Block);
        let r16 = replay_profile(prof, MachineProfile::t3e(), 16, ChemLayout::Block);
        // Chemistry parallelises across columns.
        assert!(
            r16.chemistry_seconds < 0.3 * r2.chemistry_seconds,
            "chem {} vs {}",
            r16.chemistry_seconds,
            r2.chemistry_seconds
        );
        // I/O processing stays constant.
        assert!(
            (r16.io_seconds - r2.io_seconds).abs() < 1e-9,
            "io {} vs {}",
            r16.io_seconds,
            r2.io_seconds
        );
    }

    #[test]
    fn transport_stops_scaling_at_layer_count() {
        let prof = tiny_profile();
        let t = |p: usize| replay_profile(prof, MachineProfile::t3e(), p, ChemLayout::Block);
        let r2 = t(2);
        let r5 = t(5);
        let r32 = t(32);
        // Scaling up to 5 layers...
        assert!(r5.transport_seconds < 0.6 * r2.transport_seconds);
        // ...then flat.
        let ratio = r32.transport_seconds / r5.transport_seconds;
        assert!(
            (0.95..1.05).contains(&ratio),
            "transport must stop scaling beyond layers: {ratio}"
        );
    }

    #[test]
    fn comm_steps_are_recorded_with_counts() {
        let (r, prof) = tiny_run();
        let steps = prof.total_steps();
        let find = |label: &str| {
            r.comm_steps
                .iter()
                .find(|c| c.label == label)
                .unwrap_or_else(|| panic!("missing {label}"))
        };
        let hours = prof.hours.len();
        assert_eq!(find("D_Trans->D_Chem").count, steps);
        assert_eq!(find("D_Chem->D_Repl").count, steps);
        // One extra D_Repl->D_Trans at each hour start.
        assert_eq!(find("D_Repl->D_Trans").count, steps + hours);
        assert_eq!(find("D_Trans->D_Repl").count, hours);
    }

    #[test]
    fn copy_bytes_are_accounted_and_match_replay() {
        // The live run measures SoA staging; the replay computes it
        // from the plans. They must agree exactly (same grid, same
        // steps), and every copy class must be nonzero.
        let (r, prof) = tiny_run();
        let cb = r.copy_bytes.expect("live run accounts copies");
        assert!(cb.redist_local > 0, "redist local copies must be counted");
        assert!(cb.soa_staging > 0, "SoA staging must be counted");
        assert!(cb.result_serialization > 0, "surface bytes must be counted");
        let r2 = replay_profile(prof, tiny_config().machine, 4, ChemLayout::Block);
        assert_eq!(r2.copy_bytes, Some(cb));
    }

    #[test]
    fn cyclic_layout_balances_chemistry_load() {
        // The urban/rural work imbalance makes BLOCK chemistry blocks
        // uneven; CYCLIC striping balances them, so the chemistry phase
        // gets faster (or at worst equal) at every node count.
        let prof = tiny_profile();
        for p in [8usize, 16, 32] {
            let block = replay_profile(prof, MachineProfile::t3e(), p, ChemLayout::Block);
            let cyclic = replay_profile(prof, MachineProfile::t3e(), p, ChemLayout::Cyclic);
            assert!(
                cyclic.chemistry_seconds <= block.chemistry_seconds * 1.001,
                "P={p}: cyclic {} vs block {}",
                cyclic.chemistry_seconds,
                block.chemistry_seconds
            );
        }
    }

    #[test]
    fn cyclic_per_node_mapping_is_a_partition() {
        let work: Vec<f64> = (0..23).map(|i| i as f64).collect();
        for p in [1usize, 3, 8] {
            let per = ChemLayout::Cyclic.per_node(&work, p);
            assert_eq!(per.len(), p);
            let total: f64 = per.iter().sum();
            assert!((total - work.iter().sum::<f64>()).abs() < 1e-12);
        }
        // Column i goes to node i % p.
        let per = ChemLayout::Cyclic.per_node(&[1.0, 2.0, 4.0, 8.0, 16.0], 2);
        assert_eq!(per, vec![1.0 + 4.0 + 16.0, 2.0 + 8.0]);
    }

    #[test]
    fn science_is_invariant_across_p_and_machine() {
        // Same numerics at a different node count (fresh 1-hour run)...
        let mut cfg = SimConfig::test_tiny(13, 1);
        cfg.start_hour = 10;
        let (rb, _) = run_with_profile_on(&cfg, ExecSpec::default());
        let (ra, prof_a) = tiny_run();
        assert_eq!(ra.summaries[0].max_o3, rb.summaries[0].max_o3);
        assert_eq!(ra.summaries[0].mean_nox, rb.summaries[0].mean_nox);
        // ...and replays on any machine carry the summaries unchanged.
        let rc = replay_profile(prof_a, MachineProfile::paragon(), 64, ChemLayout::Block);
        assert_eq!(rc.summaries.len(), ra.summaries.len());
        assert_eq!(rc.peak_o3(), ra.peak_o3());
    }

    #[test]
    fn daytime_run_is_photochemically_active() {
        // 3 daylight hours over the tiny urban domain must crank out
        // ozone above the 40 ppb background.
        let (r, _) = tiny_run();
        assert!(
            r.peak_o3() > 0.045,
            "expected photochemical O3 above background, got {}",
            r.peak_o3()
        );
    }

    #[test]
    fn nitrogen_is_roughly_conserved_minus_deposition() {
        // Total N can only decrease (deposition, aerosol uptake) or grow
        // from emissions; it must stay within a sane band, not explode.
        let (r, _) = tiny_run();
        let first = r.summaries.first().unwrap().mean_total_n;
        let last = r.summaries.last().unwrap().mean_total_n;
        assert!(
            last > 0.2 * first && last < 5.0 * first,
            "total N drifted wildly: {first} -> {last}"
        );
    }
}
