//! PopExp hosting: native Fx task vs PVM foreign module — Figure 13.
//!
//! Both hostings compute identical exposures (verified by tests); they
//! differ in how the coupled data reaches the module's nodes:
//!
//! * **native task** — PopExp is "programmed in Fx"; the compiler moves
//!   the data straight to the module nodes' blocks (scenario B of
//!   Figure 11);
//! * **foreign module** — PopExp stays a PVM program; data goes through
//!   the representative task and the module's interface node, which
//!   broadcasts internally (scenario A — the paper's prototype), plus a
//!   fixed pack/unpack overhead at the boundary between the two runtime
//!   systems.
//!
//! The integrated application runs as a four-stage pipeline (Figure 12):
//! preprocessing | transport+chemistry | postprocessing | PopExp. The
//! first three are §5's stages, taken from the hour's `PhaseGraph`
//! through `core::taskpar::hourly_stage_durations`, and the pipeline is
//! scheduled by `core::taskpar::schedule_stages`. PopExp's stage is
//! priced with the machine's own primitives: the coupling is the
//! `comm_phase_seconds` of the hosting's `coupling_loads`, the foreign
//! boundary is the `comm_cost` of one message that copies the payload
//! twice, and the module's compute is [`PopExpModel::work`] charged on
//! its subgroup. Only the sum of the three is this module's own.

use crate::exposure::{ExposureResult, PopExpModel};
use crate::population::PopulationGrid;
use airshed_core::config::DatasetChoice;
use airshed_core::driver::PlanLayouts;
use airshed_core::obs::Obs;
use airshed_core::profile::WorkProfile;
use airshed_core::taskpar::{hourly_stage_durations, schedule_stages};
use airshed_hpf::dist::Layout;
use airshed_hpf::foreign::{coupling_loads, CouplingScenario};
use airshed_hpf::pvm;
use airshed_machine::{MachineProfile, NodeCommLoad};
use serde::Serialize;

/// How PopExp is hosted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hosting {
    /// All-Fx version: PopExp as a native task.
    NativeTask,
    /// PVM PopExp coupled through the foreign-module interface.
    ForeignModule,
}

impl Hosting {
    pub fn label(&self) -> &'static str {
        match self {
            Hosting::NativeTask => "native",
            Hosting::ForeignModule => "foreign",
        }
    }
}

/// Outcome of an integrated Airshed+PopExp replay.
#[derive(Debug, Clone, Serialize)]
pub struct PopExpRunReport {
    pub p: usize,
    pub hosting: &'static str,
    pub popexp_nodes: usize,
    pub total_seconds: f64,
    pub exposures: Vec<ExposureResult>,
}

/// Build the PopExp model matching a profile's dataset.
fn model_for(profile: &WorkProfile) -> PopExpModel {
    let choice = match profile.dataset {
        "LA" => DatasetChoice::LosAngeles,
        "NE" => DatasetChoice::NorthEast,
        _ => DatasetChoice::Tiny(profile.shape[2]),
    };
    let dataset = choice.build();
    PopExpModel::new(PopulationGrid::default_for(&dataset))
}

/// Run the exposure computation for one hour on the PVM substrate: the
/// interface task receives the payload, broadcasts it, every task
/// computes its block of population cells, and partial results are
/// gathered back — the real foreign-module execution path.
pub fn foreign_exposure_hour(
    model: &PopExpModel,
    hour: usize,
    surface: &[f64],
    p_pop: usize,
) -> ExposureResult {
    let results = pvm::spawn_group(p_pop, |task| {
        // Interface node (task 0) owns the payload and broadcasts it.
        let payload: Vec<f64> = if task.id == 0 {
            task.broadcast(1, surface);
            surface.to_vec()
        } else {
            task.recv_tag(1).data
        };
        let cells = Layout::Block
            .runs(model.grid.n_cells(), p_pop, task.id)
            .next();
        let r = model.exposure_cells(hour, &payload, cells.unwrap_or_default());
        let packed = vec![r.person_dose, r.people_above_o3_threshold, r.excess_events];
        let mut total = ExposureResult::zero(hour);
        for part in task.gather_to_root(2, packed)? {
            total.person_dose += part[0];
            total.people_above_o3_threshold += part[1];
            total.excess_events += part[2];
        }
        Some(total)
    });
    results.into_iter().flatten().next().expect("root result")
}

/// Replay a captured profile through the integrated four-stage pipeline:
/// §5's three stages on `p - 2 - p_pop` compute nodes, then PopExp on
/// `p_pop` module nodes.
pub fn replay_with_popexp(
    profile: &WorkProfile,
    machine_profile: MachineProfile,
    p: usize,
    hosting: Hosting,
) -> PopExpRunReport {
    assert!(p >= 4, "integrated Airshed+PopExp needs >= 4 nodes");
    let p_pop = (p / 4).clamp(1, 8);
    let p_compute = p - 2 - p_pop;
    assert!(p_compute >= 1);
    let model = model_for(profile);

    // The PopExp stage costs the same every hour. The coupling ships the
    // hour's concentration data (the paper couples the full Airshed
    // output into PopExp); the exposure kernel itself reads the surface
    // planes. A foreign module also pays a fixed boundary overhead per
    // exchange: one message, and a pack and an unpack of the payload
    // into the shared library's format.
    let payload_bytes = profile.shape.iter().product::<usize>() * machine_profile.word_size;
    let scenario = match hosting {
        Hosting::NativeTask => CouplingScenario::DirectToNodes,
        Hosting::ForeignModule => CouplingScenario::InterfaceNode,
    };
    let native_ids: Vec<usize> = (0..p_compute).collect();
    let popexp_ids: Vec<usize> = (p - p_pop..p).collect();
    let loads: Vec<NodeCommLoad> =
        coupling_loads(scenario, p_compute, &native_ids, &popexp_ids, payload_bytes)
            .into_iter()
            .map(|(_, load)| load)
            .collect();
    let coupling = machine_profile.comm_phase_seconds(&loads);
    let boundary = match hosting {
        Hosting::NativeTask => 0.0,
        Hosting::ForeignModule => machine_profile.comm_cost(&NodeCommLoad {
            msgs_sent: 1,
            bytes_copied: 2 * payload_bytes,
            ..Default::default()
        }),
    };
    let module = model.work().subgroup_seconds(&machine_profile, p_pop);
    let popexp = coupling + boundary + module;

    let mut durations = hourly_stage_durations(
        profile,
        machine_profile,
        p_compute,
        (1, 1),
        PlanLayouts::default(),
    );
    durations.push(vec![popexp; profile.hours.len()]);
    let sched = schedule_stages(&durations, &Obs::off());

    // The science: both hostings really compute the exposure; the
    // foreign path exercises the PVM substrate.
    let exposures = profile
        .hours
        .iter()
        .enumerate()
        .map(|(h, hp)| {
            let hour = profile.summaries.get(h).map(|s| s.hour).unwrap_or(h);
            match hosting {
                Hosting::NativeTask => model.exposure_hour_split(hour, &hp.surface, p_pop),
                Hosting::ForeignModule => foreign_exposure_hour(&model, hour, &hp.surface, p_pop),
            }
        })
        .collect();
    PopExpRunReport {
        p,
        hosting: hosting.label(),
        popexp_nodes: p_pop,
        total_seconds: sched.makespan,
        exposures,
    }
}

/// One Figure 13 row.
#[derive(Debug, Clone, Serialize)]
pub struct Fig13Row {
    pub p: usize,
    pub native_seconds: f64,
    pub foreign_seconds: f64,
    /// Foreign-module overhead relative to native (fraction).
    pub overhead: f64,
}

/// The Figure 13 sweep: integrated Airshed+PopExp, native vs foreign.
pub fn fig13_sweep(
    profile: &WorkProfile,
    machine_profile: MachineProfile,
    ps: &[usize],
) -> Vec<Fig13Row> {
    ps.iter()
        .map(|&p| {
            let native = replay_with_popexp(profile, machine_profile, p, Hosting::NativeTask);
            let foreign = replay_with_popexp(profile, machine_profile, p, Hosting::ForeignModule);
            Fig13Row {
                p,
                native_seconds: native.total_seconds,
                foreign_seconds: foreign.total_seconds,
                overhead: foreign.total_seconds / native.total_seconds - 1.0,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> WorkProfile {
        airshed_core::testsupport::tiny_profile().clone()
    }

    #[test]
    fn native_and_foreign_compute_identical_exposures() {
        let prof = profile();
        let m = MachineProfile::paragon();
        let native = replay_with_popexp(&prof, m, 16, Hosting::NativeTask);
        let foreign = replay_with_popexp(&prof, m, 16, Hosting::ForeignModule);
        assert_eq!(native.exposures.len(), foreign.exposures.len());
        for (a, b) in native.exposures.iter().zip(&foreign.exposures) {
            assert!(
                (a.person_dose - b.person_dose).abs() <= 1e-9 * a.person_dose.abs().max(1.0),
                "dose {} vs {}",
                a.person_dose,
                b.person_dose
            );
            assert_eq!(a.people_above_o3_threshold, b.people_above_o3_threshold);
        }
    }

    #[test]
    fn foreign_carries_small_fixed_overhead() {
        // Figure 13: "a fixed, relatively small, extra overhead
        // associated with the foreign module approach".
        let prof = profile();
        let rows = fig13_sweep(&prof, MachineProfile::paragon(), &[4, 8, 16, 32]);
        for r in &rows {
            assert!(
                r.foreign_seconds >= r.native_seconds,
                "p={}: foreign must not be faster",
                r.p
            );
            assert!(
                r.overhead < 0.15,
                "p={}: overhead {:.1}% should be small",
                r.p,
                100.0 * r.overhead
            );
        }
        // Both versions speed up with more nodes.
        assert!(rows.last().unwrap().native_seconds < rows[0].native_seconds);
        assert!(rows.last().unwrap().foreign_seconds < rows[0].foreign_seconds);
    }

    #[test]
    fn pvm_hosted_exposure_matches_serial() {
        let prof = profile();
        let model = super::model_for(&prof);
        let surface = &prof.hours[0].surface;
        let serial = model.exposure_hour(7, surface);
        for p in [1usize, 2, 5] {
            let par = foreign_exposure_hour(&model, 7, surface, p);
            assert!((par.person_dose - serial.person_dose).abs() < 1e-6);
            assert!((par.excess_events - serial.excess_events).abs() < 1e-9);
        }
    }

    #[test]
    fn popexp_stage_hidden_behind_compute() {
        // In the pipeline, adding PopExp should cost far less than its
        // standalone duration (it overlaps the main computation).
        let prof = profile();
        let m = MachineProfile::paragon();
        let with = replay_with_popexp(&prof, m, 16, Hosting::NativeTask).total_seconds;
        let without = airshed_core::taskpar::replay_taskparallel(
            &prof,
            m,
            16,
            (1, 1),
            Default::default(),
            &airshed_core::obs::Obs::off(),
        )
        .total_seconds;
        // The integrated version has fewer compute nodes (popexp takes
        // some), so allow some slack — but it must be nowhere near
        // doubling.
        assert!(with < 1.5 * without, "with {with} vs without {without}");
    }
}
