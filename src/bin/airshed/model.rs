//! The subcommands that run one simulation and report on it: `run`,
//! `sweep`, `predict`, `plan`, `validate`, `popexp` — and `gridinfo`,
//! which only builds the grid.

use crate::flags::{config, exec, layout, Options};
use crate::write_file;
use airshed::core::config::SimConfig;
use airshed::core::driver::{ChemLayout, Episode, PlanLayouts};
use airshed::core::obs::oracle::validate_profile;
use airshed::core::obs::Obs;
use airshed::core::plan::optimize::plan_cost;
use airshed::core::plan::{optimize_plan, replay_profile, replay_profile_with};
use airshed::core::predict::PerfModel;
use airshed::core::taskpar::{optimize_split, replay_taskparallel};
use airshed::core::{viz, ExecSpec, RunReport, WorkProfile};
use airshed::machine::MachineProfile;
use airshed::popexp::{fig13_sweep, replay_with_popexp, Hosting};

/// Run the numerics of `config`, traced through `obs`.
fn simulate(config: &SimConfig, exec: ExecSpec, obs: &Obs) -> (RunReport, WorkProfile) {
    let (report, profile, _) = Episode::new(config, None, exec, obs).run(config.hours);
    (report, profile)
}

/// Say on stderr what is about to run, and on what.
fn announce(verb: &str, o: &Options, placement: &str, exec: ExecSpec) {
    eprintln!(
        "{verb} {} for {} hours on {} {placement} (host backend {})...",
        o.dataset.name(),
        o.hours,
        o.machine.name,
        exec.describe()
    );
}

pub fn cmd_run(o: &Options, obs: &Obs) -> Result<(), String> {
    let p = o.nodes[0];
    let exec = exec(o);
    announce("simulating", o, &format!("x{p} nodes"), exec);
    let (report, profile) = simulate(&config(o, p), exec, obs);
    let report = if o.cyclic {
        replay_profile(&profile, o.machine, p, ChemLayout::Cyclic)
    } else {
        report
    };
    print!("{report}");
    if o.taskpar && p >= 3 {
        let layouts = PlanLayouts::default();
        let tp = replay_taskparallel(&profile, o.machine, p, (1, 1), layouts, obs);
        println!(
            "task-parallel pipeline (1 in / {} compute / 1 out): {:.1}s ({:+.1}% vs data-parallel)",
            p - 2,
            tp.total_seconds,
            100.0 * (report.total_seconds / tp.total_seconds - 1.0)
        );
        let (pi, po, best) = optimize_split(&profile, o.machine, p, layouts);
        println!("optimal split in={pi}/out={po}: {:.1}s", best.total_seconds);
    }
    if !o.no_map {
        let dataset = o.dataset.build();
        let n = dataset.nodes();
        if let Some(last) = profile.hours.last() {
            println!("\nsurface ozone, final hour:");
            print!(
                "{}",
                viz::ascii_map_auto(&dataset, &last.surface[..n], 64, 20)
            );
        }
    }
    Ok(())
}

pub fn cmd_gridinfo(o: &Options, obs: &Obs) -> Result<(), String> {
    let _span = obs.span("gridinfo");
    let dataset = o.dataset.build();
    println!(
        "dataset {} over {:.0} x {:.0} km",
        dataset.spec.name,
        dataset.spec.domain.width(),
        dataset.spec.domain.height()
    );
    print!("{}", airshed::grid::grid_stats(&dataset));
    if !o.no_map {
        let density: Vec<f64> = (0..dataset.nodes())
            .map(|s| dataset.spec.urban_density(dataset.mesh.free_point(s)))
            .collect();
        println!("\nurban density (drives the refinement):");
        print!("{}", viz::ascii_map_auto(&dataset, &density, 64, 20));
    }
    Ok(())
}

pub fn cmd_sweep(o: &Options, obs: &Obs) -> Result<(), String> {
    let (_, profile) = simulate(&config(o, o.nodes[0]), exec(o), obs);
    println!(
        "{:>6} {:>12} {:>12} {:>14}",
        "P", "T3E (s)", "T3D (s)", "Paragon (s)"
    );
    for &p in &o.nodes {
        let row: Vec<f64> = MachineProfile::paper_machines()
            .iter()
            .map(|m| replay_profile(&profile, *m, p, layout(o)).total_seconds)
            .collect();
        println!(
            "{:>6} {:>12.2} {:>12.2} {:>14.2}",
            p, row[0], row[1], row[2]
        );
    }
    Ok(())
}

pub fn cmd_predict(o: &Options, obs: &Obs) -> Result<(), String> {
    let (_, profile) = simulate(&config(o, o.nodes[0]), exec(o), obs);
    let model = PerfModel::from_profile(&profile);
    println!(
        "{:>6} {:>14} {:>14} {:>8}",
        "P", "predicted (s)", "simulated (s)", "error"
    );
    let sweep = if o.nodes.len() > 1 {
        o.nodes.clone()
    } else {
        vec![4, 8, 16, 32, 64, 128]
    };
    for &p in &sweep {
        let pred = model.predict(&o.machine, p);
        let meas = replay_profile(&profile, o.machine, p, layout(o));
        println!(
            "{:>6} {:>14.2} {:>14.2} {:>7.1}%",
            p,
            pred.total,
            meas.total_seconds,
            100.0 * (pred.total - meas.total_seconds).abs() / meas.total_seconds
        );
    }
    Ok(())
}

pub fn cmd_plan(o: &Options, obs: &Obs) -> Result<(), String> {
    let p = o.nodes[0];
    let exec = exec(o);
    announce("planning", o, &format!("x{p} nodes"), exec);
    // One numerics run captures the work profile the planner folds over;
    // every plan below is a replay of the same (bit-identical) physics.
    let (_, profile) = simulate(&config(o, p), exec, obs);
    let default_layouts = PlanLayouts::default();
    let default_predicted = plan_cost(&profile, &o.machine, p, default_layouts);
    let default_measured = replay_profile_with(&profile, o.machine, p, default_layouts);
    println!(
        "{:<8} {:>38} {:>14} {:>13}",
        "plan", "layouts", "predicted (s)", "measured (s)"
    );
    println!(
        "{:<8} {:>38} {:>14.1} {:>13.1}",
        "default",
        default_layouts.to_string(),
        default_predicted,
        default_measured.total_seconds
    );
    if !o.optimize {
        println!("(pass --optimize to search the layout and pipeline plan space)");
        return Ok(());
    }
    let choice = optimize_plan(&profile, &o.machine, p);
    let (chosen_measured, chosen_desc) = match choice.split {
        Some((p_in, p_out)) => {
            let split = (p_in, p_out);
            let tp = replay_taskparallel(&profile, o.machine, p, split, choice.layouts, obs);
            (
                tp.total_seconds,
                format!(
                    "{} pipeline {p_in}/{}/{p_out}",
                    choice.layouts,
                    p - p_in - p_out
                ),
            )
        }
        None => {
            let r = replay_profile_with(&profile, o.machine, p, choice.layouts);
            (r.total_seconds, choice.layouts.to_string())
        }
    };
    println!(
        "{:<8} {:>38} {:>14.1} {:>13.1}",
        "chosen", chosen_desc, choice.predicted_seconds, chosen_measured
    );
    println!(
        "predicted saving {:.1}s ({:.1}%), measured saving {:.1}s",
        choice.saving_seconds(),
        100.0 * choice.saving_seconds() / default_predicted.max(1e-12),
        default_measured.total_seconds - chosen_measured
    );
    // Record the decision on the trace/metrics exports: counter samples
    // for the deltas, a text section naming the chosen layouts.
    for (name, seconds) in [
        ("default", default_predicted),
        ("chosen", choice.predicted_seconds),
        ("saving", choice.saving_seconds()),
    ] {
        obs.record_counter(name, "plan predicted", 0.0, seconds, None);
    }
    obs.publish(
        "plan",
        format!(
            "# chosen plan: {chosen_desc}\n# predicted {:.3}s vs default {:.3}s\n",
            choice.predicted_seconds, default_predicted
        ),
    );
    // The optimizer's contract: the default is always a candidate, so the
    // chosen plan can never predict worse.
    assert!(
        choice.predicted_seconds <= default_predicted,
        "optimizer regressed past the default plan"
    );
    println!(
        "plan OK: predicted {:.1}s <= default {:.1}s",
        choice.predicted_seconds, default_predicted
    );
    Ok(())
}

pub fn cmd_validate(o: &Options, obs: &Obs) -> Result<(), String> {
    // An explicit multi-count list is swept as given; a single count
    // (including the default) expands to the Figure 6/7 sweep.
    let nodes = if o.nodes.len() > 1 {
        o.nodes.clone()
    } else {
        vec![4, 16, 64]
    };
    let exec = exec(o);
    announce("validating", o, &format!("at P in {nodes:?}"), exec);
    // Run the numerics once, then sweep the node counts on plan replays
    // of the captured profile.
    let (_, profile) = simulate(&config(o, nodes[0]), exec, obs);
    let v = validate_profile(&profile, o.machine, &nodes);
    print!("{}", v.text());
    if let Some(path) = &o.json_out {
        write_file(path, v.to_json())?;
    }
    Ok(())
}

pub fn cmd_popexp(o: &Options, obs: &Obs) -> Result<(), String> {
    let (_, profile) = simulate(&config(o, o.nodes[0]), exec(o), obs);
    println!(
        "{:>6} {:>14} {:>16} {:>10}",
        "P", "native (s)", "foreign (s)", "overhead"
    );
    let mut ps = o.nodes.clone();
    ps.retain(|&p| {
        if p < 4 {
            eprintln!("skipping P={p}: integrated app needs >= 4 nodes");
        }
        p >= 4
    });
    for r in fig13_sweep(&profile, o.machine, &ps) {
        println!(
            "{:>6} {:>14.1} {:>16.1} {:>9.3}%",
            r.p,
            r.native_seconds,
            r.foreign_seconds,
            100.0 * r.overhead
        );
    }
    let p = o.nodes[0].max(4);
    let r = replay_with_popexp(&profile, o.machine, p, Hosting::ForeignModule);
    println!("\nhourly exposure (PVM-hosted PopExp):");
    for e in &r.exposures {
        println!(
            "  hour {:>2}: person-dose {:>12.4e}  people over O3 standard {:>12.0}",
            e.hour, e.person_dose, e.people_above_o3_threshold
        );
    }
    Ok(())
}
