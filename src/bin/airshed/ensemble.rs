//! `airshed ensemble`: an emission-scaling sweep with shared-input dedup,
//! the surrogate fitted to it, and what-if queries answered from both tiers.

use crate::flags::{config, exec, Options};
use airshed::core::ensemble::{run_ensemble, EnsembleJob, MemberSpec};
use airshed::core::obs::Obs;
use airshed::core::profile::SURFACE_SPECIES;
use airshed::core::surrogate::{what_if, ResponseSurface, WhatIfOutcome};

fn fmt_bytes(b: u64) -> String {
    if b >= 10_000_000 {
        format!("{:.1} MB", b as f64 / 1.0e6)
    } else {
        format!("{:.1} KB", b as f64 / 1.0e3)
    }
}

pub fn cmd_ensemble(o: &Options, obs: &Obs) -> Result<(), String> {
    let p = o.nodes[0];
    let base = config(o, p);
    let run_exec = exec(o);
    let (lo, hi) = o.scale_range;
    let n = o.members;
    let scales: Vec<f64> = (0..n)
        .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
        .collect();
    let mut job = EnsembleJob::new(base.clone());
    for d in 0..o.days {
        for &s in &scales {
            // Members inherit the base weather so the sweep stays in
            // the regime the user asked for (--stagnation included).
            job.push(MemberSpec {
                emission_scale: s,
                weather: o.weather,
                day: d,
            });
        }
    }
    let dedup = !o.no_dedup;
    eprintln!(
        "running {}-member ensemble on {} ({}h from hour {}, {} input group{}, dedup {})...",
        job.len(),
        o.dataset.name(),
        o.hours,
        o.start_hour,
        job.input_groups().len(),
        if job.input_groups().len() == 1 {
            ""
        } else {
            "s"
        },
        if dedup { "on" } else { "off" },
    );
    let result = run_ensemble(&job, run_exec, obs, dedup);

    println!("member  perturbation                      total(s)  peak O3(ppb)  input stage");
    for (i, m) in result.members.iter().enumerate() {
        let stage = match m.report.dedup_saved_bytes {
            Some(0) => "ran it".to_string(),
            Some(b) => format!("shared, {} saved", fmt_bytes(b)),
            None => "standalone".to_string(),
        };
        println!(
            "{:>6}  {:<32}  {:>8.1}  {:>12.1}  {stage}",
            i,
            m.spec.describe(),
            m.report.total_seconds,
            1000.0 * m.report.peak_o3(),
        );
    }
    let d = &result.dedup;
    println!(
        "dedup: {} shared input-stage run(s) across {} group(s) for {} members; \
         {} member-hours deduped, {} and {:.3}s of input generation saved; \
         sweep wall {:.2}s",
        d.input_runs,
        d.groups,
        result.members.len(),
        d.input_hours_deduped,
        fmt_bytes(d.saved_bytes),
        d.saved_seconds,
        result.wall_seconds,
    );

    match ResponseSurface::from_ensemble(&result) {
        Ok(surface) => {
            let (slo, shi) = surface.range();
            println!(
                "surrogate: degree-{} response surface over {} members, {} cells, \
                 scales [{:.2}, {:.2}], max residual {:.3e} ppm",
                surface.degree(),
                surface.members(),
                surface.cells(),
                slo,
                shi,
                surface.error_bound(),
            );
            let nodes = surface.cells() / SURFACE_SPECIES.len();
            for &q in &o.queries {
                let answer = what_if(Some(&surface), &base, q, o.tolerance, run_exec, obs);
                let peak_o3 = 1000.0
                    * answer.field()[..nodes]
                        .iter()
                        .fold(0.0f64, |a, &v| a.max(v));
                match answer {
                    WhatIfOutcome::Surrogate { bound, .. } => println!(
                        "what-if x{q:<5}: surrogate hit   peak O3 {peak_o3:>6.1} ppb \
                         (bound {bound:.2e} <= tol {:.2e}, simulator not invoked)",
                        o.tolerance
                    ),
                    WhatIfOutcome::Exact { report, reason, .. } => println!(
                        "what-if x{q:<5}: exact fallback  peak O3 {peak_o3:>6.1} ppb \
                         ({}; simulated {:.1}s virtual)",
                        reason
                            .map(|r| r.to_string())
                            .unwrap_or_else(|| "no surface".to_string()),
                        report.total_seconds
                    ),
                }
            }
        }
        Err(e) => println!("surrogate: not fitted ({e}); what-if queries would run exact"),
    }
    Ok(())
}
