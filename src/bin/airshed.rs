//! The `airshed` command-line interface.
//!
//! ```text
//! airshed run     --dataset tiny:120 --machine t3e --nodes 16 --hours 6
//! airshed sweep   --dataset la --nodes 4,8,16,32,64,128
//! airshed predict --dataset tiny:120 --machine t3e
//! airshed popexp  --dataset tiny:120 --nodes 16 --hours 5
//! airshed help
//! ```
//!
//! Everything the figure harness can do for the paper's datasets, on any
//! configuration, from one binary — the "downstream user" entry point.
//!
//! This file is the entry point only. The options and subcommands are
//! declared once, in the tables of `airshed/flags.rs` (the place to add a
//! flag); the subcommands live beside it, one file per family. The
//! modules hang off this file by `#[path]` rather than off an
//! `airshed/main.rs` so the binary's unit tests keep their names.

#[path = "airshed/ensemble.rs"]
mod ensemble;
#[path = "airshed/flags.rs"]
mod flags;
#[path = "airshed/model.rs"]
mod model;
#[path = "airshed/service.rs"]
mod service;

use airshed::core::obs::{Obs, SpanSink};
use flags::{parse, usage, Command, Options, COMMANDS, HELP};
use std::process::ExitCode;
use std::sync::Arc;

/// Write an output artifact and say so.
fn write_file(path: &str, contents: String) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!("wrote {path}");
    Ok(())
}

/// Run one subcommand and write the exports its options ask for.
fn execute(command: &Command, opts: &Options) -> Result<(), String> {
    // One span sink for the whole invocation, shared by every layer the
    // command touches; spans cost nothing when neither export is asked for.
    let sink =
        (opts.trace_out.is_some() || opts.metrics_out.is_some()).then(|| Arc::new(SpanSink::new()));
    let obs = match &sink {
        Some(sink) => Obs::new(Arc::clone(sink)),
        None => Obs::off(),
    };
    (command.run)(opts, &obs)?;
    let Some(sink) = sink else { return Ok(()) };
    if let Some(path) = &opts.trace_out {
        write_file(path, sink.chrome_trace())?;
    }
    if let Some(path) = &opts.metrics_out {
        write_file(path, sink.prometheus())?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(name) = args.first() else {
        print!("{}", usage());
        return ExitCode::FAILURE;
    };
    if name == "help" || args.iter().any(|a| HELP.contains(&a.as_str())) {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let Some(command) = COMMANDS.iter().find(|c| c.name == name) else {
        eprintln!("error: unknown command '{name}'");
        print!("{}", usage());
        return ExitCode::FAILURE;
    };
    match parse(command.cmd, &args[1..]).and_then(|opts| execute(command, &opts)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airshed::core::config::{DatasetChoice, Weather};
    use airshed::core::ExecSpec;
    use flags::{exec, Cmd::*};
    use service::{demo_scenarios, fabric_scenarios, merge_label};

    /// Parse one command line's options under `cmd`.
    fn parse(cmd: flags::Cmd, line: &str) -> Result<Options, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        flags::parse(cmd, &args)
    }

    #[test]
    fn parse_defaults() {
        let o = parse(Run, "").unwrap();
        assert_eq!(o.nodes, vec![16]);
        assert_eq!(o.hours, 6);
        assert!(!o.cyclic);
    }

    #[test]
    fn parse_full_option_set() {
        let o = parse(
            Run,
            "--dataset tiny:99 --machine paragon --nodes 4,8,16 --hours 12 --start 5 --emis 0.5 \
             --stagnation --cyclic --taskpar --no-map",
        )
        .unwrap();
        assert_eq!(o.weather, Weather::Stagnation);
        assert_eq!(o.dataset, DatasetChoice::Tiny(99));
        assert_eq!(o.machine.name, "Intel Paragon");
        assert_eq!(o.nodes, vec![4, 8, 16]);
        assert_eq!(o.hours, 12);
        assert_eq!(o.start_hour, 5);
        assert_eq!(o.emission_scale, 0.5);
        assert!(o.cyclic && o.taskpar && o.no_map);
        assert!(!o.optimize);
    }

    #[test]
    fn parse_optimize_flag() {
        assert!(!parse(Plan, "").unwrap().optimize);
        assert!(parse(Plan, "--optimize").unwrap().optimize);
    }

    #[test]
    fn parse_dataset_names() {
        assert_eq!(
            parse(Run, "--dataset la").unwrap().dataset,
            DatasetChoice::LosAngeles
        );
        assert_eq!(
            parse(Run, "--dataset ne").unwrap().dataset,
            DatasetChoice::NorthEast
        );
    }

    #[test]
    fn parse_serve_batch_options() {
        let o = parse(
            ServeBatch,
            "--workers 8 --clients 16 --queue-cap 4 --budget 2e4 --scenarios batch.txt",
        )
        .unwrap();
        assert_eq!(o.workers, 8);
        assert_eq!(o.clients, 16);
        assert_eq!(o.queue_cap, 4);
        assert_eq!(o.budget, Some(2e4));
        assert_eq!(o.scenarios.as_deref(), Some("batch.txt"));
        assert!(parse(ServeBatch, "--workers 0").is_err());
        assert!(parse(ServeBatch, "--clients 0").is_err());
        assert!(parse(ServeBatch, "--queue-cap 0").is_err());
        assert!(parse(ServeBatch, "--budget -3").is_err());
    }

    #[test]
    fn demo_batch_has_duplicates_and_a_monster_under_budget() {
        let o = parse(ServeBatch, "--budget 100").unwrap();
        let scenarios = demo_scenarios(&o);
        assert_eq!(scenarios.len(), 33);
        assert_eq!(scenarios.last().unwrap().config.hours, 10_000);
        // Duplicate (policy, placement) pairs so caches have work to reuse.
        assert_eq!(
            scenarios[0].config.emission_scale,
            scenarios[16].config.emission_scale
        );
        assert_eq!(scenarios[0].config.p, scenarios[16].config.p);
        let no_budget = demo_scenarios(&parse(ServeBatch, "").unwrap());
        assert_eq!(no_budget.len(), 32);
    }

    #[test]
    fn parse_observability_options() {
        let o = parse(Run, "--trace-out trace.json --metrics-out metrics.prom").unwrap();
        assert_eq!(o.trace_out.as_deref(), Some("trace.json"));
        assert_eq!(o.metrics_out.as_deref(), Some("metrics.prom"));
        let o = parse(Run, "").unwrap();
        assert!(o.trace_out.is_none() && o.metrics_out.is_none());
        assert!(parse(Run, "--trace-out").is_err());
        assert!(parse(Run, "--metrics-out").is_err());
    }

    #[test]
    fn parse_trace_merge_options() {
        let o = parse(
            TraceMerge,
            "--frontend fab.json --shard-trace fab.shard-0.json --shard-trace fab.shard-1.json \
             --out merged.json",
        )
        .unwrap();
        assert_eq!(o.frontend_trace.as_deref(), Some("fab.json"));
        assert_eq!(o.shard_traces, vec!["fab.shard-0.json", "fab.shard-1.json"]);
        assert_eq!(o.out.as_deref(), Some("merged.json"));
        assert!(parse(Run, "").unwrap().frontend_trace.is_none());
        assert!(parse(TraceMerge, "--frontend").is_err());
        // Labels recover from the sharded-path convention.
        assert_eq!(merge_label("runs/fab.shard-3.json"), "shard-3");
        assert_eq!(merge_label("fab.json"), "fab");
        assert_eq!(merge_label("noext"), "noext");
    }

    #[test]
    fn parse_validate_options() {
        let o = parse(Validate, "--grid la --nodes 4,16,64 --json v.json").unwrap();
        assert_eq!(o.dataset, DatasetChoice::LosAngeles);
        assert_eq!(o.nodes, vec![4, 16, 64]);
        assert_eq!(o.json_out.as_deref(), Some("v.json"));
        // --grid is a strict alias for --dataset.
        assert_eq!(
            parse(Validate, "--grid tiny:33").unwrap().dataset,
            parse(Validate, "--dataset tiny:33").unwrap().dataset
        );
        assert!(parse(Validate, "--grid venus").is_err());
        assert!(parse(Validate, "--json").is_err());
    }

    #[test]
    fn parse_backend_options() {
        let o = parse(Run, "").unwrap();
        assert_eq!(o.threads, None);
        assert_eq!(exec(&o), ExecSpec::default());
        // `--threads` is the one way to set host threads.
        let threads = |line| exec(&parse(Run, line).unwrap());
        assert_eq!(threads("--threads 1"), ExecSpec::serial());
        assert_eq!(threads("--threads 4"), ExecSpec::rayon(4));
        let err = parse(Run, "--backend serial").unwrap_err();
        assert!(err.contains("--backend"), "{err}");
        assert!(parse(Run, "--threads 0").is_err());
    }

    #[test]
    fn parse_fabric_options() {
        let o = parse(
            Fabric,
            "--shards 3 --expect 2 --listen 127.0.0.1:7700 --jobs 8 --kill-shard 1 \
             --kill-after-hours 2 --hb-timeout-ms 500 --out fp.txt --local",
        )
        .unwrap();
        assert_eq!(o.shards, 3);
        assert_eq!(o.expect, Some(2));
        assert_eq!(o.listen, "127.0.0.1:7700");
        assert_eq!(o.jobs, 8);
        assert_eq!(o.kill_shard, Some(1));
        assert_eq!(o.kill_after_hours, 2);
        assert_eq!(o.hb_timeout_ms, 500);
        assert_eq!(o.out.as_deref(), Some("fp.txt"));
        assert!(o.local);
        assert!(parse(Fabric, "--shards 0").is_err());
        assert!(parse(Fabric, "--jobs 0").is_err());
        assert!(parse(Fabric, "--kill-after-hours 0").is_err());
        assert!(parse(Fabric, "--hb-timeout-ms 0").is_err());
    }

    #[test]
    fn parse_shard_options() {
        let o = parse(
            Shard,
            "--connect 127.0.0.1:7700 --name s0 --workers 2 --heartbeat-ms 100 \
             --die-after-hours 4",
        )
        .unwrap();
        assert_eq!(o.connect.as_deref(), Some("127.0.0.1:7700"));
        assert_eq!(o.shard_name, "s0");
        assert_eq!(o.heartbeat_ms, 100);
        assert_eq!(o.die_after_hours, Some(4));
        assert!(parse(Shard, "--die-after-hours 0 --connect 127.0.0.1:7700").is_err());
        assert!(parse(Shard, "--heartbeat-ms 0 --connect 127.0.0.1:7700").is_err());
    }

    #[test]
    fn fabric_batch_is_deterministic_with_multiple_families() {
        let o = parse(Fabric, "--jobs 16 --hours 3").unwrap();
        let a = fabric_scenarios(&o);
        let b = fabric_scenarios(&o);
        assert_eq!(a.len(), 16);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.describe(), y.describe());
        }
        use airshed::server::cache::NumericsKey;
        let families: std::collections::HashSet<_> = a
            .iter()
            .map(|s| NumericsKey::of(&s.config).family())
            .collect();
        assert_eq!(families.len(), 4, "four emission-scale families");
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(parse(Run, "--dataset venus").is_err());
        assert!(parse(Run, "--machine sp2").is_err());
        assert!(parse(Run, "--nodes 0").is_err());
        assert!(parse(Run, "--nodes").is_err());
        assert!(parse(Run, "--start 99").is_err());
        assert!(parse(Run, "--emis -1").is_err());
        assert!(parse(Run, "--frobnicate").is_err());
    }
}
