//! The tables `BENCHMARK.json` is printed from (`airshed-benchmark
//! manifest`), so the file at the repo root and the names this program
//! reports cannot drift apart; a test compares the two.

use crate::harness::Better::{self, Higher, Lower};
use std::fmt::Write as _;

/// Seconds one run measures after set-up. With set-up a run stays under
/// the ~36 s the driver's cap of 3420 s leaves each of its
/// 4 + 22 × 4 runs.
pub const RUN_SECONDS: u64 = 26;

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "la_episode",
        "The paper's own problem: LA hours, day and night, on simd(T). Kernels and phases do nearly all the work, serving layers none.",
    ),
    (
        "server_replay",
        "Run once, replay everywhere: queue, admission, both caches and plan -> machine -> redist do all the work, numerics none.",
    ),
    (
        "fabric_families",
        "Cold numerics behind the wire with family structure: router, wire/proto, shard workers and checkpoint streaming all work.",
    ),
    (
        "ensemble_whatif",
        "Policy studies: dedup and surrogate fit on the write side, microsecond hits beside exact fallbacks on the read side.",
    ),
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// The end-to-end metrics, in the order `main` fills them. Every
/// workload reports all of them; `work_rate_per_s`, `primary_latency_s`
/// and `contrast_latency_s` are roles each workload's own metrics fill
/// (`benchmark/README.md` has the table).
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "work_rate_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "primary_latency_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "contrast_latency_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.10,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Must repeat bit for bit between runs of the same seed.
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Lower,
        exact: false,
    }
}

const fn rate(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Higher,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Lower,
        exact: true,
    }
}

/// The per-layer metrics of the traced pass, `<crate>.<module-or-topic>.<what>`.
pub const LAYERS: [Layer; 81] = [
    rate("host.nproc", "count"),
    rate("host.fma_gflops", "Gflop/s"),
    rate("host.stream_gbs", "GB/s"),
    rate("simd.fma_available", "count"),
    timed("simd.madd_ns", "ns"),
    timed("chem.yb_cell_us", "us"),
    timed("chem.yb_cell4_us", "us"),
    exact("chem.evals_per_hour.day", "count"),
    exact("chem.evals_per_hour.night", "count"),
    exact("chem.substeps_per_hour.day", "count"),
    exact("chem.substeps_per_hour.night", "count"),
    exact("chem.rejected_frac", "ratio"),
    rate("chem.lane_utilisation.day", "ratio"),
    rate("chem.lane_utilisation.night", "ratio"),
    rate("chem.evals_per_s", "1/s"),
    timed("transport.half_step_us", "us"),
    timed("transport.half_step_simd_us", "us"),
    timed("transport.assemble_ms", "ms"),
    exact("transport.bicgstab_iters", "count"),
    timed("grid.dataset_build_ms", "ms"),
    timed("met.input_hour_ms", "ms"),
    timed("core.phases.inputhour_ms.day", "ms"),
    timed("core.phases.inputhour_ms.night", "ms"),
    timed("core.phases.pretrans_ms.day", "ms"),
    timed("core.phases.pretrans_ms.night", "ms"),
    timed("core.phases.transport_ms.day", "ms"),
    timed("core.phases.transport_ms.night", "ms"),
    timed("core.phases.chemistry_ms.day", "ms"),
    timed("core.phases.chemistry_ms.night", "ms"),
    timed("core.phases.aerosol_ms.day", "ms"),
    timed("core.phases.aerosol_ms.night", "ms"),
    timed("core.phases.outputhour_ms.day", "ms"),
    timed("core.phases.outputhour_ms.night", "ms"),
    timed("core.driver.hour_overhead_frac.day", "ratio"),
    timed("core.driver.hour_overhead_frac.night", "ratio"),
    timed("core.driver.hour_wall_serial_s.day", "s"),
    timed("core.driver.hour_wall_serial_s.night", "s"),
    exact("core.copy_bytes_per_hour.redist_local", "B"),
    exact("core.copy_bytes_per_hour.soa_staging", "B"),
    exact("core.copy_bytes_per_hour.result_serialization", "B"),
    timed("core.plan.lower_us", "us"),
    timed("core.plan.replay_us", "us"),
    timed("core.plan.optimize_ms", "ms"),
    timed("hpf.redist.plan_us", "us"),
    exact("hpf.redist.msgs_per_hour", "count"),
    exact("hpf.redist.bytes_per_hour", "B"),
    exact("machine.virtual_hour_s", "s"),
    timed("machine.execute_hour_us", "us"),
    timed("server.submit_us", "us"),
    timed("server.predict_us", "us"),
    timed("server.queue_wait_p50_us", "us"),
    timed("server.service_p50_us", "us"),
    rate("server.profile_cache_hit_frac", "ratio"),
    rate("server.result_cache_hit_frac", "ratio"),
    timed("server.lru_get_ns", "ns"),
    timed("server.lru_insert_ns", "ns"),
    timed("core.checkpoint.encode_ms", "ms"),
    timed("core.checkpoint.decode_ms", "ms"),
    exact("core.checkpoint.bytes", "B"),
    timed("fabric.proto.encode_us", "us"),
    timed("fabric.proto.decode_us", "us"),
    timed("fabric.proto.completed_bytes", "B"),
    rate("fabric.wire.frame_mb_per_s", "MB/s"),
    timed("fabric.frontend.connect_ms", "ms"),
    timed("fabric.anatomy.queued_frac", "ratio"),
    rate("fabric.anatomy.exec_frac", "ratio"),
    timed("fabric.anatomy.wire_frac", "ratio"),
    timed("fabric.anatomy.reply_frac", "ratio"),
    timed("fabric.anatomy.unattributed_frac", "ratio"),
    timed("fabric.exec_s_per_job", "s"),
    timed("fabric.vs_local_ratio", "ratio"),
    timed("fabric.router.stolen", "count"),
    timed("fabric.router.routed_imbalance", "ratio"),
    exact("core.ensemble.input_runs", "count"),
    rate("core.ensemble.dedup_saved_frac", "ratio"),
    timed("core.surrogate.fit_ms", "ms"),
    timed("core.surrogate.query_us", "us"),
    exact("core.surrogate.error_bound_ppm", "ppm"),
    rate("core.surrogate.hit_frac", "ratio"),
    timed("harness.trace_overhead_frac", "ratio"),
    timed("harness.generator_lag_us", "us"),
];

/// `BENCHMARK.json`, exactly the keys the driver's contract names.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}"
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, l) in LAYERS.iter().enumerate() {
        let comma = if i + 1 < LAYERS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            l.name,
            l.unit,
            l.better.as_str()
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn the_manifest_is_the_committed_benchmark_json() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `airshed-benchmark manifest`"
        );
    }

    #[test]
    fn the_manifest_keeps_the_contracts_limits() {
        let text = manifest();
        assert!(text.len() <= 64 << 10);
        let doc = json::parse(&text).expect("valid JSON");
        let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let workloads = doc.get("workloads").unwrap().items();
        assert!((2..=8).contains(&workloads.len()));
        for w in workloads {
            assert!(w.get("why").and_then(Json::as_str).unwrap().len() <= 200);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(LAYERS.len() <= 128);
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|(n, _)| *n)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(LAYERS.iter().map(|l| l.name))
            .collect();
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(LAYERS.iter().map(|l| l.unit));
        for unit in units {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "a name is used twice");
    }
}
