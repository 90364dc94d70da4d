//! The bench regression gate: compare a fresh `BENCH_kernels.json`
//! against the committed `BENCH_baseline.json` with per-kernel,
//! noise-aware thresholds.
//!
//! The two documents are flattened to dotted keys
//! (`la_hour.serial_s`, `la_hour_phase_median_us.chemistry`, ...) — the
//! bench documents are objects-of-objects-of-numbers by construction,
//! read with the workspace's one JSON reader
//! ([`airshed_core::obs::dist::Json`]). A gated key fails when
//!
//! ```text
//! current > baseline * rel_limit + abs_slack
//! ```
//!
//! — the multiplicative limit absorbs proportional noise (machine load,
//! CPU frequency), the absolute slack keeps microsecond-scale medians
//! from tripping on scheduler jitter. Derived ratios (speedups,
//! throughput scaling) are deliberately ungated: they are quotients of
//! gated quantities and would double-count regressions. When the two
//! documents report different `host_threads`, gating is skipped
//! entirely — cross-host comparisons are not regressions.

use airshed_core::obs::dist::Json;
use std::collections::BTreeMap;
use std::fmt;

/// Flatten a bench JSON document into dotted-key/number pairs.
/// Non-numeric leaves are rejected — the bench writers only emit
/// numbers, so anything else means the document is not a bench report.
pub fn flatten_bench_json(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let doc = Json::parse(text)?;
    if !matches!(doc, Json::Obj(_)) {
        return Err("a bench document is a JSON object".into());
    }
    let mut out = BTreeMap::new();
    flatten_into(&doc, &mut String::new(), &mut out)?;
    Ok(out)
}

fn flatten_into(
    value: &Json,
    prefix: &mut String,
    out: &mut BTreeMap<String, f64>,
) -> Result<(), String> {
    match value {
        Json::Num(v) => {
            out.insert(prefix.clone(), *v);
        }
        Json::Obj(fields) => {
            for (key, child) in fields {
                let saved = prefix.len();
                if !prefix.is_empty() {
                    prefix.push('.');
                }
                prefix.push_str(key);
                flatten_into(child, prefix, out)?;
                prefix.truncate(saved);
            }
        }
        other => return Err(format!("non-numeric leaf at '{prefix}': {other:?}")),
    }
    Ok(())
}

/// The gate for one key class: fail when
/// `current > baseline * rel_limit + abs_slack`.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    pub rel_limit: f64,
    pub abs_slack: f64,
}

/// The per-kernel thresholds. Tighter for the seconds-scale end-to-end
/// numbers (proportional noise dominates), looser with an absolute
/// floor for the microsecond-scale span medians.
pub fn gate_for(key: &str) -> Option<Gate> {
    if key == "la_hour.serial_s" || key == "la_hour.rayon4_s" || key == "la_hour.simd4_s" {
        return Some(Gate {
            rel_limit: 1.35,
            abs_slack: 0.5,
        });
    }
    // All three per-backend phase-median groups share the span gate:
    // la_hour_phase_median_us (rayon), ..._serial and ..._simd.
    if key.starts_with("la_hour_phase_median_us") {
        return Some(Gate {
            rel_limit: 1.6,
            abs_slack: 1000.0,
        });
    }
    if key.starts_with("workspace_hoisting.") && key.ends_with("_s") {
        return Some(Gate {
            rel_limit: 1.8,
            abs_slack: 1e-4,
        });
    }
    None
}

/// One gated key that exceeded its threshold.
#[derive(Debug, Clone)]
pub struct Regression {
    pub key: String,
    pub baseline: f64,
    pub current: f64,
    pub limit: f64,
}

impl fmt::Display for Regression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} vs baseline {} (limit {}, {:+.1}%)",
            self.key,
            self.current,
            self.baseline,
            self.limit,
            100.0 * (self.current / self.baseline - 1.0)
        )
    }
}

/// The outcome of one baseline/current comparison.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Keys gated and within limits.
    pub passed: usize,
    /// Keys present in exactly one document (reported, not failing —
    /// adding a benchmark must not break the gate retroactively).
    pub unmatched: Vec<String>,
    pub regressions: Vec<Regression>,
    /// Gating was skipped because the documents came from hosts with
    /// different thread counts.
    pub skipped_host_mismatch: bool,
}

impl CheckReport {
    pub fn ok(&self) -> bool {
        self.regressions.is_empty()
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.skipped_host_mismatch {
            return writeln!(
                f,
                "bench check: SKIPPED (host_threads differ between baseline and current)"
            );
        }
        for r in &self.regressions {
            writeln!(f, "REGRESSION {r}")?;
        }
        for k in &self.unmatched {
            writeln!(f, "note: key {k} present in only one document")?;
        }
        writeln!(
            f,
            "bench check: {} gated keys ok, {} regressions",
            self.passed,
            self.regressions.len()
        )
    }
}

/// Compare flattened current numbers against the baseline.
pub fn compare(baseline: &BTreeMap<String, f64>, current: &BTreeMap<String, f64>) -> CheckReport {
    let host = |m: &BTreeMap<String, f64>| m.get("host_threads").copied();
    if host(baseline).is_some() && host(baseline) != host(current) {
        return CheckReport {
            passed: 0,
            unmatched: Vec::new(),
            regressions: Vec::new(),
            skipped_host_mismatch: true,
        };
    }
    let mut passed = 0;
    let mut regressions = Vec::new();
    let mut unmatched: Vec<String> = Vec::new();
    for (key, &base) in baseline {
        let Some(&cur) = current.get(key) else {
            unmatched.push(key.clone());
            continue;
        };
        let Some(gate) = gate_for(key) else { continue };
        let limit = base * gate.rel_limit + gate.abs_slack;
        if cur > limit {
            regressions.push(Regression {
                key: key.clone(),
                baseline: base,
                current: cur,
                limit,
            });
        } else {
            passed += 1;
        }
    }
    for key in current.keys() {
        if !baseline.contains_key(key) {
            unmatched.push(key.clone());
        }
    }
    CheckReport {
        passed,
        unmatched,
        regressions,
        skipped_host_mismatch: false,
    }
}

/// Apply `--inject key=factor` perturbations to a flattened document —
/// the gate's own test harness (demonstrates that an injected slowdown
/// trips the gate without re-measuring anything).
pub fn inject(values: &mut BTreeMap<String, f64>, spec: &str) -> Result<(), String> {
    let (key, factor) = spec
        .split_once('=')
        .ok_or_else(|| format!("bad inject spec '{spec}' (want key=factor)"))?;
    let factor: f64 = factor
        .parse()
        .map_err(|e| format!("bad inject factor in '{spec}': {e}"))?;
    match values.get_mut(key) {
        Some(v) => {
            *v *= factor;
            Ok(())
        }
        None => Err(format!("inject key '{key}' not present")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
  "host_threads": 1,
  "cpu_features": { "avx2": 1, "fma": 1 },
  "la_hour": { "serial_s": 6.0, "rayon4_s": 6.1, "simd4_s": 3.1, "speedup_rayon4": 0.98 },
  "la_hour_phase_median_us": { "chemistry": 1000000.0, "transport": 42000.0, "aerosol": 207.4 },
  "la_hour_phase_median_us_simd": { "chemistry": 400000.0, "transport": 30000.0 },
  "workspace_hoisting": { "yb_cell_reused_s": 0.00033, "yb_speedup": 1.03 }
}"#;

    #[test]
    fn flattens_nested_objects_to_dotted_keys() {
        let m = flatten_bench_json(DOC).unwrap();
        assert_eq!(m["host_threads"], 1.0);
        assert_eq!(m["la_hour.serial_s"], 6.0);
        assert_eq!(m["la_hour_phase_median_us.chemistry"], 1_000_000.0);
        assert_eq!(m["workspace_hoisting.yb_speedup"], 1.03);
        assert_eq!(m["cpu_features.fma"], 1.0);
        assert_eq!(m["la_hour_phase_median_us_simd.chemistry"], 400_000.0);
        assert_eq!(m.len(), 14);
        // Real bench output round-trips too.
        assert!(flatten_bench_json("{\n}\n").unwrap().is_empty());
        assert!(flatten_bench_json("{ \"a\": [1] }").is_err());
        assert!(flatten_bench_json("{ \"a\": 1 } trailing").is_err());
    }

    #[test]
    fn identical_documents_pass() {
        let base = flatten_bench_json(DOC).unwrap();
        let report = compare(&base, &base.clone());
        assert!(report.ok());
        assert!(report.passed >= 6, "gated keys: {}", report.passed);
        assert!(report.unmatched.is_empty());
    }

    #[test]
    fn injected_2x_chemistry_slowdown_fails_the_gate() {
        let base = flatten_bench_json(DOC).unwrap();
        let mut cur = base.clone();
        inject(&mut cur, "la_hour_phase_median_us.chemistry=2.0").unwrap();
        let report = compare(&base, &cur);
        assert!(!report.ok());
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(
            report.regressions[0].key,
            "la_hour_phase_median_us.chemistry"
        );
        let text = report.to_string();
        assert!(text.contains("REGRESSION"));
    }

    #[test]
    fn simd_keys_are_gated_too() {
        let base = flatten_bench_json(DOC).unwrap();
        let mut cur = base.clone();
        inject(&mut cur, "la_hour.simd4_s=2.0").unwrap();
        inject(&mut cur, "la_hour_phase_median_us_simd.chemistry=2.0").unwrap();
        let report = compare(&base, &cur);
        assert_eq!(report.regressions.len(), 2);
        // CPU feature flags are facts, not timings — never gated.
        let mut cur = base.clone();
        inject(&mut cur, "cpu_features.fma=0.0").unwrap();
        assert!(compare(&base, &cur).ok());
    }

    #[test]
    fn small_noise_and_derived_ratios_do_not_trip() {
        let base = flatten_bench_json(DOC).unwrap();
        let mut cur = base.clone();
        // 20% noise on a gated key: within the 1.35x/1.6x limits.
        inject(&mut cur, "la_hour.serial_s=1.2").unwrap();
        inject(&mut cur, "la_hour_phase_median_us.transport=1.2").unwrap();
        // A collapsed speedup ratio is ungated by design.
        inject(&mut cur, "la_hour.speedup_rayon4=0.1").unwrap();
        // Tiny absolute change on a µs-scale median: absorbed by slack.
        *cur.get_mut("la_hour_phase_median_us.aerosol").unwrap() += 800.0;
        assert!(compare(&base, &cur).ok());
    }

    #[test]
    fn host_mismatch_skips_gating() {
        let base = flatten_bench_json(DOC).unwrap();
        let mut cur = base.clone();
        inject(&mut cur, "host_threads=8.0").unwrap();
        inject(&mut cur, "la_hour_phase_median_us.chemistry=10.0").unwrap();
        let report = compare(&base, &cur);
        assert!(report.skipped_host_mismatch);
        assert!(report.ok(), "cross-host numbers must not fail the gate");
        assert!(report.to_string().contains("SKIPPED"));
    }

    #[test]
    fn new_and_removed_keys_are_noted_not_failed() {
        let base = flatten_bench_json(DOC).unwrap();
        let mut cur = base.clone();
        cur.remove("la_hour_phase_median_us.aerosol");
        cur.insert("la_hour_phase_median_us.charge_hour".into(), 20.0);
        let report = compare(&base, &cur);
        assert!(report.ok());
        assert_eq!(report.unmatched.len(), 2);
    }

    #[test]
    fn inject_rejects_bad_specs() {
        let mut m = flatten_bench_json(DOC).unwrap();
        assert!(inject(&mut m, "no-equals").is_err());
        assert!(inject(&mut m, "la_hour.serial_s=abc").is_err());
        assert!(inject(&mut m, "missing.key=2.0").is_err());
    }
}
