//! Disk cache for captured work profiles.
//!
//! A tiny purpose-built binary format (little-endian, length-prefixed) —
//! no external serialization crates needed. Cache files live under
//! `target/airshed-profiles/` and are invalidated by bumping [`MAGIC`].

use airshed_core::config::SimConfig;
use airshed_core::driver::run_with_profile_on;
use airshed_core::profile::{HourProfile, StepProfile, WorkProfile};
use airshed_core::state::HourSummary;
use airshed_core::ExecSpec;
use std::fs;
use std::io::{self, Read, Write};
use std::path::PathBuf;

/// Format magic + version.
pub const MAGIC: &[u8; 8] = b"ASHPRF05";

fn cache_dir() -> PathBuf {
    // Keep the cache inside the workspace target dir.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop(); // crates/
    p.pop(); // workspace root
    p.push("target");
    p.push("airshed-profiles");
    p
}

/// Load a cached profile, or run the configuration and cache the result.
pub fn load_or_run(key: &str, config: &SimConfig) -> WorkProfile {
    let dir = cache_dir();
    let path = dir.join(format!("{key}.bin"));
    if let Ok(bytes) = fs::read(&path) {
        if let Ok(p) = decode(&bytes) {
            return p;
        }
        eprintln!("[cache] {key}: stale or corrupt cache, recomputing");
    }
    eprintln!("[cache] {key}: running numerics (once; cached afterwards)...");
    let started = std::time::Instant::now();
    let (_, profile) = run_with_profile_on(config, ExecSpec::default());
    eprintln!(
        "[cache] {key}: done in {:.1}s host time",
        started.elapsed().as_secs_f64()
    );
    let _ = fs::create_dir_all(&dir);
    match encode(&profile) {
        Ok(bytes) => {
            if let Err(e) = fs::write(&path, bytes) {
                eprintln!("[cache] {key}: could not write cache: {e}");
            }
        }
        Err(e) => eprintln!("[cache] {key}: encode failed: {e}"),
    }
    profile
}

// --- encoding helpers -------------------------------------------------

fn w_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn w_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn w_vec(out: &mut Vec<u8>, v: &[f64]) {
    w_u64(out, v.len() as u64);
    for &x in v {
        w_f64(out, x);
    }
}

/// Encode a profile to bytes.
pub fn encode(p: &WorkProfile) -> io::Result<Vec<u8>> {
    let mut out = Vec::new();
    out.write_all(MAGIC)?;
    w_u64(&mut out, p.dataset.len() as u64);
    out.extend_from_slice(p.dataset.as_bytes());
    for &d in &p.shape {
        w_u64(&mut out, d as u64);
    }
    w_u64(&mut out, p.hours.len() as u64);
    for h in &p.hours {
        w_f64(&mut out, h.input_work);
        w_f64(&mut out, h.pretrans_work);
        w_f64(&mut out, h.output_work);
        w_u64(&mut out, h.input_bytes as u64);
        w_vec(&mut out, &h.surface);
        w_u64(&mut out, h.steps.len() as u64);
        for s in &h.steps {
            w_vec(&mut out, &s.transport1);
            w_vec(&mut out, &s.transport2);
            w_vec(&mut out, &s.chemistry);
            w_f64(&mut out, s.aerosol);
        }
    }
    w_u64(&mut out, p.summaries.len() as u64);
    for s in &p.summaries {
        w_u64(&mut out, s.hour as u64);
        w_f64(&mut out, s.max_o3);
        w_f64(&mut out, s.mean_o3);
        w_f64(&mut out, s.mean_nox);
        w_f64(&mut out, s.mean_total_n);
    }
    Ok(out)
}

struct Reader<'a> {
    data: &'a [u8],
}

impl<'a> Reader<'a> {
    fn u64(&mut self) -> io::Result<u64> {
        let mut b = [0u8; 8];
        self.data.read_exact(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn vec(&mut self) -> io::Result<Vec<f64>> {
        let n = self.u64()? as usize;
        if n > 1 << 28 {
            return Err(io::Error::other("implausible vector length"));
        }
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.f64()?);
        }
        Ok(v)
    }
}

/// Decode a profile from bytes.
pub fn decode(bytes: &[u8]) -> io::Result<WorkProfile> {
    let mut r = Reader { data: bytes };
    let mut magic = [0u8; 8];
    r.data.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::other("bad magic / stale cache version"));
    }
    let name_len = r.u64()? as usize;
    if name_len > 64 {
        return Err(io::Error::other("implausible name length"));
    }
    let mut name = vec![0u8; name_len];
    r.data.read_exact(&mut name)?;
    let name = String::from_utf8(name).map_err(io::Error::other)?;
    let dataset: &'static str = match name.as_str() {
        "LA" => "LA",
        "NE" => "NE",
        "TINY" => "TINY",
        other => Box::leak(other.to_string().into_boxed_str()),
    };
    let shape = [r.u64()? as usize, r.u64()? as usize, r.u64()? as usize];
    let n_hours = r.u64()? as usize;
    let mut hours = Vec::with_capacity(n_hours);
    for _ in 0..n_hours {
        let input_work = r.f64()?;
        let pretrans_work = r.f64()?;
        let output_work = r.f64()?;
        let input_bytes = r.u64()? as usize;
        let surface = r.vec()?;
        let n_steps = r.u64()? as usize;
        let mut steps = Vec::with_capacity(n_steps);
        for _ in 0..n_steps {
            steps.push(StepProfile {
                transport1: r.vec()?,
                transport2: r.vec()?,
                chemistry: r.vec()?,
                aerosol: r.f64()?,
            });
        }
        hours.push(HourProfile {
            input_work,
            pretrans_work,
            output_work,
            input_bytes,
            steps,
            surface,
        });
    }
    let n_sum = r.u64()? as usize;
    let mut summaries = Vec::with_capacity(n_sum);
    for _ in 0..n_sum {
        summaries.push(HourSummary {
            hour: r.u64()? as usize,
            max_o3: r.f64()?,
            mean_o3: r.f64()?,
            mean_nox: r.f64()?,
            mean_total_n: r.f64()?,
        });
    }
    Ok(WorkProfile {
        dataset,
        shape,
        hours,
        summaries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use airshed_core::config::{DatasetChoice, SimConfig};

    #[test]
    fn roundtrip_preserves_profile() {
        let cfg = SimConfig::test_tiny(2, 1);
        let (_, prof) = run_with_profile_on(&cfg, ExecSpec::default());
        let bytes = encode(&prof).unwrap();
        let back = decode(&bytes).unwrap();
        assert_eq!(back.dataset, prof.dataset);
        assert_eq!(back.shape, prof.shape);
        assert_eq!(back.hours.len(), prof.hours.len());
        for (a, b) in back.hours.iter().zip(&prof.hours) {
            assert_eq!(a.input_work, b.input_work);
            assert_eq!(a.surface, b.surface);
            assert_eq!(a.steps.len(), b.steps.len());
            for (x, y) in a.steps.iter().zip(&b.steps) {
                assert_eq!(x.transport1, y.transport1);
                assert_eq!(x.chemistry, y.chemistry);
                assert_eq!(x.aerosol, y.aerosol);
            }
        }
        assert_eq!(back.summaries.len(), prof.summaries.len());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode(b"not a profile").is_err());
        let mut bytes =
            encode(&run_with_profile_on(&SimConfig::test_tiny(2, 1), ExecSpec::default()).1)
                .unwrap();
        bytes[0] ^= 0xFF;
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn load_or_run_caches() {
        let cfg = standard_tiny();
        let key = "TEST_cache_roundtrip";
        // Clean slate.
        let path = super::cache_dir().join(format!("{key}.bin"));
        let _ = std::fs::remove_file(&path);
        let a = load_or_run(key, &cfg);
        assert!(path.exists(), "cache file must be written");
        let b = load_or_run(key, &cfg);
        assert_eq!(a.hours.len(), b.hours.len());
        assert_eq!(a.hours[0].surface, b.hours[0].surface);
        let _ = std::fs::remove_file(&path);
    }

    fn standard_tiny() -> SimConfig {
        crate::standard_config(DatasetChoice::Tiny(60), 1)
    }
}
