//! Disk cache for captured work profiles.
//!
//! A cache file is the profile's [`Codec`](airshed_core::codec::Codec)
//! layout — the bytes a fabric `Progress` frame carries — behind
//! [`MAGIC`] (`airshed_core::codec::encode_magic`, the helper the
//! checkpoint file uses too). Cache files live under
//! `target/airshed-profiles/` and are invalidated by bumping [`MAGIC`].

use airshed_core::codec::{self, WireError};
use airshed_core::config::SimConfig;
use airshed_core::driver::run_with_profile_on;
use airshed_core::profile::WorkProfile;
use airshed_core::ExecSpec;
use std::fs;
use std::path::PathBuf;

/// Format magic + version.
pub const MAGIC: &[u8; 8] = b"ASHPRF08";

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
    if let Err(e) = fs::write(&path, encode(&profile)) {
        eprintln!("[cache] {key}: could not write cache: {e}");
    }
    profile
}

/// Encode a profile: [`MAGIC`], then the profile.
pub fn encode(p: &WorkProfile) -> Vec<u8> {
    codec::encode_magic(MAGIC, p)
}

/// Decode a cache file; anything but [`MAGIC`] followed by exactly one
/// well-formed profile is an error.
pub fn decode(bytes: &[u8]) -> Result<WorkProfile, WireError> {
    codec::decode_magic(MAGIC, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use airshed_core::config::{DatasetChoice, SimConfig};

    fn sample() -> WorkProfile {
        run_with_profile_on(&SimConfig::test_tiny(2, 1), ExecSpec::default()).1
    }

    /// `bytes` (the encoding of `p`) with its first `f64s` length prefix
    /// — the first step's `transport1`, after magic, dataset string,
    /// shape, hour count, the first hour's three works + input bytes and
    /// step count — overwritten to claim 32 GiB of f64s.
    fn with_oversized_prefix(bytes: &[u8], p: &WorkProfile) -> Vec<u8> {
        let at = MAGIC.len() + 4 + p.dataset.len() + 3 * 8 + 4 + 3 * 8 + 8 + 4;
        let n = p.hours[0].steps[0].transport1.len() as u32;
        assert_eq!(bytes[at..at + 4], n.to_le_bytes(), "prefix offset");
        let mut huge = bytes.to_vec();
        huge[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        huge
    }

    #[test]
    fn roundtrip_preserves_profile() {
        let prof = sample();
        let back = decode(&encode(&prof)).unwrap();
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
        let mut bytes = encode(&sample());
        bytes[0] ^= 0xFF;
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn every_truncation_and_an_oversized_prefix_are_errors() {
        let prof = sample();
        let bytes = encode(&prof);
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "prefix of {cut} bytes");
        }
        // The claim must fail on the bytes present, not be reserved for.
        let huge = with_oversized_prefix(&bytes, &prof);
        assert!(matches!(decode(&huge), Err(WireError::Malformed(_))));
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

    #[test]
    fn load_or_run_recomputes_over_a_damaged_file() {
        let cfg = standard_tiny();
        let key = "TEST_cache_damaged";
        let path = super::cache_dir().join(format!("{key}.bin"));
        let _ = std::fs::remove_file(&path);
        let good = load_or_run(key, &cfg);
        let bytes = std::fs::read(&path).unwrap();
        let huge = with_oversized_prefix(&bytes, &good);
        for damaged in [&bytes[..bytes.len() / 2], &huge[..]] {
            std::fs::write(&path, damaged).unwrap();
            let again = load_or_run(key, &cfg);
            assert_eq!(again.hours[0].surface, good.hours[0].surface);
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "cache rewritten");
        }
        let _ = std::fs::remove_file(&path);
    }

    /// The cache file of one `SimConfig::test_tiny(2, 1)` run, captured
    /// once beside the wire's golden corpus (`tests/codec_golden.rs`):
    /// encoding today gives those bytes, and they decode and re-encode
    /// to themselves. `AIRSHED_BLESS=1` rewrites the file.
    #[test]
    fn cache_file_matches_its_golden_bytes() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/golden/codec/profile.ashprf08");
        let bytes = encode(&sample());
        if std::env::var_os("AIRSHED_BLESS").is_some() {
            std::fs::write(&path, &bytes).unwrap();
        }
        let golden = std::fs::read(&path).unwrap();
        assert!(golden == bytes, "the profile encoding moved a byte");
        assert!(encode(&decode(&golden).unwrap()) == golden);
    }

    fn standard_tiny() -> SimConfig {
        crate::standard_config(DatasetChoice::Tiny(60), 1)
    }
}
