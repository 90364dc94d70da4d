//! Figure-harness support: cached work profiles and table printing.
//!
//! Every figure binary needs the LA (and sometimes NE) work profile. The
//! numerics take tens of seconds, so the first binary to need a profile
//! computes and caches it under `target/airshed-profiles/`; later
//! binaries load the cache. Delete the directory to force recomputation.

pub mod cache;
pub mod table;

use airshed_core::config::{DatasetChoice, SimConfig};
use airshed_core::profile::WorkProfile;

/// The node counts of the paper's sweeps.
pub const PAPER_NODES: [usize; 6] = [4, 8, 16, 32, 64, 128];

/// Standard full-day configuration for a dataset (machine/P are
/// irrelevant to the captured profile; numerics depend only on the
/// dataset).
pub fn standard_config(dataset: DatasetChoice, hours: usize) -> SimConfig {
    SimConfig {
        hours,
        ..SimConfig::new(dataset, 4)
    }
}

/// Load or compute the standard 24-hour LA profile.
pub fn la_profile() -> WorkProfile {
    cache::load_or_run("LA_24h", &standard_config(DatasetChoice::LosAngeles, 24))
}

/// Load or compute the standard 24-hour NE profile.
pub fn ne_profile() -> WorkProfile {
    cache::load_or_run("NE_24h", &standard_config(DatasetChoice::NorthEast, 24))
}
