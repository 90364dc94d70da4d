//! # airshed — facade crate
//!
//! Re-exports the full public API of the Airshed reproduction: the
//! multiscale grid, synthetic meteorology, chemistry, SUPG transport, the
//! virtual distributed-memory machine, the HPF/Fx-style runtime, the
//! Airshed application driver, and the population-exposure model.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the system map.
//!
//! ```
//! use airshed::core::config::SimConfig;
//! use airshed::core::driver::{run_with_profile_on, ChemLayout};
//! use airshed::core::plan::replay_profile;
//! use airshed::core::ExecSpec;
//! use airshed::machine::MachineProfile;
//!
//! // One simulated hour over the tiny test domain on 4 virtual T3E nodes.
//! let mut config = SimConfig::test_tiny(4, 1);
//! config.start_hour = 12;
//! let (report, profile) = run_with_profile_on(&config, ExecSpec::default());
//! assert!(report.total_seconds > 0.0);
//! assert!(report.peak_o3() > 0.0);
//!
//! // The captured work replays instantly on any machine / node count,
//! // with identical science.
//! let paragon = replay_profile(&profile, MachineProfile::paragon(), 64, ChemLayout::Block);
//! assert_eq!(paragon.peak_o3(), report.peak_o3());
//! assert!(paragon.total_seconds > report.total_seconds); // slower machine
//! ```

pub use airshed_chem as chem;
pub use airshed_core as core;
pub use airshed_fabric as fabric;
pub use airshed_grid as grid;
pub use airshed_hpf as hpf;
pub use airshed_machine as machine;
pub use airshed_met as met;
pub use airshed_popexp as popexp;
pub use airshed_server as server;
pub use airshed_simd as simd;
pub use airshed_transport as transport;
