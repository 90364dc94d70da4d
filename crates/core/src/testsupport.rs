//! Shared, lazily-built fixtures for tests and benches.
//!
//! Executing the tiny dataset's numerics takes a noticeable fraction of a
//! second per simulated hour; dozens of tests each running their own copy
//! adds up. This module runs the canonical tiny configuration **once**
//! per process and hands out references. Anything that only *replays* or
//! *predicts* can share it; tests that need different numerics still run
//! their own.

use crate::backend::ExecSpec;
use crate::config::SimConfig;
use crate::driver::run_with_profile_on;
use crate::profile::WorkProfile;
use crate::report::RunReport;
use std::sync::OnceLock;

/// The canonical tiny fixture: ~80 columns, 3 daylight hours starting at
/// 10:00 (photochemically active), P = 4 on the T3E.
pub fn tiny_run() -> &'static (RunReport, WorkProfile) {
    static CELL: OnceLock<(RunReport, WorkProfile)> = OnceLock::new();
    CELL.get_or_init(|| {
        let mut cfg = SimConfig::test_tiny(4, 3);
        cfg.start_hour = 10;
        run_with_profile_on(&cfg, ExecSpec::default())
    })
}

/// The canonical tiny work profile.
pub fn tiny_profile() -> &'static WorkProfile {
    &tiny_run().1
}

/// The configuration the fixture was built with.
pub fn tiny_config() -> SimConfig {
    let mut cfg = SimConfig::test_tiny(4, 3);
    cfg.start_hour = 10;
    cfg
}
