//! # airshed-core — the Airshed application
//!
//! The paper's Figure 1, as a program:
//!
//! ```text
//! DO i = 1,nhrs
//!    CALL inputhour(A)
//!    CALL pretrans(A)
//!    DO j = 1,nsteps
//!       CALL transport(A)
//!       CALL chemistry(A)
//!       CALL transport(A)
//!    ENDDO
//!    CALL outputhour(A)
//! ENDDO
//! ```
//!
//! The concentration array `A(species, layers, nodes)` cycles through
//! three distributions (`D_Repl`, `D_Trans`, `D_Chem`); the three
//! redistribution steps between them are the communication the paper
//! analyses. The numerics (SUPG transport, Young–Boris chemistry,
//! vertical diffusion, aerosol) run for real on the host; the virtual
//! machine charges each phase from the work the kernels actually
//! performed and each redistribution from its exact message plan.
//!
//! * [`config`] — run configuration (dataset, machine, node count, mode);
//! * [`state`] — the concentration array and its science summaries;
//! * [`phases`] — the five phases with their work accounting;
//! * [`profile`] — captured work profiles (run once, replay across P);
//! * [`plan`] — the execution-plan IR: an hour's node order, written
//!   once, and [`plan::charge_hours`], the one loop that charges it;
//! * [`backend`] — execution backends (serial / thread pool) that run
//!   the same partitions on real host cores;
//! * [`driver`] — the data-parallel main loop: [`driver::Episode`], the
//!   one hour stepper every way of running a simulation goes through;
//! * [`taskpar`] — the pipelined task-parallel variant (§5, Figure 8),
//!   scheduled from the nodes' stage annotations;
//! * [`predict`] — the §4 analytic performance model, folded over the
//!   same node order;
//! * [`obs`] — the unified observability layer (spans, Chrome-trace and
//!   Prometheus exporters) every other module reports through;
//! * [`ensemble`] — perturbation sweeps run as one job, with the
//!   shared input stage executed once per group of members;
//! * [`surrogate`] — the per-cell response surface fitted over a
//!   finished ensemble, answering what-if queries with an error bound;
//! * [`report`] — run reports for the figure harness;
//! * [`codec`](mod@codec) — the one byte layout of everything that
//!   leaves a process: fabric frames, checkpoints, the figure cache.

pub mod backend;
pub mod checkpoint;
pub mod codec;
pub mod config;
pub mod driver;
pub mod ensemble;
pub mod obs;
pub mod phases;
pub mod plan;
pub mod predict;
pub mod profile;
pub mod report;
pub mod state;
pub mod surrogate;
pub mod taskpar;
pub mod testsupport;
pub mod viz;

pub use backend::ExecSpec;
pub use config::{DatasetChoice, SimConfig};
pub use driver::{ChemLayout, PlanLayouts};
pub use ensemble::{run_ensemble, DedupStats, EnsembleJob, EnsembleResult};
pub use obs::oracle::{validate_profile, Validation};
pub use obs::Obs;
pub use plan::{optimize_plan, PlanChoice};
pub use predict::{PerfModel, PricedModel};
pub use profile::WorkProfile;
pub use report::RunReport;
pub use surrogate::{what_if, ResponseSurface, SurrogateAnswer, WhatIfOutcome};
