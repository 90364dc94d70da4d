// Numerical kernels index several parallel arrays in lockstep; the
// indexed form is the clearer idiom there, and `Vec<Range>` is the
// intended ownership-list type even when it holds one range.
#![allow(clippy::needless_range_loop, clippy::single_range_in_vec_init)]

//! # airshed-hpf — an Fx/HPF-style data-parallel runtime
//!
//! Fx is CMU's HPF-like parallel Fortran dialect: array distribution
//! directives (`BLOCK`, `CYCLIC`, block-cyclic, replication), compiler-
//! generated redistribution communication, parallel loops over owned
//! index sets, and — Fx's distinguishing feature — *task parallelism*
//! through node subgroups, plus a foreign-module interface for coupling
//! externally-parallelised programs (the paper's §5 and §6).
//!
//! This crate is the runtime-library equivalent: instead of a compiler
//! emitting communication, [`redist`] *plans* the exact per-node message
//! sets a distribution change requires (and moves the data), and the
//! virtual [`airshed_machine::Machine`] charges the paper's
//! `Ct = L·m + G·b + H·c` model for them.
//!
//! * [`dist`] — the one ownership rule ([`dist::Layout`]: `BLOCK`,
//!   `CYCLIC`, `CYCLIC(b)`) and the distributions built on it;
//! * [`mod@array`] — distributed arrays with per-node local tiles;
//! * [`redist`] — redistribution planning;
//! * [`exec`] — message-passing execution of a plan over the PVM
//!   substrate, with observed-traffic accounting (the plan-vs-reality
//!   check);
//! * [`pipeline`] — pipelined task-parallel scheduling (§5, Figure 8);
//! * [`pvm`] — a PVM-like message-passing substrate (threads +
//!   mailboxes) hosting foreign modules;
//! * [`foreign`] — the foreign-module coupling scenarios of Figure 11.

pub mod array;
pub mod dist;
pub mod exec;
pub mod foreign;
pub mod host;
pub mod pipeline;
pub mod pvm;
pub mod redist;

pub use array::DistributedArray;
pub use dist::{Distribution, Layout};
pub use redist::RedistPlan;
