// Numerical kernels index several parallel arrays in lockstep; the
// indexed form is the clearer idiom there, and `Vec<Range>` is the
// intended ownership-list type even when it holds one range.
#![allow(clippy::needless_range_loop, clippy::single_range_in_vec_init)]

//! # airshed-transport — the `Lxy` horizontal transport operator
//!
//! Horizontal advection–diffusion on the multiscale grid, solved with the
//! Streamline-Upwind Petrov–Galerkin (SUPG) finite element method the
//! paper cites (Odman & Russell's multiscale pollutant transport scheme).
//! The 2-D operator is the source of the paper's central parallelism
//! constraint: it couples the whole horizontal plane, so the transport
//! phase parallelises only across vertical *layers*. Within a layer the
//! species share that operator; the host solves them four at a time as
//! the lanes of one lockstep BiCGSTAB, bit-identical to one at a time.
//!
//! Modules:
//!
//! * [`csr`] — compressed-sparse-row matrices with a triplet builder,
//!   mat-vec over one vector or over four node-major right-hand sides;
//! * [`solver`] — BiCGSTAB (nonsymmetric SUPG systems; one right-hand
//!   side, or four in lockstep) and CG, all with Jacobi preconditioning;
//! * [`supg`] — element integration and global assembly (hanging-node
//!   constraints folded in through the mesh scatter map);
//! * [`operator`] — the Crank–Nicolson half-step operator `Lxy(Δt/2)`
//!   applied per layer to one species plane or to four;
//! * [`onedim`] — the uniform-grid 1-D operator-split baseline
//!   (Dabdub–Seinfeld style) used in the paper's efficiency-vs-
//!   parallelism discussion.

pub mod csr;
pub mod onedim;
pub mod operator;
pub mod solver;
pub mod supg;

pub use csr::{Csr, CsrBuilder};
pub use operator::{HorizontalTransport, LayerOperator, TransportWork, TransportWorkspace};
pub use solver::{
    bicgstab, bicgstab_lanes, bicgstab_with, conjugate_gradient, conjugate_gradient_with, Jacobi,
    LaneWorkspace, SolveStats, SolverWorkspace,
};
