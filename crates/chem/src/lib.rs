// Numerical kernels index several parallel arrays in lockstep; the
// indexed form is the clearer idiom there, and `Vec<Range>` is the
// intended ownership-list type even when it holds one range.
#![allow(clippy::needless_range_loop, clippy::single_range_in_vec_init)]

//! # airshed-chem — gas-phase chemistry, vertical transport and aerosol
//!
//! Implements the `Lcz` operator of the paper's operator splitting
//! (Eq. 2): chemistry and vertical transport are combined "because they
//! involve similar computations on similar timescales". The pieces:
//!
//! * [`species`] — the 35-species set (condensed carbon-bond style), with
//!   background concentrations and emission profiles;
//! * [`mechanism`] — the reaction mechanism (Arrhenius + photolysis rate
//!   laws, fractional and negative product stoichiometry as in CB-IV) and
//!   production/loss-frequency evaluation, by straight-line kernels that
//!   `build.rs` generates from the one carbon-bond table;
//! * [`youngboris`] — the hybrid predictor–corrector stiff ODE scheme of
//!   Young & Boris (1977) that the paper cites for the chemistry solve,
//!   one cell at a time: the definition, and the oracle of the lanes;
//! * [`simd`] — the same integrator on one cell per vector lane (eight
//!   `F64x8` lanes on AVX-512 hosts, four `F64x4` lanes elsewhere), each
//!   lane with its own substep controller and bit-identical to the scalar
//!   integrator: the kernel every run takes, whatever its thread count,
//!   width or host;
//! * [`vertical`] — implicit (backward-Euler, Thomas-solve) vertical
//!   diffusion with surface emission and dry-deposition fluxes;
//! * [`audit`] — reaction-by-reaction atom-balance checking (N, S);
//! * [`aerosol`] — the sequential bulk aerosol equilibrium step. Its
//!   domain-global normalisation is what forces the concentration array
//!   back to a replicated distribution after every chemistry phase — the
//!   `D_Chem → D_Repl` redistribution the paper analyses.
//!
//! Concentration units are ppm; rate constants are in the ppm–minute
//! system conventional for carbon-bond mechanisms; time inputs are minutes.

pub mod aerosol;
pub mod audit;
pub mod mechanism;
pub mod simd;
pub mod species;
pub mod vertical;
pub mod youngboris;

pub use mechanism::{Mechanism, RateLaw, Reaction};
pub use species::{SpeciesId, N_SPECIES};
pub use youngboris::{YbOptions, YbStats};
