#![deny(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
//! Instrumented iterative solvers.
//!
//! * [`Cg`] — a resumable, step-at-a-time Conjugate Gradient state
//!   machine. The resilient driver in `rsls-core` advances it one
//!   iteration at a time, injects faults between iterations, repairs the
//!   state after recovery ([`Cg::restart`], the Langou et al. recovery
//!   pattern), and charges virtual time per step.
//! * [`Cgls`] — CGLS/CGNR for least-squares systems, used by the paper's
//!   optimized LSI reconstruction (§4.1, Eq. 21: solve
//!   `(A_{p_i,:} A_{p_i,:}ᵀ) x = A_{p_i,:} β` locally with CG).
//! * [`HaloPlan`] — the halo exchange a block-row SPMD SpMV performs,
//!   the reference the driver's charged communication volume is checked
//!   against.
//! * [`convergence`] — residual histories with fault/recovery markers.

pub mod cg;
pub mod cgls;
pub mod convergence;
pub mod dist;

pub use cg::{Cg, CgConfig, KrylovState};
pub use cgls::{Cgls, CglsConfig};
pub use convergence::ResidualHistory;
pub use dist::HaloPlan;
