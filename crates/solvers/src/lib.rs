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
//! * [`jacobi`] — Jacobi-preconditioned CG (an extension beyond the
//!   paper's plain-CG evaluation).
//! * [`ic0`] — IC(0) incomplete-Cholesky preconditioned CG with
//!   deterministic sequential triangular solves; the iteration-count
//!   lever on the paper's stencil/banded model problems.
//! * [`dist`] — a distributed-memory (SPMD) CG with explicit halo
//!   exchange plans, the physical counterpart of the driver's logical
//!   distribution model.
//! * [`convergence`] — residual histories and outcome summaries.

pub mod cg;
pub mod cgls;
pub mod convergence;
pub mod dist;
pub mod ic0;
pub mod jacobi;

pub use cg::{Cg, CgConfig, KrylovState};
pub use cgls::{Cgls, CglsConfig};
pub use convergence::{ResidualHistory, SolveOutcome};
pub use dist::{halo_plan_cache_stats, DistCg, HaloPlan};
pub use ic0::{Ic0, Ic0Pcg};
pub use jacobi::JacobiPcg;
