#![deny(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Triangular solves, factorizations, and banded assembly are written with
// explicit index loops that mirror the textbook formulas; iterator
// adapters obscure rather than clarify them here.
#![allow(clippy::needless_range_loop)]
//! Resilient scalable linear systems — the paper's core contribution.
//!
//! This crate implements and composes every recovery scheme the paper
//! studies (Table 2) on top of the substrate crates:
//!
//! | Type | Scheme | Module |
//! |------|--------|--------|
//! | CR   | CR-D, CR-M — checkpoint to disk / memory | [`checkpoint`], [`interval`] |
//! | RD   | DMR — dual modular redundancy | [`driver`] |
//! | FW   | F0, FI, LI, LSI — forward recovery | [`construction`] |
//!
//! plus the paper's two optimizations (§4):
//!
//! * **Localized construction** — LI/LSI approximations computed with a
//!   *local* CG/CGLS on the failed process instead of exact LU / parallel
//!   QR ([`construction::ConstructionMethod::LocalCg`]),
//! * **DVFS power reduction** — the non-reconstructing cores drop to the
//!   lowest frequency during construction ([`DvfsPolicy`]).
//!
//! A scheme is defined in one place, [`scheme`]: a registry row (label,
//! aliases, constructor) and a plain-data recovery plan the driver
//! executes.
//!
//! The [`driver`] module weaves a step-wise CG, a fault schedule, a
//! recovery scheme, the virtual cluster, and the power model into one
//! deterministic run that yields a [`RunReport`] with time-to-solution,
//! energy-to-solution, average power, a piecewise power profile, and the
//! residual history — everything the paper's figures plot.
//!
//! # Example
//!
//! ```
//! use rsls_core::driver::{run, RunConfig};
//! use rsls_core::{DvfsPolicy, Scheme};
//! use rsls_faults::{FaultClass, FaultSchedule};
//! use rsls_sparse::generators::stencil_2d;
//!
//! // A small Laplacian system with the all-ones solution.
//! let a = stencil_2d(20, 20);
//! let ones = vec![1.0; a.nrows()];
//! let mut b = vec![0.0; a.nrows()];
//! a.spmv(&ones, &mut b);
//!
//! // Fault-free baseline on 8 virtual ranks.
//! let ff = run(&a, &b, &RunConfig::new(Scheme::FaultFree, 8));
//! assert!(ff.converged);
//!
//! // Two node failures recovered by LI forward recovery with the paper's
//! // DVFS optimization.
//! let cfg = RunConfig::new(Scheme::li_local_cg(), 8)
//!     .with_faults(FaultSchedule::evenly_spaced(
//!         2, ff.iterations, 8, FaultClass::Snf, 42,
//!     ))
//!     .with_dvfs(DvfsPolicy::ThrottleWaiters);
//! let report = run(&a, &b, &cfg);
//! assert!(report.converged);
//! assert_eq!(report.faults_injected, 2);
//! assert!(report.energy_j >= ff.energy_j);
//! ```

pub mod checkpoint;
pub mod construction;
pub mod driver;
pub mod dvfs;
pub mod hash;
pub mod interval;
pub mod report;
pub mod scheme;
pub mod trajectory;

pub use checkpoint::{
    install_chaos, CheckpointChaos, CompressionModel, KrylovCheckpoint, LossyCompressionModel,
};
pub use construction::{ConstructionMethod, ConstructionResult, MultiConstructionResult};
pub use driver::{run, RunConfig};
pub use dvfs::DvfsPolicy;
pub use hash::{sha256_hex, Fnv1a};
pub use interval::{
    daly_interval_s, energy_optimal_interval_s, young_interval_s, CheckpointInterval,
};
pub use report::{PhaseBreakdown, RunReport};
pub use rsls_power::PowerModelConfig;
pub use scheme::{CheckpointStorage, ForwardKind, ModelFamily, Scheme};
