#![deny(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![forbid(clippy::disallowed_methods, clippy::disallowed_types)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Triangular solves, factorizations, and banded assembly are written with
// explicit index loops that mirror the textbook formulas; iterator
// adapters obscure rather than clarify them here.
#![allow(clippy::needless_range_loop)]
//! Sparse and dense linear-algebra substrate for the RSLS reproduction.
//!
//! This crate provides everything the resilient-solver stack needs from a
//! numerical-kernels library (the role RAPtor plays in the paper):
//!
//! * [`CooMatrix`] / [`CsrMatrix`] — sparse matrix storage with serial and
//!   [rayon]-parallel sparse matrix–vector products,
//! * [`sell`] — SELL-C-σ (sliced ELLPACK) storage with bit-identical
//!   serial and window-parallel SpMV, plus the deterministic
//!   format-selection heuristic solver workspaces use ([`SpmvOperator`]),
//! * [`Partition`] — contiguous block-row partitions used to emulate the
//!   paper's MPI data distribution (Figure 2),
//! * [`generators`] — procedural SPD matrix generators (5-point stencil,
//!   Wathen, banded random SPD with tunable diagonal dominance, irregular
//!   long-range coupling) standing in for the SuiteSparse suite,
//! * [`dense`] — dense LU / Cholesky / Householder-QR factorizations and a
//!   least-squares solver used by the exact LI / LSI reconstruction
//!   baselines (§4.1 of the paper),
//! * [`vector`] — BLAS-1 kernels (dot, axpy, norms) with flop counting,
//! * [`artifacts`] — content-keyed in-memory cache sharing block
//!   extractions (diagonal blocks, row panels, Gram matrices) across the
//!   many campaign units that reuse one operator,
//! * [`io`] — Matrix Market read/write for interoperability.

pub mod artifacts;
pub mod coo;
pub mod csr;
pub mod dense;
pub mod generators;
pub mod io;
pub mod partition;
pub mod sell;
pub mod vector;

pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use partition::Partition;
pub use sell::{Format, SellMatrix, SpmvOperator};

/// Errors produced by matrix construction and factorization routines.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// A matrix dimension was zero or inconsistent with its data.
    DimensionMismatch {
        /// Human-readable description of the mismatch.
        context: String,
    },
    /// An entry coordinate lies outside the matrix.
    IndexOutOfBounds {
        /// Row index of the offending entry.
        row: usize,
        /// Column index of the offending entry.
        col: usize,
        /// Number of rows in the matrix.
        nrows: usize,
        /// Number of columns in the matrix.
        ncols: usize,
    },
    /// A factorization encountered a (numerically) singular matrix.
    Singular {
        /// Pivot index at which singularity was detected.
        pivot: usize,
    },
    /// A matrix expected to be symmetric positive definite was not.
    NotPositiveDefinite {
        /// Pivot index at which the failure was detected.
        pivot: usize,
    },
    /// Parsing a Matrix Market stream failed.
    Parse {
        /// Line number (1-based) where the failure occurred.
        line: usize,
        /// Human-readable description of the failure.
        message: String,
    },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::DimensionMismatch { context } => {
                write!(f, "dimension mismatch: {context}")
            }
            LinalgError::IndexOutOfBounds {
                row,
                col,
                nrows,
                ncols,
            } => write!(
                f,
                "entry ({row}, {col}) out of bounds for {nrows}x{ncols} matrix"
            ),
            LinalgError::Singular { pivot } => {
                write!(f, "matrix is singular (zero pivot at index {pivot})")
            }
            LinalgError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix is not positive definite (pivot {pivot})")
            }
            LinalgError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LinalgError>;
