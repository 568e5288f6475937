//! Procedural SPD matrix generators.
//!
//! The paper evaluates on 14 SuiteSparse matrices (Table 3). Those files
//! are not redistributable here, so the experiment suite generates
//! structural analogs instead:
//!
//! * [`stencil_2d`] — the paper's "5-point stencil" row is generated
//!   *exactly* (it is a procedural matrix in the paper too),
//! * [`wathen`] — `wathen100` is the classic Wathen finite-element matrix,
//!   also generated exactly,
//! * [`banded_spd`] — regular banded analogs with matched size and nnz/row
//!   and conditioning tuned through the diagonal-dominance margin,
//! * [`irregular_spd`] — analogs for the "irregular structure" matrices
//!   (e.g. x104, bcsstk06) where LI/LSI reconstructions are less accurate,
//!   built by scattering long-range couplings outside the band.

mod banded;
mod stencil;
mod wathen;

pub use banded::{banded_spd, irregular_spd, tridiagonal, BandedConfig};
pub use stencil::{stencil_2d, stencil_3d};
pub use wathen::wathen;

use crate::CooMatrix;

/// Inserts an entry whose indices the generator's loops guarantee are
/// in bounds; a rejected push is a generator bug, not a caller error.
pub(crate) fn put(coo: &mut CooMatrix, r: usize, c: usize, v: f64) {
    #[expect(
        clippy::expect_used,
        reason = "generator loops keep indices in-bounds by construction"
    )]
    coo.push(r, c, v).expect("index in bounds by construction");
}

/// Symmetric-pair variant of [`put`].
pub(crate) fn put_sym(coo: &mut CooMatrix, r: usize, c: usize, v: f64) {
    #[expect(
        clippy::expect_used,
        reason = "generator loops keep indices in-bounds by construction"
    )]
    coo.push_sym(r, c, v).expect("in bounds by construction");
}
