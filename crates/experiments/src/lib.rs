#![warn(missing_docs)]
//! Paper reproduction harnesses.
//!
//! One module per figure/table of the paper's evaluation (see DESIGN.md's
//! per-experiment index). Each harness returns a machine-readable
//! [`output::Table`] and can be invoked through the `rsls-run` binary:
//!
//! ```text
//! rsls-run --experiment fig5        # reproduce Figure 5
//! rsls-run --all                    # run everything
//! RSLS_SCALE=full rsls-run --all    # paper-sized matrices (slow)
//! ```
//!
//! All experiments run at `quick` scale by default: matrices are shrunk
//! (conditioning preserved by construction) so the whole suite finishes in
//! minutes. `RSLS_SCALE=full` generates the paper-sized analogs.

pub mod artifacts;
pub mod campaign;
pub mod experiments;
pub mod output;
pub mod plot;
pub mod registry;
pub mod runners;
pub mod scale;
pub mod suite;

pub use output::Table;
pub use registry::ExperimentRegistry;
pub use scale::Scale;
pub use suite::{MatrixSpec, Structure, GENERATOR_VERSION, SUITE};
