#![deny(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
//! Analytical performance–energy–resilience models (paper §3 and §6).
//!
//! The crate mirrors the paper's modeling structure:
//!
//! * [`general`] — the generalized metrics of §3.1 (Eqs. 1–8):
//!   time/power/energy for original and fixed-time-scaled workloads,
//! * [`schemes`] — the per-scheme refinements of §3.2 (Eqs. 9–16):
//!   the checkpoint/restart and forward-recovery equations,
//! * [`predict`](mod@predict) — one cost model per
//!   [`ModelFamily`](rsls_core::ModelFamily), with its power fractions
//!   from the power model the driver charges; every consumer below calls it,
//! * [`fit`] — extraction of model parameters (`t_C`, `t_const`,
//!   `t_extra`, λ, per-iteration time) from measured [`RunReport`]s,
//! * [`validation`] — model-vs-experiment comparison rows (Table 6),
//! * [`projection`] — weak-scaling projection to very large systems with
//!   decreasing MTBF (§6, Figure 9),
//! * [`advisor`] — scheme recommendation from the models (the paper's
//!   research question 4).
//!
//! [`RunReport`]: rsls_core::RunReport

pub mod advisor;
pub mod fit;
pub mod general;
pub mod predict;
pub mod projection;
pub mod schemes;
pub mod validation;

pub use advisor::{estimate_all, recommend, Objective, SchemeEstimate, Situation};
pub use fit::FittedParams;
pub use general::FaultFreeModel;
pub use predict::{predict, Inputs, Prediction};
pub use projection::{project_scheme, ProjectionConfig};
pub use schemes::{CrModel, FwModel, LcModel};
pub use validation::{validate, ValidationRow};
