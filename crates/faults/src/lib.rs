#![deny(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
//! Fault taxonomy, MTBF projection, and deterministic fault injection.
//!
//! Covers the paper's fault model (§2.1):
//!
//! * [`FaultClass`] — the six studied classes (soft: DCE, DUE, SDC; hard:
//!   SWO, SNF, LNF),
//! * [`mtbf`] — the Figure 1 estimation of petascale → exascale MTBF from
//!   per-node rates and technology scaling,
//! * [`FaultSchedule`] — deterministic injection plans: the evenly-spaced
//!   K-fault plan of §5.2 and the Poisson/exponential arrivals implied by
//!   an MTBF (§5.3, §6),
//! * [`FaultEvent`] / [`inject()`] — applying a fault to the solver's
//!   dynamic data (corrupting or losing the failed rank's slice of `x`,
//!   Figure 2b).

pub mod inject;
pub mod mtbf;
pub mod schedule;
pub mod taxonomy;

pub use inject::{inject, FaultEffect};
pub use mtbf::{MtbfEstimator, SystemScale};
pub use schedule::{FaultEvent, FaultSchedule};
pub use taxonomy::{FaultCategory, FaultClass};
