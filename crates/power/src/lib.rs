#![deny(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
//! Power, DVFS, and energy-accounting substrate.
//!
//! Replaces the paper's RAPL measurements and CPUfreq control with a
//! calibrated analytical model (DESIGN.md, substitution table):
//!
//! * [`FreqTable`] — the DVFS frequency ladder (default 1.2–2.3 GHz in
//!   0.1 GHz steps, the paper's Xeon E5-2670v3),
//! * [`Governor`] — `performance` / `powersave` / `ondemand` / `userspace`
//!   CPUfreq governors,
//! * [`PowerModel`] — per-core power as a function of activity state and
//!   frequency, calibrated so the paper's observed node-level ratios hold
//!   (busy-wait node at 0.75× of compute power; f_min-throttled node at
//!   0.45×; see §4.2),
//! * [`EnergyMeter`] — RAPL-style energy accounting over virtual time,
//!   with a power trace for profile plots (Figure 7a),
//! * [`PowerCap`] — pick the highest frequency that fits a node power
//!   budget.

pub mod cap;
pub mod freq;
pub mod governor;
pub mod meter;
pub mod model;
pub mod state;

pub use cap::PowerCap;
pub use freq::FreqTable;
pub use governor::Governor;
pub use meter::{EnergyMeter, PowerSample, RaplCounter};
pub use model::{PowerModel, PowerModelConfig};
pub use state::CoreState;
