#![deny(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![forbid(clippy::disallowed_methods, clippy::disallowed_types)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
//! Deterministic infrastructure fault injection.
//!
//! `rsls-faults` injects faults into the *simulated solver* — this crate
//! injects them into the *system that runs it*: the campaign cache's
//! reads and writes, the journal's appends, the engine's unit execution,
//! and the service client's connection. The design mirrors
//! `rsls_faults::FaultSchedule`:
//!
//! * a [`ChaosPlan`] is a canonical-JSON value (integer rates, explicit
//!   seed) with a stable [`ChaosPlan::content_hash`], so a chaos run is
//!   as reproducible as the campaign it torments;
//! * a [`ChaosInjector`] turns the plan into decisions at narrow hook
//!   points ([`ChaosSite`]s) threaded through the I/O edges — each
//!   decision a pure FNV-1a function of `(seed, site, decision index,
//!   caller key)`, with no wall clock or OS entropy anywhere;
//! * per-site fired counters make "the faults actually happened"
//!   assertable, so a green chaos soak proves resilience rather than
//!   quiet luck.
//!
//! The crate sits below `rsls-campaign` and `rsls-serve` in the
//! dependency graph (it depends only on `rsls-core` for hashing), the
//! same way `rsls-faults` sits below the solver driver.

pub mod injector;
pub mod plan;

pub use injector::{ChaosInjector, ChaosSite, SITE_COUNT};
pub use plan::ChaosPlan;
