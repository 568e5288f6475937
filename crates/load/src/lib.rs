//! `rsls-load`: a seed-deterministic soak harness for the
//! `rsls-serve` event-loop service.
//!
//! The harness drives 10⁵–10⁶ requests over persistent keep-alive
//! connections from a reproducible client mix — cached experiment
//! fetches, warehouse `/query` traffic, conditional `/reports`
//! revalidations, deliberate cache-miss storms, and health probes —
//! and records client-observed latency in a log-bucketed histogram
//! whose quantiles are exact functions of the observed multiset
//! (see [`histogram::LatencyHistogram`]). It is a correctness harness:
//! the one number it gates is `protocol_errors`, pinned at exactly zero
//! on every machine. Speed claims come from `benchmark/`, not from here.
//!
//! Determinism contract: the request *stream* per connection is a pure
//! function of `(seed, connection index, experiment corpus)` — see
//! [`mix`]. Timings are of course machine-dependent and only reported.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod histogram;
pub mod mix;
pub mod soak;

pub use histogram::LatencyHistogram;
pub use mix::{MixWeights, PlannedRequest, RequestClass, RequestPlanner, Rng};
pub use soak::{discover_experiments, run_soak, SoakOptions, SoakOutcome};
