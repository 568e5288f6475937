#![deny(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
//! Parallel, cached, resumable experiment-campaign engine.
//!
//! Every experiment in the reproduction decomposes into independent
//! **run units** — one [`rsls_core::run`] invocation each. This crate
//! turns a batch of units into a *campaign*:
//!
//! * **Canonical specs.** A [`UnitSpec`] captures everything that
//!   determines a unit's result — scheme, DVFS policy, fault schedule
//!   (with its seed), rank count, tolerance, matrix identity (name +
//!   data fingerprint), scale, and engine version — and hashes to a
//!   stable content address ([`UnitSpec::content_hash`]).
//! * **Content-addressed caching.** Completed [`rsls_core::RunReport`]s
//!   persist to a git-style object store ([`ResultCache`]):
//!   `<cache-dir>/objects/<sha256-of-report>.json` holds the bytes and
//!   `<cache-dir>/units/<spec-hash>.ref` points a unit at its report,
//!   so an object's filename certifies its content (the invariant
//!   `rsls-serve`'s `ETag` responses rely on). Because the driver is
//!   deterministic and the serialization byte-stable, re-running a
//!   campaign re-reads identical bytes: a full re-run is 100% cache
//!   hits and zero solver work. The store is **self-healing**: every
//!   read re-verifies the object's SHA-256 against its filename, and a
//!   mismatch quarantines the object, journals a `cache-corrupt`
//!   record, and recomputes — detected, never a silent miss and never
//!   an error.
//! * **Journaled resume.** A JSONL journal ([`Journal`]) records every
//!   unit `start`/`done`/`failed`. A killed campaign restarted with
//!   resume repairs a torn trailing record (truncating back to the
//!   last complete line) and re-executes only the units that never
//!   finished — finished ones load from the cache by content address.
//! * **In-flight coalescing.** A unit submitted while an identical one
//!   (same content address) is already executing parks on its latch
//!   and is served the leader's cached report — concurrent callers
//!   (e.g. duplicate `rsls-serve` requests) cost one computation.
//! * **Failure isolation.** A unit that panics (or never converges and
//!   trips the iteration cap into an assert) is caught, recorded
//!   `failed`, optionally retried under deterministic capped
//!   exponential backoff, and the rest of the campaign completes. A
//!   per-experiment **circuit breaker** converts an unbroken streak of
//!   hard failures into explicit `degraded` outcomes for the
//!   experiment's remaining units, so one broken experiment cannot
//!   burn the retry budget or poison the worker pool.
//! * **Chaos-hardened.** The cache, journal, and unit-execution edges
//!   accept an `rsls_chaos::ChaosInjector`
//!   ([`EngineOptions::chaos`]); the chaos soak test asserts that a
//!   campaign under aggressive injection produces reports
//!   byte-identical to a fault-free run.
//! * **Parallel and order-independent.** Units execute on a thread
//!   pool (`jobs` workers); outcomes are collected in submission
//!   order, and each unit's seeds travel inside its spec, so results
//!   are bit-identical for any job count.
//!
//! The engine deliberately knows nothing about matrices or
//! experiments: [`Engine::run_units`] takes the specs plus a
//! `Fn(&UnitSpec) -> RunReport` closure supplied by the caller
//! (`rsls-experiments`), keeping this crate directly above `rsls-core`
//! in the dependency graph.
//!
//! # Example
//!
//! ```
//! use rsls_campaign::{matrix_fingerprint, Engine, EngineOptions, UnitSpec, ENGINE_VERSION};
//! use rsls_core::{run, RunConfig, Scheme};
//! use rsls_sparse::generators::stencil_2d;
//!
//! let a = stencil_2d(12, 12);
//! let b = vec![1.0; a.nrows()];
//! let spec = UnitSpec {
//!     experiment: "doc".into(),
//!     unit: "stencil/FF".into(),
//!     matrix: "stencil12".into(),
//!     matrix_fingerprint: matrix_fingerprint(
//!         a.nrows(), a.ncols(), a.row_ptr(), a.col_idx(), a.values(), &b,
//!     ),
//!     scale: "quick".into(),
//!     engine_version: ENGINE_VERSION,
//!     config: RunConfig::new(Scheme::FaultFree, 4),
//! };
//!
//! let engine = Engine::new(EngineOptions::default()).unwrap();
//! let outcomes = engine.run_units(std::slice::from_ref(&spec), |s| run(&a, &b, &s.config));
//! assert!(outcomes[0].report.as_ref().unwrap().converged);
//! ```

pub mod cache;
pub mod engine;
pub mod journal;
pub mod provenance;
pub mod shard;
pub mod spec;

pub use cache::{is_sha256_hex, Lookup, RecipeLookup, ResultCache};
pub use engine::{CampaignSummary, Engine, EngineOptions, UnitOutcome, UnitStatus};
pub use journal::{Journal, JournalCursor, JournalEvent, JournalTail};
pub use provenance::Provenance;
pub use shard::{shard_dir, ShardRouter};
pub use spec::{matrix_fingerprint, UnitSpec, ENGINE_VERSION};
