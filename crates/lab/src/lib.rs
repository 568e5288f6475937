#![deny(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![forbid(clippy::disallowed_methods, clippy::disallowed_types)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
//! `rsls-lab`: a results warehouse over the campaign object store.
//!
//! The campaign engine leaves behind a content-addressed object store
//! (`objects/*.json` RunReports, `units/*.ref` pointers,
//! `provenance/*.json` sidecars) and a JSONL journal. This crate turns
//! that store into an *analysis platform*:
//!
//! * **Ingest** ([`Warehouse::load`], or a long-lived [`Snapshot`]
//!   that reads only what the store gained since its last refresh)
//!   walks the store in sorted spec-hash order and materializes
//!   relational views — `runs` (one row per unit, joining report
//!   metrics with provenance and journal activity), `units` (journal timelines), `schemes` (per-scheme
//!   aggregates), `chaos` (injection-site fired counts), and `kernels`
//!   ([`Warehouse::attach_kernels`]: the `benchmark/` run files
//!   flattened to long-format `(source, metric, value)` rows, so the
//!   perf trajectory across runs is queryable). Decoding
//!   is **tolerant**: reports or provenance written by older engine
//!   versions read missing fields as explicit `NULL`, and an
//!   unparsable object increments [`ingest_rejected_total`] instead of
//!   failing the load.
//! * **SQL subset** ([`sql`], [`exec`]) — its own lexer and
//!   recursive-descent parser:
//!   `SELECT` projection, `WHERE` with comparisons/`AND`/`OR`/`NOT`/
//!   `IS NULL`, `GROUP BY` with `count`/`min`/`max`/`avg`/`sum`,
//!   `ORDER BY`, `LIMIT`. Execution is deterministic end to end, so a
//!   query over a given store returns byte-identical canonical JSON
//!   across runs, job counts, and chaos-seeded campaigns (the store
//!   itself is byte-identical under chaos; the warehouse inherits
//!   that invariant).
//! * **Provenance** — every `runs` row carries `spec_hash`,
//!   `report_hash`, `engine_version`, `matrix_fingerprint`, and
//!   `chaos_plan_hash`, so any number in a figure traces to exact
//!   inputs in the store.
//! * **A/B comparison** ([`compare`]) — two stores, or two filtered
//!   slices of one store (scheme-vs-scheme, version-vs-version),
//!   diffed into canonical JSON with per-side fingerprints;
//!   `compare(a, a)` is always the empty diff.
//! * **Scoreboard** ([`scoreboard`]) — a Fig-5-style energy ranking
//!   rendered from the `schemes` view.
//!
//! Surfaces: the `rsls-lab` CLI (`query`, `views`, `scoreboard`,
//! `compare`), `rsls-serve`'s `GET /query` and `GET /compare` routes,
//! and the `rsls_lab_*` Prometheus families exported from the counters
//! below.
//!
//! The crate is lint-scoped to the full deterministic rule set: no
//! wall clock, no randomized hashers, no panics.

use std::sync::atomic::{AtomicU64, Ordering};

pub mod compare;
pub mod exec;
pub mod ingest;
pub mod scoreboard;
pub mod sql;
pub mod table;

pub use compare::{compare_filtered, compare_warehouses};
pub use exec::{execute, QueryResult};
pub use ingest::{Snapshot, Warehouse};
pub use scoreboard::render_scoreboard;
pub use sql::{parse, parse_filter, Query, SqlError};
pub use table::{Datum, Table};

/// A warehouse failure: bad SQL or a query that references things the
/// views do not have.
#[derive(Debug, Clone, PartialEq)]
pub enum LabError {
    /// The query text failed to lex or parse.
    Parse(SqlError),
    /// The query parsed but cannot be evaluated (unknown table or
    /// column, aggregate misuse).
    Eval(String),
}

impl std::fmt::Display for LabError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LabError::Parse(e) => write!(f, "{e}"),
            LabError::Eval(msg) => write!(f, "query error: {msg}"),
        }
    }
}

impl std::error::Error for LabError {}

impl From<SqlError> for LabError {
    fn from(e: SqlError) -> Self {
        LabError::Parse(e)
    }
}

/// Serializes a JSON value to its canonical text form (insertion-order
/// keys, deterministic float formatting) — the bytes `/query` ETags
/// are computed over.
pub fn canonical_json(v: &serde_json::Value) -> String {
    serde_json::Writer::compact().render(v)
}

/// Objects successfully ingested into warehouses, process-wide.
static INGESTED_OBJECTS: AtomicU64 = AtomicU64::new(0);
/// Objects (or refs) rejected during ingest, process-wide.
static INGEST_REJECTED: AtomicU64 = AtomicU64::new(0);
/// Queries executed (parse successes), process-wide.
static QUERIES: AtomicU64 = AtomicU64::new(0);

/// Total objects read and ingested into warehouses by this process —
/// the `rsls_lab_ingested_objects_total` metric. It counts reads, not
/// rows: a [`Snapshot`] refresh adds only the objects it had not
/// verified before, so a refresh that finds nothing new adds none.
pub fn ingested_objects_total() -> u64 {
    INGESTED_OBJECTS.load(Ordering::Relaxed)
}

/// Total store entries rejected by tolerant ingest (unparsable object,
/// dangling or garbage ref) — the `rsls_lab_ingest_rejected_total`
/// metric. Rejection is counted, never fatal.
pub fn ingest_rejected_total() -> u64 {
    INGEST_REJECTED.load(Ordering::Relaxed)
}

/// Total queries executed by this process — the
/// `rsls_lab_queries_total` metric.
pub fn queries_total() -> u64 {
    QUERIES.load(Ordering::Relaxed)
}

pub(crate) fn note_ingested(n: u64) {
    INGESTED_OBJECTS.fetch_add(n, Ordering::Relaxed);
}

pub(crate) fn note_rejected(n: u64) {
    INGEST_REJECTED.fetch_add(n, Ordering::Relaxed);
}

pub(crate) fn note_query() {
    QUERIES.fetch_add(1, Ordering::Relaxed);
}
