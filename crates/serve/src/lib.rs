#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! `rsls-serve`: a concurrent results service over the campaign engine.
//!
//! A dependency-free HTTP/1.1 service (std `TcpListener`, no external
//! crates) that fronts the experiment harnesses and the campaign
//! engine's content-addressed result store:
//!
//! | route                 | behavior                                            |
//! |-----------------------|-----------------------------------------------------|
//! | `GET /experiments`    | registry listing (canonical JSON)                   |
//! | `GET /experiments/{id}` | run (or cache-load) one experiment, JSON + `ETag` |
//! | `GET /reports/{sha256}` | raw cached `RunReport` object by content address  |
//! | `GET /query?sql=…`    | SQL over the warehouse views (`rsls-lab`), JSON + `ETag`; memoized per store generation |
//! | `GET /compare?a=…&b=…` | A/B diff of two filtered result slices, JSON + `ETag`; memoized per store generation |
//! | `GET /healthz`        | liveness                                            |
//! | `GET /metrics`        | Prometheus text: requests, latency, cache, queue, lab |
//!
//! Architecture: a single-threaded nonblocking event loop owns the
//! listener and every connection socket ([`server`]) — readiness via
//! `poll(2)` on Linux, incremental request parsing ([`http`]), HTTP/1.1
//! keep-alive and in-order pipelining; what each path answers is the
//! route table (`routes.rs`). Experiment computation never
//! happens on the event loop — it is submitted to bounded per-shard
//! work queues drained by fixed worker pools ([`queue`]), so load is
//! shed explicitly (`503` + `Retry-After` when a queue is full) instead
//! of by unbounded thread growth. Duplicate in-flight requests for the
//! same result key coalesce onto one computation at the queue layer,
//! and identical solver units coalesce again inside the campaign engine
//! itself, so a thundering herd of clients costs one solve. With
//! `--shards N` the campaign engine is sharded ([`shard`]): result keys
//! route through a consistent-hash ring to per-shard engines with
//! disjoint store namespaces, and corpus-wide reads (`/reports`,
//! `/query`, `/metrics`) fan out across every shard and merge.
//!
//! The warehouse routes do not re-ingest the store per request. The
//! engine set keeps one incrementally ingested `rsls_lab::Snapshot`
//! ([`ShardSet::warehouse`]) and a cheap *generation probe*
//! ([`ShardSet::probe`]: pointer names, journal lengths, awaited
//! sidecars — no object is opened). In steady state the probe is
//! `stat`s only: it lists `units/` again only when the directory's
//! stamp is new or has been in sight for less than a quiet period. A
//! `/query` or `/compare` whose answer was already computed at the
//! probed generation is served from a bounded memo inline on the event
//! loop, `304`s included, before its SQL is parsed; a miss goes to the
//! queue keyed by `(generation, request)`, refreshes the snapshot with
//! whatever the stores gained, and runs on the new views. A reply
//! therefore reflects every unit whose pointer was on disk when the
//! request was routed.
//!
//! Responses carry self-certifying `ETag`s: every body is addressed by
//! its own sha256 ([`compute::etag_for`]), `/reports/{sha}` doubly so —
//! the path *is* the hash of the bytes served. Conditional requests
//! (`If-None-Match`) short-circuit to `304`.
//!
//! Determinism: everything from [`compute`] down (result keys, JSON
//! bodies, content addresses) is deterministic and lint-scoped like the
//! numeric crates; wall-clock time exists only at the I/O edge (latency
//! metrics, timeouts), which is the non-deterministic-allowed zone.

pub mod client;
pub mod compute;
pub mod http;
pub mod metrics;
pub mod queue;
mod routes;
pub mod server;
pub mod shard;
pub mod signal;

pub use client::{
    client_retries_total, get, get_with_retry, get_with_retry_chaotic, ClientResponse, Conn,
    RetryPolicy,
};
pub use http::{Request, Response};
pub use metrics::{LabCounters, Metrics};
pub use queue::{JobOutput, Submitted, WorkQueue};
pub use server::{ExperimentInfo, ExperimentSource, RegistrySource, ServeOptions, Server};
pub use shard::{ReportLookup, ShardSet};
