//! Service metrics, rendered in the Prometheus text exposition format.
//!
//! Everything is lock-free atomics except the per-`(route, status)`
//! request counters, which live behind one mutex on a `BTreeMap` so the
//! rendered output is deterministically ordered.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use rsls_campaign::CampaignSummary;

/// Snapshot of the process-wide artifact caches (sparse block cache,
/// workload interner), gathered at scrape time by the
/// server and folded into the exposition alongside the campaign totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArtifactCounters {
    /// `rsls_sparse::artifacts` block-extraction cache hits.
    pub sparse_hits: u64,
    /// `rsls_sparse::artifacts` block-extraction cache misses.
    pub sparse_misses: u64,
    /// Entries currently held by the block-extraction cache.
    pub sparse_entries: u64,
    /// Workload-interner hits (`rsls_experiments::artifacts`).
    pub workload_hits: u64,
    /// Workload-interner misses (matrix + rhs generated).
    pub workload_misses: u64,
    /// Memoized matrix-fingerprint hits.
    pub fingerprint_hits: u64,
    /// Matrix fingerprints computed from scratch.
    pub fingerprint_misses: u64,
}

/// Snapshot of the `rsls-lab` warehouse counters (process-wide,
/// gathered at scrape time from [`rsls_lab`]'s atomics): how many
/// store objects ingest read and accepted, how many entries it
/// rejected, and how many queries the warehouse executed. A request
/// answered from the memo moves none of them, and a snapshot refresh
/// counts only the objects it had not read before.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LabCounters {
    /// Report objects read and ingested into warehouse views.
    pub ingested_objects: u64,
    /// Store entries tolerant decode rejected (counted, not fatal).
    pub ingest_rejected: u64,
    /// Queries executed against warehouse views.
    pub queries: u64,
}

impl LabCounters {
    /// Reads the current process-wide lab counters.
    pub fn gather() -> LabCounters {
        LabCounters {
            ingested_objects: rsls_lab::ingested_objects_total(),
            ingest_rejected: rsls_lab::ingest_rejected_total(),
            queries: rsls_lab::queries_total(),
        }
    }
}

/// Latency histogram bucket upper bounds, in seconds.
const BUCKETS: [f64; 8] = [0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0, 60.0];

/// A fixed-bucket latency histogram.
#[derive(Debug, Default)]
struct Histogram {
    /// One counter per bucket in [`BUCKETS`]; the implicit `+Inf`
    /// bucket is `count`.
    buckets: [AtomicU64; 8],
    count: AtomicU64,
    sum_micros: AtomicU64,
}

impl Histogram {
    fn observe(&self, d: Duration) {
        let secs = d.as_secs_f64();
        for (bound, counter) in BUCKETS.iter().zip(&self.buckets) {
            if secs <= *bound {
                counter.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros
            .fetch_add(d.as_micros() as u64, Ordering::Relaxed);
    }
}

/// Per-shard slices of the queue counters: one slot per campaign shard
/// so saturation on one (experiment, scale) family is visible even when
/// the process-wide totals look healthy.
#[derive(Debug, Default)]
struct ShardCounters {
    queue_depth: AtomicU64,
    coalesced: AtomicU64,
    computed: AtomicU64,
}

/// All counters and gauges the service exports on `/metrics`.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests served, by `(route label, status code)`.
    requests: Mutex<BTreeMap<(String, u16), u64>>,
    latency: Histogram,
    /// Per-shard queue counters (length = shard count, ≥ 1).
    shards: Vec<ShardCounters>,
    /// Connections currently open on the event loop (gauge).
    connections_active: AtomicU64,
    /// Connections accepted since boot.
    connections_total: AtomicU64,
    /// Requests served beyond the first on a kept-alive connection.
    keepalive_reuses: AtomicU64,
    /// In-memory result-body cache (`/experiments/{id}`).
    result_hits: AtomicU64,
    result_misses: AtomicU64,
    /// In-memory answer memo (`/query`, `/compare`), per store
    /// generation.
    query_hits: AtomicU64,
    query_misses: AtomicU64,
    /// On-disk report-object cache (`/reports/{sha256}`).
    report_hits: AtomicU64,
    report_misses: AtomicU64,
    /// Jobs that actually invoked a harness.
    computed: AtomicU64,
    /// Submissions that coalesced onto an in-flight job at the queue.
    coalesced: AtomicU64,
    /// Submissions rejected because the queue was full.
    rejected: AtomicU64,
    /// Jobs waiting in the queue right now (gauge).
    queue_depth: AtomicU64,
    /// Workers executing a job right now (gauge).
    workers_busy: AtomicU64,
    /// Request handlers that panicked (each isolated to a `500`).
    panics: AtomicU64,
    /// End-to-end `/query` + `/compare` latency (warehouse load,
    /// execution, serialization), observed at the I/O edge.
    lab_latency: Histogram,
}

macro_rules! counters {
    ($($method:ident => $field:ident),+ $(,)?) => {
        $(
            /// Increments the counter this method is named after.
            pub fn $method(&self) {
                self.$field.fetch_add(1, Ordering::Relaxed);
            }
        )+
    };
}

impl Metrics {
    /// A zeroed metrics registry with a single shard slot.
    pub fn new() -> Metrics {
        Metrics::with_shards(1)
    }

    /// A zeroed registry with `shards` per-shard counter slots
    /// (clamped to at least one).
    pub fn with_shards(shards: usize) -> Metrics {
        Metrics {
            shards: (0..shards.max(1))
                .map(|_| ShardCounters::default())
                .collect(),
            ..Metrics::default()
        }
    }

    /// Number of per-shard counter slots.
    pub fn shard_count(&self) -> usize {
        self.shards.len().max(1)
    }

    fn shard_slot(&self, shard: usize) -> Option<&ShardCounters> {
        self.shards
            .get(shard.min(self.shards.len().saturating_sub(1)))
    }

    counters! {
        result_cache_hit => result_hits,
        result_cache_miss => result_misses,
        query_cache_hit => query_hits,
        query_cache_miss => query_misses,
        report_cache_hit => report_hits,
        report_cache_miss => report_misses,
        queue_rejected => rejected,
        request_panicked => panics,
        connection_opened => connections_total,
        keepalive_reuse => keepalive_reuses,
    }

    /// Counts one harness-invoking job against `shard` (and the
    /// process-wide total).
    pub fn job_computed_on(&self, shard: usize) {
        self.computed.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = self.shard_slot(shard) {
            slot.computed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts one coalesced submission against `shard` (and the
    /// process-wide total).
    pub fn job_coalesced_on(&self, shard: usize) {
        self.coalesced.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = self.shard_slot(shard) {
            slot.coalesced.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Adjusts the connections-open gauge by `delta`, counting opens
    /// in `rsls_serve_connections_total`.
    pub fn connection_gauge_add(&self, delta: i64) {
        gauge_add(&self.connections_active, delta);
    }

    /// Connections currently open.
    pub fn connections_active(&self) -> u64 {
        self.connections_active.load(Ordering::Relaxed)
    }

    /// Requests served beyond the first on kept-alive connections.
    pub fn keepalive_reuses_total(&self) -> u64 {
        self.keepalive_reuses.load(Ordering::Relaxed)
    }

    /// Records one finished request.
    pub fn observe_request(&self, route: &str, status: u16, elapsed: Duration) {
        let mut map = self.requests.lock().unwrap_or_else(PoisonError::into_inner);
        *map.entry((route.to_string(), status)).or_insert(0) += 1;
        drop(map);
        self.latency.observe(elapsed);
    }

    /// Records one finished warehouse query or comparison.
    pub fn observe_lab_query(&self, elapsed: Duration) {
        self.lab_latency.observe(elapsed);
    }

    /// Adjusts the queued-jobs gauge by `delta`, against `shard`'s
    /// slice and the process-wide gauge.
    pub fn queue_depth_add_on(&self, shard: usize, delta: i64) {
        gauge_add(&self.queue_depth, delta);
        if let Some(slot) = self.shard_slot(shard) {
            gauge_add(&slot.queue_depth, delta);
        }
    }

    /// Coalesced-submission total for one shard slice.
    pub fn shard_coalesced_total(&self, shard: usize) -> u64 {
        self.shard_slot(shard)
            .map_or(0, |s| s.coalesced.load(Ordering::Relaxed))
    }

    /// Adjusts the busy-workers gauge by `delta`.
    pub fn workers_busy_add(&self, delta: i64) {
        gauge_add(&self.workers_busy, delta);
    }

    /// Current queued-jobs gauge.
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// Running total of queue-coalesced submissions.
    pub fn coalesced_total(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Renders the exposition text. `campaign`/`campaign_waiters` fold
    /// in the engine's own totals, and `artifacts` the process-wide
    /// artifact-cache counters, so one scrape covers every layer.
    pub fn render(
        &self,
        campaign: &CampaignSummary,
        campaign_waiters: usize,
        artifacts: &ArtifactCounters,
        lab: &LabCounters,
    ) -> String {
        let mut out = String::new();
        let mut scalar = |name: &str, kind: &str, help: &str, value: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} {kind}");
            let _ = writeln!(out, "{name} {value}");
        };

        scalar(
            "rsls_serve_result_cache_hits_total",
            "counter",
            "Experiment requests served from the in-memory result cache.",
            self.result_hits.load(Ordering::Relaxed),
        );
        scalar(
            "rsls_serve_result_cache_misses_total",
            "counter",
            "Experiment requests that needed a computation or coalesce.",
            self.result_misses.load(Ordering::Relaxed),
        );
        scalar(
            "rsls_serve_query_cache_hits_total",
            "counter",
            "Warehouse requests answered from the memo of the current store generation.",
            self.query_hits.load(Ordering::Relaxed),
        );
        scalar(
            "rsls_serve_query_cache_misses_total",
            "counter",
            "Warehouse requests that needed a snapshot refresh and an execution.",
            self.query_misses.load(Ordering::Relaxed),
        );
        scalar(
            "rsls_serve_report_cache_hits_total",
            "counter",
            "Report objects served from the content-addressed store.",
            self.report_hits.load(Ordering::Relaxed),
        );
        scalar(
            "rsls_serve_report_cache_misses_total",
            "counter",
            "Report lookups that found no object.",
            self.report_misses.load(Ordering::Relaxed),
        );
        scalar(
            "rsls_serve_computations_total",
            "counter",
            "Jobs that invoked an experiment harness.",
            self.computed.load(Ordering::Relaxed),
        );
        scalar(
            "rsls_serve_coalesced_total",
            "counter",
            "Submissions coalesced onto an in-flight job.",
            self.coalesced.load(Ordering::Relaxed),
        );
        scalar(
            "rsls_serve_queue_rejected_total",
            "counter",
            "Submissions rejected with 503 because the queue was full.",
            self.rejected.load(Ordering::Relaxed),
        );
        scalar(
            "rsls_serve_request_panics_total",
            "counter",
            "Request handlers that panicked (isolated to a 500).",
            self.panics.load(Ordering::Relaxed),
        );
        scalar(
            "rsls_serve_queue_depth",
            "gauge",
            "Jobs waiting in the work queue.",
            self.queue_depth.load(Ordering::Relaxed),
        );
        scalar(
            "rsls_serve_workers_busy",
            "gauge",
            "Workers currently executing a job.",
            self.workers_busy.load(Ordering::Relaxed),
        );
        scalar(
            "rsls_serve_connections_active",
            "gauge",
            "Connections currently open on the event loop.",
            self.connections_active.load(Ordering::Relaxed),
        );
        scalar(
            "rsls_serve_connections_total",
            "counter",
            "Connections accepted since boot.",
            self.connections_total.load(Ordering::Relaxed),
        );
        scalar(
            "rsls_serve_keepalive_reuses_total",
            "counter",
            "Requests served beyond the first on a kept-alive connection.",
            self.keepalive_reuses.load(Ordering::Relaxed),
        );

        scalar(
            "rsls_campaign_units_total",
            "counter",
            "Units submitted to the campaign engine.",
            campaign.total as u64,
        );
        scalar(
            "rsls_campaign_units_executed_total",
            "counter",
            "Units the campaign engine actually solved.",
            campaign.executed as u64,
        );
        scalar(
            "rsls_campaign_cache_hits_total",
            "counter",
            "Units served from the content-addressed cache.",
            campaign.cache_hits as u64,
        );
        scalar(
            "rsls_campaign_units_failed_total",
            "counter",
            "Units that failed every attempt.",
            campaign.failed as u64,
        );
        scalar(
            "rsls_campaign_coalesced_total",
            "counter",
            "Units coalesced onto an identical in-flight unit.",
            campaign.coalesced as u64,
        );
        scalar(
            "rsls_campaign_coalesce_waiters",
            "gauge",
            "Threads parked on an in-flight unit right now.",
            campaign_waiters as u64,
        );
        scalar(
            "rsls_campaign_unit_retries_total",
            "counter",
            "Unit re-attempts after a panic (backoff retries).",
            campaign.retries as u64,
        );
        scalar(
            "rsls_campaign_units_degraded_total",
            "counter",
            "Units skipped behind an open circuit breaker.",
            campaign.degraded as u64,
        );
        scalar(
            "rsls_campaign_cache_corrupt_detected_total",
            "counter",
            "Cache entries that failed verification and were detected.",
            campaign.corrupt_detected as u64,
        );
        scalar(
            "rsls_campaign_cache_quarantined_total",
            "counter",
            "Cache objects moved to quarantine/ after failing verification.",
            campaign.quarantined,
        );
        scalar(
            "rsls_campaign_circuit_state",
            "gauge",
            "Experiments whose circuit breaker is currently open.",
            campaign.circuits_open as u64,
        );
        scalar(
            "rsls_serve_client_retries_total",
            "counter",
            "Re-attempts made by in-process retrying clients.",
            crate::client::client_retries_total(),
        );

        scalar(
            "rsls_artifact_sparse_cache_hits_total",
            "counter",
            "Block extractions served from the sparse artifact cache.",
            artifacts.sparse_hits,
        );
        scalar(
            "rsls_artifact_sparse_cache_misses_total",
            "counter",
            "Block extractions computed and inserted into the cache.",
            artifacts.sparse_misses,
        );
        scalar(
            "rsls_artifact_sparse_cache_entries",
            "gauge",
            "Entries currently held by the sparse artifact cache.",
            artifacts.sparse_entries,
        );
        scalar(
            "rsls_artifact_workload_hits_total",
            "counter",
            "Suite workloads served from the process-wide interner.",
            artifacts.workload_hits,
        );
        scalar(
            "rsls_artifact_workload_misses_total",
            "counter",
            "Suite workloads generated (matrix + rhs built).",
            artifacts.workload_misses,
        );
        scalar(
            "rsls_artifact_fingerprint_hits_total",
            "counter",
            "Matrix fingerprints served from the per-workload memo.",
            artifacts.fingerprint_hits,
        );
        scalar(
            "rsls_artifact_fingerprint_misses_total",
            "counter",
            "Matrix fingerprints hashed from scratch.",
            artifacts.fingerprint_misses,
        );

        scalar(
            "rsls_lab_ingested_objects_total",
            "counter",
            "Reports ingested into warehouse views.",
            lab.ingested_objects,
        );
        scalar(
            "rsls_lab_ingest_rejected_total",
            "counter",
            "Store entries warehouse ingest rejected (tolerant decode).",
            lab.ingest_rejected,
        );
        scalar(
            "rsls_lab_queries_total",
            "counter",
            "SQL queries executed against warehouse views.",
            lab.queries,
        );

        type ShardField = fn(&ShardCounters) -> &AtomicU64;
        let shard_families: [(&str, &str, &str, ShardField); 3] = [
            (
                "rsls_serve_shard_queue_depth",
                "gauge",
                "Jobs waiting, by campaign shard.",
                |s| &s.queue_depth,
            ),
            (
                "rsls_serve_shard_coalesced_total",
                "counter",
                "Coalesced submissions, by campaign shard.",
                |s| &s.coalesced,
            ),
            (
                "rsls_serve_shard_computations_total",
                "counter",
                "Harness-invoking jobs, by campaign shard.",
                |s| &s.computed,
            ),
        ];
        for (name, kind, help, field) in shard_families {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} {kind}");
            for (k, slot) in self.shards.iter().enumerate() {
                let value = field(slot).load(Ordering::Relaxed);
                let _ = writeln!(out, "{name}{{shard=\"{k}\"}} {value}");
            }
        }

        // Per-scheme campaign mix. Every registered scheme label is
        // pre-seeded at 0 so dashboards can alert on a scheme that
        // *stopped* appearing, not just count the ones that did.
        let _ = writeln!(
            out,
            "# HELP rsls_campaign_scheme_units_total Units submitted, by recovery-scheme label."
        );
        let _ = writeln!(out, "# TYPE rsls_campaign_scheme_units_total counter");
        let mut scheme_units: std::collections::BTreeMap<&str, u64> =
            rsls_core::Scheme::KNOWN_LABELS
                .iter()
                .map(|&l| (l, 0))
                .collect();
        for (label, n) in &campaign.scheme_units {
            *scheme_units.entry(label.as_str()).or_insert(0) += n;
        }
        for (label, n) in &scheme_units {
            let _ = writeln!(
                out,
                "rsls_campaign_scheme_units_total{{scheme=\"{label}\"}} {n}"
            );
        }

        let _ = writeln!(
            out,
            "# HELP rsls_serve_requests_total Requests served, by route and status."
        );
        let _ = writeln!(out, "# TYPE rsls_serve_requests_total counter");
        let requests = self
            .requests
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        for ((route, status), count) in &requests {
            let _ = writeln!(
                out,
                "rsls_serve_requests_total{{route=\"{route}\",status=\"{status}\"}} {count}"
            );
        }

        render_histogram(
            &mut out,
            "rsls_serve_request_duration_seconds",
            "Request latency.",
            &self.latency,
        );
        render_histogram(
            &mut out,
            "rsls_lab_query_seconds",
            "Warehouse query/compare latency (load + execute + serialize).",
            &self.lab_latency,
        );
        out
    }
}

/// Appends one histogram family: cumulative `le` buckets, `+Inf`,
/// `_sum` (seconds) and `_count`.
fn render_histogram(out: &mut String, name: &str, help: &str, h: &Histogram) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} histogram");
    for (bound, counter) in BUCKETS.iter().zip(&h.buckets) {
        let _ = writeln!(
            out,
            "{name}_bucket{{le=\"{bound}\"}} {}",
            counter.load(Ordering::Relaxed)
        );
    }
    let count = h.count.load(Ordering::Relaxed);
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {count}");
    let _ = writeln!(
        out,
        "{name}_sum {}",
        h.sum_micros.load(Ordering::Relaxed) as f64 / 1e6
    );
    let _ = writeln!(out, "{name}_count {count}");
}

/// Saturating add of a possibly negative delta to a `u64` gauge.
fn gauge_add(gauge: &AtomicU64, delta: i64) {
    if delta >= 0 {
        gauge.fetch_add(delta as u64, Ordering::Relaxed);
    } else {
        let dec = delta.unsigned_abs();
        let mut current = gauge.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_sub(dec);
            match gauge.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => break,
                Err(seen) => current = seen,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_every_family_and_is_ordered() {
        let m = Metrics::new();
        m.observe_request("healthz", 200, Duration::from_millis(2));
        m.observe_request("experiment", 200, Duration::from_millis(50));
        m.observe_request("experiment", 503, Duration::from_micros(300));
        m.result_cache_hit();
        m.job_computed_on(0);
        m.queue_depth_add_on(0, 3);
        m.queue_depth_add_on(0, -1);
        let summary = CampaignSummary {
            total: 7,
            executed: 4,
            cache_hits: 3,
            failed: 0,
            coalesced: 2,
            retries: 5,
            degraded: 1,
            corrupt_detected: 2,
            quarantined: 2,
            circuits_open: 1,
            unit_wall_s: 1.5,
            scheme_units: [("FF".to_string(), 4), ("CR-LC".to_string(), 3)]
                .into_iter()
                .collect(),
        };
        let artifacts = ArtifactCounters {
            sparse_hits: 9,
            sparse_misses: 4,
            sparse_entries: 4,
            workload_hits: 6,
            workload_misses: 2,
            fingerprint_hits: 5,
            fingerprint_misses: 2,
        };
        let lab = LabCounters {
            ingested_objects: 12,
            ingest_rejected: 3,
            queries: 8,
        };
        m.observe_lab_query(Duration::from_millis(10));
        let text = m.render(&summary, 1, &artifacts, &lab);
        assert!(text.contains("rsls_serve_requests_total{route=\"experiment\",status=\"200\"} 1"));
        assert!(text.contains("rsls_serve_requests_total{route=\"experiment\",status=\"503\"} 1"));
        assert!(text.contains("rsls_serve_result_cache_hits_total 1"));
        assert!(text.contains("rsls_serve_computations_total 1"));
        assert!(text.contains("rsls_serve_queue_depth 2"));
        assert!(text.contains("rsls_campaign_units_total 7"));
        assert!(text.contains("rsls_campaign_coalesced_total 2"));
        assert!(text.contains("rsls_campaign_coalesce_waiters 1"));
        assert!(text.contains("rsls_campaign_unit_retries_total 5"));
        assert!(text.contains("rsls_campaign_units_degraded_total 1"));
        assert!(text.contains("rsls_campaign_cache_corrupt_detected_total 2"));
        assert!(text.contains("rsls_campaign_cache_quarantined_total 2"));
        assert!(text.contains("rsls_campaign_circuit_state 1"));
        assert!(text.contains("rsls_campaign_scheme_units_total{scheme=\"FF\"} 4"));
        assert!(text.contains("rsls_campaign_scheme_units_total{scheme=\"CR-LC\"} 3"));
        // Registered-but-unseen schemes are pre-seeded at zero.
        assert!(text.contains("rsls_campaign_scheme_units_total{scheme=\"ABFT-CR\"} 0"));
        assert!(text.contains("rsls_campaign_scheme_units_total{scheme=\"MNF\"} 0"));
        assert!(text.contains("rsls_serve_client_retries_total"));
        assert!(text.contains("rsls_artifact_sparse_cache_hits_total 9"));
        assert!(text.contains("rsls_artifact_sparse_cache_misses_total 4"));
        assert!(text.contains("rsls_artifact_sparse_cache_entries 4"));
        assert!(text.contains("rsls_artifact_workload_hits_total 6"));
        assert!(text.contains("rsls_artifact_workload_misses_total 2"));
        assert!(text.contains("rsls_artifact_fingerprint_hits_total 5"));
        assert!(text.contains("rsls_artifact_fingerprint_misses_total 2"));
        assert!(text.contains("rsls_serve_request_duration_seconds_count 3"));
        assert!(text.contains("rsls_lab_ingested_objects_total 12"));
        assert!(text.contains("rsls_lab_ingest_rejected_total 3"));
        assert!(text.contains("rsls_lab_queries_total 8"));
        assert!(text.contains("rsls_lab_query_seconds_count 1"));
        assert!(text.contains("rsls_lab_query_seconds_bucket{le=\"+Inf\"} 1"));
        // Deterministic label order: BTreeMap keys render sorted.
        let experiment = text
            .find("route=\"experiment\",status=\"200\"")
            .expect("series present");
        let experiment_503 = text
            .find("route=\"experiment\",status=\"503\"")
            .expect("series present");
        assert!(experiment < experiment_503);
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let m = Metrics::new();
        m.observe_request("x", 200, Duration::from_micros(500)); // ≤ 0.001
        m.observe_request("x", 200, Duration::from_millis(40)); // ≤ 0.1
        let text = m.render(
            &CampaignSummary::default(),
            0,
            &ArtifactCounters::default(),
            &LabCounters::default(),
        );
        assert!(text.contains("bucket{le=\"0.001\"} 1"));
        assert!(text.contains("bucket{le=\"0.1\"} 2"));
        assert!(text.contains("bucket{le=\"+Inf\"} 2"));
    }

    #[test]
    fn shard_slices_and_connection_families_render() {
        let m = Metrics::with_shards(2);
        assert_eq!(m.shard_count(), 2);
        m.job_coalesced_on(1);
        m.job_computed_on(1);
        m.queue_depth_add_on(1, 2);
        m.connection_opened();
        m.connection_gauge_add(1);
        m.keepalive_reuse();
        let text = m.render(
            &CampaignSummary::default(),
            0,
            &ArtifactCounters::default(),
            &LabCounters::default(),
        );
        assert!(text.contains("rsls_serve_shard_queue_depth{shard=\"0\"} 0"));
        assert!(text.contains("rsls_serve_shard_queue_depth{shard=\"1\"} 2"));
        assert!(text.contains("rsls_serve_shard_coalesced_total{shard=\"1\"} 1"));
        assert!(text.contains("rsls_serve_shard_computations_total{shard=\"1\"} 1"));
        assert!(text.contains("rsls_serve_connections_active 1"));
        assert!(text.contains("rsls_serve_connections_total 1"));
        assert!(text.contains("rsls_serve_keepalive_reuses_total 1"));
        // The shard slices roll up into the process-wide families.
        assert!(text.contains("rsls_serve_coalesced_total 1"));
        assert!(text.contains("rsls_serve_computations_total 1"));
        assert!(text.contains("rsls_serve_queue_depth 2"));
        assert_eq!(m.shard_coalesced_total(1), 1);
        assert_eq!(m.shard_coalesced_total(0), 0);
        assert_eq!(m.connections_active(), 1);
        assert_eq!(m.keepalive_reuses_total(), 1);
    }

    #[test]
    fn gauge_never_underflows() {
        let m = Metrics::new();
        m.workers_busy_add(-5);
        let text = m.render(
            &CampaignSummary::default(),
            0,
            &ArtifactCounters::default(),
            &LabCounters::default(),
        );
        assert!(text.contains("rsls_serve_workers_busy 0"));
    }
}
