//! Byte-level pin of the `/metrics` exposition.
//!
//! The unit tests in `src/metrics.rs` only `contains`-check a few dozen
//! lines; this renders a fully populated two-shard registry and
//! compares it to `golden/metrics.txt` byte for byte, so a refactor of
//! the renderer cannot reorder a family, reword a HELP line or change a
//! number format unnoticed. It lives in its own test binary because
//! `rsls_serve_client_retries_total` is a process-wide counter.

use std::time::Duration;

use rsls_campaign::CampaignSummary;
use rsls_serve::client::{get_with_retry, RetryPolicy};
use rsls_serve::metrics::{ArtifactCounters, LabCounters, Metrics};

#[test]
fn populated_two_shard_exposition_matches_the_golden_file() {
    let m = Metrics::with_shards(2);
    m.observe_request("healthz", 200, Duration::from_micros(400));
    m.observe_request("healthz", 200, Duration::from_millis(3));
    m.observe_request("experiment", 200, Duration::from_millis(50));
    m.observe_request("experiment", 503, Duration::from_micros(300));
    m.observe_request("query", 400, Duration::from_millis(700));
    m.observe_request("report", 304, Duration::from_secs(3));
    m.observe_request("timeout", 408, Duration::from_secs(75));
    m.observe_lab_query(Duration::from_millis(10));
    m.observe_lab_query(Duration::from_millis(250));
    for _ in 0..3 {
        m.result_cache_hit();
    }
    m.result_cache_miss();
    m.result_cache_miss();
    for _ in 0..4 {
        m.query_cache_hit();
    }
    m.query_cache_miss();
    for _ in 0..5 {
        m.report_cache_hit();
    }
    m.report_cache_miss();
    m.queue_rejected();
    m.request_panicked();
    for _ in 0..4 {
        m.connection_opened();
        m.connection_gauge_add(1);
    }
    m.connection_gauge_add(-1);
    for _ in 0..7 {
        m.keepalive_reuse();
    }
    m.job_computed_on(0);
    m.job_computed_on(1);
    m.job_computed_on(1);
    m.job_coalesced_on(0);
    m.job_coalesced_on(0);
    m.job_coalesced_on(1);
    m.queue_depth_add_on(0, 3);
    m.queue_depth_add_on(0, -1);
    m.queue_depth_add_on(1, 5);
    m.workers_busy_add(2);

    // Two re-attempts against a refusing port: the only way to move the
    // process-wide client-retry counter.
    let policy = RetryPolicy {
        attempts: 3,
        backoff_ms: 1,
        backoff_cap_ms: 2,
        deadline: Duration::from_secs(5),
    };
    get_with_retry("127.0.0.1:1", "/healthz", &[], &policy).expect_err("port 1 refuses");

    let summary = CampaignSummary {
        total: 17,
        executed: 9,
        cache_hits: 6,
        failed: 1,
        degraded: 1,
        coalesced: 2,
        retries: 5,
        corrupt_detected: 3,
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

    let actual = m.render(&summary, 2, &artifacts, &lab);
    let golden = include_str!("golden/metrics.txt");
    if actual != golden {
        let dump = std::env::temp_dir().join("rsls-metrics-golden.actual.txt");
        let _ = std::fs::write(&dump, &actual);
        panic!(
            "/metrics exposition drifted from tests/golden/metrics.txt; actual bytes written to {}",
            dump.display()
        );
    }
}
