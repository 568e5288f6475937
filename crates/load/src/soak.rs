//! The soak campaign: many persistent connections replaying a
//! seed-deterministic request mix against a running server.
//!
//! Each connection index gets its own RNG stream split from the run
//! seed, so the request sequence per connection is a pure function of
//! `(seed, connection, corpus)` — rerunning with the same seed replays
//! the same traffic byte-for-byte. Workers fan out over the vendored
//! rayon pool with an order-preserving merge, keeping the aggregated
//! report deterministic too (histograms merge commutatively; counters
//! merge in index order).

use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rsls_chaos::ChaosInjector;
use rsls_serve::client::{ClientResponse, Conn};

use crate::histogram::LatencyHistogram;
use crate::mix::{MixWeights, PlannedRequest, RequestClass, RequestPlanner, Rng};

/// Reconnect attempts per request before declaring a protocol error.
const CONNECT_ATTEMPTS: usize = 4;
/// Retries when the server sheds load with `503`.
const RETRY_503: usize = 3;
/// Cap on honoring `Retry-After` so a soak never stalls for seconds.
const RETRY_AFTER_CAP: Duration = Duration::from_millis(100);

/// Soak configuration.
#[derive(Debug, Clone)]
pub struct SoakOptions {
    /// Server address.
    pub addr: SocketAddr,
    /// Total requests across all connections.
    pub requests: u64,
    /// Persistent connections (one deterministic stream each).
    pub connections: usize,
    /// Run seed; same seed → same per-connection request sequence.
    pub seed: u64,
    /// When set, pace each connection so the fleet targets this many
    /// requests per second (paced closed loop: a connection never has
    /// more than one request outstanding, but sleeps to hold the rate).
    pub open_loop_rps: Option<u64>,
    /// When > 1, health-probe draws are issued as pipelined bursts of
    /// this depth, exercising the server's pipelining path.
    pub pipeline_depth: usize,
    /// Request-class mix.
    pub weights: MixWeights,
    /// Client-side fault plan (fires the `client-reset` I/O site).
    pub chaos: Option<Arc<ChaosInjector>>,
}

impl Default for SoakOptions {
    fn default() -> Self {
        SoakOptions {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            requests: 100_000,
            connections: 8,
            seed: 1,
            open_loop_rps: None,
            pipeline_depth: 1,
            weights: MixWeights::default(),
            chaos: None,
        }
    }
}

/// Everything a finished soak learned.
#[derive(Debug)]
pub struct SoakOutcome {
    /// Requests completed.
    pub requests: u64,
    /// Persistent connections driven.
    pub connections: usize,
    /// Framing/transport violations observed — zero on a correct server.
    pub protocol_errors: u64,
    /// Sustained throughput, requests per second.
    pub throughput_rps: f64,
    /// Requests per traffic class.
    pub class_counts: BTreeMap<&'static str, u64>,
    /// Responses per status code.
    pub status_counts: BTreeMap<u16, u64>,
    /// Connections re-established mid-run (4xx closes, chaos resets).
    pub reconnects: u64,
    /// Requests that retried through at least one `503`.
    pub retried_503: u64,
    /// The merged latency histogram.
    pub histogram: LatencyHistogram,
}

/// Per-worker tallies, merged in connection-index order.
struct WorkerStats {
    hist: LatencyHistogram,
    class_counts: BTreeMap<&'static str, u64>,
    status_counts: BTreeMap<u16, u64>,
    requests: u64,
    /// Successful connection opens; everything past the first is a
    /// reconnect (4xx close, server teardown, chaos reset).
    opens: u64,
    retried_503: u64,
    protocol_errors: u64,
}

impl WorkerStats {
    fn new() -> WorkerStats {
        WorkerStats {
            hist: LatencyHistogram::new(),
            class_counts: BTreeMap::new(),
            status_counts: BTreeMap::new(),
            requests: 0,
            opens: 0,
            retried_503: 0,
            protocol_errors: 0,
        }
    }
}

/// Fetches the `/experiments` listing once and extracts the ids, so
/// every worker plans against the same sorted corpus.
///
/// Discovery is the soak's precondition, not a counted request: there
/// is no `protocol_errors` tally to absorb a failure here, so it must
/// outlast an armed fault plan. `client-reset` is the only site on this
/// path and a bounded plan fires it at most `max_faults_per_site`
/// times, so that many attempts are granted on top of the usual
/// [`CONNECT_ATTEMPTS`] — which remain for faults the plan does not
/// own (a server still booting, or tearing connections down under its
/// own chaos plan).
pub fn discover_experiments(
    addr: SocketAddr,
    chaos: Option<&Arc<ChaosInjector>>,
) -> io::Result<Vec<String>> {
    let fault_budget = chaos.map_or(0, |c| c.plan().max_faults_per_site) as usize;
    let mut last_err = None;
    for attempt in 0..CONNECT_ATTEMPTS + fault_budget {
        match discover_once(addr, chaos) {
            Ok(ids) => return Ok(ids),
            Err(e) => {
                last_err = Some(e);
                std::thread::sleep(Duration::from_millis(1 + attempt as u64));
            }
        }
    }
    Err(last_err.unwrap_or_else(|| io::Error::other("discovery never ran")))
}

/// One discovery attempt (chaos resets make the retry loop above earn
/// its keep).
fn discover_once(addr: SocketAddr, chaos: Option<&Arc<ChaosInjector>>) -> io::Result<Vec<String>> {
    let mut conn = Conn::connect(addr, chaos.map(Arc::as_ref))?;
    let resp = conn.request::<&str>("/experiments", &[])?;
    if resp.status != 200 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("listing returned {}", resp.status),
        ));
    }
    let body = String::from_utf8_lossy(&resp.body).into_owned();
    Ok(parse_listing_ids(&body))
}

/// Pulls `"id":"…"` values out of the listing JSON. The listing is
/// produced by our own canonical serializer, so a targeted scan is
/// exact without needing a general JSON deserializer.
fn parse_listing_ids(body: &str) -> Vec<String> {
    let mut ids = Vec::new();
    let mut rest = body;
    while let Some(at) = rest.find("\"id\":\"") {
        let tail = &rest[at + 6..];
        match tail.find('"') {
            Some(end) => {
                ids.push(tail[..end].to_string());
                rest = &tail[end..];
            }
            None => break,
        }
    }
    ids.sort();
    ids.dedup();
    ids
}

/// Runs the soak to completion and aggregates the outcome.
///
/// Transport failures that survive [`CONNECT_ATTEMPTS`] reconnects, and
/// any `5xx` other than a well-formed `503`, count as protocol errors —
/// the quantity the soak pins at exactly zero. Plain `4xx`
/// responses are expected traffic (miss storms exist to generate them)
/// and only show up in `status_counts`.
#[expect(
    clippy::disallowed_methods,
    reason = "the soak measures wall-clock throughput by design"
)]
pub fn run_soak(opts: &SoakOptions) -> io::Result<SoakOutcome> {
    let connections = opts.connections.max(1);
    let corpus = discover_experiments(opts.addr, opts.chaos.as_ref())?;
    let interval = opts.open_loop_rps.filter(|&rps| rps > 0).map(|rps| {
        Duration::from_micros((connections as u64).saturating_mul(1_000_000) / rps.max(1))
    });

    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(connections)
        .build()
        .map_err(|e| io::Error::other(format!("thread pool: {e}")))?;

    let started = Instant::now();
    let per_worker: Vec<WorkerStats> = pool.install(|| {
        rayon::run_indexed(connections, |w| {
            let share = opts.requests / connections as u64
                + u64::from((w as u64) < opts.requests % connections as u64);
            run_connection(opts, &corpus, w as u64, share, interval)
        })
    });
    let elapsed = started.elapsed();

    let mut stats = WorkerStats::new();
    let mut reconnects = 0u64;
    for ws in &per_worker {
        stats.hist.merge(&ws.hist);
        for (k, v) in &ws.class_counts {
            *stats.class_counts.entry(k).or_default() += v;
        }
        for (k, v) in &ws.status_counts {
            *stats.status_counts.entry(*k).or_default() += v;
        }
        stats.requests += ws.requests;
        reconnects += ws.opens.saturating_sub(1);
        stats.retried_503 += ws.retried_503;
        stats.protocol_errors += ws.protocol_errors;
    }

    Ok(SoakOutcome {
        requests: stats.requests,
        connections,
        protocol_errors: stats.protocol_errors,
        throughput_rps: stats.requests as f64 / elapsed.as_secs_f64().max(1e-9),
        class_counts: stats.class_counts,
        status_counts: stats.status_counts,
        reconnects,
        retried_503: stats.retried_503,
        histogram: stats.hist,
    })
}

/// Drives one connection worker: `share` requests from RNG stream `w`.
#[expect(
    clippy::disallowed_methods,
    reason = "open-loop pacing is against the wall clock"
)]
fn run_connection(
    opts: &SoakOptions,
    corpus: &[String],
    w: u64,
    share: u64,
    interval: Option<Duration>,
) -> WorkerStats {
    let mut stats = WorkerStats::new();
    let mut rng = Rng::split(opts.seed, w);
    let mut planner = RequestPlanner::new(opts.weights, corpus.to_vec());
    let mut conn: Option<Conn> = None;
    let started = Instant::now();

    while stats.requests < share {
        if let Some(interval) = interval {
            let due = interval.saturating_mul(stats.requests as u32);
            let now = started.elapsed();
            if now < due {
                std::thread::sleep(due - now);
            }
        }

        let planned = planner.next_request(&mut rng);
        let remaining = share - stats.requests;
        if planned.class == RequestClass::Health && opts.pipeline_depth > 1 && remaining > 1 {
            let depth = (opts.pipeline_depth as u64).min(remaining) as usize;
            issue_pipelined_health(opts, &mut conn, depth, &mut stats);
        } else {
            issue_one(opts, &mut conn, &planned, &mut planner, &mut stats);
        }
    }
    stats
}

/// Issues one request with reconnect and `503` retries, recording its
/// round-trip latency (reconnect time included — that is what a real
/// client pays).
#[expect(
    clippy::disallowed_methods,
    reason = "the soak measures wall-clock latency by design"
)]
fn issue_one(
    opts: &SoakOptions,
    conn: &mut Option<Conn>,
    planned: &PlannedRequest,
    planner: &mut RequestPlanner,
    stats: &mut WorkerStats,
) {
    let start = Instant::now();
    let mut shed_retries = 0usize;
    loop {
        let resp = match fetch_once(opts, conn, &planned.path, &planned.headers, stats) {
            Ok(resp) => resp,
            Err(_) => {
                stats.requests += 1;
                stats.protocol_errors += 1;
                *stats.class_counts.entry(planned.class.label()).or_default() += 1;
                return;
            }
        };
        if resp.status == 503 && shed_retries < RETRY_503 {
            shed_retries += 1;
            let wait = resp.retry_after_s().map_or(RETRY_AFTER_CAP, |s| {
                Duration::from_secs(s).min(RETRY_AFTER_CAP)
            });
            std::thread::sleep(wait);
            continue;
        }
        record_response(planned.class, &resp, start.elapsed(), stats);
        if shed_retries > 0 {
            stats.retried_503 += 1;
        }
        if let Some(etag) = resp.etag() {
            planner.learn_etag(etag);
        }
        if resp.wants_close() || resp.status >= 400 {
            *conn = None;
        }
        return;
    }
}

/// Issues a pipelined burst of health probes, all written before any
/// response is read; responses must come back in order.
#[expect(
    clippy::disallowed_methods,
    reason = "the soak measures wall-clock latency by design"
)]
fn issue_pipelined_health(
    opts: &SoakOptions,
    conn: &mut Option<Conn>,
    depth: usize,
    stats: &mut WorkerStats,
) {
    let reqs: Vec<(String, Vec<(String, String)>)> = (0..depth)
        .map(|_| ("/healthz".to_string(), Vec::new()))
        .collect();
    let start = Instant::now();
    let responses = (|| -> io::Result<Vec<ClientResponse>> {
        if conn.is_none() {
            *conn = Some(connect_with_retry(opts, stats)?);
        }
        match conn.as_mut() {
            Some(c) => c.pipeline(&reqs),
            None => Err(io::Error::new(io::ErrorKind::NotConnected, "no connection")),
        }
    })();
    match responses {
        Ok(responses) => {
            let elapsed = start.elapsed();
            for resp in &responses {
                record_response(RequestClass::Health, resp, elapsed, stats);
                if resp.wants_close() || resp.status >= 400 {
                    *conn = None;
                }
            }
        }
        Err(_) => {
            // The whole burst is unaccounted for; charge every slot.
            *conn = None;
            stats.requests += depth as u64;
            stats.protocol_errors += depth as u64;
            *stats
                .class_counts
                .entry(RequestClass::Health.label())
                .or_default() += depth as u64;
        }
    }
}

/// One transport attempt with reconnect-on-failure; errors only after
/// [`CONNECT_ATTEMPTS`] consecutive failures.
fn fetch_once(
    opts: &SoakOptions,
    conn: &mut Option<Conn>,
    path: &str,
    headers: &[(String, String)],
    stats: &mut WorkerStats,
) -> io::Result<ClientResponse> {
    let mut last_err = None;
    for _ in 0..CONNECT_ATTEMPTS {
        if conn.is_none() {
            match connect_with_retry(opts, stats) {
                Ok(c) => *conn = Some(c),
                Err(e) => {
                    last_err = Some(e);
                    continue;
                }
            }
        }
        if let Some(c) = conn.as_mut() {
            match c.request(path, headers) {
                Ok(resp) => return Ok(resp),
                Err(e) => {
                    // Dead connection (server closed after a 4xx, or a
                    // chaos reset): drop it and try a fresh one.
                    *conn = None;
                    last_err = Some(e);
                }
            }
        }
    }
    Err(last_err.unwrap_or_else(|| io::Error::other("no attempt made")))
}

/// Connects with a short bounded retry (chaos resets are expected).
fn connect_with_retry(opts: &SoakOptions, stats: &mut WorkerStats) -> io::Result<Conn> {
    let mut last_err = None;
    for attempt in 0..CONNECT_ATTEMPTS {
        match Conn::connect(opts.addr, opts.chaos.as_deref()) {
            Ok(conn) => {
                stats.opens += 1;
                return Ok(conn);
            }
            Err(e) => {
                last_err = Some(e);
                std::thread::sleep(Duration::from_millis(1 + attempt as u64));
            }
        }
    }
    Err(last_err.unwrap_or_else(|| io::Error::other("connect never ran")))
}

/// Tallies one completed response.
fn record_response(
    class: RequestClass,
    resp: &ClientResponse,
    elapsed: Duration,
    stats: &mut WorkerStats,
) {
    stats.requests += 1;
    stats
        .hist
        .record_us(elapsed.as_micros().min(u128::from(u64::MAX)) as u64);
    *stats.class_counts.entry(class.label()).or_default() += 1;
    *stats.status_counts.entry(resp.status).or_default() += 1;
    if resp.status >= 500 && resp.status != 503 {
        stats.protocol_errors += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listing_ids_parse_sorted_and_deduped() {
        let body = r#"[{"id":"zeta","description":"z"},{"id":"alpha","description":"a"},{"id":"alpha","description":"dup"}]"#;
        assert_eq!(parse_listing_ids(body), vec!["alpha", "zeta"]);
        assert!(parse_listing_ids("[]").is_empty());
    }

    #[test]
    fn request_shares_cover_the_total_exactly() {
        let requests = 100_003u64;
        let connections = 8u64;
        let total: u64 = (0..connections)
            .map(|w| requests / connections + u64::from(w < requests % connections))
            .sum();
        assert_eq!(total, requests);
    }

    #[test]
    fn default_options_are_sane() {
        let opts = SoakOptions::default();
        assert_eq!(opts.requests, 100_000);
        assert!(opts.connections >= 1);
        assert_eq!(opts.pipeline_depth, 1);
        assert!(opts.chaos.is_none());
    }
}
