//! End-to-end tests over real sockets.
//!
//! One process, one process-global campaign engine: `engine_init` wires
//! it to a temp cache before any test touches it. Servers bind `:0`
//! ephemeral ports so tests run in parallel without address clashes.
//! Coalescing and overload tests use a *gated* experiment source — the
//! harness blocks on a channel until the test releases it — so "two
//! requests are concurrently in flight" is a guaranteed state, not a
//! race the test hopes to win.

#![expect(
    clippy::disallowed_methods,
    reason = "tests run servers on their own threads and bound waits with wall-clock deadlines"
)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, Once};
use std::time::{Duration, Instant};

use rsls_campaign::EngineOptions;
use rsls_chaos::{ChaosInjector, ChaosPlan};
use rsls_experiments::campaign;
use rsls_experiments::{Scale, Table};
use rsls_serve::client::{
    client_retries_total, get, get_with_retry, get_with_retry_chaotic, ClientResponse, RetryPolicy,
};
use rsls_serve::server::{
    ExperimentInfo, ExperimentSource, RegistrySource, ServeOptions, Server, ServerHandle,
};

fn engine_init() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        let dir = std::env::temp_dir().join(format!("rsls-serve-it-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        campaign::configure(EngineOptions {
            jobs: 2,
            cache_dir: dir.join("cache"),
            use_cache: true,
            resume: false,
            journal_path: Some(dir.join("campaign.journal")),
            retries: 0,
            ..EngineOptions::default()
        })
        .expect("first configure in this process");
    });
}

/// Binds an ephemeral-port server and runs it on a background thread.
fn serve(
    opts: ServeOptions,
    source: Arc<dyn ExperimentSource>,
) -> (ServerHandle, std::thread::JoinHandle<std::io::Result<()>>) {
    engine_init();
    let server = Server::bind("127.0.0.1:0", opts, source).expect("bind ephemeral port");
    let handle = server.handle().expect("handle");
    let join = std::thread::spawn(move || server.run());
    (handle, join)
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A source whose `gated-*` experiments block until released, with a
/// shared invocation counter; `boom` panics.
struct GatedSource {
    runs: AtomicUsize,
    entered_tx: Mutex<mpsc::Sender<()>>,
    release_rx: Mutex<mpsc::Receiver<()>>,
}

impl GatedSource {
    fn new() -> (Arc<GatedSource>, mpsc::Receiver<()>, mpsc::Sender<()>) {
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let source = Arc::new(GatedSource {
            runs: AtomicUsize::new(0),
            entered_tx: Mutex::new(entered_tx),
            release_rx: Mutex::new(release_rx),
        });
        (source, entered_rx, release_tx)
    }
}

impl ExperimentSource for GatedSource {
    fn list(&self) -> Vec<ExperimentInfo> {
        ["gated-a", "gated-b", "gated-c", "boom"]
            .iter()
            .map(|id| ExperimentInfo {
                id: id.to_string(),
                description: "test source".to_string(),
            })
            .collect()
    }

    fn run(&self, id: &str, _scale: Scale) -> Option<Vec<Table>> {
        match id {
            "boom" => panic!("harness exploded"),
            gated if gated.starts_with("gated-") => {
                self.runs.fetch_add(1, Ordering::SeqCst);
                self.entered_tx.lock().unwrap().send(()).ok();
                self.release_rx
                    .lock()
                    .unwrap()
                    .recv_timeout(Duration::from_secs(30))
                    .expect("test releases the gate");
                let mut t = Table::new(format!("{id} result"), &["k", "v"]);
                t.push_row(vec![id.to_string(), "1".to_string()]);
                Some(vec![t])
            }
            _ => None,
        }
    }
}

fn metric_value(metrics_body: &str, series: &str) -> Option<f64> {
    metrics_body.lines().find_map(|line| {
        line.strip_prefix(series)
            .and_then(|rest| rest.trim().parse::<f64>().ok())
    })
}

#[test]
fn concurrent_identical_requests_coalesce_onto_one_computation() {
    let (source, entered_rx, release_tx) = GatedSource::new();
    let (handle, join) = serve(
        ServeOptions {
            workers: 2,
            queue_depth: 8,
            ..ServeOptions::default()
        },
        source.clone(),
    );
    let addr = handle.addr();

    // Two concurrent requests for the same experiment.
    let fetch = |addr| std::thread::spawn(move || get(addr, "/experiments/gated-a", &[]));
    let first = fetch(addr);
    let second = fetch(addr);

    // The harness is running exactly once (gate entered), and the
    // duplicate has coalesced at the queue — observable via metrics
    // before any release.
    entered_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("leader enters the harness");
    let metrics = handle.metrics();
    wait_until("duplicate to coalesce", || metrics.coalesced_total() >= 1);
    assert_eq!(source.runs.load(Ordering::SeqCst), 1);
    release_tx.send(()).expect("release the leader");

    let a: ClientResponse = first.join().expect("no panic").expect("response");
    let b: ClientResponse = second.join().expect("no panic").expect("response");
    assert_eq!((a.status, b.status), (200, 200));
    assert_eq!(a.body, b.body, "coalesced responses must be byte-identical");
    assert_eq!(a.etag(), b.etag());
    assert_eq!(
        source.runs.load(Ordering::SeqCst),
        1,
        "one computation total"
    );

    // Conditional re-fetch revalidates to 304 with no body...
    let etag = a.etag().expect("etag present").to_string();
    let revalidated = get(
        addr,
        "/experiments/gated-a",
        &[("If-None-Match", &format!("\"{etag}\""))],
    )
    .expect("revalidate");
    assert_eq!(revalidated.status, 304);
    assert!(revalidated.body.is_empty());
    assert_eq!(revalidated.etag(), Some(etag.as_str()));

    // ...and an unconditional one serves from the result cache without
    // re-entering the harness (the gate would otherwise block forever).
    let again = get(addr, "/experiments/gated-a", &[]).expect("cached re-fetch");
    assert_eq!(again.status, 200);
    assert_eq!(again.body, a.body);
    assert_eq!(source.runs.load(Ordering::SeqCst), 1);

    // The whole story is visible on /metrics.
    let scrape = get(addr, "/metrics", &[]).expect("metrics");
    let text = String::from_utf8(scrape.body).expect("utf8");
    assert_eq!(
        metric_value(&text, "rsls_serve_computations_total "),
        Some(1.0)
    );
    assert_eq!(
        metric_value(&text, "rsls_serve_coalesced_total "),
        Some(1.0)
    );
    assert!(metric_value(&text, "rsls_serve_result_cache_hits_total ") >= Some(1.0));
    assert!(text.contains("rsls_serve_request_duration_seconds_bucket"));

    handle.shutdown();
    join.join().expect("no panic").expect("clean shutdown");
}

#[test]
fn full_queue_sheds_load_with_503_and_retry_after() {
    let (source, entered_rx, release_tx) = GatedSource::new();
    let (handle, join) = serve(
        ServeOptions {
            workers: 1,
            queue_depth: 1,
            ..ServeOptions::default()
        },
        source,
    );
    let addr = handle.addr();

    // Occupy the single worker...
    let busy = std::thread::spawn(move || get(addr, "/experiments/gated-a", &[]));
    entered_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("worker occupied");
    // ...fill the single queue slot with a *different* key...
    let queued = std::thread::spawn(move || get(addr, "/experiments/gated-b", &[]));
    let metrics = handle.metrics();
    wait_until("second job to queue", || metrics.queue_depth() == 1);

    // ...and watch the third distinct request get shed.
    let shed = get(addr, "/experiments/gated-c", &[]).expect("shed response");
    assert_eq!(shed.status, 503);
    assert_eq!(shed.header("retry-after"), Some("2"));

    // Drain: both accepted requests still complete.
    release_tx.send(()).expect("release first");
    release_tx.send(()).expect("release second");
    assert_eq!(
        busy.join().expect("no panic").expect("response").status,
        200
    );
    assert_eq!(
        queued.join().expect("no panic").expect("response").status,
        200
    );

    handle.shutdown();
    join.join().expect("no panic").expect("clean shutdown");
}

#[test]
fn panicking_harness_is_isolated_to_a_500() {
    let (source, _entered_rx, _release_tx) = GatedSource::new();
    let (handle, join) = serve(ServeOptions::default(), source);
    let addr = handle.addr();

    let resp = get(addr, "/experiments/boom", &[]).expect("response despite panic");
    assert_eq!(resp.status, 500);
    let body = String::from_utf8(resp.body).expect("utf8");
    assert!(body.contains("harness exploded"), "got: {body}");

    // The worker and the server both survived.
    let health = get(addr, "/healthz", &[]).expect("healthz");
    assert_eq!(health.status, 200);
    assert_eq!(health.body, b"{\"status\":\"ok\"}\n");

    handle.shutdown();
    join.join().expect("no panic").expect("clean shutdown");
}

#[test]
fn real_registry_serves_listing_and_fig1() {
    let (handle, join) = serve(ServeOptions::default(), Arc::new(RegistrySource));
    let addr = handle.addr();

    let listing = get(addr, "/experiments", &[]).expect("listing");
    assert_eq!(listing.status, 200);
    let text = String::from_utf8(listing.body).expect("utf8");
    assert!(text.contains(r#""id":"fig1""#));
    assert!(text.contains(r#""id":"table6""#));

    // fig1 is pure table arithmetic — no solver units — so it is fast
    // at any scale.
    let first = get(addr, "/experiments/fig1", &[]).expect("fig1");
    assert_eq!(first.status, 200);
    let etag = first.etag().expect("etag").to_string();
    assert_eq!(
        etag,
        rsls_core::sha256_hex(&first.body),
        "self-certifying ETag"
    );
    let body = String::from_utf8(first.body.clone()).expect("utf8");
    assert!(body.starts_with(r#"{"experiment":"fig1","scale":"#));

    let second = get(addr, "/experiments/fig1", &[]).expect("fig1 again");
    assert_eq!(second.body, first.body, "re-fetch is byte-identical");

    let missing = get(addr, "/experiments/nope", &[]).expect("404");
    assert_eq!(missing.status, 404);

    handle.shutdown();
    join.join().expect("no panic").expect("clean shutdown");
}

#[test]
fn reports_round_trip_from_the_content_addressed_store() {
    let (handle, join) = serve(ServeOptions::default(), Arc::new(RegistrySource));
    let addr = handle.addr();

    // Plant a report in the engine's object store the same way a
    // campaign would, then serve it back by content address.
    let report = rsls_core::RunReport {
        scheme: "FF".into(),
        num_ranks: 8,
        iterations: 120,
        converged: true,
        final_relative_residual: 3.25e-13,
        time_s: 1.5,
        energy_j: 300.0,
        avg_power_w: 200.0,
        faults_injected: 0,
        construction_fallbacks: 0,
        checkpoint_interval_iters: None,
        checkpoint_bytes_written: 0,
        breakdown: Default::default(),
        history: Default::default(),
        power_profile: Vec::new(),
    };
    let cache = campaign::engine().cache().expect("engine cache enabled");
    let spec_hash = "ab".repeat(32);
    let object_hash = cache.store(&spec_hash, &report).expect("store");

    let resp = get(addr, &format!("/reports/{object_hash}"), &[]).expect("report");
    assert_eq!(resp.status, 200);
    assert_eq!(
        rsls_core::sha256_hex(&resp.body),
        object_hash,
        "served bytes hash to their own path"
    );
    assert_eq!(resp.etag(), Some(object_hash.as_str()));

    // Conditional re-fetch needs no disk: the path is the hash.
    let revalidated = get(
        addr,
        &format!("/reports/{object_hash}"),
        &[("If-None-Match", &format!("\"{object_hash}\""))],
    )
    .expect("revalidate");
    assert_eq!(revalidated.status, 304);
    assert!(revalidated.body.is_empty());

    let missing = get(addr, &format!("/reports/{}", "0".repeat(64)), &[]).expect("miss");
    assert_eq!(missing.status, 404);
    let malformed = get(addr, "/reports/not-a-hash", &[]).expect("malformed");
    assert_eq!(malformed.status, 400);

    handle.shutdown();
    join.join().expect("no panic").expect("clean shutdown");
}

/// Minimal percent-encoding for test query strings.
fn urlencode(s: &str) -> String {
    let mut out = String::new();
    for b in s.bytes() {
        match b {
            b'a'..=b'z'
            | b'A'..=b'Z'
            | b'0'..=b'9'
            | b'-'
            | b'_'
            | b'.'
            | b'~'
            | b'('
            | b')'
            | b'*'
            | b',' => out.push(b as char),
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// The `rsls_lab_*` counters are process-wide: tests that read them (or
/// move them) take this lock so they do not see each other's ingests.
static LAB: Mutex<()> = Mutex::new(());

#[test]
fn lab_query_and_compare_routes_serve_etagged_canonical_json() {
    let _lab = LAB.lock().unwrap_or_else(|e| e.into_inner());
    let (handle, join) = serve(ServeOptions::default(), Arc::new(RegistrySource));
    let addr = handle.addr();

    // Populate the engine's store with a small two-scheme lineup the
    // warehouse routes can rank.
    use rsls_campaign::{UnitSpec, ENGINE_VERSION};
    let a = rsls_sparse::generators::stencil_2d(16, 16);
    let ones = vec![1.0; a.nrows()];
    let mut b = vec![0.0; a.nrows()];
    a.spmv(&ones, &mut b);
    let specs: Vec<UnitSpec> = [rsls_core::Scheme::FaultFree, rsls_core::Scheme::Dmr]
        .into_iter()
        .map(|scheme| UnitSpec {
            experiment: "lab-route".to_string(),
            unit: scheme.label(),
            matrix: "stencil-16".to_string(),
            matrix_fingerprint: 1,
            scale: "quick".to_string(),
            engine_version: ENGINE_VERSION,
            config: rsls_core::RunConfig::new(scheme, 2),
        })
        .collect();
    let outcomes =
        campaign::engine().run_units(&specs, |spec| rsls_core::driver::run(&a, &b, &spec.config));
    assert!(outcomes.iter().all(|o| o.report.is_some()));

    // Other tests in this process plant their own store objects, so
    // pin the query to this lineup's provenance.
    let sql = "SELECT scheme, avg(energy) FROM runs WHERE experiment = 'lab-route' \
               GROUP BY scheme ORDER BY avg(energy)";
    let path = format!("/query?sql={}", urlencode(sql));
    let first = get(addr, &path, &[]).expect("query");
    assert_eq!(
        first.status,
        200,
        "body: {}",
        String::from_utf8_lossy(&first.body)
    );
    let etag = first.etag().expect("etag present").to_string();
    assert_eq!(
        etag,
        rsls_core::sha256_hex(&first.body),
        "self-certifying ETag"
    );
    let body = String::from_utf8(first.body.clone()).expect("utf8");
    assert!(
        body.starts_with(r#"{"columns":["scheme","avg(energy)"],"rows":["#),
        "got: {body}"
    );
    assert!(
        body.contains("\"FF\"") && body.contains("\"RD\""),
        "got: {body}"
    );

    // Re-fetch is byte-identical; conditional re-fetch revalidates.
    let second = get(addr, &path, &[]).expect("query again");
    assert_eq!(second.body, first.body);
    let revalidated =
        get(addr, &path, &[("If-None-Match", &format!("\"{etag}\""))]).expect("revalidate");
    assert_eq!(revalidated.status, 304);
    assert!(revalidated.body.is_empty());

    // Caller errors are 400s: missing parameter, parse error, unknown
    // column (eval error).
    assert_eq!(get(addr, "/query", &[]).expect("no sql").status, 400);
    let bad = get(
        addr,
        &format!("/query?sql={}", urlencode("SELECT FROM")),
        &[],
    )
    .expect("bad sql");
    assert_eq!(bad.status, 400);
    assert!(String::from_utf8_lossy(&bad.body).contains("SQL error"));
    let eval = get(
        addr,
        &format!("/query?sql={}", urlencode("SELECT nope FROM runs")),
        &[],
    )
    .expect("eval error");
    assert_eq!(eval.status, 400);

    // /compare diffs two filtered slices; a slice against itself is
    // identical, and the report carries a valid ETag too.
    let same = urlencode("experiment = 'lab-route'");
    let compare = get(addr, &format!("/compare?a={same}&b={same}"), &[]).expect("compare");
    assert_eq!(compare.status, 200);
    let compare_etag = compare.etag().expect("etag").to_string();
    assert_eq!(compare_etag, rsls_core::sha256_hex(&compare.body));
    let text = String::from_utf8(compare.body).expect("utf8");
    assert!(text.contains(r#""identical":true"#), "got: {text}");
    let diff = get(
        addr,
        &format!(
            "/compare?a={}&b={}",
            urlencode("scheme = 'FF'"),
            urlencode("scheme = 'RD'")
        ),
        &[],
    )
    .expect("cross compare");
    assert_eq!(diff.status, 200);
    let text = String::from_utf8(diff.body).expect("utf8");
    assert!(text.contains(r#""identical":false"#), "got: {text}");
    assert_eq!(
        get(addr, "/compare?a=x", &[]).expect("missing b").status,
        400
    );

    // The lab metric families are on /metrics for CI to grep.
    let scrape = get(addr, "/metrics", &[]).expect("metrics");
    let text = String::from_utf8(scrape.body).expect("utf8");
    // The repeat and the revalidation above were memo hits (unless a
    // neighbouring test grew the shared store in between): only misses
    // execute a query.
    assert!(metric_value(&text, "rsls_lab_queries_total ") >= Some(1.0));
    let hits = metric_value(&text, "rsls_serve_query_cache_hits_total ").expect("family");
    let misses = metric_value(&text, "rsls_serve_query_cache_misses_total ").expect("family");
    assert_eq!(
        hits + misses,
        6.0,
        "every parsed /query and /compare probes"
    );
    assert!(
        misses >= 4.0,
        "first query, eval error and both compares miss"
    );
    assert!(metric_value(&text, "rsls_lab_ingested_objects_total ") >= Some(2.0));
    assert!(text.contains("rsls_lab_ingest_rejected_total "));
    assert!(text.contains("rsls_lab_query_seconds_bucket"));
    assert!(metric_value(&text, "rsls_lab_query_seconds_count ") >= Some(3.0));

    handle.shutdown();
    join.join().expect("no panic").expect("clean shutdown");
}

/// A unit the way a concurrent `rsls-run` leaves it: through a cache
/// handle of the writer's own, sidecar and all.
fn store_unit(writer: &rsls_campaign::ResultCache, tag: &str, iterations: usize) {
    let report = rsls_core::RunReport {
        scheme: "FF".into(),
        num_ranks: 4,
        iterations,
        converged: true,
        final_relative_residual: 2.5e-13,
        time_s: 0.5,
        energy_j: 75.0,
        avg_power_w: 150.0,
        faults_injected: 0,
        construction_fallbacks: 0,
        checkpoint_interval_iters: None,
        checkpoint_bytes_written: 0,
        breakdown: Default::default(),
        history: Default::default(),
        power_profile: Vec::new(),
    };
    let spec_hash = rsls_core::sha256_hex(tag.as_bytes());
    let report_hash = writer.store(&spec_hash, &report).expect("store");
    writer
        .store_provenance(&rsls_campaign::Provenance {
            spec_hash,
            report_hash,
            experiment: "snapshot".into(),
            unit: tag.into(),
            matrix: "m".into(),
            scale: "quick".into(),
            engine_version: rsls_campaign::ENGINE_VERSION,
            matrix_fingerprint: None,
            chaos_plan_hash: None,
        })
        .expect("sidecar");
}

#[test]
fn warehouse_answers_follow_a_store_grown_by_an_external_writer() {
    let _lab = LAB.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("rsls-serve-it-snapshot-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (handle, join) = serve(
        ServeOptions {
            shard_base: Some(EngineOptions {
                cache_dir: dir.join("cache"),
                use_cache: true,
                journal_path: Some(dir.join("campaign.journal")),
                ..EngineOptions::default()
            }),
            ..ServeOptions::default()
        },
        Arc::new(RegistrySource),
    );
    let addr = handle.addr();
    let writer = rsls_campaign::ResultCache::open(dir.join("cache")).expect("second handle");
    let path = format!(
        "/query?sql={}",
        urlencode("SELECT count(*), max(iterations) FROM runs")
    );
    let revalidate = |etag: &str| {
        get(addr, &path, &[("If-None-Match", &format!("\"{etag}\""))]).expect("revalidate")
    };
    let lab_counters = || {
        let scrape = get(addr, "/metrics", &[]).expect("metrics");
        let text = String::from_utf8(scrape.body).expect("utf8");
        let value = |series: &str| metric_value(&text, series).expect("family present");
        (
            value("rsls_lab_ingested_objects_total "),
            value("rsls_lab_query_seconds_count "),
            value("rsls_serve_query_cache_hits_total "),
        )
    };

    store_unit(&writer, "unit-a", 10);
    store_unit(&writer, "unit-b", 20);
    let first = get(addr, &path, &[]).expect("query");
    assert_eq!(first.status, 200);
    assert_eq!(
        first.body,
        br#"{"columns":["count(*)","max(iterations)"],"rows":[[2,20]]}"#
    );
    let old_etag = first.etag().expect("etag").to_string();
    assert_eq!(old_etag, rsls_core::sha256_hex(&first.body));

    // A repeat and a revalidation are memo hits: no object is read and
    // no query runs.
    let (ingested, executed, hits) = lab_counters();
    let again = get(addr, &path, &[]).expect("repeat");
    assert_eq!((again.status, &again.body), (200, &first.body));
    assert_eq!(lab_counters(), (ingested, executed, hits + 1.0));
    let not_modified = revalidate(&old_etag);
    assert_eq!((not_modified.status, not_modified.body.len()), (304, 0));
    assert_eq!(not_modified.etag(), Some(old_etag.as_str()));
    assert_eq!(lab_counters(), (ingested, executed, hits + 2.0));

    // The store grows behind the server's back; the next query has the
    // units, and exactly their objects were read.
    for (tag, iterations) in [("unit-c", 30), ("unit-d", 40), ("unit-e", 50)] {
        store_unit(&writer, tag, iterations);
    }
    let grown = get(addr, &path, &[]).expect("query after growth");
    assert_eq!(grown.status, 200);
    assert_eq!(
        grown.body,
        br#"{"columns":["count(*)","max(iterations)"],"rows":[[5,50]]}"#
    );
    let new_etag = grown.etag().expect("etag").to_string();
    assert_eq!(lab_counters(), (ingested + 3.0, executed + 1.0, hits + 2.0));

    // The old tag is stale now — a full 200 — and the new one current.
    let stale = revalidate(&old_etag);
    assert_eq!((stale.status, &stale.body), (200, &grown.body));
    assert_eq!(revalidate(&new_etag).status, 304);
    assert_eq!(lab_counters(), (ingested + 3.0, executed + 1.0, hits + 4.0));

    handle.shutdown();
    join.join().expect("no panic").expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rejects_unsupported_methods_and_bad_requests() {
    let (handle, join) = serve(ServeOptions::default(), Arc::new(RegistrySource));
    let addr = handle.addr();

    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"POST /experiments HTTP/1.1\r\nHost: a\r\n\r\n")
        .expect("write");
    let mut buf = String::new();
    stream.read_to_string(&mut buf).expect("read");
    assert!(buf.starts_with("HTTP/1.1 405 "), "got: {buf}");
    assert!(buf.contains("Allow: GET, HEAD"));

    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.write_all(b"garbage\r\n\r\n").expect("write");
    let mut buf = String::new();
    stream.read_to_string(&mut buf).expect("read");
    assert!(buf.starts_with("HTTP/1.1 400 "), "got: {buf}");

    handle.shutdown();
    join.join().expect("no panic").expect("clean shutdown");
}

#[test]
fn retrying_client_absorbs_injected_connection_faults() {
    let (handle, join) = serve(ServeOptions::default(), Arc::new(RegistrySource));
    let addr = handle.addr();

    // One reset, then one garbled status line, then a clean round trip:
    // the retry loop must absorb both injected faults transparently.
    let mut plan = ChaosPlan::quiet(21);
    plan.client_reset_permille = 1000;
    plan.client_garble_permille = 1000;
    plan.max_faults_per_site = 1;
    let injector = ChaosInjector::new(plan);
    let policy = RetryPolicy {
        attempts: 5,
        backoff_ms: 1,
        backoff_cap_ms: 4,
        deadline: Duration::from_secs(30),
    };
    let before = client_retries_total();
    let resp = get_with_retry_chaotic(addr, "/healthz", &[], &policy, Some(&injector))
        .expect("retries must defeat the chaos plan");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, b"{\"status\":\"ok\"}\n");
    assert_eq!(injector.fired(rsls_chaos::ChaosSite::ClientReset), 1);
    assert_eq!(injector.fired(rsls_chaos::ChaosSite::ClientGarble), 1);
    assert!(
        client_retries_total() - before >= 2,
        "both faults must cost a retry"
    );

    // The retry counter and the campaign resilience families are on
    // /metrics for CI to assert.
    let scrape = get(addr, "/metrics", &[]).expect("metrics");
    let text = String::from_utf8(scrape.body).expect("utf8");
    assert!(metric_value(&text, "rsls_serve_client_retries_total ") >= Some(2.0));
    assert!(text.contains("rsls_campaign_cache_quarantined_total "));
    assert!(text.contains("rsls_campaign_unit_retries_total "));
    assert!(text.contains("rsls_campaign_circuit_state "));
    assert!(text.contains("rsls_campaign_units_degraded_total "));

    handle.shutdown();
    join.join().expect("no panic").expect("clean shutdown");
}

#[test]
fn retrying_client_honors_retry_after_on_503() {
    // The second value is u64::MAX seconds: clamped like any other, not
    // multiplied into an overflow.
    for retry_after in ["7", "18446744073709551615"] {
        retry_after_is_waited_out_within_the_cap(retry_after);
    }
}

fn retry_after_is_waited_out_within_the_cap(retry_after: &str) {
    // A hand-rolled two-response server: first connection gets a 503
    // with Retry-After, the second gets a 200. No experiment source —
    // this isolates the client's overload behavior.
    use std::io::Write;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let shed = format!(
        "HTTP/1.1 503 Service Unavailable\r\nRetry-After: {retry_after}\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
    );
    let server = std::thread::spawn(move || {
        let responses: [&[u8]; 2] = [
            shed.as_bytes(),
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok",
        ];
        for response in responses {
            let (mut stream, _peer) = listener.accept().expect("accept");
            // Drain the full request head before answering: replying
            // mid-request and closing would RST the client's remaining
            // writes, turning this into a transport-error test instead.
            use std::io::Read;
            let mut head = Vec::new();
            let mut buf = [0u8; 1024];
            while !head.windows(4).any(|w| w == b"\r\n\r\n") {
                let n = stream.read(&mut buf).expect("read request");
                if n == 0 {
                    break;
                }
                head.extend_from_slice(&buf[..n]);
            }
            stream.write_all(response).expect("write");
        }
    });

    let policy = RetryPolicy {
        attempts: 3,
        backoff_ms: 1,
        // The server suggests seconds; the client must wait, but clamped
        // to its own cap so overload handling cannot stall a test suite.
        backoff_cap_ms: 60,
        deadline: Duration::from_secs(10),
    };
    let start = Instant::now();
    let resp = get_with_retry(addr, "/anything", &[], &policy).expect("eventual 200");
    let elapsed = start.elapsed();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, b"ok");
    assert!(
        elapsed >= Duration::from_millis(60),
        "the clamped Retry-After must actually be waited out (elapsed {elapsed:?})"
    );
    server.join().expect("server thread");
}

#[test]
fn signal_flag_drains_a_signal_honoring_server() {
    // The only test that flips the process-global signal flag; every
    // other server in this file ignores it (honor_signals: false).
    let (handle, join) = serve(
        ServeOptions {
            honor_signals: true,
            ..ServeOptions::default()
        },
        Arc::new(RegistrySource),
    );
    let addr = handle.addr();
    assert_eq!(get(addr, "/healthz", &[]).expect("healthz").status, 200);

    rsls_serve::signal::request();
    join.join().expect("no panic").expect("drained on signal");
}
