//! Wire-protocol tests for the event-loop server: keep-alive reuse,
//! pipelining, torn request bytes, oversized-header rejection, and
//! cross-connection coalescing on a sharded engine.
//!
//! These tests speak raw HTTP/1.1 over `TcpStream` (framed with the
//! shared [`rsls_serve::http::parse_response`] parser) because the
//! behavior under test *is* the wire behavior — connection lifetimes,
//! response ordering, partial-read handling — which one-shot client
//! helpers deliberately hide.

#![expect(
    clippy::disallowed_methods,
    reason = "tests run servers on their own threads and bound waits with wall-clock deadlines"
)]

use std::collections::BTreeMap;
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, Once};
use std::time::{Duration, Instant};

use rsls_campaign::EngineOptions;
use rsls_experiments::campaign;
use rsls_experiments::{Scale, Table};
use rsls_serve::http::parse_response;
use rsls_serve::server::{
    ExperimentInfo, ExperimentSource, RegistrySource, ServeOptions, Server, ServerHandle,
};

fn engine_init() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        let dir = std::env::temp_dir().join(format!("rsls-serve-proto-{}", std::process::id()));
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

/// A raw keep-alive connection: writes on the stream, frames responses
/// off a buffered clone.
struct Wire {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Wire {
    fn open(addr: std::net::SocketAddr) -> Wire {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Wire { stream, reader }
    }

    fn send(&mut self, path: &str) {
        let req = format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\n\r\n");
        self.stream.write_all(req.as_bytes()).expect("write");
    }

    fn recv(&mut self) -> (u16, BTreeMap<String, String>, Vec<u8>) {
        parse_response(&mut self.reader).expect("framed response")
    }

    fn round_trip(&mut self, path: &str) -> (u16, BTreeMap<String, String>, Vec<u8>) {
        self.send(path);
        self.recv()
    }
}

fn metric_value(metrics_body: &str, series: &str) -> Option<f64> {
    metrics_body.lines().find_map(|line| {
        line.strip_prefix(series)
            .and_then(|rest| rest.trim().parse::<f64>().ok())
    })
}

#[test]
fn keepalive_connection_serves_many_requests_and_reports_reuse() {
    let (handle, join) = serve(ServeOptions::default(), Arc::new(RegistrySource));
    let mut wire = Wire::open(handle.addr());

    for _ in 0..3 {
        let (status, _headers, body) = wire.round_trip("/healthz");
        assert_eq!(status, 200);
        assert_eq!(body, b"{\"status\":\"ok\"}\n");
    }

    // The fourth request on the same connection scrapes the server's
    // own view: one connection total, every request after the first a
    // keep-alive reuse.
    let (status, _headers, body) = wire.round_trip("/metrics");
    assert_eq!(status, 200);
    let text = String::from_utf8(body).expect("utf8");
    assert_eq!(
        metric_value(&text, "rsls_serve_connections_total "),
        Some(1.0)
    );
    assert_eq!(
        metric_value(&text, "rsls_serve_connections_active "),
        Some(1.0)
    );
    assert!(
        metric_value(&text, "rsls_serve_keepalive_reuses_total ") >= Some(3.0),
        "got: {text}"
    );

    handle.shutdown();
    join.join().expect("no panic").expect("clean shutdown");
}

#[test]
fn pipelined_requests_come_back_in_request_order() {
    let (handle, join) = serve(ServeOptions::default(), Arc::new(RegistrySource));
    let mut wire = Wire::open(handle.addr());

    // Three requests written back-to-back before any response is read;
    // distinguishable bodies prove the ordering.
    let burst = concat!(
        "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
        "GET /experiments HTTP/1.1\r\nHost: t\r\n\r\n",
        "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
    );
    wire.stream.write_all(burst.as_bytes()).expect("write");

    let (status, _h, body) = wire.recv();
    assert_eq!(status, 200);
    assert_eq!(body, b"{\"status\":\"ok\"}\n", "first response is healthz");
    let (status, _h, body) = wire.recv();
    assert_eq!(status, 200);
    let listing = String::from_utf8(body).expect("utf8");
    assert!(
        listing.contains(r#""id":"fig1""#),
        "second response is the listing, got: {listing}"
    );
    let (status, _h, body) = wire.recv();
    assert_eq!(status, 200);
    assert_eq!(body, b"{\"status\":\"ok\"}\n", "third response is healthz");

    handle.shutdown();
    join.join().expect("no panic").expect("clean shutdown");
}

#[test]
fn torn_request_bytes_reassemble_across_writes() {
    let (handle, join) = serve(ServeOptions::default(), Arc::new(RegistrySource));
    let mut wire = Wire::open(handle.addr());

    // The request head arrives in three fragments with pauses between
    // them — the incremental parser must buffer until complete, never
    // rejecting a merely-unfinished request.
    for fragment in ["GET /hea", "lthz HTTP/1.1\r\nHo", "st: t\r\n\r\n"] {
        wire.stream.write_all(fragment.as_bytes()).expect("write");
        wire.stream.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(20));
    }
    let (status, _headers, body) = wire.recv();
    assert_eq!(status, 200);
    assert_eq!(body, b"{\"status\":\"ok\"}\n");

    handle.shutdown();
    join.join().expect("no panic").expect("clean shutdown");
}

#[test]
fn oversized_header_draws_431_and_a_close() {
    let (handle, join) = serve(ServeOptions::default(), Arc::new(RegistrySource));
    let mut wire = Wire::open(handle.addr());

    let huge = "a".repeat(20 * 1024);
    let req = format!("GET /healthz HTTP/1.1\r\nHost: t\r\nX-Flood: {huge}\r\n\r\n");
    wire.stream.write_all(req.as_bytes()).expect("write");

    let (status, headers, _body) = wire.recv();
    assert_eq!(status, 431);
    assert_eq!(headers.get("connection").map(String::as_str), Some("close"));
    // The server hangs up after the rejection: the stream drains to EOF.
    let mut rest = Vec::new();
    wire.reader.read_to_end(&mut rest).expect("EOF after close");
    assert!(rest.is_empty(), "no bytes after the close");

    handle.shutdown();
    join.join().expect("no panic").expect("clean shutdown");
}

/// A source whose experiments block until released, counting entries —
/// the same gating trick as `serve_integration.rs`, here aimed at the
/// sharded queues.
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
        vec![ExperimentInfo {
            id: "gated-a".to_string(),
            description: "test source".to_string(),
        }]
    }

    fn run(&self, id: &str, _scale: Scale) -> Option<Vec<Table>> {
        if id != "gated-a" {
            return None;
        }
        self.runs.fetch_add(1, Ordering::SeqCst);
        self.entered_tx.lock().unwrap().send(()).ok();
        self.release_rx
            .lock()
            .unwrap()
            .recv_timeout(Duration::from_secs(30))
            .expect("test releases the gate");
        let mut t = Table::new("gated result", &["k", "v"]);
        t.push_row(vec!["a".to_string(), "1".to_string()]);
        Some(vec![t])
    }
}

#[test]
fn identical_requests_coalesce_per_shard_across_keepalive_connections() {
    let shard_dir =
        std::env::temp_dir().join(format!("rsls-serve-proto-shards-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&shard_dir);
    let (source, entered_rx, release_tx) = GatedSource::new();
    let (handle, join) = serve(
        ServeOptions {
            workers: 2,
            queue_depth: 8,
            shards: 3,
            shard_base: Some(EngineOptions {
                jobs: 1,
                cache_dir: shard_dir.join("cache"),
                use_cache: true,
                resume: false,
                retries: 0,
                ..EngineOptions::default()
            }),
            ..ServeOptions::default()
        },
        source.clone(),
    );
    let addr = handle.addr();

    // Two *separate* keep-alive connections ask for the same experiment
    // concurrently: both route to the same shard (same key, same ring
    // position), and the duplicate coalesces onto the leader's job.
    let fetch = |addr| {
        std::thread::spawn(move || {
            let mut wire = Wire::open(addr);
            let first = wire.round_trip("/experiments/gated-a");
            // The connection survives the computed response: prove it by
            // reusing it immediately.
            let (status, _h, body) = wire.round_trip("/healthz");
            assert_eq!(status, 200);
            assert_eq!(body, b"{\"status\":\"ok\"}\n");
            first
        })
    };
    let first = fetch(addr);
    let second = fetch(addr);

    entered_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("leader enters the harness");
    let metrics = handle.metrics();
    wait_until("duplicate to coalesce", || metrics.coalesced_total() >= 1);
    assert_eq!(source.runs.load(Ordering::SeqCst), 1, "one computation");
    release_tx.send(()).expect("release the leader");

    let (status_a, headers_a, body_a) = first.join().expect("no panic");
    let (status_b, _headers_b, body_b) = second.join().expect("no panic");
    assert_eq!((status_a, status_b), (200, 200));
    assert_eq!(body_a, body_b, "coalesced responses are byte-identical");
    assert_eq!(source.runs.load(Ordering::SeqCst), 1, "still one");
    assert!(headers_a.contains_key("etag"));

    // The coalescing shows up under exactly one shard label, and every
    // shard exports a queue-depth gauge.
    let mut wire = Wire::open(addr);
    let (status, _h, body) = wire.round_trip("/metrics");
    assert_eq!(status, 200);
    let text = String::from_utf8(body).expect("utf8");
    for shard in 0..3 {
        assert!(
            text.contains(&format!(
                "rsls_serve_shard_queue_depth{{shard=\"{shard}\"}}"
            )),
            "shard {shard} gauge missing: {text}"
        );
    }
    let coalesced: f64 = (0..3)
        .filter_map(|s| {
            metric_value(
                &text,
                &format!("rsls_serve_shard_coalesced_total{{shard=\"{s}\"}} "),
            )
        })
        .sum();
    assert!(coalesced >= 1.0, "per-shard coalesce counter: {text}");
    let computed: f64 = (0..3)
        .filter_map(|s| {
            metric_value(
                &text,
                &format!("rsls_serve_shard_computations_total{{shard=\"{s}\"}} "),
            )
        })
        .sum();
    assert!(computed >= 1.0, "per-shard computation counter: {text}");

    handle.shutdown();
    join.join().expect("no panic").expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&shard_dir);
}
