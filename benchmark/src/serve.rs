//! The three served workloads and the load generator that drives them.
//!
//! An in-process `Server` (two workers, one shard) runs over a copy of
//! the fixture. Two client threads each hold one keep-alive connection
//! and draw requests from their own SplitMix64 stream in a closed loop:
//! the users are analysts and dashboards that wait for each reply.
//! Every reply is checked against what the harness computed itself from
//! the same store.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rsls_campaign::{Provenance, ResultCache};
use rsls_core::{sha256_hex, RunReport};
use rsls_experiments::Scale;
use rsls_lab::Warehouse;
use rsls_serve::server::ServerHandle;
use rsls_serve::{ExperimentSource, RegistrySource, ServeOptions, Server};

use crate::clock::RefClock;
use crate::fixture::{ensure_fixture, Fixture, Store, WorkDir, S4};
use crate::hist::Histogram;
use crate::host::process_cpu_s;
use crate::http::{percent_encode, Conn, Reply};
use crate::layers;
use crate::report::{Outcome, Workload};
use crate::rng::SplitMix64;
use crate::trace::{Span, Tracer};
use crate::RunArgs;

/// Client connections, one thread each (never more than the box has
/// processors to run them beside the server).
const CONNECTIONS: usize = 2;
/// Units in the store when `serve_query_growing` boots.
const GROW_FROM: usize = 20;
/// Connection 0 adds one unit after this many of its own requests.
const GROW_EVERY: u64 = 5;
/// A connection's throughput is the median over slices at least this
/// long, each read at the clock it ran under: a burst of contention
/// moves a few slices, not the result.
const SLICE: Duration = Duration::from_millis(100);

/// A request class of the mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `GET /healthz`.
    Health,
    /// `GET /experiments`.
    Listing,
    /// `GET /experiments/{id}`, answered from the server's result map.
    ExpHit,
    /// The same with a matching `If-None-Match`.
    Exp304,
    /// `GET /reports/{sha}`, read from the object store.
    Report200,
    /// The same with a matching `If-None-Match`: no disk read.
    Report304,
    /// `GET /metrics`.
    Metrics,
    /// `GET /reports/{unknown sha}`: a 404 that closes the connection;
    /// the op includes the reconnect.
    Miss404,
    /// `GET /query?sql=…`, one of the canonical queries.
    Query,
    /// The same revalidating the last ETag this connection saw.
    Query304,
    /// `GET /compare?a=…&b=…`.
    Compare,
}

const CLASSES: usize = 11;

impl Class {
    fn index(self) -> usize {
        self as usize
    }

    /// Span name of the class.
    fn span(self) -> &'static str {
        match self {
            Class::Health => "serve.health",
            Class::Listing => "serve.listing",
            Class::ExpHit => "serve.exp_hit",
            Class::Exp304 => "serve.exp_304",
            Class::Report200 => "serve.report_200",
            Class::Report304 => "serve.report_304",
            Class::Metrics => "serve.metrics",
            Class::Miss404 => "serve.miss_404",
            Class::Query => "serve.query",
            Class::Query304 => "serve.query_304",
            Class::Compare => "serve.compare",
        }
    }

    /// The per-layer metric holding the class's median latency.
    fn p50_metric(self) -> &'static str {
        match self {
            Class::Health => "serve.lat_health_p50_us",
            Class::Listing => "serve.lat_listing_p50_us",
            Class::ExpHit => "serve.lat_exp_hit_p50_us",
            Class::Exp304 => "serve.lat_exp_304_p50_us",
            Class::Report200 => "serve.lat_report_200_p50_us",
            Class::Report304 => "serve.lat_report_304_p50_us",
            Class::Metrics => "serve.lat_metrics_p50_us",
            Class::Miss404 => "serve.lat_miss_404_p50_us",
            Class::Query => "serve.lat_query_p50_us",
            Class::Query304 => "serve.lat_query_304_p50_us",
            Class::Compare => "serve.lat_compare_p50_us",
        }
    }
}

/// `serve_read`: only the service works — event loop, HTTP codec,
/// result map, object reads, metrics rendering.
const READ_MIX: [(Class, u32); 8] = [
    (Class::Health, 10),
    (Class::Listing, 5),
    (Class::ExpHit, 25),
    (Class::Exp304, 20),
    (Class::Report200, 20),
    (Class::Report304, 10),
    (Class::Metrics, 2),
    (Class::Miss404, 8),
];

/// `serve_query*`: every request re-ingests the store in `rsls-lab`.
const QUERY_MIX: [(Class, u32); 3] = [
    (Class::Query, 60),
    (Class::Compare, 10),
    (Class::Query304, 30),
];

/// The canonical queries: a count, two GROUP BYs, the `schemes` view,
/// a filtered and ordered slice, and the `units` lifecycle view.
pub const QUERIES: [&str; 6] = [
    "SELECT count(*) FROM runs",
    "SELECT experiment, count(*), avg(time), sum(energy) FROM runs GROUP BY experiment",
    "SELECT scheme, count(*), avg(iterations), max(faults) FROM runs GROUP BY scheme ORDER BY scheme",
    "SELECT scheme, runs, avg_energy FROM schemes ORDER BY avg_energy DESC LIMIT 20",
    "SELECT unit, scheme, iterations, time, energy FROM runs WHERE converged = true AND faults > 0 \
     ORDER BY energy DESC, unit LIMIT 10",
    "SELECT unit, starts, dones, failed, retries FROM units ORDER BY unit LIMIT 50",
];

/// The two slices `/compare` diffs.
pub const COMPARE: (&str, &str) = ("scheme = 'FF'", "scheme = 'LI (CG)'");

/// A path with the body and ETag it must return.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    /// Request path.
    pub path: String,
    /// sha256 of `body`, the ETag.
    pub etag: String,
    /// The exact bytes.
    pub body: Vec<u8>,
}

impl Expected {
    fn new(path: String, body: Vec<u8>) -> Expected {
        Expected {
            path,
            etag: sha256_hex(&body),
            body,
        }
    }
}

/// Everything the clients need to issue requests and judge replies;
/// computed by the harness before the measured phase.
#[derive(Debug)]
pub struct Plan {
    mix: &'static [(Class, u32)],
    /// The weights of `mix`, in its order.
    weights: Vec<u32>,
    listing: Vec<u8>,
    experiments: Vec<Expected>,
    reports: Vec<Expected>,
    /// `refs[state][q]`: what query `q` (the compare is the last one)
    /// must return when the store holds `first_state + state` units.
    refs: Vec<Vec<Expected>>,
    first_state: usize,
}

fn query_paths() -> Vec<String> {
    let mut paths: Vec<String> = QUERIES
        .iter()
        .map(|sql| format!("/query?sql={}", percent_encode(sql)))
        .collect();
    paths.push(format!(
        "/compare?a={}&b={}",
        percent_encode(COMPARE.0),
        percent_encode(COMPARE.1)
    ));
    paths
}

/// What the harness's own warehouse over `store` answers to every
/// canonical query and the compare.
fn reference_answers(store: &Store) -> Result<Vec<Expected>, String> {
    let lab_err = |e: rsls_lab::LabError| format!("reference warehouse: {e}");
    let warehouse = Warehouse::load(&store.cache, Some(&store.journal))
        .map_err(|e| format!("reference warehouse: {e}"))?;
    let mut out = Vec::new();
    let paths = query_paths();
    for (sql, path) in QUERIES.iter().zip(&paths) {
        let body = warehouse.query(sql).map_err(lab_err)?.to_canonical_json();
        out.push(Expected::new(path.clone(), body.into_bytes()));
    }
    let ea = rsls_lab::parse_filter(COMPARE.0).map_err(|e| lab_err(e.into()))?;
    let eb = rsls_lab::parse_filter(COMPARE.1).map_err(|e| lab_err(e.into()))?;
    let diff =
        rsls_lab::compare_filtered(&warehouse, &ea, COMPARE.0, &eb, COMPARE.1).map_err(lab_err)?;
    out.push(Expected::new(
        paths[QUERIES.len()].clone(),
        rsls_lab::canonical_json(&diff).into_bytes(),
    ));
    Ok(out)
}

/// A unit the growing workload's writer adds.
#[derive(Debug, Clone)]
struct PendingUnit {
    spec: String,
    report: RunReport,
    provenance: Provenance,
}

/// Stores one unit the way a concurrent `rsls-run` would, through its
/// own handle on the directory. The sidecar goes first so a reader
/// never sees a unit without its provenance (the engine writes it
/// second; the benchmark needs every intermediate state to be one of
/// the states it has a reference for).
fn add_unit(cache: &ResultCache, unit: &PendingUnit) -> Result<(), String> {
    cache
        .store_provenance(&unit.provenance)
        .and_then(|()| cache.store(&unit.spec, &unit.report).map(|_| ()))
        .map_err(|e| format!("growing store: {e}"))
}

/// The fixture's units in sorted spec-hash order, for the workload
/// that grows its store (none for the others).
fn growing_units(workload: Workload, fixture: &Fixture) -> Result<Vec<PendingUnit>, String> {
    if workload != Workload::ServeQueryGrowing {
        return Ok(Vec::new());
    }
    let cache = ResultCache::open(&fixture.store.cache).map_err(|e| e.to_string())?;
    cache
        .unit_spec_hashes()
        .into_iter()
        .map(|spec| {
            let report = cache
                .load(&spec)
                .ok_or(format!("fixture unit {spec}: no report"))?;
            let provenance = cache
                .load_provenance(&spec)
                .ok_or(format!("fixture unit {spec}: no provenance"))?;
            Ok(PendingUnit {
                spec,
                report,
                provenance,
            })
        })
        .collect()
}

/// A store holding the first `GROW_FROM` fixture units and the whole
/// fixture journal.
fn growing_base(
    fixture: &Fixture,
    units: &[PendingUnit],
    dir: &std::path::Path,
) -> Result<Store, String> {
    let store = Store::at(dir);
    let cache = ResultCache::open(&store.cache).map_err(|e| e.to_string())?;
    for unit in &units[..GROW_FROM.min(units.len())] {
        add_unit(&cache, unit)?;
    }
    std::fs::copy(&fixture.store.journal, &store.journal).map_err(|e| e.to_string())?;
    Ok(store)
}

impl Plan {
    fn build(
        workload: Workload,
        fixture: &Fixture,
        store: &Store,
        units: &[PendingUnit],
        work: &WorkDir,
    ) -> Result<Plan, String> {
        let listing = serde_json::to_string(&RegistrySource.list())
            .map_err(|e| e.to_string())?
            .into_bytes();
        let experiments = S4
            .iter()
            .zip(&fixture.cold_tables)
            .map(|(id, body)| Expected::new(format!("/experiments/{id}"), body.clone()))
            .collect();
        let cache = ResultCache::open(&fixture.store.cache).map_err(|e| e.to_string())?;
        let mut reports = Vec::new();
        for hash in cache.object_hashes() {
            let body = std::fs::read(cache.object_path(&hash)).map_err(|e| e.to_string())?;
            let expected = Expected::new(format!("/reports/{hash}"), body);
            if expected.etag != hash {
                return Err(format!("fixture object {hash}: sha256 is not its name"));
            }
            reports.push(expected);
        }
        let (mix, refs, first_state): (&'static [(Class, u32)], _, _) = match workload {
            Workload::ServeRead => (&READ_MIX, Vec::new(), reports.len()),
            Workload::ServeQuery => (&QUERY_MIX, vec![reference_answers(store)?], reports.len()),
            _ => {
                // One reference per state the live store passes through,
                // taken from a private replica grown the same way.
                let replica = growing_base(fixture, units, &work.join("replica"))?;
                let replica_cache = ResultCache::open(&replica.cache).map_err(|e| e.to_string())?;
                let mut refs = vec![reference_answers(&replica)?];
                for unit in &units[GROW_FROM.min(units.len())..] {
                    add_unit(&replica_cache, unit)?;
                    refs.push(reference_answers(&replica)?);
                }
                (&QUERY_MIX, refs, GROW_FROM.min(units.len()))
            }
        };
        Ok(Plan {
            mix,
            weights: mix.iter().map(|(_, w)| *w).collect(),
            listing,
            experiments,
            reports,
            refs,
            first_state,
        })
    }

    fn reference(&self, state: usize, query: usize) -> Option<&Expected> {
        self.refs
            .get(state.checked_sub(self.first_state)?)?
            .get(query)
    }
}

/// One request, ready to send.
#[derive(Debug, Clone)]
struct Request {
    class: Class,
    path: String,
    if_none_match: Option<String>,
    /// Index into the plan's experiments, reports or queries.
    target: usize,
}

const HEALTH_BODY: &[u8] = b"{\"status\":\"ok\"}\n";

fn exact(reply: &Reply, status: u16, expected: &Expected) -> Result<(), String> {
    if reply.status != status {
        return Err(format!(
            "{}: status {} (wanted {status})",
            expected.path, reply.status
        ));
    }
    if reply.etag.as_deref() != Some(expected.etag.as_str()) {
        return Err(format!(
            "{}: ETag {:?} is not the sha256 of the reference body",
            expected.path, reply.etag
        ));
    }
    if status == 200 && reply.body != expected.body {
        return Err(format!(
            "{}: body differs from the harness's own answer",
            expected.path
        ));
    }
    if status == 304 && !reply.body.is_empty() {
        return Err(format!("{}: a 304 carried a body", expected.path));
    }
    Ok(())
}

/// Judges `reply` to `request`. `states` is the range of unit counts
/// the store may have had while the server answered (one value on a
/// static store).
fn check_reply(
    plan: &Plan,
    request: &Request,
    reply: &Reply,
    states: std::ops::RangeInclusive<usize>,
) -> Result<(), String> {
    match request.class {
        Class::Health => {
            if reply.status == 200 && reply.body == HEALTH_BODY {
                Ok(())
            } else {
                Err(format!("/healthz: status {} or wrong body", reply.status))
            }
        }
        Class::Listing => {
            if reply.status == 200 && reply.body == plan.listing {
                Ok(())
            } else {
                Err(format!(
                    "/experiments: status {} or wrong listing",
                    reply.status
                ))
            }
        }
        Class::Metrics => {
            let text = String::from_utf8_lossy(&reply.body);
            if reply.status == 200 && text.contains("rsls_serve_requests_total") {
                Ok(())
            } else {
                Err(format!(
                    "/metrics: status {} or no request family",
                    reply.status
                ))
            }
        }
        Class::Miss404 => {
            if reply.status == 404 {
                Ok(())
            } else {
                Err(format!(
                    "{}: status {} (wanted 404)",
                    request.path, reply.status
                ))
            }
        }
        Class::ExpHit => exact(reply, 200, &plan.experiments[request.target]),
        Class::Exp304 => exact(reply, 304, &plan.experiments[request.target]),
        Class::Report200 => exact(reply, 200, &plan.reports[request.target]),
        Class::Report304 => exact(reply, 304, &plan.reports[request.target]),
        Class::Query | Class::Query304 | Class::Compare => {
            let mut last = format!("{}: no reference for states {states:?}", request.path);
            for state in states {
                let Some(expected) = plan.reference(state, request.target) else {
                    continue;
                };
                // A revalidation with the current ETag must be a 304;
                // anything else must be the full current answer.
                let current = request.if_none_match.as_deref() == Some(expected.etag.as_str());
                match exact(reply, if current { 304 } else { 200 }, expected) {
                    Ok(()) => return Ok(()),
                    Err(e) => last = e,
                }
            }
            Err(last)
        }
    }
}

/// The running service.
struct Service {
    addr: SocketAddr,
    handle: ServerHandle,
    thread: JoinHandle<std::io::Result<()>>,
    boot_s: f64,
}

impl Service {
    fn boot(store: &Store) -> Result<Service, String> {
        let t0 = Instant::now();
        let opts = ServeOptions {
            workers: 2,
            queue_depth: 16,
            scale: Scale::Quick,
            honor_signals: false,
            shards: 1,
            shard_base: Some(store.engine_options(true)),
            chaos: None,
        };
        let server = Server::bind("127.0.0.1:0", opts, Arc::new(RegistrySource))
            .map_err(|e| format!("server bind: {e}"))?;
        let handle = server.handle().map_err(|e| format!("server handle: {e}"))?;
        let addr = handle.addr();
        let thread = std::thread::spawn(move || server.run());
        Ok(Service {
            addr,
            handle,
            thread,
            boot_s: t0.elapsed().as_secs_f64(),
        })
    }

    fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        match self.thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server loop: {e}")),
            Err(_) => Err("server loop panicked".to_string()),
        }
    }
}

/// The first request of every kind a workload will send: the service
/// generates its matrices, loads the experiments from the store and
/// fills its result map. Part of `setup_s`.
fn first_touch(addr: SocketAddr, workload: Workload) -> Result<(), String> {
    let mut conn = Conn::new(addr);
    let mut paths = vec!["/healthz".to_string()];
    if workload == Workload::ServeRead {
        paths.push("/experiments".to_string());
        paths.extend(S4.iter().map(|id| format!("/experiments/{id}")));
        paths.push("/metrics".to_string());
    } else {
        paths.extend(query_paths());
    }
    for path in paths {
        let reply = conn
            .get(&path, None)
            .map_err(|e| format!("first touch {path}: {e}"))?;
        if reply.status != 200 {
            return Err(format!("first touch {path}: status {}", reply.status));
        }
    }
    Ok(())
}

/// The store a served workload boots over.
fn prepare_store(
    workload: Workload,
    fixture: &Fixture,
    units: &[PendingUnit],
    work: &WorkDir,
) -> Result<Store, String> {
    if workload == Workload::ServeQueryGrowing {
        growing_base(fixture, units, &work.join("store"))
    } else {
        fixture
            .copy_store_to(&work.join("store"))
            .map_err(|e| format!("copying the fixture: {e}"))
    }
}

/// The set-up probe of a served workload, run in a child process:
/// boots the service, touches everything once, prints the seconds.
pub fn setup_probe(workload: Workload, clock: &RefClock, work: &WorkDir) -> Result<f64, String> {
    let fixture = ensure_fixture()?;
    let units = growing_units(workload, &fixture)?;
    let store = prepare_store(workload, &fixture, &units, work)?;
    let t0 = Instant::now();
    let service = Service::boot(&store)?;
    first_touch(service.addr, workload)?;
    let setup_s = clock.reference_seconds(t0, Instant::now());
    service.stop()?;
    Ok(setup_s)
}

/// No request in flight on a connection.
const IDLE: usize = usize::MAX;

/// State the client threads share.
struct Shared {
    plan: Plan,
    /// Units whose write has begun / has finished.
    started: AtomicUsize,
    finished: AtomicUsize,
    /// Per connection: the finished count its request in flight was
    /// sent at (`IDLE` between requests).
    in_flight: Vec<AtomicUsize>,
    /// The writer's queue (growing workload) and its store handle.
    pending: Vec<PendingUnit>,
    writer: Option<ResultCache>,
}

/// What one client thread brings back.
struct ClientResult {
    attempted: u64,
    failures: Vec<String>,
    failed: u64,
    latency: Histogram,
    by_class: Vec<Histogram>,
    after_growth: Histogram,
    reconnects: u64,
    reused: u64,
    /// Wall nanoseconds inside requests (unscaled, for the trace).
    busy_ns: u64,
    /// Ops per reference second of each slice.
    slice_rates: Vec<f64>,
    spans: Vec<Span>,
}

fn draw(rng: &mut SplitMix64, plan: &Plan, learned: &[Option<String>]) -> Request {
    let class = plan.mix[rng.weighted(&plan.weights)].0;
    let simple = |path: &str| Request {
        class,
        path: path.to_string(),
        if_none_match: None,
        target: 0,
    };
    match class {
        Class::Health => simple("/healthz"),
        Class::Listing => simple("/experiments"),
        Class::Metrics => simple("/metrics"),
        Class::Miss404 => {
            // A well-formed address no store holds.
            let path = format!(
                "/reports/{:016x}{:016x}{:016x}{:016x}",
                rng.next_u64(),
                rng.next_u64(),
                rng.next_u64(),
                rng.next_u64()
            );
            simple(&path)
        }
        Class::ExpHit | Class::Exp304 => {
            let target = rng.below(plan.experiments.len());
            let e = &plan.experiments[target];
            Request {
                class,
                path: e.path.clone(),
                if_none_match: (class == Class::Exp304).then(|| e.etag.clone()),
                target,
            }
        }
        Class::Report200 | Class::Report304 => {
            let target = rng.below(plan.reports.len());
            let r = &plan.reports[target];
            Request {
                class,
                path: r.path.clone(),
                if_none_match: (class == Class::Report304).then(|| r.etag.clone()),
                target,
            }
        }
        Class::Query | Class::Query304 | Class::Compare => {
            let target = if class == Class::Compare {
                QUERIES.len()
            } else {
                rng.below(QUERIES.len())
            };
            Request {
                class,
                path: plan.refs[0][target].path.clone(),
                if_none_match: if class == Class::Query304 {
                    learned[target].clone()
                } else {
                    None
                },
                target,
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn client(
    conn_idx: usize,
    addr: SocketAddr,
    shared: &Shared,
    clock: &RefClock,
    seed: u64,
    origin: Instant,
    run_for: Duration,
    trace: bool,
) -> ClientResult {
    let plan = &shared.plan;
    let mut rng = SplitMix64::for_connection(seed, conn_idx as u64);
    let mut conn = Conn::new(addr);
    let mut tracer = Tracer::new(trace, origin);
    let mut out = ClientResult {
        attempted: 0,
        failures: Vec::new(),
        failed: 0,
        latency: Histogram::new(),
        by_class: vec![Histogram::new(); CLASSES],
        after_growth: Histogram::new(),
        reconnects: 0,
        reused: 0,
        busy_ns: 0,
        slice_rates: Vec::new(),
        spans: Vec::new(),
    };
    let mut slice_start = Instant::now();
    let mut slice_ops = 0u64;
    // ETags learned at first touch: the answers of the boot state.
    let mut learned: Vec<Option<String>> = plan
        .refs
        .first()
        .map(|refs| refs.iter().map(|e| Some(e.etag.clone())).collect())
        .unwrap_or_default();
    let total_units = plan.first_state + shared.pending.len();
    let mut next_unit = 0usize;

    while origin.elapsed() < run_for {
        if conn_idx == 0
            && next_unit < shared.pending.len()
            && out.attempted > 0
            && out.attempted.is_multiple_of(GROW_EVERY)
        {
            if let Some(cache) = &shared.writer {
                shared.started.fetch_add(1, Ordering::SeqCst);
                if let Err(e) = add_unit(cache, &shared.pending[next_unit]) {
                    out.failed += 1;
                    out.failures.push(e);
                }
                shared.finished.fetch_add(1, Ordering::SeqCst);
                next_unit += 1;
            }
        }
        let request = draw(&mut rng, plan, &learned);
        // The server coalesces identical requests in flight, so the
        // answer may have been computed for a request another
        // connection sent earlier: the oldest state any request in
        // flight was sent at bounds the window from below.
        let before = shared.finished.load(Ordering::SeqCst);
        shared.in_flight[conn_idx].store(before, Ordering::SeqCst);
        let oldest = shared
            .in_flight
            .iter()
            .map(|slot| slot.load(Ordering::SeqCst))
            .min()
            .unwrap_or(before);
        let (result, ns) = tracer.span(request.class.span(), out.attempted, |_| {
            let t0 = Instant::now();
            let mut result = conn.get(&request.path, request.if_none_match.as_deref());
            if request.class == Class::Miss404 {
                // The 404 closed the connection: reopening it is part
                // of what the miss costs the client.
                if let Err(e) = conn.reconnect_if_closed() {
                    result = Err(e);
                }
            }
            (result, t0.elapsed().as_nanos() as u64)
        });
        shared.in_flight[conn_idx].store(IDLE, Ordering::SeqCst);
        let after = shared.started.load(Ordering::SeqCst);
        out.attempted += 1;
        out.busy_ns += ns;
        let factor = clock.factor();
        let reference_ns = (ns as f64 * factor) as u64;
        out.latency.record_ns(reference_ns);
        out.by_class[request.class.index()].record_ns(ns);
        if request.class == Class::Query && before == total_units {
            out.after_growth.record_ns(ns);
        }
        slice_ops += 1;
        let slice_wall = slice_start.elapsed();
        if slice_wall >= SLICE {
            out.slice_rates
                .push(slice_ops as f64 / (slice_wall.as_secs_f64() * factor));
            slice_start = Instant::now();
            slice_ops = 0;
        }
        let verdict = match &result {
            Ok(reply) => {
                if let (Class::Query | Class::Query304 | Class::Compare, Some(etag)) =
                    (request.class, &reply.etag)
                {
                    learned[request.target] = Some(etag.clone());
                }
                check_reply(plan, &request, reply, oldest..=after)
            }
            Err(e) => Err(format!("{}: transport error: {e}", request.path)),
        };
        if let Err(message) = verdict {
            out.failed += 1;
            if out.failures.len() < 4 {
                out.failures.push(message);
            }
        }
    }
    out.reconnects = conn.reconnects;
    out.reused = conn.reused;
    out.spans = tracer.spans().to_vec();
    out
}

/// Sum of a Prometheus family over its label sets (0 when absent).
fn family_sum(text: &str, family: &str) -> f64 {
    text.lines()
        .filter(|line| {
            line.strip_prefix(family)
                .is_some_and(|rest| rest.starts_with(' ') || rest.starts_with('{'))
        })
        .filter_map(|line| line.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

fn scrape(addr: SocketAddr) -> Result<String, String> {
    let reply = Conn::new(addr)
        .get("/metrics", None)
        .map_err(|e| format!("/metrics scrape: {e}"))?;
    Ok(String::from_utf8_lossy(&reply.body).into_owned())
}

/// Runs a served workload: `serve_read`, `serve_query` or
/// `serve_query_growing`.
pub fn run(
    workload: Workload,
    args: &RunArgs,
    clock: &RefClock,
    work: &WorkDir,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let fixture = ensure_fixture()?;
    let mut units = growing_units(workload, &fixture)?;
    let store = prepare_store(workload, &fixture, &units, work)?;
    let plan = Plan::build(workload, &fixture, &store, &units, work)?;
    out.setup_samples_s = crate::setup_probes(workload, args)?;

    let t0 = Instant::now();
    let service = Service::boot(&store)?;
    first_touch(service.addr, workload)?;
    out.setup_samples_s
        .push(clock.reference_seconds(t0, Instant::now()));

    let pending = units.split_off(plan.first_state.min(units.len()));
    let total_units = plan.first_state + pending.len();
    let writer = if pending.is_empty() {
        None
    } else {
        Some(ResultCache::open(&store.cache).map_err(|e| e.to_string())?)
    };
    let shared = Shared {
        started: AtomicUsize::new(plan.first_state),
        finished: AtomicUsize::new(plan.first_state),
        in_flight: (0..CONNECTIONS).map(|_| AtomicUsize::new(IDLE)).collect(),
        plan,
        pending,
        writer,
    };

    let metrics_before = if args.trace {
        scrape(service.addr)?
    } else {
        String::new()
    };
    let run_for = Duration::from_secs_f64(args.seconds);
    let cpu0 = process_cpu_s();
    let origin = Instant::now();
    let results: Vec<ClientResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|idx| {
                let shared = &shared;
                let addr = service.addr;
                scope.spawn(move || {
                    client(
                        idx, addr, shared, clock, args.seed, origin, run_for, args.trace,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "a client thread panicked".to_string()))
            .collect::<Result<Vec<_>, _>>()
    })?;
    out.wall_s = origin.elapsed().as_secs_f64();
    out.cpu_s = process_cpu_s() - cpu0;
    out.clock_factor = clock.mean_factor(origin, Instant::now());
    let metrics_after = if args.trace {
        scrape(service.addr)?
    } else {
        String::new()
    };

    let mut by_class = vec![Histogram::new(); CLASSES];
    let mut after_growth = Histogram::new();
    let (mut reconnects, mut reused, mut busy_ns, mut span_count) = (0u64, 0u64, 0u64, 0usize);
    for (idx, result) in results.into_iter().enumerate() {
        out.attempted += result.attempted;
        out.failed += result.failed;
        out.failures.extend(result.failures);
        out.latency.merge(&result.latency);
        for (mine, theirs) in by_class.iter_mut().zip(&result.by_class) {
            mine.merge(theirs);
        }
        after_growth.merge(&result.after_growth);
        reconnects += result.reconnects;
        reused += result.reused;
        busy_ns += result.busy_ns;
        // Connections run side by side: their rates add.
        out.rate_per_s += crate::hist::median(&result.slice_rates);
        span_count += result.spans.len();
        out.spans.push((format!("conn{idx}"), result.spans));
    }
    out.failures.truncate(8);
    let stored = shared.finished.load(Ordering::SeqCst);
    out.facts.push((
        "units_at_boot".to_string(),
        shared.plan.first_state.to_string(),
    ));
    out.facts
        .push(("units_at_end".to_string(), stored.to_string()));
    out.facts
        .push(("units_in_fixture".to_string(), total_units.to_string()));
    out.facts.push((
        "reports_served_from".to_string(),
        shared.plan.reports.len().to_string(),
    ));
    out.facts
        .push(("client_reconnects".to_string(), reconnects.to_string()));
    out.facts
        .push(("client_keepalive_reuses".to_string(), reused.to_string()));

    if args.trace {
        serve_layers(
            &mut out,
            workload,
            &service,
            &store,
            &shared.plan,
            &by_class,
            &after_growth,
            (&metrics_before, &metrics_after),
            reconnects,
            busy_ns,
        )?;
        out.layer("campaign.fixture_fill_s", fixture.fill_s);
        out.close_trace(span_count, CONNECTIONS as f64);
    }
    service.stop()?;
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn serve_layers(
    out: &mut Outcome,
    workload: Workload,
    service: &Service,
    store: &Store,
    plan: &Plan,
    by_class: &[Histogram],
    after_growth: &Histogram,
    metrics: (&str, &str),
    reconnects: u64,
    busy_ns: u64,
) -> Result<(), String> {
    layers::host_layers(out, None);
    out.layer("serve.boot_ms", service.boot_s * 1e3);
    for (class, _) in plan.mix {
        out.layer(class.p50_metric(), by_class[class.index()].quantile_us(0.5));
    }
    let delta = |family: &str| family_sum(metrics.1, family) - family_sum(metrics.0, family);
    let requests = delta("rsls_serve_requests_total").max(1.0);
    out.layer(
        "serve.keepalive_reuse_rate",
        delta("rsls_serve_keepalive_reuses_total") / requests,
    );
    out.layer("serve.reconnects", reconnects as f64);
    out.layer("serve.computations", delta("rsls_serve_computations_total"));
    out.layer("serve.coalesced", delta("rsls_serve_coalesced_total"));
    out.layer("serve.shed_503", delta("rsls_serve_queue_rejected_total"));
    let sample_body = plan.reports.first().map_or(&[][..], |r| &r.body[..]);
    layers::http_probes(out, sample_body);
    let codec_s = (out.layers["serve.http_parse_ns"] + out.layers["serve.http_serialize_ns"]) / 1e9;
    let busy_s = busy_ns as f64 / 1e9;
    let requests_seen: u64 = by_class.iter().map(Histogram::count).sum();

    if workload == Workload::ServeRead {
        let hits = delta("rsls_serve_result_cache_hits_total");
        let misses = delta("rsls_serve_result_cache_misses_total");
        out.layer(
            "serve.result_cache_hit_rate",
            hits / (hits + misses).max(1.0),
        );
        out.layer(
            "serve.lat_report_200_p99_us",
            by_class[Class::Report200.index()].quantile_us(0.99),
        );
        out.layer_self_s = vec![("serve".to_string(), busy_s)];
        return Ok(());
    }

    let queries: Vec<String> = QUERIES.iter().map(|q| (*q).to_string()).collect();
    let lab = layers::lab_layers(out, store, &queries, COMPARE)?;
    let query_hist = &by_class[Class::Query.index()];
    out.layer("serve.lat_query_p99_us", query_hist.quantile_us(0.99));
    out.layer(
        "serve.lat_query_after_growth_p50_us",
        after_growth.quantile_us(0.5),
    );
    out.layer(
        "serve.dispatch_residual_us",
        query_hist.quantile_us(0.5) - (lab.ingest_s + lab.parse_s + lab.exec_s) * 1e6,
    );
    // Every class of this mix makes the server ingest the store, a 304
    // too: the body must be computed before its ETag can be compared.
    let compares = by_class[Class::Compare.index()].count() as f64;
    let plain = requests_seen as f64 - compares;
    let ingest_s = (requests_seen as f64 * lab.ingest_s).min(busy_s);
    let exec_s =
        (plain * (lab.parse_s + lab.exec_s) + compares * lab.compare_s).min(busy_s - ingest_s);
    let http_s = (requests_seen as f64 * codec_s).min(busy_s - ingest_s - exec_s);
    out.layer_self_s = vec![
        ("lab.ingest".to_string(), ingest_s),
        ("lab.query".to_string(), exec_s),
        ("serve.http".to_string(), http_s),
        (
            "serve.dispatch".to_string(),
            busy_s - ingest_s - exec_s - http_s,
        ),
    ];
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> Plan {
        let answers = |tag: &str| -> Vec<Expected> {
            query_paths()
                .into_iter()
                .map(|path| Expected::new(path, format!("{{\"rows\":\"{tag}\"}}").into_bytes()))
                .collect()
        };
        Plan {
            mix: &QUERY_MIX,
            weights: QUERY_MIX.iter().map(|(_, w)| *w).collect(),
            listing: b"[]".to_vec(),
            experiments: vec![Expected::new(
                "/experiments/fig3".into(),
                b"tables".to_vec(),
            )],
            reports: vec![Expected::new("/reports/x".into(), b"report".to_vec())],
            refs: vec![answers("twenty"), answers("twenty-one")],
            first_state: 20,
        }
    }

    fn reply(status: u16, body: &[u8], etag: &str) -> Reply {
        Reply {
            status,
            etag: Some(etag.to_string()),
            close: false,
            body: body.to_vec(),
        }
    }

    fn query(plan: &Plan, class: Class, inm: Option<&str>) -> Request {
        Request {
            class,
            path: plan.refs[0][0].path.clone(),
            if_none_match: inm.map(str::to_string),
            target: 0,
        }
    }

    #[test]
    fn a_right_body_passes_and_a_wrong_reference_body_fails_the_op() {
        let mut plan = plan();
        let good = plan.refs[0][0].clone();
        let request = query(&plan, Class::Query, None);
        let answer = reply(200, &good.body, &good.etag);
        assert_eq!(check_reply(&plan, &request, &answer, 20..=20), Ok(()));

        // The same reply against a harness answer that differs by one
        // byte: the op must fail.
        plan.refs[0][0].body[3] ^= 1;
        assert!(check_reply(&plan, &request, &answer, 20..=20)
            .unwrap_err()
            .contains("body differs"));
        // And a body whose ETag is not its sha256 fails too.
        let plan = self::plan();
        let forged = reply(200, &good.body, &"0".repeat(64));
        assert!(check_reply(&plan, &request, &forged, 20..=20).is_err());
    }

    #[test]
    fn a_growing_store_accepts_only_states_inside_the_window() {
        let plan = plan();
        let request = query(&plan, Class::Query, None);
        let newer = plan.refs[1][0].clone();
        let answer = reply(200, &newer.body, &newer.etag);
        assert!(check_reply(&plan, &request, &answer, 20..=20).is_err());
        assert_eq!(check_reply(&plan, &request, &answer, 20..=21), Ok(()));
        assert!(check_reply(&plan, &request, &answer, 22..=23).is_err());
    }

    #[test]
    fn revalidation_must_be_a_304_exactly_when_the_etag_is_current() {
        let plan = plan();
        let current = plan.refs[0][0].clone();
        let request = query(&plan, Class::Query304, Some(&current.etag));
        assert_eq!(
            check_reply(&plan, &request, &reply(304, b"", &current.etag), 20..=20),
            Ok(())
        );
        // Answering a current ETag with a full 200 is a broken cache.
        assert!(check_reply(
            &plan,
            &request,
            &reply(200, &current.body, &current.etag),
            20..=20
        )
        .is_err());
        // A stale ETag after growth must get the new body, not a 304.
        let newer = plan.refs[1][0].clone();
        assert_eq!(
            check_reply(
                &plan,
                &request,
                &reply(200, &newer.body, &newer.etag),
                21..=21
            ),
            Ok(())
        );
        assert!(check_reply(&plan, &request, &reply(304, b"", &current.etag), 21..=21).is_err());
    }

    #[test]
    fn cheap_routes_are_checked_too() {
        let plan = plan();
        let request = |class, path: &str| Request {
            class,
            path: path.to_string(),
            if_none_match: None,
            target: 0,
        };
        assert!(check_reply(
            &plan,
            &request(Class::Health, "/healthz"),
            &reply(200, HEALTH_BODY, ""),
            0..=0
        )
        .is_ok());
        assert!(check_reply(
            &plan,
            &request(Class::Health, "/healthz"),
            &reply(503, b"", ""),
            0..=0
        )
        .is_err());
        assert!(check_reply(
            &plan,
            &request(Class::Miss404, "/reports/z"),
            &reply(200, b"", ""),
            0..=0
        )
        .is_err());
        let report = plan.reports[0].clone();
        assert!(check_reply(
            &plan,
            &request(Class::Report200, &report.path),
            &reply(200, b"report", &report.etag),
            0..=0
        )
        .is_ok());
        assert!(check_reply(
            &plan,
            &request(Class::Report200, &report.path),
            &reply(200, b"repor7", &report.etag),
            0..=0
        )
        .is_err());
    }

    #[test]
    fn prometheus_families_sum_over_label_sets() {
        let text = "# HELP rsls_serve_requests_total x\n\
                    rsls_serve_requests_total{route=\"a\",status=\"200\"} 3\n\
                    rsls_serve_requests_total{route=\"b\",status=\"404\"} 2\n\
                    rsls_serve_requests_totally_else 9\n\
                    rsls_serve_coalesced_total 4\n";
        assert_eq!(family_sum(text, "rsls_serve_requests_total"), 5.0);
        assert_eq!(family_sum(text, "rsls_serve_coalesced_total"), 4.0);
        assert_eq!(family_sum(text, "rsls_absent"), 0.0);
    }

    #[test]
    fn the_same_seed_draws_the_same_requests() {
        let plan = plan();
        let learned = vec![None; QUERIES.len() + 1];
        let draw_many = |seed| {
            let mut rng = SplitMix64::for_connection(seed, 0);
            (0..200)
                .map(|_| draw(&mut rng, &plan, &learned).path)
                .collect::<Vec<_>>()
        };
        assert_eq!(draw_many(11), draw_many(11));
        assert_ne!(draw_many(11), draw_many(12));
    }
}
