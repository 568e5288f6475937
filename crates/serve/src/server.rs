//! The service: nonblocking event loop and connection state machine.
//! What each path answers is the route table's business (`routes.rs`).
//!
//! Since PR 8 the accept path is a single-threaded readiness event loop
//! (`poll(2)` on Linux, a short-sleep scan elsewhere) over a
//! nonblocking listener and nonblocking connection sockets, instead of
//! one thread per connection. Each connection owns an incremental
//! [`RequestBuffer`]; bytes arrive in whatever fragments TCP delivers,
//! complete request heads are parsed out, and responses queue per
//! connection so **pipelined requests are answered strictly in order**.
//! Connections are kept alive across requests (HTTP/1.1 semantics; any
//! error status or an explicit `Connection: close` closes them), which
//! is what lets one client drive thousands of requests over a single
//! persistent socket.
//!
//! Compute still never happens on the event loop: experiment and
//! warehouse work is submitted to the bounded per-shard work queues
//! ([`crate::queue`]) and the loop polls the job latch
//! ([`crate::queue::Job::is_done`]) while servicing other connections.
//! Every job runs under one engine of the server's engine set
//! ([`crate::shard`]; the global engine is shard 0): result keys route
//! through a consistent-hash ring, and with `--shards N` the engines
//! have disjoint store namespaces.

use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rsls_campaign::EngineOptions;
use rsls_chaos::{ChaosInjector, ChaosSite};
use rsls_experiments::{ExperimentRegistry, Scale, Table};

use crate::http::{ParseStep, Request, RequestBuffer, Response};
use crate::metrics::Metrics;
use crate::queue::{Job, JobOutput, WorkQueue};
use crate::routes::{finish_job, route, AnswerMemo, JobKind, Routed};
use crate::shard::ShardSet;
use crate::signal;

/// Event-loop wait bound while fully idle (also the shutdown-detection
/// latency bound).
const IDLE_POLL: Duration = Duration::from_millis(10);
/// Event-loop wait bound while a queued job's completion is pending
/// (the latch is polled, not waited on).
const BUSY_POLL: Duration = Duration::from_millis(1);
/// A connection idle (no buffered bytes, no pending work) this long is
/// closed; one holding a torn partial request gets a `408` first.
const IDLE_TIMEOUT: Duration = Duration::from_secs(30);
/// How long `run` keeps flushing connection responses during drain.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);
/// Pipelined responses a single connection may have in flight before
/// the loop stops parsing its buffer (read backpressure).
const MAX_PIPELINED: usize = 32;
/// Connections accepted per loop iteration before yielding to reads.
const ACCEPT_BATCH: usize = 64;
/// Nonblocking read chunk size.
const READ_CHUNK: usize = 8 * 1024;

/// One row of the `/experiments` listing.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ExperimentInfo {
    /// Experiment id (`fig5`, `table6`, ...).
    pub id: String,
    /// Human-readable description.
    pub description: String,
}

/// Where the service gets experiments from. The production source is
/// [`RegistrySource`]; tests inject gated/panicking sources to make
/// coalescing and panic isolation deterministic.
pub trait ExperimentSource: Send + Sync {
    /// The experiments this source can run, in canonical order.
    fn list(&self) -> Vec<ExperimentInfo>;
    /// Runs one experiment; `None` for an unknown id.
    fn run(&self, id: &str, scale: Scale) -> Option<Vec<Table>>;
}

/// [`ExperimentSource`] backed by [`ExperimentRegistry::builtin`].
#[derive(Debug, Default, Clone)]
pub struct RegistrySource;

impl ExperimentSource for RegistrySource {
    fn list(&self) -> Vec<ExperimentInfo> {
        ExperimentRegistry::builtin()
            .entries()
            .iter()
            .map(|e| ExperimentInfo {
                id: e.name.to_string(),
                description: e.description.to_string(),
            })
            .collect()
    }

    fn run(&self, id: &str, scale: Scale) -> Option<Vec<Table>> {
        ExperimentRegistry::builtin().run(id, scale)
    }
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Compute workers draining each shard's job queue.
    pub workers: usize,
    /// Per-shard pending-job bound; submissions beyond it get `503`.
    pub queue_depth: usize,
    /// Scale every experiment runs at.
    pub scale: Scale,
    /// React to the process-wide SIGINT/SIGTERM flag ([`signal`]). The
    /// binary sets this; embedded/test servers default to their own
    /// [`Server::handle`] stop flag only.
    pub honor_signals: bool,
    /// Campaign shards. Only meaningful with `shard_base` set; the
    /// global engine is always a single namespace.
    pub shards: usize,
    /// Template engine options for *owned* per-shard engines (one
    /// shard writes exactly the template's layout). `None` (the
    /// default) serves the process-wide campaign engine as shard 0.
    pub shard_base: Option<EngineOptions>,
    /// Fault injector for the server-side I/O sites (accept teardown,
    /// read teardown, torn writes). `None` injects nothing.
    pub chaos: Option<Arc<ChaosInjector>>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 2,
            queue_depth: 16,
            scale: Scale::Quick,
            honor_signals: false,
            shards: 1,
            shard_base: None,
            chaos: None,
        }
    }
}

/// State shared by the event loop, the route table, the worker pools,
/// and handles.
pub(crate) struct Shared {
    pub(crate) opts: ServeOptions,
    pub(crate) source: Arc<dyn ExperimentSource>,
    pub(crate) shards: Arc<ShardSet>,
    /// One bounded work queue per shard.
    pub(crate) queues: Vec<WorkQueue>,
    pub(crate) metrics: Arc<Metrics>,
    chaos: Arc<ChaosInjector>,
    /// Completed result bodies by result key — the layer that turns a
    /// repeat `/experiments/{id}` into a pure lookup.
    pub(crate) results: Mutex<BTreeMap<String, Arc<JobOutput>>>,
    /// `/query` and `/compare` answers of the current store generation.
    pub(crate) answers: Mutex<AnswerMemo>,
    stop: AtomicBool,
}

impl Shared {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Relaxed) || (self.opts.honor_signals && signal::requested())
    }
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("opts", &self.opts)
            .finish_non_exhaustive()
    }
}

/// A remote control for a running [`Server`].
#[derive(Debug, Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// The bound address (useful with `:0` ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the server to stop accepting and drain.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::Relaxed);
    }

    /// The service metrics (shared with the running server).
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// The engine set's per-unit summary tables (the drain report).
    pub fn summary_table(&self) -> String {
        self.shared.shards.summary_table()
    }
}

/// The bound-but-not-yet-running service.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.listener.local_addr())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds `addr`, builds the engine set and the per-shard worker
    /// pools. The server does not accept
    /// connections until [`Server::run`].
    #[expect(
        clippy::disallowed_methods,
        reason = "unguarded: listener setup; bind failure aborts startup, chaos targets per-request paths"
    )]
    pub fn bind(
        addr: impl ToSocketAddrs,
        opts: ServeOptions,
        source: Arc<dyn ExperimentSource>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let shards = match &opts.shard_base {
            Some(base) => ShardSet::build(base, opts.shards.max(1))?,
            None => ShardSet::global(),
        };
        let shard_count = shards.count();
        let metrics = Arc::new(Metrics::with_shards(shard_count));
        let queues = (0..shard_count)
            .map(|k| WorkQueue::new(opts.workers, opts.queue_depth, Arc::clone(&metrics), k))
            .collect();
        let chaos = opts
            .chaos
            .clone()
            .unwrap_or_else(|| Arc::new(ChaosInjector::disarmed()));
        let shared = Arc::new(Shared {
            opts,
            source,
            shards: Arc::new(shards),
            queues,
            metrics,
            chaos,
            results: Mutex::new(BTreeMap::new()),
            answers: Mutex::new(AnswerMemo::default()),
            stop: AtomicBool::new(false),
        });
        Ok(Server { listener, shared })
    }

    /// The shared state, for in-crate tests that drive the route table
    /// without a socket.
    #[cfg(test)]
    pub(crate) fn shared(&self) -> &Shared {
        &self.shared
    }

    /// A handle for stopping the server and reading its metrics from
    /// another thread.
    pub fn handle(&self) -> std::io::Result<ServerHandle> {
        Ok(ServerHandle {
            addr: self.listener.local_addr()?,
            shared: Arc::clone(&self.shared),
        })
    }

    /// Runs the event loop until shutdown is requested (via
    /// [`ServerHandle::shutdown`] or, with `honor_signals`, a
    /// SIGINT/SIGTERM), then drains gracefully: accepting stops, the
    /// work queues finish every already-submitted job, buffered
    /// responses flush, and the campaign journals (append-on-write)
    /// are already durable.
    #[expect(
        clippy::disallowed_methods,
        reason = "the drain deadline after shutdown is wall-clock"
    )]
    pub fn run(self) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let shared = &self.shared;
        let mut conns: Vec<Conn> = Vec::new();
        while !shared.stopping() {
            for _ in 0..ACCEPT_BATCH {
                match accept_ready(shared, &self.listener) {
                    Accepted::Conn(conn) => conns.push(conn),
                    Accepted::Dropped => continue,
                    Accepted::Idle => break,
                }
            }
            let mut i = 0;
            while i < conns.len() {
                if service_conn(shared, &mut conns[i]) {
                    i += 1;
                } else {
                    close_conn(shared, conns.swap_remove(i));
                }
            }
            let waiting_on_jobs = conns.iter().any(
                |c| matches!(c.pending.front(), Some(Pending::Job { job, .. }) if !job.is_done()),
            );
            let timeout = if waiting_on_jobs {
                BUSY_POLL
            } else {
                IDLE_POLL
            };
            wait_ready(&self.listener, &conns, timeout);
        }
        // Drain: the queues finish every accepted job (each waiting
        // request gets its answer), then the loop keeps flushing until
        // the connections empty or the deadline passes.
        for queue in &shared.queues {
            queue.shutdown();
        }
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while !conns.is_empty() && Instant::now() < deadline {
            let mut i = 0;
            while i < conns.len() {
                let conn = &mut conns[i];
                conn.stop_reading = true;
                conn.close_after_flush = true;
                drain_pending(shared, conn);
                let dead = matches!(flush_write_buf(shared, conn), WriteOutcome::Closed)
                    || (conn.pending.is_empty() && conn.write_done());
                if dead {
                    close_conn(shared, conns.swap_remove(i));
                } else {
                    i += 1;
                }
            }
            if !conns.is_empty() {
                std::thread::sleep(BUSY_POLL);
            }
        }
        for conn in conns.drain(..) {
            close_conn(shared, conn);
        }
        Ok(())
    }
}

/// Raw `poll(2)` binding — the readiness primitive of the event loop.
#[cfg(target_os = "linux")]
mod sys {
    /// `struct pollfd` from `<poll.h>`.
    #[repr(C)]
    pub struct PollFd {
        /// File descriptor to watch.
        pub fd: i32,
        /// Requested events ([`POLLIN`] | [`POLLOUT`]).
        pub events: i16,
        /// Kernel-filled returned events.
        pub revents: i16,
    }

    /// Readable (or a pending accept on a listener).
    pub const POLLIN: i16 = 0x001;
    /// Writable without blocking.
    pub const POLLOUT: i16 = 0x004;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }

    /// Blocks until an fd is ready or `timeout_ms` elapses.
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> i32 {
        // SAFETY: `fds` is an exclusive slice of `#[repr(C)]` structs
        // matching the kernel's pollfd ABI; the kernel writes only
        // `revents` within the passed length.
        unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) }
    }
}

/// Sleeps until the listener or some connection is ready (Linux:
/// `poll(2)` over every socket; elsewhere: a short fixed sleep). The
/// loop's nonblocking operations are attempted every tick regardless,
/// so readiness only decides how soon — correctness never depends on
/// `revents`.
#[cfg(target_os = "linux")]
fn wait_ready(listener: &TcpListener, conns: &[Conn], timeout: Duration) {
    use std::os::unix::io::AsRawFd;
    let mut fds = Vec::with_capacity(conns.len() + 1);
    fds.push(sys::PollFd {
        fd: listener.as_raw_fd(),
        events: sys::POLLIN,
        revents: 0,
    });
    for conn in conns {
        let mut events = 0i16;
        if !conn.stop_reading {
            events |= sys::POLLIN;
        }
        if !conn.write_done() {
            events |= sys::POLLOUT;
        }
        if events != 0 {
            fds.push(sys::PollFd {
                fd: conn.stream.as_raw_fd(),
                events,
                revents: 0,
            });
        }
    }
    sys::poll_fds(&mut fds, timeout.as_millis() as i32);
}

/// Portable fallback: a bounded sleep between nonblocking scans.
#[cfg(not(target_os = "linux"))]
fn wait_ready(_listener: &TcpListener, _conns: &[Conn], timeout: Duration) {
    std::thread::sleep(timeout.min(Duration::from_millis(5)));
}

/// A queued (not yet written) response on one connection. Responses
/// drain strictly front-first, which is what keeps pipelined requests
/// answered in request order even when a later cheap request finishes
/// before an earlier queued computation.
enum Pending {
    /// Fully serialized bytes, ready to write.
    Ready {
        /// Wire bytes of the response.
        bytes: Vec<u8>,
        /// Whether the connection survives this response.
        keep_alive: bool,
    },
    /// A submitted computation; serialized when the latch completes.
    Job {
        /// Completion latch shared with the worker pool.
        job: Arc<Job>,
        /// The request, kept for conditional (`If-None-Match`) replies.
        req: Request,
        /// What to do with the job's result.
        kind: JobKind,
        /// Metrics route label.
        label: &'static str,
        /// `HEAD` request: serialize without the body.
        head_only: bool,
        /// The request asked for keep-alive (errors still close).
        keep_alive_request: bool,
        /// Submission time, for the request-latency histogram.
        started: Instant,
    },
}

/// One live connection owned by the event loop.
struct Conn {
    stream: TcpStream,
    /// Peer address string — the chaos decision key.
    peer: String,
    /// Incremental request parser.
    buf: RequestBuffer,
    /// Serialized-but-unwritten response bytes.
    write_buf: Vec<u8>,
    /// Prefix of `write_buf` already written.
    written: usize,
    /// In-order response queue (see [`Pending`]).
    pending: VecDeque<Pending>,
    /// Requests dispatched on this connection (keep-alive reuse
    /// accounting).
    requests_served: u64,
    /// Reading stopped: EOF, a rejected head, or a closing response.
    stop_reading: bool,
    /// Close once `pending` and `write_buf` drain.
    close_after_flush: bool,
    /// Last byte-level activity, for the idle timeout.
    last_activity: Instant,
}

impl Conn {
    #[expect(
        clippy::disallowed_methods,
        reason = "stamps a new connection's activity for the idle timeout"
    )]
    fn new(stream: TcpStream, peer: String) -> Conn {
        Conn {
            stream,
            peer,
            buf: RequestBuffer::new(),
            write_buf: Vec::new(),
            written: 0,
            pending: VecDeque::new(),
            requests_served: 0,
            stop_reading: false,
            close_after_flush: false,
            last_activity: Instant::now(),
        }
    }

    /// Every buffered response byte has been written.
    fn write_done(&self) -> bool {
        self.written == self.write_buf.len()
    }
}

/// Outcome of one accept attempt.
enum Accepted {
    /// A new connection joined the loop.
    Conn(Conn),
    /// Chaos (or setup failure) tore the connection down at accept.
    Dropped,
    /// No pending connection.
    Idle,
}

/// Accepts one pending connection off the nonblocking listener. This is
/// the `server-accept` chaos site: a firing fault tears the connection
/// down immediately after accept — exactly the "accepted then dropped"
/// failure a client's retry path must absorb.
#[expect(
    clippy::disallowed_methods,
    reason = "chaos: server-accept, server-read, server-write (the read and write faults fire in fill_read_buf and flush_write_buf, on the socket accepted here)"
)]
fn accept_ready(shared: &Shared, listener: &TcpListener) -> Accepted {
    match TcpListener::accept(listener) {
        Ok((stream, peer)) => {
            let peer = peer.to_string();
            if shared.chaos.fire(ChaosSite::ServerAccept, &peer) {
                let _ = TcpStream::shutdown(&stream, Shutdown::Both);
                return Accepted::Dropped;
            }
            if stream.set_nonblocking(true).is_err() {
                return Accepted::Dropped;
            }
            let _ = stream.set_nodelay(true);
            shared.metrics.connection_opened();
            shared.metrics.connection_gauge_add(1);
            Accepted::Conn(Conn::new(stream, peer))
        }
        Err(_) => Accepted::Idle,
    }
}

/// Removes a connection from the loop's accounting.
fn close_conn(shared: &Shared, conn: Conn) {
    drop(conn);
    shared.metrics.connection_gauge_add(-1);
}

/// Outcome of one nonblocking read pass.
enum ReadOutcome {
    /// New bytes were buffered.
    Progress,
    /// New bytes were buffered and then the peer half-closed.
    ProgressThenEof,
    /// Clean EOF with nothing new.
    Eof,
    /// Nothing to read right now.
    Idle,
    /// The connection is unusable (I/O error or injected teardown).
    Failed,
}

/// Drains readable bytes into the connection's request buffer. This is
/// the `server-read` chaos site: a firing fault shuts the socket down
/// mid-request, tearing the connection while the client is sending.
fn fill_read_buf(shared: &Shared, conn: &mut Conn) -> ReadOutcome {
    let mut scratch = [0u8; READ_CHUNK];
    let mut progressed = false;
    let mut eof = false;
    for _ in 0..8 {
        match conn.stream.read(&mut scratch) {
            Ok(0) => {
                eof = true;
                break;
            }
            Ok(n) => {
                conn.buf.extend(&scratch[..n]);
                progressed = true;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return ReadOutcome::Failed,
        }
    }
    if progressed && shared.chaos.fire(ChaosSite::ServerRead, &conn.peer) {
        let _ = TcpStream::shutdown(&conn.stream, Shutdown::Both);
        return ReadOutcome::Failed;
    }
    match (progressed, eof) {
        (true, true) => ReadOutcome::ProgressThenEof,
        (true, false) => ReadOutcome::Progress,
        (false, true) => ReadOutcome::Eof,
        (false, false) => ReadOutcome::Idle,
    }
}

/// Outcome of one nonblocking write pass.
enum WriteOutcome {
    /// Everything buffered has been written.
    Flushed,
    /// The socket stopped accepting bytes; more remain.
    Partial,
    /// The connection is unusable (I/O error or injected torn write).
    Closed,
}

/// Writes buffered response bytes. This is the `server-write` chaos
/// site: a firing fault writes roughly half the remaining response and
/// tears the connection down — the torn-response failure clients must
/// detect via `Content-Length` framing.
#[expect(
    clippy::disallowed_methods,
    reason = "stamps write progress for the idle timeout"
)]
fn flush_write_buf(shared: &Shared, conn: &mut Conn) -> WriteOutcome {
    if conn.write_done() {
        return WriteOutcome::Flushed;
    }
    if shared.chaos.fire(ChaosSite::ServerWrite, &conn.peer) {
        let remaining = conn.write_buf.len() - conn.written;
        let torn = &conn.write_buf[conn.written..conn.written + remaining / 2];
        if !torn.is_empty() {
            let _ = conn.stream.write(torn);
        }
        let _ = TcpStream::shutdown(&conn.stream, Shutdown::Both);
        return WriteOutcome::Closed;
    }
    while !conn.write_done() {
        match conn.stream.write(&conn.write_buf[conn.written..]) {
            Ok(0) => return WriteOutcome::Closed,
            Ok(n) => {
                conn.written += n;
                conn.last_activity = Instant::now();
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return WriteOutcome::Partial,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return WriteOutcome::Closed,
        }
    }
    conn.write_buf.clear();
    conn.written = 0;
    WriteOutcome::Flushed
}

/// One full service pass over a connection: read, parse + dispatch,
/// drain completed responses, write. Returns `false` when the
/// connection should be dropped from the loop.
#[expect(
    clippy::disallowed_methods,
    reason = "stamps read progress and enforces the idle timeout"
)]
fn service_conn(shared: &Shared, conn: &mut Conn) -> bool {
    if !conn.stop_reading {
        match fill_read_buf(shared, conn) {
            ReadOutcome::Progress => {
                conn.last_activity = Instant::now();
                parse_available(shared, conn);
            }
            ReadOutcome::ProgressThenEof => {
                conn.last_activity = Instant::now();
                parse_available(shared, conn);
                conn.stop_reading = true;
                conn.close_after_flush = true;
            }
            ReadOutcome::Eof => {
                conn.stop_reading = true;
                conn.close_after_flush = true;
                if conn.pending.is_empty() && conn.write_done() {
                    return false; // port probe / clean client close
                }
            }
            ReadOutcome::Idle => {}
            ReadOutcome::Failed => return false,
        }
    }
    drain_pending(shared, conn);
    if matches!(flush_write_buf(shared, conn), WriteOutcome::Closed) {
        return false;
    }
    if conn.close_after_flush && conn.pending.is_empty() && conn.write_done() {
        return false;
    }
    if conn.pending.is_empty() && conn.write_done() && conn.last_activity.elapsed() > IDLE_TIMEOUT {
        if conn.buf.is_empty() {
            return false; // idle keep-alive connection, close silently
        }
        // A torn request that stopped arriving: answer and close.
        let resp = Response::text(408, "request timeout\n");
        shared
            .metrics
            .observe_request("timeout", 408, Duration::ZERO);
        conn.write_buf
            .extend_from_slice(&resp.serialize(false, false));
        conn.stop_reading = true;
        conn.close_after_flush = true;
    }
    true
}

/// Parses every complete request head currently buffered (bounded by
/// [`MAX_PIPELINED`]) and dispatches each one.
fn parse_available(shared: &Shared, conn: &mut Conn) {
    while !conn.stop_reading && conn.pending.len() < MAX_PIPELINED {
        match conn.buf.next_request() {
            ParseStep::Incomplete => break,
            ParseStep::Reject(status, msg) => {
                let resp = Response::text(status, format!("bad request: {msg}\n"));
                shared
                    .metrics
                    .observe_request("bad-request", status, Duration::ZERO);
                conn.pending.push_back(Pending::Ready {
                    bytes: resp.serialize(false, false),
                    keep_alive: false,
                });
                conn.stop_reading = true;
            }
            ParseStep::Request(req) => {
                if conn.requests_served > 0 {
                    shared.metrics.keepalive_reuse();
                }
                conn.requests_served += 1;
                dispatch(shared, conn, req);
            }
        }
    }
}

/// Dispatches one parsed request: route (panic-isolated), then queue
/// the response — serialized immediately for inline routes, as a
/// pending job otherwise.
#[expect(
    clippy::disallowed_methods,
    reason = "times the request for rsls_serve_request_duration_seconds"
)]
fn dispatch(shared: &Shared, conn: &mut Conn, req: Request) {
    let started = Instant::now();
    let head_only = req.method == "HEAD";
    let keep_alive_request = req.wants_keep_alive() && !shared.stopping();
    let routed = if req.method == "GET" || head_only {
        // Panic isolation per request: a routing bug turns into one
        // 500, not a dead event loop.
        panic::catch_unwind(AssertUnwindSafe(|| route(shared, &req, started))).unwrap_or_else(
            |_| {
                shared.metrics.request_panicked();
                Routed::Done(
                    "panic",
                    Response::text(500, "internal error: request handler panicked\n"),
                )
            },
        )
    } else {
        Routed::Done(
            "other",
            Response::text(405, "method not allowed\n").header("Allow", "GET, HEAD"),
        )
    };
    match routed {
        Routed::Done(label, resp) => {
            let keep = keep_alive_request && resp.status < 400;
            shared
                .metrics
                .observe_request(label, resp.status, started.elapsed());
            conn.pending.push_back(Pending::Ready {
                bytes: resp.serialize(head_only || resp.status == 304, keep),
                keep_alive: keep,
            });
            if !keep {
                conn.stop_reading = true;
            }
        }
        Routed::Queued { label, job, kind } => {
            conn.pending.push_back(Pending::Job {
                job,
                req,
                kind,
                label,
                head_only,
                keep_alive_request,
                started,
            });
        }
    }
}

/// Serializes every front-of-queue response that is ready, preserving
/// request order. A response that closes the connection clears the
/// remainder of the queue (standard pipelining semantics: the client
/// re-issues what it never got an answer to).
#[expect(
    clippy::disallowed_methods,
    reason = "times the request for rsls_serve_request_duration_seconds"
)]
fn drain_pending(shared: &Shared, conn: &mut Conn) {
    loop {
        let ready = match conn.pending.front() {
            None => break,
            Some(Pending::Ready { .. }) => true,
            Some(Pending::Job { job, .. }) => job.is_done(),
        };
        if !ready {
            break;
        }
        let Some(entry) = conn.pending.pop_front() else {
            break;
        };
        let keep = match entry {
            Pending::Ready { bytes, keep_alive } => {
                conn.write_buf.extend_from_slice(&bytes);
                keep_alive
            }
            Pending::Job {
                job,
                req,
                kind,
                label,
                head_only,
                keep_alive_request,
                started,
            } => {
                // The latch is done; `wait` returns without blocking.
                let resp = finish_job(shared, &kind, &req, started, job.wait());
                let keep = keep_alive_request && resp.status < 400 && !shared.stopping();
                shared
                    .metrics
                    .observe_request(label, resp.status, started.elapsed());
                conn.write_buf
                    .extend_from_slice(&resp.serialize(head_only || resp.status == 304, keep));
                keep
            }
        };
        if !keep {
            conn.stop_reading = true;
            conn.close_after_flush = true;
            conn.pending.clear();
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_source_lists_builtin_experiments() {
        let list = RegistrySource.list();
        assert!(list.iter().any(|e| e.id == "fig5"));
        assert!(list.iter().any(|e| e.id == "table6"));
        let json = serde_json::to_string(&list).unwrap();
        assert!(json.contains(r#""id":"fig1""#));
    }

    #[test]
    fn default_options_are_sane() {
        let opts = ServeOptions::default();
        assert!(opts.workers >= 1);
        assert!(opts.queue_depth >= 1);
        assert!(!opts.honor_signals);
        assert_eq!(opts.shards, 1);
        assert!(opts.shard_base.is_none());
        assert!(opts.chaos.is_none());
    }
}
