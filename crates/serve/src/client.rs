//! A minimal blocking HTTP/1.1 client.
//!
//! Exists for the integration tests and the CI smoke checks. One
//! [`Conn`] is one TCP connection: requests go out keep-alive
//! ([`Conn::request`]) and responses are framed with the server's own
//! [`http::parse_response`], so both ends agree byte-for-byte on
//! message boundaries. Not a general-purpose client.
//!
//! [`get`] is the raw one-shot request: open, send with
//! `Connection: close`, read, drop. [`get_with_retry`] wraps it in the
//! resilience the chaos plan's client faults (connection reset,
//! garbled status line, delay) are absorbed by: bounded attempts under
//! deterministic capped exponential backoff, an overall wall-clock
//! deadline, and `Retry-After` honoring on `503` — the server tells
//! overloaded clients when to come back, and the client listens
//! (clamped to its own backoff cap so a test never sleeps for the
//! server's full suggestion). Every re-attempt increments a
//! process-wide counter exported as `rsls_serve_client_retries_total`.

use std::collections::BTreeMap;
use std::io::{self, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rsls_chaos::{ChaosInjector, ChaosSite};

use crate::http;

/// Per-request read/write deadline. A cold experiment fetch can compute
/// for tens of seconds; hitting this means the server is wedged.
const IO_TIMEOUT: Duration = Duration::from_secs(120);

/// Process-wide count of client re-attempts (see
/// [`client_retries_total`]).
static CLIENT_RETRIES: AtomicU64 = AtomicU64::new(0);

/// How many re-attempts in-process clients have made, for `/metrics`.
pub fn client_retries_total() -> u64 {
    CLIENT_RETRIES.load(Ordering::Relaxed)
}

/// A fully-read response.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Headers, keyed by lowercased name.
    pub headers: BTreeMap<String, String>,
    /// Response body.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .get(&name.to_ascii_lowercase())
            .map(String::as_str)
    }

    /// The response `ETag`, unquoted.
    pub fn etag(&self) -> Option<&str> {
        self.headers.get("etag").map(|v| v.trim_matches('"'))
    }

    /// True when the server signalled it will close this connection.
    pub fn wants_close(&self) -> bool {
        self.headers
            .get("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// The `Retry-After` header parsed as whole seconds.
    pub fn retry_after_s(&self) -> Option<u64> {
        self.headers.get("retry-after")?.trim().parse().ok()
    }
}

/// One TCP connection to the server, with buffered response reads.
#[derive(Debug)]
pub struct Conn {
    reader: BufReader<TcpStream>,
    /// Responses read over this connection so far; >1 proves reuse.
    requests: u64,
}

impl Conn {
    /// Opens a connection to `addr`. This is the only socket-creating
    /// call in the serve crate. The client chaos sites fire around it,
    /// in [`get_with_retry_chaotic`]'s attempts: `client-reset` connects
    /// and abandons, `client-garble` discards a response that arrived,
    /// `client-delay` stalls before connecting.
    #[expect(
        clippy::disallowed_methods,
        reason = "chaos: client-reset, client-garble, client-delay"
    )]
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            requests: 0,
        })
    }

    /// Responses read over this connection.
    pub fn requests_served(&self) -> u64 {
        self.requests
    }

    /// Issues one keep-alive GET and reads its response.
    pub fn request<S: AsRef<str>>(
        &mut self,
        path: &str,
        extra: &[(S, S)],
    ) -> io::Result<ClientResponse> {
        self.send(path, extra, true)
    }

    /// One GET, asking the server to keep the connection or close it.
    fn send<S: AsRef<str>>(
        &mut self,
        path: &str,
        extra: &[(S, S)],
        keep_alive: bool,
    ) -> io::Result<ClientResponse> {
        let wire = encode_request(path, extra, keep_alive);
        self.reader.get_mut().write_all(&wire)?;
        self.read_response()
    }

    /// Frames one response off the wire.
    fn read_response(&mut self) -> io::Result<ClientResponse> {
        let (status, headers, body) = http::parse_response(&mut self.reader)?;
        self.requests += 1;
        Ok(ClientResponse {
            status,
            headers,
            body,
        })
    }
}

/// Serializes one GET for `path` with `extra` headers.
fn encode_request<S: AsRef<str>>(path: &str, extra: &[(S, S)], keep_alive: bool) -> Vec<u8> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut req = format!("GET {path} HTTP/1.1\r\nHost: rsls\r\nConnection: {connection}\r\n");
    for (name, value) in extra {
        req.push_str(name.as_ref());
        req.push_str(": ");
        req.push_str(value.as_ref());
        req.push_str("\r\n");
    }
    req.push_str("\r\n");
    req.into_bytes()
}

/// Retry/backoff/deadline policy for [`get_with_retry`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (>= 1; 1 = no retries).
    pub attempts: usize,
    /// Base backoff before the first re-attempt; attempt `k` waits
    /// `min(base << (k-1), cap)` — deterministic, no jitter.
    pub backoff_ms: u64,
    /// Ceiling on any single wait, including a server `Retry-After`.
    pub backoff_cap_ms: u64,
    /// Overall wall-clock budget: once spent, the last outcome is
    /// returned instead of waiting again.
    pub deadline: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            backoff_ms: 50,
            backoff_cap_ms: 2000,
            deadline: Duration::from_secs(30),
        }
    }
}

impl RetryPolicy {
    /// The deterministic wait before re-attempt `attempt` (1-based).
    fn backoff(&self, attempt: usize) -> Duration {
        let shifted = self
            .backoff_ms
            .checked_shl((attempt - 1).min(63) as u32)
            .unwrap_or(u64::MAX);
        Duration::from_millis(shifted.min(self.backoff_cap_ms))
    }
}

/// Performs one `GET` with optional extra headers on a connection of
/// its own (`Connection: close`), reading the full response.
pub fn get(
    addr: impl ToSocketAddrs,
    path: &str,
    headers: &[(&str, &str)],
) -> io::Result<ClientResponse> {
    Conn::connect(addr)?.send(path, headers, false)
}

/// [`get`] under a [`RetryPolicy`]: transport errors and `503`s are
/// retried with deterministic capped exponential backoff (a `503`'s
/// `Retry-After` is honored, clamped to the backoff cap) until the
/// attempts or the deadline run out. Any other status returns
/// immediately.
pub fn get_with_retry(
    addr: impl ToSocketAddrs + Copy,
    path: &str,
    headers: &[(&str, &str)],
    policy: &RetryPolicy,
) -> io::Result<ClientResponse> {
    get_with_retry_chaotic(addr, path, headers, policy, None)
}

/// [`get_with_retry`] with a chaos injector on the connection: resets,
/// garbled status lines, and delays fire client-side and must be
/// absorbed by the retry loop.
#[expect(
    clippy::disallowed_methods,
    reason = "the retry loop stops at the policy's wall-clock deadline"
)]
pub fn get_with_retry_chaotic(
    addr: impl ToSocketAddrs + Copy,
    path: &str,
    headers: &[(&str, &str)],
    policy: &RetryPolicy,
    chaos: Option<&ChaosInjector>,
) -> io::Result<ClientResponse> {
    let start = Instant::now();
    let attempts = policy.attempts.max(1);
    let mut last: io::Result<ClientResponse> = Err(io::Error::other("no request attempt was made"));
    for attempt in 0..attempts {
        if attempt > 0 {
            CLIENT_RETRIES.fetch_add(1, Ordering::Relaxed);
        }
        last = attempt_once(addr, path, headers, chaos);
        let wait = match &last {
            Ok(resp) if resp.status == 503 => {
                // Overload: come back when the server says, within our
                // own cap.
                let cap = Duration::from_millis(policy.backoff_cap_ms);
                resp.retry_after_s()
                    .map(|secs| Duration::from_secs(secs).min(cap))
                    .unwrap_or_default()
                    .max(policy.backoff(attempt + 1))
            }
            Ok(_) => return last,
            Err(_) => policy.backoff(attempt + 1),
        };
        if attempt + 1 == attempts || start.elapsed() + wait > policy.deadline {
            break;
        }
        std::thread::sleep(wait);
    }
    last
}

/// One chaos-instrumented request attempt.
fn attempt_once(
    addr: impl ToSocketAddrs + Copy,
    path: &str,
    headers: &[(&str, &str)],
    chaos: Option<&ChaosInjector>,
) -> io::Result<ClientResponse> {
    if let Some(chaos) = chaos {
        if chaos.fire(ChaosSite::ClientDelay, path) {
            std::thread::sleep(Duration::from_millis(2));
        }
        if chaos.fire(ChaosSite::ClientReset, path) {
            // Connect and abandon: the server sees a probe, the client
            // sees a reset before any response bytes arrived.
            let _ = Conn::connect(addr);
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "chaos: connection reset before the response",
            ));
        }
    }
    let resp = get(addr, path, headers)?;
    if let Some(chaos) = chaos {
        if chaos.fire(ChaosSite::ClientGarble, path) {
            // The bytes arrived but the status line was mangled in
            // flight: indistinguishable from a framing bug, retried the
            // same way.
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "chaos: garbled status line",
            ));
        }
    }
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ExperimentInfo, ExperimentSource, ServeOptions, Server};
    use rsls_experiments::{Scale, Table};
    use std::io::Read;
    use std::sync::Arc;

    #[test]
    fn requests_serialize_with_keepalive_and_extras() {
        let wire = encode_request("/reports/abc", &[("If-None-Match", "\"abc\"")], true);
        let text = String::from_utf8(wire).unwrap();
        assert!(text.starts_with("GET /reports/abc HTTP/1.1\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.contains("If-None-Match: \"abc\"\r\n"));
        assert!(text.ends_with("\r\n\r\n"));
        let closing = String::from_utf8(encode_request::<&str>("/healthz", &[], false)).unwrap();
        assert!(closing.contains("Connection: close\r\n"));
    }

    #[test]
    fn fetched_response_helpers_read_canonical_headers() {
        let mut headers = BTreeMap::new();
        headers.insert("etag".to_string(), "\"deadbeef\"".to_string());
        headers.insert("connection".to_string(), "close".to_string());
        headers.insert("retry-after".to_string(), "2".to_string());
        let resp = ClientResponse {
            status: 503,
            headers,
            body: Vec::new(),
        };
        assert_eq!(resp.etag(), Some("deadbeef"));
        assert!(resp.wants_close());
        assert_eq!(resp.retry_after_s(), Some(2));
    }

    /// A source with nothing to run: the cheap routes are enough here.
    struct EmptySource;

    impl ExperimentSource for EmptySource {
        fn list(&self) -> Vec<ExperimentInfo> {
            Vec::new()
        }
        fn run(&self, _id: &str, _scale: Scale) -> Option<Vec<Table>> {
            None
        }
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "the test serves from its own thread"
    )]
    fn with_server(f: impl FnOnce(std::net::SocketAddr)) {
        let server = Server::bind(
            "127.0.0.1:0",
            ServeOptions::default(),
            Arc::new(EmptySource),
        )
        .expect("bind ephemeral port");
        let handle = server.handle().expect("handle");
        let join = std::thread::spawn(move || server.run());
        f(handle.addr());
        handle.shutdown();
        join.join().expect("no panic").expect("clean shutdown");
    }

    #[test]
    fn one_shot_get_and_kept_alive_request_agree() {
        with_server(|addr| {
            let mut conn = Conn::connect(addr).expect("connect");
            for path in ["/healthz", "/experiments", "/nope"] {
                let one_shot = get(addr, path, &[]).expect("one-shot");
                let kept = conn.request::<&str>(path, &[]).expect("kept-alive");
                assert_eq!(one_shot.status, kept.status, "{path}");
                assert_eq!(one_shot.header("content-type"), kept.header("content-type"));
                assert_eq!(
                    one_shot.header("content-length"),
                    kept.header("content-length")
                );
                assert_eq!(one_shot.etag(), kept.etag());
                assert_eq!(one_shot.body, kept.body, "{path}");
                assert!(one_shot.wants_close(), "one-shot asks for close");
                assert_eq!(kept.wants_close(), kept.status >= 400);
            }
            assert_eq!(
                conn.requests_served(),
                3,
                "one connection carried all three"
            );
        });
    }

    #[test]
    fn get_sends_connection_close_and_the_server_closes() {
        with_server(|addr| {
            let mut conn = Conn::connect(addr).expect("connect");
            let resp = conn.send::<&str>("/healthz", &[], false).expect("response");
            assert_eq!(resp.status, 200);
            assert!(resp.wants_close());
            assert_eq!(conn.requests_served(), 1);
            let mut rest = Vec::new();
            let n = conn.reader.read_to_end(&mut rest).expect("clean EOF");
            assert_eq!(n, 0, "the server closed after the one response");
        });
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let policy = RetryPolicy {
            attempts: 8,
            backoff_ms: 50,
            backoff_cap_ms: 300,
            deadline: Duration::from_secs(5),
        };
        assert_eq!(policy.backoff(1), Duration::from_millis(50));
        assert_eq!(policy.backoff(2), Duration::from_millis(100));
        assert_eq!(policy.backoff(3), Duration::from_millis(200));
        assert_eq!(policy.backoff(4), Duration::from_millis(300), "capped");
        assert_eq!(policy.backoff(60), Duration::from_millis(300));
    }

    #[test]
    fn retry_gives_up_after_attempts_against_a_dead_port() {
        // Port 1 on localhost: connection refused immediately.
        let before = client_retries_total();
        let policy = RetryPolicy {
            attempts: 3,
            backoff_ms: 1,
            backoff_cap_ms: 2,
            deadline: Duration::from_secs(5),
        };
        let err = get_with_retry("127.0.0.1:1", "/healthz", &[], &policy).unwrap_err();
        assert_ne!(err.kind(), io::ErrorKind::Other, "a real transport error");
        assert_eq!(client_retries_total() - before, 2, "3 attempts = 2 retries");
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the test measures the retry loop against its wall-clock deadline"
    )]
    fn deadline_stops_retrying_early() {
        let policy = RetryPolicy {
            attempts: 100,
            backoff_ms: 400,
            backoff_cap_ms: 400,
            deadline: Duration::from_millis(200),
        };
        let start = Instant::now();
        let _ = get_with_retry("127.0.0.1:1", "/healthz", &[], &policy);
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "the deadline must bound total wait, not attempts × backoff"
        );
    }
}
