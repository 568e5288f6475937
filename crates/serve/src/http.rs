//! Minimal HTTP/1.1 request parsing and response serialization.
//!
//! Just enough protocol for the service's GET-only API: request line +
//! headers in, status line + headers + body out. Since PR 8 the parser
//! is **incremental** — [`RequestBuffer`] accumulates whatever bytes
//! the nonblocking event loop read and yields complete request heads as
//! they materialize, which is what makes keep-alive and pipelining
//! possible — and responses serialize with either `Connection:
//! keep-alive` or `Connection: close` ([`Response::serialize`]).

use std::collections::BTreeMap;
use std::io::{self, BufRead, Read, Write};

/// Upper bound on one request/header line, in bytes.
const MAX_LINE: u64 = 8 * 1024;
/// Upper bound on the number of request headers.
const MAX_HEADERS: usize = 100;
/// Upper bound on a buffered request head (request line + headers).
const MAX_HEAD: usize = 16 * 1024;

/// A parsed request head (the service never reads bodies).
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method (`GET`, `HEAD`, ...).
    pub method: String,
    /// Decoded path component of the request target (query stripped).
    pub path: String,
    /// Query parameters in target order, percent-decoded (`+` is a
    /// space). Keys keep duplicates; [`Request::query_param`] takes the
    /// first.
    pub query: Vec<(String, String)>,
    /// Headers, keyed by lowercased name.
    pub headers: BTreeMap<String, String>,
    /// False only for `HTTP/1.0` requests (keep-alive defaults differ).
    pub version_11: bool,
}

impl Request {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .get(&name.to_ascii_lowercase())
            .map(String::as_str)
    }

    /// First query parameter named `name`, already percent-decoded.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection should stay open after this exchange:
    /// HTTP/1.1 defaults to keep-alive unless the request says `close`;
    /// HTTP/1.0 closes unless it says `keep-alive`.
    pub fn wants_keep_alive(&self) -> bool {
        let tokens: Vec<String> = self
            .header("connection")
            .map(|v| {
                v.split(',')
                    .map(|t| t.trim().to_ascii_lowercase())
                    .collect()
            })
            .unwrap_or_default();
        if tokens.iter().any(|t| t == "close") {
            false
        } else if tokens.iter().any(|t| t == "keep-alive") {
            true
        } else {
            self.version_11
        }
    }

    /// Whether an `If-None-Match` header matches `etag` (either the
    /// exact quoted tag or the `*` wildcard; weak validators `W/"…"`
    /// also match — byte-identical bodies are the only thing we serve).
    pub fn if_none_match(&self, etag: &str) -> bool {
        let Some(value) = self.header("if-none-match") else {
            return false;
        };
        value.split(',').map(str::trim).any(|candidate| {
            let candidate = candidate.strip_prefix("W/").unwrap_or(candidate);
            candidate == "*" || candidate.trim_matches('"') == etag
        })
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Percent-decodes one query component: `%XX` becomes the byte `XX`
/// (malformed escapes pass through literally), `+` becomes a space,
/// and non-UTF-8 results are lossily replaced.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                let hex = bytes.get(i + 1..i + 3).and_then(|pair| {
                    let s = std::str::from_utf8(pair).ok()?;
                    u8::from_str_radix(s, 16).ok()
                });
                match hex {
                    Some(byte) => {
                        out.push(byte);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Splits a query string (`a=1&b=x%20y`) into decoded pairs. A key
/// with no `=` decodes with an empty value.
fn parse_query(query: &str) -> Vec<(String, String)> {
    query
        .split('&')
        .filter(|part| !part.is_empty())
        .map(|part| match part.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(part), String::new()),
        })
        .collect()
}

/// Reads one CRLF (or bare-LF) terminated line, without the terminator.
/// `Ok(None)` means clean EOF before any byte.
fn read_line(stream: &mut impl BufRead) -> io::Result<Option<String>> {
    let mut buf = Vec::new();
    let n = stream.take(MAX_LINE).read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.last() != Some(&b'\n') {
        return Err(bad("request line too long or truncated"));
    }
    buf.pop();
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| bad("request is not UTF-8"))
}

/// Pieces of a parsed request line: method, path, query pairs, and
/// whether the version is HTTP/1.1 (keep-alive by default).
type RequestLine = (String, String, Vec<(String, String)>, bool);

/// Parses one request line (`GET /x?q=1 HTTP/1.1`) into its pieces.
fn parse_request_line(line: &str) -> Result<RequestLine, ParseStep> {
    let mut parts = line.split_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(ParseStep::Reject(400, "malformed request line"));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ParseStep::Reject(400, "unsupported HTTP version"));
    }
    let without_fragment = target.split('#').next().unwrap_or(target);
    let (path, query) = match without_fragment.split_once('?') {
        Some((path, query)) => (path, parse_query(query)),
        None => (without_fragment, Vec::new()),
    };
    Ok((
        method.to_string(),
        path.to_string(),
        query,
        version != "HTTP/1.0",
    ))
}

/// Parses one request head from `stream`.
///
/// Returns `Ok(None)` on a connection closed before sending anything
/// (common with health-check port probes), `Err` on malformed input.
/// This is the blocking, one-shot surface (tests and simple tools); the
/// event loop parses incrementally through [`RequestBuffer`].
pub fn parse_request(stream: &mut impl BufRead) -> io::Result<Option<Request>> {
    let Some(line) = read_line(stream)? else {
        return Ok(None);
    };
    let (method, path, query, version_11) = match parse_request_line(&line) {
        Ok(parts) => parts,
        Err(ParseStep::Reject(_, msg)) => return Err(bad(msg)),
        Err(_) => return Err(bad("malformed request line")),
    };
    let mut headers = BTreeMap::new();
    loop {
        let Some(line) = read_line(stream)? else {
            return Err(bad("connection closed inside headers"));
        };
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(bad("too many headers"));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(bad("malformed header line"));
        };
        headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
    }
    Ok(Some(Request {
        method,
        path,
        query,
        headers,
        version_11,
    }))
}

/// Outcome of one [`RequestBuffer::next_request`] attempt.
#[derive(Debug)]
pub enum ParseStep {
    /// A complete request head was consumed from the buffer.
    Request(Request),
    /// The buffered bytes do not yet hold a full head; read more.
    Incomplete,
    /// The head is unusable. Respond with this status (`400` malformed,
    /// `431` oversized) and close the connection — the buffer can no
    /// longer be framed.
    Reject(u16, &'static str),
}

/// Incremental request-head parser for the nonblocking event loop.
///
/// The loop appends whatever `read` returned ([`RequestBuffer::extend`])
/// and drains complete heads with [`RequestBuffer::next_request`] — a
/// request split across ten TCP segments and ten pipelined requests in
/// one segment both come out the same way. Bounds are enforced on the
/// *buffered* bytes, so an attacker streaming an endless header line is
/// rejected at [`MAX_HEAD`] without ever allocating past it.
#[derive(Debug, Default)]
pub struct RequestBuffer {
    buf: Vec<u8>,
}

impl RequestBuffer {
    /// An empty buffer.
    pub fn new() -> RequestBuffer {
        RequestBuffer::default()
    }

    /// Appends freshly read bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// True when no partial request is buffered (a connection closing
    /// now is a clean close, not a truncated request).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Tries to frame and parse the next request head from the buffer.
    pub fn next_request(&mut self) -> ParseStep {
        let Some((head_len, consumed)) = find_head_end(&self.buf) else {
            if self.buf.len() > MAX_HEAD {
                return ParseStep::Reject(431, "request head too large");
            }
            // An unterminated line longer than the line bound can never
            // become a valid head; reject before buffering more.
            let tail_line = self.buf.iter().rev().take_while(|&&b| b != b'\n').count();
            if tail_line as u64 > MAX_LINE {
                return ParseStep::Reject(431, "request line or header too large");
            }
            return ParseStep::Incomplete;
        };
        let step = parse_head(&self.buf[..head_len]);
        self.buf.drain(..consumed);
        step
    }
}

/// Finds the end of the first request head in `buf`: returns
/// `(head length, bytes to consume)` for the earliest blank line
/// (`\r\n\r\n` or bare `\n\n`).
fn find_head_end(buf: &[u8]) -> Option<(usize, usize)> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            match buf.get(i + 1..i + 3) {
                Some(b"\r\n") => return Some((i + 1, i + 3)),
                _ => {
                    if buf.get(i + 1) == Some(&b'\n') {
                        return Some((i + 1, i + 2));
                    }
                }
            }
        }
        i += 1;
    }
    None
}

/// Parses one complete request head (everything up to the blank line).
fn parse_head(head: &[u8]) -> ParseStep {
    let Ok(text) = std::str::from_utf8(head) else {
        return ParseStep::Reject(400, "request is not UTF-8");
    };
    let mut lines = text.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let Some(request_line) = lines.next() else {
        return ParseStep::Reject(400, "empty request head");
    };
    if request_line.len() as u64 > MAX_LINE {
        return ParseStep::Reject(431, "request line too large");
    }
    let (method, path, query, version_11) = match parse_request_line(request_line) {
        Ok(parts) => parts,
        Err(step) => return step,
    };
    let mut headers = BTreeMap::new();
    for line in lines {
        if line.is_empty() {
            continue; // the trailing blank terminator
        }
        if line.len() as u64 > MAX_LINE {
            return ParseStep::Reject(431, "header line too large");
        }
        if headers.len() >= MAX_HEADERS {
            return ParseStep::Reject(431, "too many headers");
        }
        let Some((name, value)) = line.split_once(':') else {
            return ParseStep::Reject(400, "malformed header line");
        };
        headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
    }
    ParseStep::Request(Request {
        method,
        path,
        query,
        headers,
        version_11,
    })
}

/// An HTTP response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Headers in insertion order (names as written on the wire).
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// An empty response with the given status.
    pub fn new(status: u16) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// A `text/plain` response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response::new(status)
            .header("Content-Type", "text/plain; charset=utf-8")
            .with_body(body.into().into_bytes())
    }

    /// An `application/json` response.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response::new(status)
            .header("Content-Type", "application/json")
            .with_body(body.into())
    }

    /// Appends a header (builder style).
    pub fn header(mut self, name: impl Into<String>, value: impl Into<String>) -> Response {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Replaces the body (builder style).
    pub fn with_body(mut self, body: Vec<u8>) -> Response {
        self.body = body;
        self
    }

    /// Serializes the response to wire bytes. `head_only` omits the
    /// body (HEAD and 304 responses) while keeping the entity headers;
    /// `keep_alive` picks the `Connection` header, and every response
    /// is `Content-Length`-framed so a kept-alive peer can find the
    /// next response boundary.
    pub fn serialize(&self, head_only: bool, keep_alive: bool) -> Vec<u8> {
        let mut out = Vec::with_capacity(128 + if head_only { 0 } else { self.body.len() });
        out.extend_from_slice(
            format!("HTTP/1.1 {} {}\r\n", self.status, reason(self.status)).as_bytes(),
        );
        for (name, value) in &self.headers {
            out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
        }
        out.extend_from_slice(format!("Content-Length: {}\r\n", self.body.len()).as_bytes());
        let conn = if keep_alive { "keep-alive" } else { "close" };
        out.extend_from_slice(format!("Connection: {conn}\r\n\r\n").as_bytes());
        if !head_only {
            out.extend_from_slice(&self.body);
        }
        out
    }

    /// Serializes the response with `Connection: close` (the one-shot
    /// blocking surface; the event loop uses [`Response::serialize`]).
    pub fn write_to(&self, w: &mut impl Write, head_only: bool) -> io::Result<()> {
        w.write_all(&self.serialize(head_only, false))?;
        w.flush()
    }
}

/// Canonical reason phrase for the status codes the service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        304 => "Not Modified",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Reads a full response from `stream` (status line, headers, then
/// `Content-Length` bytes of body, or to EOF without one). Shared by
/// [`crate::client`]; lives here so parse/serialize stay one module.
pub fn parse_response(
    stream: &mut impl BufRead,
) -> io::Result<(u16, BTreeMap<String, String>, Vec<u8>)> {
    let Some(line) = read_line(stream)? else {
        return Err(bad("empty response"));
    };
    let mut parts = line.split_whitespace();
    let status = parts
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut headers = BTreeMap::new();
    loop {
        let Some(line) = read_line(stream)? else {
            return Err(bad("connection closed inside response headers"));
        };
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
        }
    }
    let mut body = Vec::new();
    match headers.get("content-length").map(|v| v.parse::<u64>()) {
        Some(Ok(len)) => {
            // The peer's length bounds the read, never an allocation:
            // the body grows only with bytes that actually arrive.
            stream.take(len).read_to_end(&mut body)?;
            if (body.len() as u64) < len {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed inside response body",
                ));
            }
        }
        _ => {
            stream.read_to_end(&mut body)?;
        }
    }
    Ok((status, headers, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(s: &str) -> io::Result<Option<Request>> {
        parse_request(&mut BufReader::new(s.as_bytes()))
    }

    #[test]
    fn parses_a_get_request() {
        let req = parse("GET /experiments/fig5?x=1 HTTP/1.1\r\nHost: a\r\nX-Weird:  v \r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/experiments/fig5");
        assert_eq!(req.header("host"), Some("a"));
        assert_eq!(req.header("X-WEIRD"), Some("v"));
    }

    #[test]
    fn parses_query_parameters_with_percent_decoding() {
        let req = parse(
            "GET /query?sql=SELECT%20scheme%2C%20avg(energy)+FROM+runs&x=&flag HTTP/1.1\r\n\r\n",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.path, "/query");
        assert_eq!(
            req.query_param("sql"),
            Some("SELECT scheme, avg(energy) FROM runs")
        );
        assert_eq!(req.query_param("x"), Some(""));
        assert_eq!(req.query_param("flag"), Some(""));
        assert_eq!(req.query_param("missing"), None);
        // Malformed escapes pass through literally rather than erroring.
        let req = parse("GET /q?a=100%25&b=%zz HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.query_param("a"), Some("100%"));
        assert_eq!(req.query_param("b"), Some("%zz"));
    }

    #[test]
    fn eof_before_bytes_is_none() {
        assert!(parse("").unwrap().is_none());
    }

    #[test]
    fn malformed_inputs_error() {
        assert!(parse("GET\r\n\r\n").is_err());
        assert!(parse("GET / SPDY/3\r\n\r\n").is_err());
        assert!(parse("GET / HTTP/1.1\r\nno-colon-here\r\n\r\n").is_err());
        assert!(parse("GET / HTTP/1.1\r\nHost: a").is_err()); // EOF in headers
    }

    #[test]
    fn if_none_match_variants() {
        let mk = |v: &str| {
            parse(&format!("GET / HTTP/1.1\r\nIf-None-Match: {v}\r\n\r\n"))
                .unwrap()
                .unwrap()
        };
        assert!(mk("\"abc\"").if_none_match("abc"));
        assert!(mk("W/\"abc\"").if_none_match("abc"));
        assert!(mk("\"x\", \"abc\"").if_none_match("abc"));
        assert!(mk("*").if_none_match("anything"));
        assert!(!mk("\"x\"").if_none_match("abc"));
    }

    #[test]
    fn response_round_trips_through_parse_response() {
        let resp = Response::json(200, br#"{"ok":true}"#.to_vec()).header("ETag", "\"e\"");
        let mut wire = Vec::new();
        resp.write_to(&mut wire, false).unwrap();
        let (status, headers, body) = parse_response(&mut BufReader::new(wire.as_slice())).unwrap();
        assert_eq!(status, 200);
        assert_eq!(headers.get("etag").map(String::as_str), Some("\"e\""));
        assert_eq!(headers.get("connection").map(String::as_str), Some("close"));
        assert_eq!(body, br#"{"ok":true}"#);
    }

    #[test]
    fn response_content_length_bounds_the_read_not_the_allocation() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551615\r\n\r\nok";
        let err = parse_response(&mut BufReader::new(&wire[..])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn incremental_parse_handles_torn_bytes() {
        let mut buf = RequestBuffer::new();
        let wire = b"GET /healthz HTTP/1.1\r\nHost: a\r\n\r\n";
        buf.extend(&wire[..9]);
        assert!(matches!(buf.next_request(), ParseStep::Incomplete));
        buf.extend(&wire[9..wire.len() - 1]);
        assert!(matches!(buf.next_request(), ParseStep::Incomplete));
        buf.extend(&wire[wire.len() - 1..]);
        match buf.next_request() {
            ParseStep::Request(req) => {
                assert_eq!(req.path, "/healthz");
                assert!(req.version_11);
            }
            other => panic!("expected a request, got {other:?}"),
        }
        assert!(buf.is_empty());
    }

    #[test]
    fn incremental_parse_yields_pipelined_requests_in_order() {
        let mut buf = RequestBuffer::new();
        buf.extend(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nHost: x\r\n\r\nGET /c HT");
        let paths: Vec<String> = std::iter::from_fn(|| match buf.next_request() {
            ParseStep::Request(r) => Some(r.path),
            _ => None,
        })
        .collect();
        assert_eq!(paths, ["/a", "/b"]);
        assert!(!buf.is_empty(), "the torn third request stays buffered");
        buf.extend(b"TP/1.1\r\n\r\n");
        assert!(matches!(
            buf.next_request(),
            ParseStep::Request(r) if r.path == "/c"
        ));
    }

    #[test]
    fn oversized_heads_reject_with_431_and_garbage_with_400() {
        let mut buf = RequestBuffer::new();
        let huge = format!("GET / HTTP/1.1\r\nX-Big: {}\r\n\r\n", "v".repeat(9000));
        buf.extend(huge.as_bytes());
        assert!(matches!(buf.next_request(), ParseStep::Reject(431, _)));

        // An endless unterminated line rejects before a blank line ever
        // arrives.
        let mut buf = RequestBuffer::new();
        buf.extend("GET / HTTP/1.1\r\nX-Endless: ".as_bytes());
        buf.extend("y".repeat(9000).as_bytes());
        assert!(matches!(buf.next_request(), ParseStep::Reject(431, _)));

        let mut buf = RequestBuffer::new();
        buf.extend(b"not an http request\r\n\r\n");
        assert!(matches!(buf.next_request(), ParseStep::Reject(400, _)));
    }

    #[test]
    fn keep_alive_semantics_follow_version_and_connection_header() {
        let parse_one = |wire: &str| -> Request {
            let mut buf = RequestBuffer::new();
            buf.extend(wire.as_bytes());
            match buf.next_request() {
                ParseStep::Request(r) => r,
                other => panic!("expected request, got {other:?}"),
            }
        };
        assert!(parse_one("GET / HTTP/1.1\r\n\r\n").wants_keep_alive());
        assert!(!parse_one("GET / HTTP/1.0\r\n\r\n").wants_keep_alive());
        assert!(!parse_one("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").wants_keep_alive());
        assert!(parse_one("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").wants_keep_alive());
    }

    #[test]
    fn serialize_picks_the_connection_header() {
        let resp = Response::text(200, "ok");
        let ka = String::from_utf8(resp.serialize(false, true)).unwrap();
        assert!(ka.contains("Connection: keep-alive\r\n"));
        assert!(ka.ends_with("ok"));
        let close = String::from_utf8(resp.serialize(false, false)).unwrap();
        assert!(close.contains("Connection: close\r\n"));
    }

    #[test]
    fn head_only_omits_body_but_keeps_length() {
        let resp = Response::text(200, "hello");
        let mut wire = Vec::new();
        resp.write_to(&mut wire, true).unwrap();
        let s = String::from_utf8(wire).unwrap();
        assert!(s.contains("Content-Length: 5"));
        assert!(!s.ends_with("hello"));
    }
}
