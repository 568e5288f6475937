//! The harness's own keep-alive HTTP/1.1 client.
//!
//! One [`Conn`] is one TCP connection. A response is framed here, not
//! by the server's parser: `Content-Length` bounds the body, a `304`
//! (like `204` and `1xx`) has no body whatever its headers say, and
//! `Connection: close` tells the caller to reconnect. There is no retry:
//! a `503` is an answer, and counts as a failed op.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A healthy local server answers in milliseconds; hitting this means
/// the run is wedged, and the op fails instead of hanging the driver.
const IO_TIMEOUT: Duration = Duration::from_secs(20);
/// Bound on a header block, so a broken peer cannot grow a buffer.
const MAX_HEAD_BYTES: usize = 64 * 1024;
/// Bound on a declared body length.
const MAX_BODY_BYTES: usize = 256 * 1024 * 1024;

/// One framed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// `ETag` without its quotes.
    pub etag: Option<String>,
    /// The server will close the connection after this response.
    pub close: bool,
    /// Body bytes (empty for `304`).
    pub body: Vec<u8>,
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Reads one response off `stream`. `Ok(None)` is a clean EOF before
/// the first byte — the peer closed an idle connection.
pub fn read_reply(stream: &mut impl BufRead) -> io::Result<Option<Reply>> {
    let mut line = String::new();
    if stream.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(bad("malformed status line"));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status code"))?;

    let mut content_length: Option<usize> = None;
    let mut etag = None;
    let mut close = version == "HTTP/1.0";
    let mut head_bytes = line.len();
    loop {
        line.clear();
        if stream.read_line(&mut line)? == 0 {
            return Err(bad("connection closed inside response headers"));
        }
        head_bytes += line.len();
        if head_bytes > MAX_HEAD_BYTES {
            return Err(bad("response head too large"));
        }
        let header = line.trim_end_matches(['\r', '\n']);
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(bad("malformed header line"));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let len: usize = value.parse().map_err(|_| bad("bad content-length"))?;
            if len > MAX_BODY_BYTES {
                return Err(bad("declared body too large"));
            }
            content_length = Some(len);
        } else if name.eq_ignore_ascii_case("etag") {
            etag = Some(value.trim_matches('"').to_string());
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }

    let bodiless = status == 304 || status == 204 || (100..200).contains(&status);
    let mut body = Vec::new();
    if !bodiless {
        match content_length {
            Some(len) => {
                body.resize(len, 0);
                stream.read_exact(&mut body)?;
            }
            None => {
                // No length: the body runs to EOF, which also ends the
                // connection.
                stream.read_to_end(&mut body)?;
                close = true;
            }
        }
    }
    Ok(Some(Reply {
        status,
        etag,
        close,
        body,
    }))
}

/// Serializes one keep-alive GET.
pub fn encode_get(path: &str, if_none_match: Option<&str>) -> Vec<u8> {
    let mut req = format!("GET {path} HTTP/1.1\r\nHost: rsls-benchmark\r\n");
    if let Some(tag) = if_none_match {
        req.push_str("If-None-Match: \"");
        req.push_str(tag);
        req.push_str("\"\r\n");
    }
    req.push_str("\r\n");
    req.into_bytes()
}

/// Percent-encodes a query-string value (everything but unreserved
/// characters).
pub fn percent_encode(value: &str) -> String {
    let mut out = String::with_capacity(value.len() * 3);
    for b in value.bytes() {
        if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'~') {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

/// A persistent connection that reconnects when the server closed the
/// previous exchange.
#[derive(Debug)]
pub struct Conn {
    addr: SocketAddr,
    stream: Option<BufReader<TcpStream>>,
    /// Connections opened after the first.
    pub reconnects: u64,
    /// Requests answered over a connection that had already served one.
    pub reused: u64,
    served_on_current: u64,
    opened: bool,
}

impl Conn {
    /// A connection to `addr`, opened on first use.
    pub fn new(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            stream: None,
            reconnects: 0,
            reused: 0,
            served_on_current: 0,
            opened: false,
        }
    }

    fn open(&mut self) -> io::Result<&mut BufReader<TcpStream>> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(IO_TIMEOUT))?;
            stream.set_write_timeout(Some(IO_TIMEOUT))?;
            self.stream = Some(BufReader::new(stream));
            if self.opened {
                self.reconnects += 1;
            }
            self.opened = true;
            self.served_on_current = 0;
        }
        Ok(self.stream.as_mut().expect("stream was just opened"))
    }

    /// Reopens the connection now if the last response closed it, so
    /// the op that drew the close also pays for the reconnect.
    pub fn reconnect_if_closed(&mut self) -> io::Result<()> {
        self.open().map(|_| ())
    }

    /// Issues one GET and frames its response. A connection the server
    /// closed is reopened here, inside the op that needs it; any error
    /// drops the connection so the next op starts clean.
    pub fn get(&mut self, path: &str, if_none_match: Option<&str>) -> io::Result<Reply> {
        let wire = encode_get(path, if_none_match);
        let result = (|| {
            let stream = self.open()?;
            stream.get_mut().write_all(&wire)?;
            read_reply(stream)?.ok_or_else(|| bad("connection closed before the response"))
        })();
        match &result {
            Ok(reply) => {
                if self.served_on_current > 0 {
                    self.reused += 1;
                }
                self.served_on_current += 1;
                if reply.close {
                    self.stream = None;
                }
            }
            Err(_) => self.stream = None,
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(wire: &[u8]) -> Vec<Reply> {
        let mut reader = BufReader::new(wire);
        let mut out = Vec::new();
        while let Some(reply) = read_reply(&mut reader).unwrap() {
            out.push(reply);
        }
        out
    }

    #[test]
    fn content_length_bounds_the_body_and_the_next_response_follows() {
        let replies = frame(
            b"HTTP/1.1 200 OK\r\nETag: \"abc\"\r\nContent-Length: 5\r\nConnection: keep-alive\r\n\r\nhello\
              HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
        );
        assert_eq!(replies.len(), 2);
        assert_eq!(replies[0].body, b"hello");
        assert_eq!(replies[0].etag.as_deref(), Some("abc"));
        assert!(!replies[0].close);
        assert_eq!(replies[1].body, b"ok");
    }

    #[test]
    fn a_304_has_no_body_even_with_a_content_length() {
        // The server keeps the entity's Content-Length on a 304.
        let replies = frame(
            b"HTTP/1.1 304 Not Modified\r\nETag: \"abc\"\r\nContent-Length: 120\r\n\r\n\
              HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\nx",
        );
        assert_eq!(replies.len(), 2);
        assert_eq!(replies[0].status, 304);
        assert!(replies[0].body.is_empty());
        assert_eq!(replies[1].body, b"x");
    }

    #[test]
    fn close_is_reported_and_a_missing_length_reads_to_eof() {
        let replies =
            frame(b"HTTP/1.1 404 Not Found\r\nContent-Length: 3\r\nConnection: close\r\n\r\nno\n");
        assert!(replies[0].close);
        assert_eq!(replies[0].status, 404);
        let replies = frame(b"HTTP/1.1 200 OK\r\n\r\nuntil eof");
        assert_eq!(replies[0].body, b"until eof");
        assert!(replies[0].close);
    }

    #[test]
    fn truncated_and_malformed_responses_are_errors() {
        let mut short = BufReader::new(&b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc"[..]);
        assert!(read_reply(&mut short).is_err());
        let mut junk = BufReader::new(&b"SMTP ready\r\n\r\n"[..]);
        assert!(read_reply(&mut junk).is_err());
        let mut torn = BufReader::new(&b"HTTP/1.1 200 OK\r\nContent-Le"[..]);
        assert!(read_reply(&mut torn).is_err());
        let mut empty = BufReader::new(&b""[..]);
        assert_eq!(read_reply(&mut empty).unwrap(), None);
    }

    #[test]
    fn requests_carry_the_conditional_header_and_encoded_queries() {
        let wire = String::from_utf8(encode_get("/reports/abc", Some("abc"))).unwrap();
        assert!(wire.starts_with("GET /reports/abc HTTP/1.1\r\n"));
        assert!(wire.contains("If-None-Match: \"abc\"\r\n"));
        assert!(wire.ends_with("\r\n\r\n"));
        assert_eq!(
            percent_encode("SELECT count(*) FROM runs WHERE scheme = 'LI (CG)'"),
            "SELECT%20count%28%2A%29%20FROM%20runs%20WHERE%20scheme%20%3D%20%27LI%20%28CG%29%27"
        );
    }
}
