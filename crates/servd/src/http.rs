//! A deliberately small HTTP/1.1 subset — exactly what the results
//! daemon and its push client need, std-only.
//!
//! One request per connection (`Connection: close` on every response):
//! retries then always start from a fresh connection, which keeps the
//! netfault keying per-connection and the failure unit obvious. Requests
//! are read through the [`ConnShim`] seam under two bounds that hold per
//! connection, never per daemon: a byte bound (header block and body are
//! each capped, oversized bodies are refused *before* they are read) and
//! a time bound (the socket read timeout is the slowloris deadline — a
//! client trickling bytes loses its connection, not a worker forever).

use crate::netfault::ConnShim;
use std::collections::BTreeMap;
use std::io::{self, Read, Write};

/// Cap on the request-line + header block. Generous for a CLI protocol.
pub(crate) const MAX_HEADER_BYTES: usize = 16 * 1024;

/// A parsed request. Header names are lowercased; the query string is
/// split into `key=value` pairs (no percent-decoding — the daemon's
/// parameter values are benchmark/system/fom names, which the perflog
/// format already restricts to tame characters).
#[derive(Debug, Clone)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub query: BTreeMap<String, String>,
    pub headers: BTreeMap<String, String>,
    pub body: Vec<u8>,
}

impl Request {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .get(&name.to_ascii_lowercase())
            .map(String::as_str)
    }

    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.get(name).map(String::as_str)
    }
}

/// Why a request could not be served from this connection. Each variant
/// maps to a response (or to silently dropping a connection that is
/// already unusable).
#[derive(Debug)]
pub enum HttpError {
    /// Declared body exceeds the daemon's bound — answer 413 and close.
    BodyTooLarge { declared: usize, max: usize },
    /// Header block exceeded 16 KiB — answer 431 and close.
    HeadersTooLarge,
    /// Malformed request line / headers / body framing — answer 400.
    Malformed(String),
    /// The socket timed out (slowloris) or died (reset, torn read) before
    /// a full request arrived — the connection is unusable, just close.
    Io(io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::BodyTooLarge { declared, max } => {
                write!(f, "request body {declared} bytes exceeds bound {max}")
            }
            HttpError::HeadersTooLarge => write!(f, "header block exceeds {MAX_HEADER_BYTES}"),
            HttpError::Malformed(why) => write!(f, "malformed request: {why}"),
            HttpError::Io(e) => write!(f, "connection failed: {e}"),
        }
    }
}

/// Read one request from `src` through the fault shim. `max_body` bounds
/// the accepted `Content-Length`; the caller bounds *time* by setting the
/// socket read timeout before calling.
pub fn read_request(
    src: &mut impl Read,
    shim: &ConnShim,
    max_body: usize,
) -> Result<Request, HttpError> {
    // Accumulate until the blank line; everything past it is body prefix.
    let mut head = Vec::new();
    let mut body_start;
    loop {
        let mut chunk = [0u8; 4096];
        let n = shim.read(src, &mut chunk).map_err(HttpError::Io)?;
        if n == 0 {
            return Err(HttpError::Malformed(
                "connection closed before header block ended".into(),
            ));
        }
        head.extend_from_slice(&chunk[..n]);
        if let Some(pos) = find_blank_line(&head) {
            body_start = pos;
            break;
        }
        if head.len() > MAX_HEADER_BYTES {
            return Err(HttpError::HeadersTooLarge);
        }
    }
    let header_text = std::str::from_utf8(&head[..body_start])
        .map_err(|_| HttpError::Malformed("header block is not UTF-8".into()))?
        .to_string();
    body_start += 4; // past \r\n\r\n
    let mut lines = header_text.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request".into()))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| HttpError::Malformed("missing method".into()))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing request target".into()))?;
    match parts.next() {
        Some(v) if v.starts_with("HTTP/1.") => {}
        other => return Err(HttpError::Malformed(format!("bad HTTP version {other:?}"))),
    }
    let (path, query_text) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q),
        None => (target.to_string(), ""),
    };
    let mut query = BTreeMap::new();
    for pair in query_text.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        query.insert(k.to_string(), v.to_string());
    }
    let mut headers = BTreeMap::new();
    for line in lines.filter(|l| !l.is_empty()) {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("bad header line {line:?}")))?;
        headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
    }
    let content_length = match headers.get("content-length") {
        None => 0,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| HttpError::Malformed(format!("bad content-length {v:?}")))?,
    };
    // The body bound is enforced on the *declared* length, before reading
    // a byte of it: an oversized upload costs the daemon one header block.
    if content_length > max_body {
        return Err(HttpError::BodyTooLarge {
            declared: content_length,
            max: max_body,
        });
    }
    let mut body = head[body_start..].to_vec();
    while body.len() < content_length {
        let mut chunk = [0u8; 8192];
        let want = (content_length - body.len()).min(chunk.len());
        let n = shim.read(src, &mut chunk[..want]).map_err(HttpError::Io)?;
        if n == 0 {
            return Err(HttpError::Malformed(format!(
                "body ended at byte {} of {content_length}",
                body.len()
            )));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok(Request {
        method,
        path,
        query,
        headers,
        body,
    })
}

fn find_blank_line(bytes: &[u8]) -> Option<usize> {
    bytes.windows(4).position(|w| w == b"\r\n\r\n")
}

/// A response to serialize. Always `Connection: close`.
#[derive(Debug, Clone)]
pub(crate) struct Response {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Response {
    pub fn new(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: body.into(),
        }
    }

    pub(crate) fn with_header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Response",
        }
    }

    /// Serialize and send through the fault shim in one write, so a short
    /// write tears the whole response rather than leaving framing intact
    /// with a truncated body the peer might misparse as complete.
    pub(crate) fn write_to(&self, dst: &mut impl Write, shim: &ConnShim) -> io::Result<()> {
        let mut text = format!("HTTP/1.1 {} {}\r\n", self.status, self.reason());
        for (name, value) in &self.headers {
            text.push_str(&format!("{name}: {value}\r\n"));
        }
        text.push_str(&format!(
            "Content-Length: {}\r\nConnection: close\r\n\r\n",
            self.body.len()
        ));
        let mut bytes = text.into_bytes();
        bytes.extend_from_slice(&self.body);
        shim.write_all(dst, &bytes)?;
        dst.flush()
    }
}

/// A parsed response (client side).
#[derive(Debug, Clone)]
pub struct ClientResponse {
    pub status: u16,
    pub headers: BTreeMap<String, String>,
    pub body: Vec<u8>,
}

impl ClientResponse {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .get(&name.to_ascii_lowercase())
            .map(String::as_str)
    }

    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Read a full response from `src` (plain reads — fault injection lives
/// in the daemon; the client's failure handling is exercised by what the
/// daemon's shim does to the wire). The body must satisfy
/// `Content-Length`: a short body (torn response) is an error, so a
/// truncated 200 is never mistaken for an acknowledgment.
pub(crate) fn read_response(src: &mut impl Read) -> io::Result<ClientResponse> {
    let mut bytes = Vec::new();
    let mut buf = [0u8; 8192];
    let header_end = loop {
        let n = src.read(&mut buf)?;
        if n == 0 {
            match find_blank_line(&bytes) {
                Some(pos) => break pos,
                None => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed before response headers ended",
                    ))
                }
            }
        }
        bytes.extend_from_slice(&buf[..n]);
        if let Some(pos) = find_blank_line(&bytes) {
            break pos;
        }
        if bytes.len() > MAX_HEADER_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "response header block too large",
            ));
        }
    };
    let header_text = std::str::from_utf8(&bytes[..header_end])
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "response headers not UTF-8"))?
        .to_string();
    let mut lines = header_text.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad status line {status_line:?}"),
            )
        })?;
    let mut headers = BTreeMap::new();
    for line in lines.filter(|l| !l.is_empty()) {
        if let Some((name, value)) = line.split_once(':') {
            headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
        }
    }
    let content_length = headers
        .get("content-length")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(0);
    let mut body = bytes[header_end + 4..].to_vec();
    while body.len() < content_length {
        let n = src.read(&mut buf)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!(
                    "response body ended at byte {} of {content_length}",
                    body.len()
                ),
            ));
        }
        body.extend_from_slice(&buf[..n]);
    }
    body.truncate(content_length);
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netfault::NetShim;

    fn shim() -> ConnShim {
        NetShim::Real.conn(0)
    }

    #[test]
    fn request_round_trips_with_query_and_body() {
        let raw = b"POST /v1/ingest?source=ci HTTP/1.1\r\n\
                    Content-Length: 11\r\nX-Thing:  a b \r\n\r\nhello world";
        let req = read_request(&mut io::Cursor::new(raw.to_vec()), &shim(), 1024).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/ingest");
        assert_eq!(req.query_param("source"), Some("ci"));
        assert_eq!(req.header("x-thing"), Some("a b"));
        assert_eq!(req.body, b"hello world");
    }

    #[test]
    fn oversized_body_is_refused_before_reading_it() {
        let raw = b"POST /v1/ingest HTTP/1.1\r\nContent-Length: 999999\r\n\r\n";
        let err = read_request(&mut io::Cursor::new(raw.to_vec()), &shim(), 1024).unwrap_err();
        assert!(matches!(
            err,
            HttpError::BodyTooLarge {
                declared: 999999,
                max: 1024
            }
        ));
    }

    #[test]
    fn short_body_is_malformed_not_a_request() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 50\r\n\r\nonly this";
        let err = read_request(&mut io::Cursor::new(raw.to_vec()), &shim(), 1024).unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)), "{err:?}");
    }

    #[test]
    fn unbounded_header_block_is_refused() {
        let raw = vec![b'A'; MAX_HEADER_BYTES + 4096];
        let err = read_request(&mut io::Cursor::new(raw), &shim(), 1024).unwrap_err();
        assert!(matches!(err, HttpError::HeadersTooLarge), "{err:?}");
    }

    #[test]
    fn response_round_trips_through_client_parser() {
        let resp = Response::new(503, "saturated").with_header("Retry-After", "7");
        let mut wire = Vec::new();
        resp.write_to(&mut wire, &shim()).unwrap();
        let parsed = read_response(&mut io::Cursor::new(wire)).unwrap();
        assert_eq!(parsed.status, 503);
        assert_eq!(parsed.header("retry-after"), Some("7"));
        assert_eq!(parsed.body_text(), "saturated");
    }

    #[test]
    fn truncated_response_body_is_an_error_not_an_ack() {
        let resp = Response::new(200, "acked:5");
        let mut wire = Vec::new();
        resp.write_to(&mut wire, &shim()).unwrap();
        wire.truncate(wire.len() - 3);
        assert!(read_response(&mut io::Cursor::new(wire)).is_err());
    }
}
