//! Property tests for the daemon's HTTP request parser: totality (any
//! byte stream, however it is chunked, parses or errors, never panics)
//! and completeness (`Ok` only for a request whose body is exactly its
//! declared `Content-Length`), under arbitrary read boundaries.

use proptest::prelude::*;
use servd::http::{read_request, HttpError, Request};
use servd::NetShim;
use std::io::{self, Read};

const MAX_BODY: usize = 256;

/// A reader that hands out `data` in pieces ending at the given cut
/// points, the way a socket returns whatever has arrived so far.
struct Chunked {
    data: Vec<u8>,
    cuts: Vec<usize>,
    pos: usize,
}

impl Chunked {
    fn new(data: Vec<u8>, cuts: &[usize]) -> Chunked {
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
        cuts.push(data.len());
        cuts.sort_unstable();
        cuts.dedup();
        Chunked { data, cuts, pos: 0 }
    }
}

impl Read for Chunked {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let end = self
            .cuts
            .iter()
            .copied()
            .find(|&c| c > self.pos)
            .unwrap_or(self.pos);
        let n = (end - self.pos).min(buf.len());
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

fn parse(wire: &[u8], cuts: &[usize]) -> Result<Request, HttpError> {
    read_request(
        &mut Chunked::new(wire.to_vec(), cuts),
        &NetShim::Real.conn(0),
        MAX_BODY,
    )
}

/// The `Ok` contract on any input: the body is exactly the declared
/// `Content-Length` (absent means empty), and it is the bytes that
/// follow the header block on the wire.
fn check_complete(wire: &[u8], req: &Request) -> TestCaseResult {
    let declared = req
        .header("content-length")
        .map(|v| {
            v.parse::<usize>()
                .expect("an accepted Content-Length parses")
        })
        .unwrap_or(0);
    prop_assert_eq!(req.body.len(), declared);
    let head_end = wire
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("an accepted request has a header block");
    prop_assert!(wire[head_end + 4..].starts_with(&req.body));
    Ok(())
}

/// A well-formed request: method, path, query, headers, body.
#[derive(Debug, Clone)]
struct Valid {
    method: String,
    path: String,
    query: Vec<(String, String)>,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Valid {
    fn wire(&self) -> Vec<u8> {
        let mut target = self.path.clone();
        let pairs: Vec<String> = self.query.iter().map(|(k, v)| format!("{k}={v}")).collect();
        if !pairs.is_empty() {
            target = format!("{target}?{}", pairs.join("&"));
        }
        let mut head = format!("{} {target} HTTP/1.1\r\n", self.method);
        for (name, value) in &self.headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str(&format!("Content-Length: {}\r\n\r\n", self.body.len()));
        let mut wire = head.into_bytes();
        wire.extend_from_slice(&self.body);
        wire
    }
}

fn arb_valid() -> impl Strategy<Value = Valid> {
    (
        "[A-Z]{1,7}",
        "/[a-z0-9/_.-]{0,24}",
        prop::collection::vec(("[a-z_]{1,8}", "[a-z0-9_.]{0,8}"), 0..4),
        prop::collection::vec(("x-[a-z-]{1,12}", "[ -~]{0,24}"), 0..5),
        prop::collection::vec(any::<u8>(), 0..MAX_BODY),
    )
        .prop_map(|(method, path, query, headers, body)| Valid {
            method,
            path,
            query,
            headers: headers
                .into_iter()
                .map(|(n, v)| (n, v.trim().to_string()))
                .collect(),
            body,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any byte stream parses or returns a structured error — no panics,
    /// and an `Ok` is always a complete request.
    #[test]
    fn parser_is_total_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..600),
        cuts in prop::collection::vec(0usize..4096, 0..8),
    ) {
        if let Ok(req) = parse(&bytes, &cuts) {
            check_complete(&bytes, &req)?;
        }
    }

    /// Arbitrary bytes behind a plausible request line reach the header
    /// and Content-Length parsing, and still never panic.
    #[test]
    fn parser_is_total_on_corrupted_headers(
        line in "[A-Z]{0,6} /[a-z?=&]{0,12} HTTP/1.[01]",
        junk in "[ -~\r\n]{0,300}",
        tail in prop::collection::vec(any::<u8>(), 0..64),
        cuts in prop::collection::vec(0usize..4096, 0..8),
    ) {
        let mut wire = format!("{line}\r\n{junk}").into_bytes();
        wire.extend_from_slice(&tail);
        if let Ok(req) = parse(&wire, &cuts) {
            check_complete(&wire, &req)?;
        }
    }

    /// A valid request parses to exactly its parts, however it is split.
    #[test]
    fn valid_request_round_trips_under_random_splits(
        valid in arb_valid(),
        cuts in prop::collection::vec(0usize..4096, 0..8),
    ) {
        let wire = valid.wire();
        let req = parse(&wire, &cuts).map_err(|e| TestCaseError::Fail(e.to_string()))?;
        check_complete(&wire, &req)?;
        prop_assert_eq!(&req.method, &valid.method);
        prop_assert_eq!(&req.path, &valid.path);
        // A repeated query key or header name keeps its last value.
        for (key, _) in &valid.query {
            let last = valid.query.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v);
            prop_assert_eq!(req.query_param(key), last.map(String::as_str));
        }
        for (name, _) in &valid.headers {
            let last = valid.headers.iter().rev().find(|(n, _)| n == name).map(|(_, v)| v);
            prop_assert_eq!(req.header(name), last.map(String::as_str));
        }
        prop_assert_eq!(&req.body, &valid.body);
    }

    /// A valid request cut short anywhere — in the header block or in the
    /// body — is never returned `Ok`.
    #[test]
    fn truncated_request_is_never_ok(
        valid in arb_valid(),
        cut in 0usize..4096,
        cuts in prop::collection::vec(0usize..4096, 0..8),
    ) {
        let wire = valid.wire();
        let short = &wire[..cut % wire.len()];
        prop_assert!(parse(short, &cuts).is_err());
    }
}

/// A body larger than the bound is refused however the header block is
/// chunked, before the body is read.
#[test]
fn oversized_declared_body_is_refused_under_any_split() {
    let wire = format!(
        "POST /v1/ingest HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        MAX_BODY + 1
    );
    for cut in 0..wire.len() {
        let err = parse(wire.as_bytes(), &[cut]).unwrap_err();
        assert!(matches!(err, HttpError::BodyTooLarge { .. }), "{err:?}");
    }
}
