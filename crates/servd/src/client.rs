//! The push client: `benchkit push DIR --to ADDR` and the `query`
//! helper CI uses instead of curl.
//!
//! Retries follow the repo's one backoff policy — `simhpc::faults`'
//! jitter-free 30·2ⁿ ≤ 480 s schedule, wall-clock scaled by the caller's
//! backoff scale — except when the daemon names its own
//! price: a `503` carries `Retry-After`, and the client honors it (scaled
//! the same way) instead of guessing. A response that arrives truncated
//! (torn by a daemon-side fault) is *not* an acknowledgment; the batch is
//! retried whole, and the daemon's content dedup makes that safe.

use crate::http::{read_response, ClientResponse};
use simhpc::faults::sleep_scaled;
use std::io::{self, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::Duration;

/// Connection/response deadline for one client attempt.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// One HTTP request over a fresh connection (one request per connection,
/// matching the daemon). Any transport error — including a torn response
/// — is an `Err`, never a partial success.
fn request(addr: &str, method: &str, path: &str, body: &[u8]) -> io::Result<ClientResponse> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
    stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\n");
    if !body.is_empty() {
        head.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    head.push_str("Connection: close\r\n\r\n");
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(body);
    stream.write_all(&bytes)?;
    stream.flush()?;
    read_response(&mut stream)
}

/// `GET` a daemon endpoint.
pub fn http_get(addr: &str, path: &str) -> io::Result<ClientResponse> {
    request(addr, "GET", path, &[])
}

/// `POST` a body to a daemon endpoint.
pub fn http_post(addr: &str, path: &str, body: &[u8]) -> io::Result<ClientResponse> {
    request(addr, "POST", path, body)
}

/// What one `push` accomplished.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PushReport {
    pub files: usize,
    /// Records newly acknowledged by the daemon across all batches.
    pub acked: u64,
    /// Records the daemon had already acknowledged (retries, re-pushes).
    pub duplicates: u64,
    /// Attempts that were retried (transport failures and 503s).
    pub retries: u32,
}

/// Push error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PushError(pub String);

impl std::fmt::Display for PushError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for PushError {}

/// Upload every `*.jsonl` perflog under `dir` (a file is also accepted)
/// to `addr`'s `/v1/ingest`, one batch per file in name order. Each batch
/// is retried up to `max_retries` times on transport failure or a `5xx`
/// answer; an unparseable batch (`400`) fails immediately — retrying a
/// malformed file cannot fix it. Retry sleeps last the nominal wait times
/// `backoff_scale` (0 retries at once).
pub fn push_dir(
    dir: &Path,
    addr: &str,
    max_retries: u32,
    backoff_scale: f64,
    out: &mut dyn Write,
) -> Result<PushReport, PushError> {
    let files = perflogs::input_files(dir)
        .map_err(|e| PushError(format!("cannot read `{}`: {e}", dir.display())))?;
    if files.is_empty() {
        return Err(PushError(format!(
            "`{}`: no .jsonl perflogs to push",
            dir.display()
        )));
    }
    let mut report = PushReport {
        files: files.len(),
        ..PushReport::default()
    };
    for file in &files {
        let body = std::fs::read(file)
            .map_err(|e| PushError(format!("cannot read `{}`: {e}", file.display())))?;
        let mut attempt = 0u32;
        loop {
            match http_post(addr, "/v1/ingest", &body) {
                Ok(resp) if resp.status == 200 => {
                    let (acked, duplicates) = parse_ack(&resp);
                    report.acked += acked;
                    report.duplicates += duplicates;
                    writeln!(
                        out,
                        "pushed {}: {acked} acked, {duplicates} duplicate",
                        file.display()
                    )
                    .ok();
                    break;
                }
                // Any 5xx is the daemon's transient trouble (saturation,
                // a faulted WAL append that rolled back): retryable. 4xx
                // means this batch can never succeed: fatal.
                Ok(resp) if resp.status >= 500 => {
                    attempt += 1;
                    if attempt > max_retries {
                        return Err(PushError(format!(
                            "`{}`: daemon still answering {} after {max_retries} retries",
                            file.display(),
                            resp.status
                        )));
                    }
                    report.retries += 1;
                    // The daemon knows its own drain rate: honor its
                    // Retry-After over the default schedule when present.
                    let nominal = resp
                        .header("retry-after")
                        .and_then(|v| v.parse::<f64>().ok())
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .unwrap_or_else(|| simhpc::faults::backoff_s(attempt));
                    writeln!(
                        out,
                        "daemon answered {}; retrying {} in {nominal}s (attempt {attempt})",
                        resp.status,
                        file.display()
                    )
                    .ok();
                    sleep_scaled(nominal, backoff_scale);
                }
                Ok(resp) => {
                    return Err(PushError(format!(
                        "`{}`: daemon answered {}: {}",
                        file.display(),
                        resp.status,
                        resp.body_text().trim_end()
                    )));
                }
                Err(e) => {
                    attempt += 1;
                    if attempt > max_retries {
                        return Err(PushError(format!(
                            "`{}`: push failed after {max_retries} retries: {e}",
                            file.display()
                        )));
                    }
                    report.retries += 1;
                    let nominal = simhpc::faults::backoff_s(attempt);
                    writeln!(
                        out,
                        "push of {} failed ({e}); retrying in {nominal}s (attempt {attempt})",
                        file.display()
                    )
                    .ok();
                    sleep_scaled(nominal, backoff_scale);
                }
            }
        }
    }
    Ok(report)
}

fn parse_ack(resp: &ClientResponse) -> (u64, u64) {
    let text = resp.body_text();
    let Ok(v) = tinycfg::parse(text.trim()) else {
        return (0, 0);
    };
    let int = |key: &str| {
        v.get_path(key)
            .and_then(|x| x.as_int())
            .and_then(|i| u64::try_from(i).ok())
            .unwrap_or(0)
    };
    (int("acked"), int("duplicates"))
}
