//! The results daemon: `benchkit serve DIR --addr HOST:PORT`.
//!
//! Accepts perflog JSONL streams (`POST /v1/ingest`) and answers queries
//! (`GET /v1/fom`, `/v1/verdict`, `/v1/history`, `/v1/health`) over the
//! multi-writer store directory, as just another lease-holding writer.
//! Every robustness mechanism has a narrow blast radius by construction:
//!
//! * **Admission control.** A bounded worker pool behind a bounded queue;
//!   a connection that finds both full is answered `503` +
//!   `Retry-After` immediately by the acceptor. The daemon never queues
//!   unboundedly — overload degrades to fast rejections, not to a
//!   lengthening tail of half-served clients.
//! * **Deadlines and bounds.** Per-connection read/write timeouts (the
//!   slowloris answer) and bounded header/body sizes (the oversized-body
//!   answer) hold per connection: the offender loses its connection, the
//!   sibling on the next worker never notices.
//! * **Durability before acknowledgment.** An ingest batch's new records
//!   go into the [WAL](crate::wal) as one group commit, one write and one
//!   fsync, before the `200` is written; restart replays the WAL,
//!   truncating torn tails, so an acknowledged record survives SIGKILL. Retried batches deduplicate on canonical record
//!   content, so a client that never saw its ack can safely re-push.
//! * **Graceful drain.** SIGTERM (or the in-process drain flag) stops the
//!   acceptor, lets in-flight requests finish, releases the daemon lease,
//!   and returns — the engine crate's TERM→grace discipline, serverside.

use crate::http::{read_request, HttpError, Request, Response};
use crate::netfault::NetShim;
use crate::wal::IngestWal;
use perflogs::PerflogRecord;
use spackle::{read_lease_info, write_lease, DiskStore, IoShim, StoreOptions};
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::BuildHasher;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

/// Subdirectory of the store that holds the daemon's own state (WAL,
/// daemon lease). Invisible to `fsck`, which scans only store layout.
pub const SERVD_DIR: &str = "servd";

/// How long the acceptor blocks in `poll(2)` for a connection before it
/// rechecks the drain flags and the lease-renewal clock.
const ACCEPT_POLL_MS: i32 = 50;

/// Daemon configuration. The defaults favor the torture suites' scale;
/// production use tunes via CLI flags.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    pub dir: PathBuf,
    pub addr: String,
    /// Worker threads handling accepted connections.
    pub workers: usize,
    /// Accepted-but-unhandled connection bound. `0` = rendezvous: a
    /// connection is admitted only when a worker is waiting for it.
    pub queue: usize,
    /// Per-connection socket read/write timeout — the slowloris deadline.
    pub read_timeout_ms: u64,
    /// Bound on an ingest request body.
    pub max_body: usize,
    /// `Retry-After` seconds advertised on admission rejections.
    pub retry_after_s: u64,
    /// Daemon-lease lifetime without renewal.
    pub lease_ttl_s: i64,
}

impl ServeConfig {
    pub fn new(dir: impl Into<PathBuf>, addr: impl Into<String>) -> ServeConfig {
        ServeConfig {
            dir: dir.into(),
            addr: addr.into(),
            workers: 4,
            queue: 16,
            read_timeout_ms: 5_000,
            max_body: 4 * 1024 * 1024,
            retry_after_s: 1,
            lease_ttl_s: 60,
        }
    }
}

/// What a drained daemon did with its life.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeSummary {
    /// Connections handed to workers (served or degraded individually).
    pub served: u64,
    /// Connections rejected by admission control.
    pub rejected: u64,
    /// Records durable in the WAL at drain.
    pub wal_records: u64,
    /// Group commits (one write + one fsync each) this daemon made: one
    /// per ingest batch that carried new records.
    pub wal_commits: u64,
}

/// Process-global drain request, set by the SIGTERM handler. A static
/// because a signal handler cannot capture state.
fn drain_requested() -> &'static AtomicBool {
    static FLAG: AtomicBool = AtomicBool::new(false);
    &FLAG
}

/// Install a SIGTERM handler that requests a graceful drain: stop
/// accepting, finish in-flight requests, flush, release leases, return.
/// Raw `signal(2)` via FFI, in the engine crate's no-libc idiom.
pub fn install_sigterm_drain() {
    extern "C" fn on_term(_sig: i32) {
        drain_requested().store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_term);
    }
}

fn unix_now() -> i64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs() as i64)
        .unwrap_or(0)
}

/// Block until `listener` has a connection waiting or `timeout_ms`
/// passes. Raw `poll(2)` via FFI, in the engine crate's no-libc idiom. The
/// result is ignored: on a timeout or an error (EINTR from the SIGTERM
/// handler) the caller's non-blocking `accept` just finds nothing.
fn wait_for_connection(listener: &TcpListener, timeout_ms: i32) {
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: i32) -> i32;
    }
    const POLLIN: i16 = 1;
    let mut fd = PollFd {
        fd: listener.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    // SAFETY: `fd` is a live `struct pollfd` (same layout via `repr(C)`)
    // for the one-element array `poll` reads and writes; the listener
    // owning the descriptor outlives the call.
    unsafe {
        poll(&mut fd, 1, timeout_ms);
    }
}

/// In-memory ingest state, guarded by one lock: the (dedup, WAL append)
/// pair must be atomic or two retries of the same batch could both pass
/// the dedup check.
struct Ingest {
    wal: IngestWal,
    /// Dedup index over `records`.
    seen: Dedup,
    /// Acknowledged records in WAL order.
    records: Vec<PerflogRecord>,
    /// Successful group commits since bind.
    commits: u64,
}

/// The dedup key space without a second copy of any record: a 64-bit hash
/// of each acknowledged record's canonical line maps to the indices (into
/// [`Ingest::records`]) of the records with that hash. A hash hit is only
/// a duplicate once the canonical lines compare equal, so a collision can
/// never drop a record. The hash is keyed per process, so bucket collisions
/// cannot be crafted from outside.
#[derive(Default)]
struct Dedup {
    hasher: RandomState,
    buckets: HashMap<u64, Vec<usize>>,
}

impl Dedup {
    fn hash(&self, canonical: &str) -> u64 {
        self.hasher.hash_one(canonical)
    }

    /// Whether a record whose canonical line is `canonical` (hashing to
    /// `hash`) is already in `records`.
    fn contains(&self, records: &[PerflogRecord], hash: u64, canonical: &str) -> bool {
        self.buckets.get(&hash).is_some_and(|bucket| {
            bucket
                .iter()
                .any(|&i| records[i].to_json_line() == canonical)
        })
    }

    /// Index `records[index]`, whose canonical line hashes to `hash`.
    fn insert(&mut self, hash: u64, index: usize) {
        self.buckets.entry(hash).or_default().push(index);
    }
}

struct Shared {
    dir: PathBuf,
    ingest: Mutex<Ingest>,
    max_body: usize,
    read_timeout: Duration,
    served: AtomicU64,
}

/// A bound, lease-holding daemon, ready to [`run`](Server::run).
pub struct Server {
    listener: TcpListener,
    cfg: ServeConfig,
    shared: Arc<Shared>,
    net: NetShim,
    io: IoShim,
    drain: Arc<AtomicBool>,
    writer: String,
    lease_path: PathBuf,
    /// Held so the daemon is a registered writer of the store (its own
    /// identity in the lease/ref economy); dropped (releasing any shard
    /// leases) when the drained server is dropped.
    _store: DiskStore,
}

impl Server {
    /// Open the store, acquire the daemon lease, recover the WAL, and
    /// bind the listener. Fails loudly when another live daemon holds the
    /// lease — two daemons over one directory would double-ack.
    pub fn bind(cfg: ServeConfig) -> io::Result<Server> {
        let io = IoShim::from_env();
        let net = NetShim::from_env();
        // PID alone is not unique enough: tests (and embedders) bind
        // several daemons in one process, and each needs its own lease
        // identity or exclusivity could not tell them apart.
        static INSTANCE: AtomicU64 = AtomicU64::new(0);
        let writer = format!(
            "servd-{}-{}-{}",
            spackle::local_hostname(),
            std::process::id(),
            INSTANCE.fetch_add(1, Ordering::Relaxed)
        );
        let store = DiskStore::open_with(
            &cfg.dir,
            StoreOptions {
                writer: Some(writer.clone()),
                lease_ttl_s: cfg.lease_ttl_s,
                io: io.clone(),
            },
        )
        .map_err(|e| io::Error::other(format!("opening store: {e}")))?;
        let state_dir = cfg.dir.join(SERVD_DIR);
        std::fs::create_dir_all(&state_dir)?;
        // The daemon lease: same format and liveness rules as shard
        // leases (including cross-host expiry-only trust), guarding
        // against two daemons serving one directory.
        let lease_path = state_dir.join(".lease");
        if let Some(info) = read_lease_info(&lease_path) {
            if info.writer != writer && info.is_live(unix_now()) {
                return Err(io::Error::other(format!(
                    "another daemon already serves {}: writer {} (pid {}, host {}, \
                     expires unix {})",
                    cfg.dir.display(),
                    info.writer,
                    info.pid,
                    info.host,
                    info.expires_unix
                )));
            }
        }
        write_lease(&io, &lease_path, &writer, cfg.lease_ttl_s)?;
        match read_lease_info(&lease_path) {
            Some(info) if info.writer == writer => {}
            _ => {
                return Err(io::Error::other(
                    "lost the daemon lease race — another daemon started concurrently",
                ))
            }
        }
        let (wal, records) = IngestWal::open(&state_dir, io.clone())?;
        let mut seen = Dedup::default();
        for (i, record) in records.iter().enumerate() {
            seen.insert(seen.hash(&record.to_json_line()), i);
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            dir: cfg.dir.clone(),
            ingest: Mutex::new(Ingest {
                wal,
                seen,
                records,
                commits: 0,
            }),
            max_body: cfg.max_body,
            read_timeout: Duration::from_millis(cfg.read_timeout_ms),
            served: AtomicU64::new(0),
        });
        Ok(Server {
            listener,
            cfg,
            shared,
            net,
            io,
            drain: Arc::new(AtomicBool::new(false)),
            writer,
            lease_path,
            _store: store,
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Records replayed from the WAL at startup.
    pub fn recovered_records(&self) -> u64 {
        self.shared.ingest.lock().expect("ingest lock").wal.len()
    }

    /// In-process drain trigger (tests and embedders; SIGTERM sets the
    /// process-global flag instead).
    pub fn drain_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.drain)
    }

    /// The fault transcript accumulated by this daemon's network shim.
    pub fn net_transcript(&self) -> Vec<String> {
        self.net.transcript()
    }

    /// Serve until drained (in-process flag or SIGTERM), then finish
    /// in-flight requests, release the daemon lease, and return.
    pub fn run(self) -> io::Result<ServeSummary> {
        let (tx, rx) = sync_channel::<(TcpStream, u64)>(self.cfg.queue);
        let rx = Arc::new(Mutex::new(rx));
        let mut workers = Vec::new();
        for _ in 0..self.cfg.workers.max(1) {
            let rx = Arc::clone(&rx);
            let shared = Arc::clone(&self.shared);
            let net = self.net.clone();
            workers.push(std::thread::spawn(move || worker_loop(&rx, &shared, &net)));
        }
        let mut rejected = 0u64;
        let mut conn_ids = 0u64;
        let mut last_renew = Instant::now();
        let renew_every = Duration::from_secs((self.cfg.lease_ttl_s.max(3) as u64) / 3);
        while !self.drain.load(Ordering::SeqCst) && !drain_requested().load(Ordering::SeqCst) {
            if last_renew.elapsed() >= renew_every {
                // Renewal failure is survivable until expiry; keep serving.
                let _ = write_lease(
                    &self.io,
                    &self.lease_path,
                    &self.writer,
                    self.cfg.lease_ttl_s,
                );
                last_renew = Instant::now();
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    conn_ids += 1;
                    match tx.try_send((stream, conn_ids)) {
                        Ok(()) => {}
                        Err(TrySendError::Full((stream, conn))) => {
                            rejected += 1;
                            self.reject_saturated(stream, conn);
                        }
                        Err(TrySendError::Disconnected(_)) => break,
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    wait_for_connection(&self.listener, ACCEPT_POLL_MS);
                }
                // A real accept error (EMFILE, ...): back off briefly.
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        // Drain: stop accepting (drop the send side), finish in-flight.
        drop(tx);
        for w in workers {
            let _ = w.join();
        }
        // Every acknowledged batch is already fsync'd; release the daemon
        // lease if it is still ours (never clobber a taker's lease after
        // an expiry).
        match read_lease_info(&self.lease_path) {
            Some(info) if info.writer == self.writer => {
                let _ = std::fs::remove_file(&self.lease_path);
            }
            _ => {}
        }
        let ingest = self.shared.ingest.lock().expect("ingest lock");
        Ok(ServeSummary {
            served: self.shared.served.load(Ordering::SeqCst),
            rejected,
            wal_records: ingest.wal.len(),
            wal_commits: ingest.commits,
        })
    }

    /// Immediate `503` + `Retry-After` from the acceptor thread, bounded
    /// by a short write timeout so a dead peer cannot stall admission.
    fn reject_saturated(&self, mut stream: TcpStream, conn: u64) {
        let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
        let shim = self.net.conn(conn);
        let resp = Response::new(503, "daemon saturated; retry after the advertised delay\n")
            .with_header("Retry-After", &self.cfg.retry_after_s.to_string());
        let _ = resp.write_to(&mut stream, &shim);
    }
}

fn worker_loop(rx: &Arc<Mutex<Receiver<(TcpStream, u64)>>>, shared: &Shared, net: &NetShim) {
    loop {
        let msg = rx.lock().expect("worker receiver lock").recv();
        let Ok((stream, conn)) = msg else { break };
        shared.served.fetch_add(1, Ordering::SeqCst);
        handle_connection(stream, conn, shared, net);
    }
}

/// Serve one connection end to end. Every failure path here degrades
/// exactly this connection: an error response when the socket still
/// works, a silent close when it does not.
fn handle_connection(mut stream: TcpStream, conn: u64, shared: &Shared, net: &NetShim) {
    let shim = net.conn(conn);
    let _ = stream.set_read_timeout(Some(shared.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.read_timeout));
    let request = read_request(&mut stream, &shim, shared.max_body);
    let response = match request {
        Ok(req) => dispatch(&req, shared),
        Err(HttpError::BodyTooLarge { declared, max }) => Response::new(
            413,
            format!("request body {declared} bytes exceeds bound {max}\n"),
        ),
        Err(HttpError::HeadersTooLarge) => Response::new(431, "header block too large\n"),
        Err(HttpError::Malformed(why)) => Response::new(400, format!("{why}\n")),
        // Timeout, reset, torn read: the socket is not worth answering on.
        Err(HttpError::Io(_)) => return,
    };
    let _ = response.write_to(&mut stream, &shim);
}

fn dispatch(req: &Request, shared: &Shared) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/ingest") => handle_ingest(req, shared),
        ("GET", "/v1/fom") => handle_fom(shared),
        ("GET", "/v1/verdict") => handle_verdict(req, shared),
        ("GET", "/v1/history") => handle_history(req, shared),
        ("GET", "/v1/health") => handle_health(shared),
        (_, "/v1/ingest" | "/v1/fom" | "/v1/verdict" | "/v1/history" | "/v1/health") => {
            Response::new(405, "method not allowed\n")
        }
        _ => Response::new(404, format!("no such endpoint {}\n", req.path)),
    }
}

/// `POST /v1/ingest`: a perflog JSONL body. All-or-nothing parse, then
/// all-or-nothing (dedup, durable append, ack): the batch's new records go
/// to the WAL in one group commit, and the `200` is only written after it
/// is fsync'd.
fn handle_ingest(req: &Request, shared: &Shared) -> Response {
    let text = match std::str::from_utf8(&req.body) {
        Ok(t) => t,
        Err(_) => return Response::new(400, "ingest body is not UTF-8\n"),
    };
    let mut parsed = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match PerflogRecord::from_json_line(line) {
            Ok(r) => parsed.push((r.to_json_line(), r)),
            Err(e) => {
                return Response::new(400, format!("bad perflog record on line {}: {e}\n", i + 1))
            }
        }
    }
    if parsed.is_empty() {
        return Response::new(400, "empty ingest body\n");
    }
    let batch_len = parsed.len();
    let mut guard = shared.ingest.lock().expect("ingest lock");
    let ingest = &mut *guard;
    let mut in_batch = HashSet::new();
    let mut fresh = Vec::new();
    for (canonical, record) in parsed {
        let hash = ingest.seen.hash(&canonical);
        if !ingest.seen.contains(&ingest.records, hash, &canonical) && in_batch.insert(canonical) {
            fresh.push((hash, record));
        }
    }
    let acked = fresh.len();
    if !fresh.is_empty() {
        // Durable append *before* any record counts as acknowledged; a
        // failed append rolls back the whole batch and the client retries
        // it, so the retry is still exactly-once.
        let batch: Vec<&PerflogRecord> = fresh.iter().map(|(_, r)| r).collect();
        if let Err(e) = ingest.wal.append_batch(&batch) {
            return Response::new(500, format!("WAL append failed: {e}\n"));
        }
        ingest.commits += 1;
        for (hash, record) in fresh {
            ingest.seen.insert(hash, ingest.records.len());
            ingest.records.push(record);
        }
    }
    let mut m = tinycfg::Map::new();
    m.insert("acked", tinycfg::Value::Int(acked as i64));
    m.insert(
        "duplicates",
        tinycfg::Value::Int((batch_len - acked) as i64),
    );
    m.insert("total", tinycfg::Value::Int(ingest.wal.len() as i64));
    Response::new(200, tinycfg::Value::Map(m).to_json() + "\n")
        .with_header("Content-Type", "application/json")
}

/// `GET /v1/fom`: the full acknowledged record set as perflog JSONL —
/// pipe it straight back into `benchkit rank`.
fn handle_fom(shared: &Shared) -> Response {
    let ingest = shared.ingest.lock().expect("ingest lock");
    let mut body = String::new();
    for r in &ingest.records {
        body.push_str(&r.to_json_line());
        body.push('\n');
    }
    Response::new(200, body)
}

fn frame_of(records: &[PerflogRecord]) -> Result<dframe::DataFrame, String> {
    let jsonl: String = records.iter().map(|r| r.to_json_line() + "\n").collect();
    postproc::assimilate(&[jsonl]).map_err(|e| e.to_string())
}

/// `GET /v1/verdict[?lower_is_better=1][&markdown=1]`: the exact
/// `benchkit rank` rendering of everything ingested — byte-identical to
/// the offline command over the same records (ranking is proven
/// row-permutation-invariant, so ingest order does not matter).
fn handle_verdict(req: &Request, shared: &Shared) -> Response {
    let ingest = shared.ingest.lock().expect("ingest lock");
    if ingest.records.is_empty() {
        return Response::new(400, "no records ingested yet\n");
    }
    let frame = match frame_of(&ingest.records) {
        Ok(f) => f,
        Err(e) => return Response::new(500, format!("assimilation failed: {e}\n")),
    };
    let direction = if req.query_param("lower_is_better").is_some() {
        postproc::Direction::LowerIsBetter
    } else {
        postproc::Direction::HigherIsBetter
    };
    let policy = postproc::RankPolicy { direction, jobs: 1 };
    match postproc::rank_frame(&frame, &policy) {
        Ok(ranking) => Response::new(
            200,
            if req.query_param("markdown").is_some() {
                ranking.render_markdown()
            } else {
                ranking.render_text()
            },
        ),
        Err(e) => Response::new(500, format!("rank failed: {e}\n")),
    }
}

/// `GET /v1/history?benchmark=B&system=S&fom=F`: the (sequence, value)
/// series plus its sparkline, for regression eyeballs and monitors.
fn handle_history(req: &Request, shared: &Shared) -> Response {
    let (Some(benchmark), Some(system), Some(fom)) = (
        req.query_param("benchmark"),
        req.query_param("system"),
        req.query_param("fom"),
    ) else {
        return Response::new(
            400,
            "history needs ?benchmark=B&system=S&fom=F query parameters\n",
        );
    };
    let ingest = shared.ingest.lock().expect("ingest lock");
    if ingest.records.is_empty() {
        return Response::new(400, "no records ingested yet\n");
    }
    let frame = match frame_of(&ingest.records) {
        Ok(f) => f,
        Err(e) => return Response::new(500, format!("assimilation failed: {e}\n")),
    };
    match postproc::History::from_frame(&frame, benchmark, system, fom) {
        Ok(history) => {
            let mut body = format!(
                "history benchmark={benchmark} system={system} fom={fom} points={}\n",
                history.points.len()
            );
            if !history.points.is_empty() {
                body.push_str(&history.sparkline());
                body.push('\n');
            }
            for (seq, value) in &history.points {
                body.push_str(&format!("{seq} {value}\n"));
            }
            Response::new(200, body)
        }
        Err(e) => Response::new(400, format!("history failed: {e}\n")),
    }
}

/// `GET /v1/health`: the machine-readable fsck report over the store
/// directory — read-only, `200` when clean, `503` when any committed
/// entry is invalid (crash residue like temps and stale leases is clean).
fn handle_health(shared: &Shared) -> Response {
    match spackle::fsck(&shared.dir) {
        Ok(report) => {
            let status = if report.clean() { 200 } else { 503 };
            Response::new(status, report.to_json() + "\n")
                .with_header("Content-Type", "application/json")
        }
        Err(e) => Response::new(500, format!("fsck failed: {e}\n")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(benchmark: &str) -> PerflogRecord {
        PerflogRecord::from_json_line(&format!(
            "{{\"sequence\":1,\"benchmark\":\"{benchmark}\",\"system\":\"archer2\",\
             \"partition\":\"compute\",\"environ\":\"gcc@11.2.0\",\
             \"spec\":\"{benchmark}%gcc\",\"build_hash\":\"abc123\",\
             \"num_tasks\":1,\"num_tasks_per_node\":1,\"num_cpus_per_task\":1,\
             \"foms\":[{{\"name\":\"bw\",\"value\":1.5,\"unit\":\"GB/s\"}}]}}"
        ))
        .expect("test record parses")
    }

    /// Two distinct records forced into one hash bucket: each is still
    /// found, and neither is ever taken for the other.
    #[test]
    fn hash_collision_is_never_a_duplicate() {
        let records = vec![record("stream"), record("hpgmg")];
        let (first, second) = (records[0].to_json_line(), records[1].to_json_line());
        let mut seen = Dedup::default();
        seen.insert(7, 0);
        assert!(seen.contains(&records, 7, &first));
        assert!(!seen.contains(&records, 7, &second));
        seen.insert(7, 1);
        assert!(seen.contains(&records, 7, &first));
        assert!(seen.contains(&records, 7, &second));
        assert!(!seen.contains(&records, 7, &record("hpcg").to_json_line()));
    }
}
