//! `servd` — the crash-tolerant results daemon behind `benchkit serve`.
//!
//! The paper's automation principle says benchmark results must flow into
//! a durable, queryable record with no human in the loop; the
//! continuous-benchmarking ecosystem literature adds that the service
//! layer is where reproducibility dies in practice — ingestion must
//! survive crashes, slow clients, and partial writes, or the record
//! silently diverges from what ran. This crate is that service, std-only
//! (`std::net::TcpListener`, matching the vendored-offline build):
//!
//! * [`server`] — the daemon: bounded worker pool with admission control
//!   (`503` + `Retry-After`, never an unbounded queue), per-connection
//!   deadlines and body bounds, an fsync'd ingest
//!   [WAL](wal::IngestWal) so acknowledged records survive SIGKILL, and
//!   SIGTERM graceful drain that releases its store lease.
//! * [`client`] — `benchkit push`/`query`: uploads survey perflogs with
//!   the repo's 30·2ⁿ ≤ 480 s backoff, honoring `Retry-After`, and never
//!   mistaking a torn response for an acknowledgment.
//! * [`netfault`] — deterministic network fault injection
//!   (`BENCHKIT_NETFAULTS`): torn reads, short writes, resets, and
//!   stalls keyed SplitMix64-per-(op, connection, counter) through the
//!   `simhpc::faults` kernel it shares with `spackle::iofault`, so fault
//!   schedules and transcripts are independent of thread interleaving.
//! * [`http`] — the minimal HTTP/1.1 subset both sides speak, with
//!   header/body bounds enforced before bytes are swallowed.
//! * [`wal`] — the append-only ingest log on `spackle::walog`, the
//!   checkpoint journal's durable line log, recovered to its longest
//!   valid prefix on restart.

pub mod client;
pub mod http;
pub mod netfault;
pub mod server;
pub mod wal;

pub use client::{http_get, http_post, push_dir, PushError, PushReport};
pub use netfault::{ConnShim, NetFaultSpec, NetShim, NETFAULTS_ENV};
pub use server::{install_sigterm_drain, ServeConfig, ServeSummary, Server};
pub use wal::{IngestWal, WAL_FILE};
