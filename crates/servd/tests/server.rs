//! In-process daemon tests: bind on an ephemeral port, drive the server
//! with the real push client over real sockets, and check that every
//! robustness mechanism degrades exactly the connection it should.

use servd::{http_get, http_post, ServeConfig, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

fn tmpdir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "servd-it-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn record_line(benchmark: &str, system: &str, sequence: u64, value: f64) -> String {
    format!(
        "{{\"sequence\":{sequence},\"benchmark\":\"{benchmark}\",\"system\":\"{system}\",\
         \"partition\":\"compute\",\"environ\":\"gcc@11.2.0\",\
         \"spec\":\"{benchmark}%gcc\",\"build_hash\":\"abc123\",\
         \"num_tasks\":1,\"num_tasks_per_node\":1,\"num_cpus_per_task\":1,\
         \"foms\":[{{\"name\":\"bw\",\"value\":{value},\"unit\":\"GB/s\"}}]}}"
    )
}

/// Bind + run a daemon, returning `(addr, drain, join)`. Waits until the
/// worker pool answers `/v1/health` so tests never race daemon startup.
fn start(
    cfg: ServeConfig,
) -> (
    String,
    std::sync::Arc<std::sync::atomic::AtomicBool>,
    std::thread::JoinHandle<std::io::Result<servd::ServeSummary>>,
) {
    let server = Server::bind(cfg).expect("bind daemon");
    let addr = server.local_addr().expect("local addr").to_string();
    let drain = server.drain_handle();
    let join = std::thread::spawn(move || server.run());
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match http_get(&addr, "/v1/health") {
            Ok(resp) if resp.status == 200 => break,
            _ if Instant::now() > deadline => panic!("daemon never became healthy"),
            _ => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    (addr, drain, join)
}

fn quick_cfg(dir: &PathBuf) -> ServeConfig {
    let mut cfg = ServeConfig::new(dir, "127.0.0.1:0");
    cfg.read_timeout_ms = 2_000;
    cfg
}

#[test]
fn ingest_query_drain_restart_round_trip() {
    let dir = tmpdir("roundtrip");
    let (addr, drain, join) = start(quick_cfg(&dir));

    let body = [
        record_line("stream", "sysa", 1, 180.0),
        record_line("stream", "sysa", 2, 185.0),
        record_line("stream", "sysb", 1, 140.0),
    ]
    .join("\n")
        + "\n";
    let resp = http_post(&addr, "/v1/ingest", body.as_bytes()).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    let ack = tinycfg::parse(resp.body_text().trim()).unwrap();
    assert_eq!(ack.get_path("acked").and_then(|v| v.as_int()), Some(3));
    assert_eq!(ack.get_path("duplicates").and_then(|v| v.as_int()), Some(0));

    // The same batch again: pure duplicates, nothing re-acknowledged.
    let resp = http_post(&addr, "/v1/ingest", body.as_bytes()).unwrap();
    assert_eq!(resp.status, 200);
    let ack = tinycfg::parse(resp.body_text().trim()).unwrap();
    assert_eq!(ack.get_path("acked").and_then(|v| v.as_int()), Some(0));
    assert_eq!(ack.get_path("duplicates").and_then(|v| v.as_int()), Some(3));

    let fom = http_get(&addr, "/v1/fom").unwrap();
    assert_eq!(fom.status, 200);
    assert_eq!(fom.body_text().lines().count(), 3);

    // /v1/verdict is byte-identical to the offline `benchkit rank` over
    // the same records.
    let verdict = http_get(&addr, "/v1/verdict").unwrap();
    assert_eq!(verdict.status, 200);
    let frame = postproc::assimilate(std::slice::from_ref(&body)).unwrap();
    let policy = postproc::RankPolicy {
        direction: postproc::Direction::HigherIsBetter,
        jobs: 1,
    };
    let offline = postproc::rank_frame(&frame, &policy).unwrap().render_text();
    assert_eq!(verdict.body_text(), offline);

    let history = http_get(&addr, "/v1/history?benchmark=stream&system=sysa&fom=bw").unwrap();
    assert_eq!(history.status, 200, "{}", history.body_text());
    assert!(
        history.body_text().contains("points=2"),
        "{}",
        history.body_text()
    );

    drain.store(true, Ordering::SeqCst);
    let summary = join.join().unwrap().unwrap();
    assert_eq!(summary.wal_records, 3);
    // One group commit for the first batch; the all-duplicate re-push
    // commits nothing.
    assert_eq!(summary.wal_commits, 1);
    assert!(
        !dir.join("servd").join(".lease").exists(),
        "drain must release the daemon lease"
    );

    // Restart over the same directory: the WAL replays every
    // acknowledged record and queries pick up where they left off.
    let server = Server::bind(quick_cfg(&dir)).expect("rebind after drain");
    assert_eq!(server.recovered_records(), 3);
    let addr = server.local_addr().unwrap().to_string();
    let drain = server.drain_handle();
    let join = std::thread::spawn(move || server.run());
    let deadline = Instant::now() + Duration::from_secs(10);
    let fom = loop {
        match http_get(&addr, "/v1/fom") {
            Ok(resp) if resp.status == 200 => break resp,
            _ if Instant::now() > deadline => panic!("restarted daemon never answered"),
            _ => std::thread::sleep(Duration::from_millis(10)),
        }
    };
    assert_eq!(fom.body_text().lines().count(), 3);
    drain.store(true, Ordering::SeqCst);
    join.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn second_daemon_is_refused_while_lease_live() {
    let dir = tmpdir("exclusive");
    let first = Server::bind(quick_cfg(&dir)).expect("first daemon binds");
    let err = match Server::bind(quick_cfg(&dir)) {
        Ok(_) => panic!("second daemon must be refused"),
        Err(e) => e,
    };
    assert!(
        err.to_string().contains("another daemon"),
        "unexpected error: {err}"
    );
    drop(first);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn admission_control_rejects_then_recovers() {
    let dir = tmpdir("admission");
    let mut cfg = quick_cfg(&dir);
    cfg.workers = 1;
    cfg.queue = 0; // rendezvous: admit only when the worker is parked
    cfg.read_timeout_ms = 400;
    cfg.retry_after_s = 7;
    let (addr, drain, join) = start(cfg);

    // Occupy the only worker with a connection that sends nothing, then
    // probe: the probe must be turned away by the acceptor with a 503
    // carrying the advertised Retry-After. Observing the rejection can
    // race the worker parking back after startup, so attempt a few times.
    let mut rejected = None;
    for _ in 0..10 {
        let stall = TcpStream::connect(&addr).unwrap();
        std::thread::sleep(Duration::from_millis(150));
        let probe = http_get(&addr, "/v1/health").unwrap();
        if probe.status == 503 {
            rejected = Some(probe);
            drop(stall);
            break;
        }
        drop(stall);
        std::thread::sleep(Duration::from_millis(200));
    }
    let rejected = rejected.expect("saturated daemon never answered 503");
    assert_eq!(rejected.header("retry-after"), Some("7"));

    // After the stalled connection times out, the worker frees up and the
    // same request succeeds — saturation is a state, not a death.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match http_get(&addr, "/v1/health") {
            Ok(resp) if resp.status == 200 => break,
            _ if Instant::now() > deadline => panic!("daemon never recovered from saturation"),
            _ => std::thread::sleep(Duration::from_millis(50)),
        }
    }

    drain.store(true, Ordering::SeqCst);
    let summary = join.join().unwrap().unwrap();
    assert!(summary.rejected >= 1, "summary: {summary:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Back-to-back requests under `--workers 1 --queue 0` are all admitted:
/// a worker that has answered but not yet parked in `recv` is waited for,
/// not taken for a busy one.
#[test]
fn rendezvous_admits_back_to_back_requests() {
    let dir = tmpdir("rendezvous");
    let mut cfg = quick_cfg(&dir);
    cfg.workers = 1;
    cfg.queue = 0;
    let (addr, drain, join) = start(cfg);
    let statuses: Vec<u16> = (0..20u64)
        .map(|i| {
            let body = record_line("stream", "sysa", i + 1, 100.0 + i as f64) + "\n";
            http_post(&addr, "/v1/ingest", body.as_bytes())
                .expect("ingest answered")
                .status
        })
        .collect();
    assert!(statuses.iter().all(|&s| s == 200), "{statuses:?}");
    drain.store(true, Ordering::SeqCst);
    let summary = join.join().unwrap().unwrap();
    assert_eq!(summary.rejected, 0, "summary: {summary:?}");
    assert_eq!(summary.wal_records, 20);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn slowloris_degrades_only_its_own_connection() {
    let dir = tmpdir("slowloris");
    let mut cfg = quick_cfg(&dir);
    cfg.workers = 2;
    cfg.read_timeout_ms = 200;
    let (addr, drain, join) = start(cfg);

    // A client that trickles half a request line and stops: its read
    // deadline expires and the daemon closes it without a response.
    let mut slow = TcpStream::connect(&addr).unwrap();
    slow.write_all(b"GET /v1/he").unwrap();
    slow.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = Vec::new();
    let n = slow.read_to_end(&mut buf).unwrap_or(0);
    assert_eq!(
        n,
        0,
        "slowloris got a response: {:?}",
        String::from_utf8_lossy(&buf)
    );

    // The sibling connection never noticed.
    let resp = http_get(&addr, "/v1/health").unwrap();
    assert_eq!(resp.status, 200);

    drain.store(true, Ordering::SeqCst);
    join.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oversized_and_malformed_bodies_are_bounded_errors() {
    let dir = tmpdir("bounds");
    let mut cfg = quick_cfg(&dir);
    cfg.max_body = 1024;
    let (addr, drain, join) = start(cfg);

    let huge = vec![b'x'; 4096];
    let resp = http_post(&addr, "/v1/ingest", &huge).unwrap();
    assert_eq!(resp.status, 413, "{}", resp.body_text());

    let resp = http_post(&addr, "/v1/ingest", b"{\"not\": \"a perflog\"}\n").unwrap();
    assert_eq!(resp.status, 400);

    let resp = http_get(&addr, "/v1/nope").unwrap();
    assert_eq!(resp.status, 404);

    // The daemon is still perfectly healthy after all that abuse.
    let resp = http_get(&addr, "/v1/health").unwrap();
    assert_eq!(resp.status, 200);

    drain.store(true, Ordering::SeqCst);
    join.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn push_client_round_trips_and_deduplicates() {
    let dir = tmpdir("pushdir");
    let logs = tmpdir("pushlogs");
    std::fs::create_dir_all(&logs).unwrap();
    std::fs::write(
        logs.join("a.jsonl"),
        record_line("stream", "sysa", 1, 180.0) + "\n",
    )
    .unwrap();
    std::fs::write(
        logs.join("b.jsonl"),
        record_line("stream", "sysb", 1, 140.0) + "\n",
    )
    .unwrap();
    let (addr, drain, join) = start(quick_cfg(&dir));

    let mut out = Vec::new();
    let report = servd::push_dir(&logs, &addr, 3, 0.0, &mut out).expect("push succeeds");
    assert_eq!(report.files, 2);
    assert_eq!(report.acked, 2);
    assert_eq!(report.duplicates, 0);

    // Pushing the same directory again is all duplicates — the content
    // dedup that makes retry-after-lost-ack safe.
    let report = servd::push_dir(&logs, &addr, 3, 0.0, &mut out).expect("re-push succeeds");
    assert_eq!(report.acked, 0);
    assert_eq!(report.duplicates, 2);

    drain.store(true, Ordering::SeqCst);
    let summary = join.join().unwrap().unwrap();
    assert_eq!(summary.wal_records, 2);
    assert_eq!(summary.wal_commits, 2);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&logs);
}

/// A batch that repeats a record acknowledges it once: dedup covers
/// earlier records of the same batch, not only earlier batches.
#[test]
fn repeated_record_within_a_batch_lands_once() {
    let dir = tmpdir("inbatch");
    let (addr, drain, join) = start(quick_cfg(&dir));
    let body = [
        record_line("stream", "sysa", 1, 180.0),
        record_line("stream", "sysb", 1, 140.0),
        record_line("stream", "sysa", 1, 180.0),
    ]
    .join("\n");
    let resp = http_post(&addr, "/v1/ingest", body.as_bytes()).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    let ack = tinycfg::parse(resp.body_text().trim()).unwrap();
    assert_eq!(ack.get_path("acked").and_then(|v| v.as_int()), Some(2));
    assert_eq!(ack.get_path("duplicates").and_then(|v| v.as_int()), Some(1));
    assert_eq!(ack.get_path("total").and_then(|v| v.as_int()), Some(2));
    drain.store(true, Ordering::SeqCst);
    let summary = join.join().unwrap().unwrap();
    assert_eq!((summary.wal_records, summary.wal_commits), (2, 1));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The acceptor blocks in `poll(2)` between connections; on a daemon that
/// gets no traffic at all it must still notice the drain flag promptly.
#[test]
fn idle_daemon_drains_within_two_seconds() {
    let dir = tmpdir("idle");
    let server = Server::bind(quick_cfg(&dir)).expect("bind daemon");
    let drain = server.drain_handle();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let join = std::thread::spawn(move || {
        let summary = server.run();
        let _ = done_tx.send(());
        summary
    });
    // Give the acceptor time to block in its wait; no connection arrives.
    std::thread::sleep(Duration::from_millis(200));
    drain.store(true, Ordering::SeqCst);
    done_rx
        .recv_timeout(Duration::from_secs(2))
        .expect("idle daemon did not drain within 2 s");
    let summary = join.join().unwrap().unwrap();
    assert_eq!((summary.served, summary.wal_commits), (0, 0));
    let _ = std::fs::remove_dir_all(&dir);
}
