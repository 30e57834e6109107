//! The served-verdict oracle: a daemon fed random ingests answers every
//! `/v1/verdict` and `/v1/history` exactly as the offline commands would
//! over that moment's `/v1/fom` body, and a daemon rebound over the same
//! directory (its rank aggregate rebuilt from the WAL) answers with the
//! same bytes.
//!
//! Each case interleaves fresh batches, re-pushes of earlier batches,
//! batches that repeat a record, and non-positive and non-finite FOMs with
//! reads of the four verdict renderings, `/v1/fom` and `/v1/history`.

use perflogs::{Fom, PerflogRecord};
use proptest::prelude::*;
use servd::{http_get, http_post, ServeConfig, Server};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

const BENCHMARKS: [&str; 3] = ["stream", "a/b", "a"];
const FOMS: [&str; 3] = ["bw", "c", "b/c"];
/// (system, partition) pairs; `x:y` on no partition and `x` on `y` render
/// the same entity label.
const PLACES: [(&str, &str); 4] = [("sysa", ""), ("sysb", "p1"), ("x:y", ""), ("x", "y")];

const VERDICTS: [&str; 4] = [
    "/v1/verdict",
    "/v1/verdict?lower_is_better=1",
    "/v1/verdict?markdown=1",
    "/v1/verdict?lower_is_better=1&markdown=1",
];

/// One new record of a batch, by pool index, sent `1 + repeat` times.
#[derive(Debug, Clone)]
struct NewRecord {
    benchmark: usize,
    place: usize,
    /// (FOM name, value)
    foms: Vec<(usize, f64)>,
    repeat: usize,
}

/// One step of a case.
#[derive(Debug, Clone)]
enum Op {
    /// A batch of new records.
    Fresh(Vec<NewRecord>),
    /// Re-send the batch sent `back` batches ago (pure duplicates).
    Repush(usize),
    /// Read every verdict rendering and a history.
    Read(usize, usize, usize),
}

fn value() -> impl Strategy<Value = f64> {
    (0usize..10, 1.0f64..1e4, -50.0f64..-0.5).prop_map(|(kind, pos, neg)| match kind {
        0 => 0.0,
        1 => neg,
        2 => f64::NAN,
        3 => f64::INFINITY,
        _ => pos,
    })
}

fn op() -> impl Strategy<Value = Op> {
    let record = (
        0usize..BENCHMARKS.len(),
        0usize..PLACES.len(),
        prop::collection::vec((0usize..FOMS.len(), value()), 0..3),
        0usize..2,
    )
        .prop_map(|(benchmark, place, foms, repeat)| NewRecord {
            benchmark,
            place,
            foms,
            repeat,
        });
    prop_oneof![
        prop::collection::vec(record, 1..5).prop_map(Op::Fresh),
        (0usize..4).prop_map(Op::Repush),
        (
            0usize..BENCHMARKS.len(),
            0usize..PLACES.len(),
            0usize..FOMS.len()
        )
            .prop_map(|(b, p, f)| Op::Read(b, p, f)),
    ]
}

fn tmpdir() -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "servd-oracle-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

type Running = (
    String,
    Arc<AtomicBool>,
    JoinHandle<std::io::Result<servd::ServeSummary>>,
);

fn start(dir: &PathBuf) -> Running {
    let mut cfg = ServeConfig::new(dir, "127.0.0.1:0");
    cfg.workers = 1;
    let server = Server::bind(cfg).expect("bind daemon");
    let addr = server.local_addr().expect("local addr").to_string();
    let drain = server.drain_handle();
    (addr, drain, std::thread::spawn(move || server.run()))
}

fn get(addr: &str, path: &str) -> (u16, String) {
    let resp = http_get(addr, path).expect("daemon answers");
    (resp.status, resp.body_text())
}

fn history_path(b: usize, p: usize, f: usize) -> String {
    format!(
        "/v1/history?benchmark={}&system={}&fom={}",
        BENCHMARKS[b], PLACES[p].0, FOMS[f]
    )
}

/// What the daemon must answer to every read, computed offline from the
/// `/v1/fom` body: the four verdicts, then the history.
fn offline(fom_body: &str, b: usize, p: usize, f: usize) -> Vec<(u16, String)> {
    if fom_body.is_empty() {
        let none = (400, "no records ingested yet\n".to_string());
        return vec![none; VERDICTS.len() + 1];
    }
    let frame = postproc::assimilate(&[fom_body.to_string()]).expect("served JSONL parses");
    let mut answers = Vec::new();
    for path in VERDICTS {
        let direction = if path.contains("lower_is_better") {
            postproc::Direction::LowerIsBetter
        } else {
            postproc::Direction::HigherIsBetter
        };
        let ranking = postproc::rank_frame(&frame, &postproc::RankPolicy { direction }).unwrap();
        answers.push((
            200,
            if path.contains("markdown") {
                ranking.render_markdown()
            } else {
                ranking.render_text()
            },
        ));
    }
    let (benchmark, system, fom) = (BENCHMARKS[b], PLACES[p].0, FOMS[f]);
    answers.push(
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
                (200, body)
            }
            Err(e) => (400, format!("history failed: {e}\n")),
        },
    );
    answers
}

/// The daemon's answers to the same reads, `/v1/fom` first.
fn served(addr: &str, b: usize, p: usize, f: usize) -> (String, Vec<(u16, String)>) {
    let (status, fom_body) = get(addr, "/v1/fom");
    assert_eq!(status, 200);
    let mut answers: Vec<(u16, String)> = VERDICTS.iter().map(|path| get(addr, path)).collect();
    answers.push(get(addr, &history_path(b, p, f)));
    (fom_body, answers)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn served_answers_match_offline_and_survive_rebind(
        ops in prop::collection::vec(op(), 1..12),
        last in (0usize..BENCHMARKS.len(), 0usize..PLACES.len(), 0usize..FOMS.len()),
    ) {
        let dir = tmpdir();
        let (addr, drain, join) = start(&dir);
        let mut sent: Vec<String> = Vec::new();
        let mut sequence = 0u64;
        for op in &ops {
            match op {
                Op::Fresh(records) => {
                    let mut body = String::new();
                    for r in records {
                        sequence += 1;
                        let (system, partition) = PLACES[r.place];
                        let line = PerflogRecord {
                            sequence,
                            benchmark: BENCHMARKS[r.benchmark].into(),
                            system: system.into(),
                            partition: partition.into(),
                            environ: "gcc@11.2.0".into(),
                            spec: "spec".into(),
                            build_hash: "abc123".into(),
                            job_id: None,
                            num_tasks: 1,
                            num_tasks_per_node: 1,
                            num_cpus_per_task: 1,
                            foms: r
                                .foms
                                .iter()
                                .map(|&(f, value)| Fom {
                                    name: FOMS[f].into(),
                                    value,
                                    unit: "u".into(),
                                })
                                .collect(),
                            extras: vec![],
                        }
                        .to_json_line();
                        for _ in 0..=r.repeat {
                            body.push_str(&line);
                            body.push('\n');
                        }
                    }
                    let resp = http_post(&addr, "/v1/ingest", body.as_bytes()).unwrap();
                    prop_assert_eq!(resp.status, 200, "{}", resp.body_text());
                    sent.push(body);
                }
                Op::Repush(back) => {
                    if let Some(body) = sent.iter().rev().nth(*back) {
                        let resp = http_post(&addr, "/v1/ingest", body.as_bytes()).unwrap();
                        prop_assert_eq!(resp.status, 200);
                        prop_assert!(resp.body_text().starts_with("{\"acked\":0,"), "{}", resp.body_text());
                    }
                }
                &Op::Read(b, p, f) => {
                    let (fom_body, answers) = served(&addr, b, p, f);
                    prop_assert_eq!(answers, offline(&fom_body, b, p, f));
                }
            }
        }
        let (b, p, f) = last;
        let (fom_body, before) = served(&addr, b, p, f);
        prop_assert_eq!(&before, &offline(&fom_body, b, p, f));
        drain.store(true, Ordering::SeqCst);
        join.join().unwrap().unwrap();

        let (addr, drain, join) = start(&dir);
        let (fom_after, after) = served(&addr, b, p, f);
        prop_assert_eq!(fom_after, fom_body);
        prop_assert_eq!(after, before);
        drain.store(true, Ordering::SeqCst);
        join.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
