//! The daemon's ingest write-ahead log: the durability contract behind
//! every `200` the daemon sends for an ingest — no ack before the fsync.
//!
//! One WAL line per accepted perflog record:
//!
//! ```text
//! {"seq": 17, "record": {…canonical perflog record…}}
//! ```
//!
//! built on [`spackle::walog::AppendLog`], so each ingest batch lands with
//! one write and one fsync through `spackle::IoShim` *before* the ingest
//! handler acknowledges, and recovery trusts the longest valid prefix — a
//! torn tail from a SIGKILL mid-append is truncated, never replayed into
//! the record. `seq` is the
//! zero-based line index; recovery additionally checks it, so a line
//! transplanted from another WAL (or a lost middle line) ends the prefix
//! instead of silently renumbering history.
//!
//! Exactly-once across retries comes from *content*, not sequence: the
//! daemon deduplicates on the canonical record line, so a client that
//! never saw its ack (short-written response) can re-push the same batch
//! and the record lands once.

use perflogs::PerflogRecord;
use spackle::walog::AppendLog;
use spackle::IoShim;
use std::io;
use std::path::Path;

/// The WAL file name inside the daemon's state directory.
pub const WAL_FILE: &str = "wal.jsonl";

/// An open ingest WAL. Appends serialize on the underlying log's lock;
/// the daemon's ingest path holds its own state lock around the
/// (dedup-check, append) pair anyway.
#[derive(Debug)]
pub struct IngestWal {
    log: AppendLog,
    next_seq: u64,
}

impl IngestWal {
    /// Open (or create) the WAL in `dir`, recovering the longest valid
    /// prefix and returning the records it acknowledged. The file is
    /// truncated back to that prefix, so a torn tail is gone for good.
    pub fn open(dir: &Path, io: IoShim) -> io::Result<(IngestWal, Vec<PerflogRecord>)> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(WAL_FILE);
        let mut records = Vec::new();
        let (log, _lines) = AppendLog::recover(&path, io, |line, index| {
            match decode_line(line, index as u64) {
                Some(record) => {
                    records.push(record);
                    true
                }
                None => false,
            }
        })?;
        let next_seq = records.len() as u64;
        Ok((IngestWal { log, next_seq }, records))
    }

    /// Durably append one record; on `Ok` the record may be acknowledged.
    /// The canonical line (`record.to_json_line()`) is what lands, so the
    /// WAL is also the dedup key space.
    pub fn append(&mut self, record: &PerflogRecord) -> io::Result<u64> {
        self.append_batch(&[record])
    }

    /// Durably append a batch with one write and one fsync, assigning
    /// contiguous `seq`s and returning the first. On `Ok` every record may
    /// be acknowledged; on `Err` none is, and the WAL is rolled back to
    /// its previous length. The file bytes are those of appending the
    /// records one by one.
    pub(crate) fn append_batch(&mut self, records: &[&PerflogRecord]) -> io::Result<u64> {
        let first = self.next_seq;
        let lines: Vec<String> = records
            .iter()
            .zip(first..)
            .map(|(record, seq)| {
                let mut m = tinycfg::Map::new();
                m.insert("seq", tinycfg::Value::Int(seq as i64));
                m.insert("record", record.to_value());
                tinycfg::Value::Map(m).to_json()
            })
            .collect();
        let lines: Vec<&str> = lines.iter().map(String::as_str).collect();
        self.log.append_all(&lines)?;
        self.next_seq += records.len() as u64;
        Ok(first)
    }

    /// Records acknowledged so far (recovered + appended).
    pub fn len(&self) -> u64 {
        self.next_seq
    }

    pub fn is_empty(&self) -> bool {
        self.next_seq == 0
    }

    /// The WAL's on-disk path.
    pub fn path(&self) -> &Path {
        self.log.path()
    }
}

fn decode_line(line: &str, expect_seq: u64) -> Option<PerflogRecord> {
    let v = tinycfg::parse(line).ok()?;
    let seq = v.get_path("seq")?.as_int()?;
    if seq != expect_seq as i64 {
        return None;
    }
    let record = v.get_path("record")?;
    PerflogRecord::from_value(record).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tmpdir(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "servd-wal-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn record(benchmark: &str, value: f64) -> PerflogRecord {
        PerflogRecord::from_json_line(&format!(
            "{{\"sequence\":1,\"benchmark\":\"{benchmark}\",\"system\":\"archer2\",\
             \"partition\":\"compute\",\"environ\":\"gcc@11.2.0\",\
             \"spec\":\"{benchmark}%gcc\",\"build_hash\":\"abc123\",\
             \"num_tasks\":1,\"num_tasks_per_node\":1,\"num_cpus_per_task\":1,\
             \"foms\":[{{\"name\":\"bw\",\"value\":{value},\"unit\":\"GB/s\"}}]}}"
        ))
        .expect("test record parses")
    }

    #[test]
    fn append_then_reopen_replays_acknowledged_records() {
        let dir = tmpdir("replay");
        {
            let (mut wal, replayed) = IngestWal::open(&dir, IoShim::Real).unwrap();
            assert!(replayed.is_empty());
            assert_eq!(wal.append(&record("stream", 181.4)).unwrap(), 0);
            assert_eq!(wal.append(&record("hpgmg", 0.92)).unwrap(), 1);
        }
        let (wal, replayed) = IngestWal::open(&dir, IoShim::Real).unwrap();
        assert_eq!(wal.len(), 2);
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed[0].benchmark, "stream");
        assert_eq!(replayed[1].benchmark, "hpgmg");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_and_wrong_seq_end_the_prefix() {
        let dir = tmpdir("torn");
        {
            let (mut wal, _) = IngestWal::open(&dir, IoShim::Real).unwrap();
            wal.append(&record("stream", 181.4)).unwrap();
        }
        let path = dir.join(WAL_FILE);
        let mut text = std::fs::read_to_string(&path).unwrap();
        // A fully-formed line whose seq skips ahead (lost middle), then a
        // torn fragment: both must be truncated away.
        text.push_str("{\"seq\": 7, \"record\": {\"benchmark\": \"x\"}}\n");
        text.push_str("{\"seq\": 2, \"rec");
        std::fs::write(&path, &text).unwrap();
        let (wal, replayed) = IngestWal::open(&dir, IoShim::Real).unwrap();
        assert_eq!(replayed.len(), 1);
        assert_eq!(wal.len(), 1);
        let after = std::fs::read_to_string(&path).unwrap();
        assert_eq!(after.lines().count(), 1);
        // And the log continues cleanly from the recovered prefix.
        drop(wal);
        let (mut wal, _) = IngestWal::open(&dir, IoShim::Real).unwrap();
        assert_eq!(wal.append(&record("hpgmg", 0.92)).unwrap(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A faulted append reports failure and leaves the WAL replayable at
    /// its previous length — the handler's "no ack without durability".
    #[test]
    fn faulted_append_is_not_acknowledged() {
        let dir = tmpdir("fault");
        {
            let (mut wal, _) = IngestWal::open(&dir, IoShim::Real).unwrap();
            wal.append(&record("stream", 181.4)).unwrap();
        }
        let mut spec = spackle::FaultSpec::quiet(5);
        spec.torn = 1.0;
        {
            let (mut wal, replayed) = IngestWal::open(&dir, IoShim::faulty(spec)).unwrap();
            assert_eq!(replayed.len(), 1);
            assert!(wal.append(&record("hpgmg", 0.92)).is_err());
            assert_eq!(wal.len(), 1, "a failed append must not consume a seq");
        }
        let (wal, replayed) = IngestWal::open(&dir, IoShim::Real).unwrap();
        assert_eq!(wal.len(), 1);
        assert_eq!(replayed[0].benchmark, "stream");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The WAL format is pinned: one `append_batch` of N records writes
    /// exactly the bytes of N single `append`s, and recovers the same way.
    #[test]
    fn batch_append_is_byte_identical_to_single_appends() {
        let batch = [
            record("stream", 181.4),
            record("hpgmg", 0.92),
            record("hpcg", 31.5),
        ];
        let (singles, grouped) = (tmpdir("singles"), tmpdir("grouped"));
        {
            let (mut wal, _) = IngestWal::open(&singles, IoShim::Real).unwrap();
            wal.append(&record("babelstream", 1.0)).unwrap();
            for r in &batch {
                wal.append(r).unwrap();
            }
        }
        {
            let (mut wal, _) = IngestWal::open(&grouped, IoShim::Real).unwrap();
            wal.append(&record("babelstream", 1.0)).unwrap();
            assert_eq!(
                wal.append_batch(&batch.iter().collect::<Vec<_>>()).unwrap(),
                1
            );
            assert_eq!(wal.len(), 4);
        }
        let bytes = std::fs::read(grouped.join(WAL_FILE)).unwrap();
        assert_eq!(bytes, std::fs::read(singles.join(WAL_FILE)).unwrap());
        let (wal, replayed) = IngestWal::open(&grouped, IoShim::Real).unwrap();
        assert_eq!(wal.len(), 4);
        let names: Vec<&str> = replayed.iter().map(|r| r.benchmark.as_str()).collect();
        assert_eq!(names, ["babelstream", "stream", "hpgmg", "hpcg"]);
        let _ = std::fs::remove_dir_all(&singles);
        let _ = std::fs::remove_dir_all(&grouped);
    }
}
