//! Append-only, fsync'd, crash-recoverable line logs — the write-ahead
//! discipline shared by the checkpoint journal, the results daemon's
//! ingest WAL, and the disk store's reference segments and quarantine log.
//!
//! Three pieces of machinery recur wherever this repo promises "an
//! acknowledged record is never lost":
//!
//! 1. **Durable appends.** A record is one newline-terminated line,
//!    written and fsync'd through an [`IoShim`] *before* the caller
//!    acknowledges it upstream. The shim seam means the torture suites
//!    (and `BENCHKIT_IOFAULTS`) can tear these writes. Creating a log also
//!    fsyncs its parent directory, so the first acknowledged line cannot
//!    vanish with a lost directory entry.
//! 2. **Longest-valid-prefix recovery.** A crash can land mid-append; on
//!    reopen, the file is trusted only up to the last line that is both
//!    newline-terminated and valid per the caller's judgment
//!    ([`valid_prefix`]), and the file is truncated back to that prefix
//!    so new appends continue cleanly.
//! 3. **Failed-append rollback.** A *live* writer that survives a failed
//!    append (injected ENOSPC, torn write) must not keep appending after
//!    the torn fragment: the file is rolled back to the last durable
//!    length immediately. If even the rollback fails, the log is poisoned
//!    and every later append refuses loudly rather than corrupting the
//!    prefix.
//!
//! Recovery assumes one writer per log at a time; the callers differ only
//! in what "valid line" means.

use crate::iofault::IoShim;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The longest valid prefix of `text`: its complete (newline-terminated)
/// lines, in order, while `parse` accepts each one (line body, zero-based
/// index). The first incomplete or rejected line ends the prefix. Returns
/// the parsed lines and the prefix's length in bytes.
pub fn valid_prefix<T>(
    text: &str,
    mut parse: impl FnMut(&str, usize) -> Option<T>,
) -> (Vec<T>, usize) {
    let mut items = Vec::new();
    let mut len = 0;
    for line in text.split_inclusive('\n') {
        let Some(item) = line
            .strip_suffix('\n')
            .and_then(|body| parse(body, items.len()))
        else {
            break;
        };
        items.push(item);
        len += line.len();
    }
    (items, len)
}

/// An append-only log of newline-terminated lines with durable appends
/// and crash recovery. Shared freely across threads: appends serialize on
/// an internal lock.
#[derive(Debug)]
pub struct AppendLog {
    state: Mutex<LogState>,
    path: PathBuf,
    /// The path the I/O shim sees for appends: it keys fault draws on this
    /// file name and names it in injected errors. Defaults to `path`.
    fault_path: PathBuf,
    io: IoShim,
}

#[derive(Debug)]
struct LogState {
    file: File,
    /// Bytes known durable: every append that returned `Ok` ended here.
    durable_len: u64,
    /// Set when a failed append could not be rolled back; the prefix is
    /// still intact on disk but this handle must not append after the
    /// torn fragment.
    poisoned: bool,
}

impl AppendLog {
    /// Create (truncating any previous file) an empty log at `path`, and
    /// fsync its parent directory so the new file's entry is durable.
    pub fn create(path: &Path, io: IoShim) -> io::Result<AppendLog> {
        let file = File::create(path)?;
        io.fsync_dir(path.parent().unwrap_or_else(|| Path::new(".")))?;
        Ok(AppendLog {
            state: Mutex::new(LogState {
                file,
                durable_len: 0,
                poisoned: false,
            }),
            path: path.to_path_buf(),
            fault_path: path.to_path_buf(),
            io,
        })
    }

    /// Open an existing file whose first `durable_len` bytes are already
    /// known valid (the caller did its own recovery parse, e.g. with a
    /// header check that must fail differently from a torn tail). The
    /// file is truncated to that length so appends continue cleanly.
    pub fn open_at(path: &Path, io: IoShim, durable_len: u64) -> io::Result<AppendLog> {
        // Append mode: a second handle on the same file (the store's shared
        // quarantine log) adds its lines after ours instead of over them.
        let mut file = OpenOptions::new().append(true).open(path)?;
        file.set_len(durable_len)?;
        file.seek(SeekFrom::End(0))?;
        Ok(AppendLog {
            state: Mutex::new(LogState {
                file,
                durable_len,
                poisoned: false,
            }),
            path: path.to_path_buf(),
            fault_path: path.to_path_buf(),
            io,
        })
    }

    /// Recover a log to its longest valid prefix and return that prefix's
    /// lines (without their newlines). `valid` judges each complete line
    /// in order (line body, zero-based index); the first incomplete
    /// (unterminated) or invalid line ends the prefix, and the file is
    /// truncated back to just before it. A missing file recovers to an
    /// empty log, created as by [`AppendLog::create`].
    pub fn recover(
        path: &Path,
        io: IoShim,
        mut valid: impl FnMut(&str, usize) -> bool,
    ) -> io::Result<(AppendLog, Vec<String>)> {
        match std::fs::read_to_string(path) {
            Ok(text) => {
                let (lines, len) =
                    valid_prefix(&text, |line, i| valid(line, i).then(|| line.to_string()));
                Ok((AppendLog::open_at(path, io, len as u64)?, lines))
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                Ok((AppendLog::create(path, io)?, Vec::new()))
            }
            Err(e) => Err(e),
        }
    }

    /// Key this log's append faults on `fault_path` instead of its real
    /// path, for a file whose name varies between runs of one schedule
    /// (a name carrying the process id would make the faults differ too).
    pub(crate) fn with_fault_path(self, fault_path: PathBuf) -> AppendLog {
        AppendLog { fault_path, ..self }
    }

    /// Append one line (the trailing newline is added here) and fsync it.
    /// On success the line is durable — safe to acknowledge upstream. On
    /// failure the file is rolled back to the previous durable length, so
    /// the next append never lands after a torn fragment.
    pub fn append(&self, line: &str) -> io::Result<()> {
        self.append_all(&[line])
    }

    /// Group commit: append every line in one write and one fsync. The
    /// bytes on disk are exactly those of appending the lines one by one;
    /// only the number of fsyncs differs. All or nothing: on failure the
    /// file is rolled back to the previous durable length, so no line of
    /// the batch survives, not even a complete leading one.
    pub fn append_all(&self, lines: &[&str]) -> io::Result<()> {
        debug_assert!(
            lines.iter().all(|line| !line.contains('\n')),
            "append-log records are single lines; embedded newlines would \
             forge extra records"
        );
        let mut state = self.state.lock().expect("append log poisoned lock");
        if state.poisoned {
            return Err(io::Error::other(format!(
                "append log {} is poisoned by an earlier unrecoverable \
                 append failure",
                self.path.display()
            )));
        }
        let mut bytes = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
        for line in lines {
            bytes.push_str(line);
            bytes.push('\n');
        }
        let LogState {
            ref mut file,
            ref mut durable_len,
            ref mut poisoned,
        } = *state;
        let wrote = self
            .io
            .write_all(file, &self.fault_path, bytes.as_bytes())
            .and_then(|()| self.io.fsync(file, &self.fault_path));
        match wrote {
            Ok(()) => {
                *durable_len += bytes.len() as u64;
                Ok(())
            }
            Err(e) => {
                // Roll back the torn fragment; poison on a failed rollback.
                let rolled = file
                    .set_len(*durable_len)
                    .and_then(|()| file.seek(SeekFrom::End(0)).map(|_| ()));
                if rolled.is_err() {
                    *poisoned = true;
                }
                Err(e)
            }
        }
    }

    /// Bytes acknowledged durable so far.
    #[cfg(test)]
    pub(crate) fn durable_len(&self) -> u64 {
        self.state
            .lock()
            .expect("append log poisoned lock")
            .durable_len
    }

    /// The log's on-disk path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iofault::FaultSpec;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tmpfile(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        std::env::temp_dir().join(format!(
            "spackle-walog-{tag}-{}-{}.jsonl",
            std::process::id(),
            N.fetch_add(1, Ordering::SeqCst)
        ))
    }

    #[test]
    fn append_then_recover_round_trips() {
        let path = tmpfile("roundtrip");
        let log = AppendLog::create(&path, IoShim::Real).unwrap();
        log.append("one").unwrap();
        log.append("two").unwrap();
        drop(log);
        let (log, lines) = AppendLog::recover(&path, IoShim::Real, |_, _| true).unwrap();
        assert_eq!(lines, vec!["one".to_string(), "two".to_string()]);
        log.append("three").unwrap();
        drop(log);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "one\ntwo\nthree\n");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn recovery_truncates_torn_tail_and_invalid_lines() {
        let path = tmpfile("torn");
        std::fs::write(&path, "ok-0\nok-1\nbad\nok-3\ntorn-without-newline").unwrap();
        let (log, lines) =
            AppendLog::recover(&path, IoShim::Real, |line, i| line == format!("ok-{i}")).unwrap();
        assert_eq!(lines, vec!["ok-0".to_string(), "ok-1".to_string()]);
        // The invalid line AND everything after it are gone from disk.
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "ok-0\nok-1\n");
        log.append("ok-2").unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "ok-0\nok-1\nok-2\n"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_recovers_empty() {
        let path = tmpfile("missing");
        let _ = std::fs::remove_file(&path);
        let (log, lines) = AppendLog::recover(&path, IoShim::Real, |_, _| true).unwrap();
        assert!(lines.is_empty());
        log.append("first").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "first\n");
        let _ = std::fs::remove_file(&path);
    }

    /// Creating a log (directly, or by recovering a missing file) must
    /// fsync the parent directory and surface its failure: otherwise the
    /// first acknowledged line is durable only if the new directory entry
    /// happens to survive a crash.
    #[test]
    fn creation_fsyncs_the_parent_directory() {
        let mut spec = FaultSpec::quiet(1);
        spec.dir_fsync = 1.0;
        let path = tmpfile("dirfsync");
        let _ = std::fs::remove_file(&path);
        let err = AppendLog::create(&path, IoShim::faulty(spec.clone())).unwrap_err();
        assert!(err.to_string().contains("directory fsync"), "{err}");
        let _ = std::fs::remove_file(&path);
        let err = AppendLog::recover(&path, IoShim::faulty(spec.clone()), |_, _| true)
            .expect_err("recovering a missing log must create it durably");
        assert!(err.to_string().contains("directory fsync"), "{err}");
        // An existing log is reopened, not created: no directory fsync.
        std::fs::write(&path, "kept\n").unwrap();
        let (_, lines) = AppendLog::recover(&path, IoShim::faulty(spec), |_, _| true).unwrap();
        assert_eq!(lines, vec!["kept".to_string()]);
        let _ = std::fs::remove_file(&path);
    }

    /// A failed append must leave the durable prefix byte-identical: the
    /// torn fragment is rolled back immediately, not left for recovery.
    #[test]
    fn failed_append_rolls_back_to_durable_prefix() {
        let path = tmpfile("rollback");
        let mut spec = FaultSpec::quiet(3);
        spec.torn = 1.0;
        let faulty = IoShim::faulty(spec);
        {
            let log = AppendLog::create(&path, IoShim::Real).unwrap();
            log.append("durable").unwrap();
        }
        let log = AppendLog::open_at(&path, faulty, "durable\n".len() as u64).unwrap();
        assert!(log.append("torn-record").is_err());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "durable\n");
        assert_eq!(log.durable_len(), "durable\n".len() as u64);
        let _ = std::fs::remove_file(&path);
    }

    /// A torn group commit is all or nothing: even when the tear lands
    /// after complete lines of the batch, rollback leaves the durable
    /// prefix byte-identical and recovery replays no line of the batch.
    #[test]
    fn torn_append_all_recovers_no_part_of_the_batch() {
        let batch: Vec<String> = (0..8).map(|i| format!("batch-line-{i}")).collect();
        let batch: Vec<&str> = batch.iter().map(String::as_str).collect();
        let mut deepest_cut = 0usize;
        for seed in 0..8 {
            let path = tmpfile("torn-batch");
            {
                let log = AppendLog::create(&path, IoShim::Real).unwrap();
                log.append("durable").unwrap();
            }
            let mut spec = FaultSpec::quiet(seed);
            spec.torn = 1.0;
            let log =
                AppendLog::open_at(&path, IoShim::faulty(spec), "durable\n".len() as u64).unwrap();
            let err = log.append_all(&batch).unwrap_err().to_string();
            let cut: usize = err
                .split("torn write at byte ")
                .nth(1)
                .and_then(|rest| rest.split(' ').next())
                .and_then(|n| n.parse().ok())
                .unwrap_or_else(|| panic!("unexpected error {err}"));
            deepest_cut = deepest_cut.max(cut);
            assert_eq!(std::fs::read_to_string(&path).unwrap(), "durable\n");
            assert_eq!(log.durable_len(), "durable\n".len() as u64);
            drop(log);
            let (_, lines) = AppendLog::recover(&path, IoShim::Real, |_, _| true).unwrap();
            assert_eq!(lines, vec!["durable".to_string()]);
            let _ = std::fs::remove_file(&path);
        }
        assert!(
            deepest_cut > batch[0].len(),
            "no seed tore past the batch's first complete line"
        );
    }
}
