//! Deterministic I/O fault injection for durable writes.
//!
//! The disk store and checkpoint journal both claim crash safety; a claim
//! like that is only worth what its torture tests inject. [`IoShim`] is a
//! thin seam over the handful of syscalls those layers use to commit bytes
//! — write, fsync, rename, directory fsync — that either passes straight
//! through ([`IoShim::Real`], the production path) or injects faults from a
//! deterministic schedule ([`IoShim::faulty`]): torn writes that land only
//! a prefix, ENOSPC, fsync failures, rename failures.
//!
//! Determinism follows `simhpc::faults`, whose [`FaultKernel`] this shim
//! shares with the daemon's network shim: it comes from the draw keying,
//! not from draw order. Every fault is drawn from a fresh `SplitMix64`
//! stream seeded by the `(seed, op, file name, per-file op counter)` tuple,
//! so two writers racing over a store see exactly the fault schedule a
//! serial run would have seen for the same files — the same seed
//! reproduces the same schedule at any `--jobs`.
//!
//! Callers pass the shim in as a value. The `benchkit` binary arms one
//! from the `BENCHKIT_IOFAULTS` environment variable at start-up, e.g.
//! `BENCHKIT_IOFAULTS="seed=7,torn=0.3,enospc=0.2,match=shard-"`, so CI
//! injects faults without recompiling — the optional `match=` substring
//! scopes injection to paths containing it, so a smoke run can fault store
//! shards while leaving checkpoint journals untouched.

use simhpc::faults::{parse_spec, FaultKernel, SpecField};
use simhpc::noise::SplitMix64;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;

/// Environment variable the `benchkit` binary reads a [`FaultSpec`] from.
pub const IOFAULTS_ENV: &str = "BENCHKIT_IOFAULTS";

/// Per-operation fault probabilities plus the seed keying the schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    pub seed: u64,
    /// P(a write lands only a prefix of its bytes, then errors).
    pub torn: f64,
    /// P(a write fails with no bytes landing — the full-disk answer).
    pub enospc: f64,
    /// P(a file fsync fails).
    pub fsync: f64,
    /// P(a rename fails, leaving the destination untouched).
    pub rename: f64,
    /// P(a parent-directory fsync fails after rename).
    pub dir_fsync: f64,
    /// Only paths whose string form contains one of these `|`-separated
    /// substrings are eligible (e.g. `shard-|refs/` faults entries,
    /// leases, and ref segments but spares store metadata and journals).
    pub only_matching: Option<String>,
}

impl FaultSpec {
    /// No faults ever — useful as a parse base.
    pub fn quiet(seed: u64) -> FaultSpec {
        FaultSpec {
            seed,
            torn: 0.0,
            enospc: 0.0,
            fsync: 0.0,
            rename: 0.0,
            dir_fsync: 0.0,
            only_matching: None,
        }
    }

    /// Parse the `BENCHKIT_IOFAULTS` format: comma-separated `key=value`
    /// pairs from `seed`, `torn`, `enospc`, `fsync`, `rename`, `dirfsync`,
    /// `match`. Unknown keys and malformed values are hard errors, and so
    /// is a `match` with no non-empty alternative — it would match no
    /// path, and a typo in a torture schedule must not silently test
    /// nothing.
    pub fn parse(text: &str) -> Result<FaultSpec, String> {
        parse_spec(
            text,
            FaultSpec::quiet(0),
            |s| &mut s.seed,
            &[
                ("torn", SpecField::Prob(|s| &mut s.torn)),
                ("enospc", SpecField::Prob(|s| &mut s.enospc)),
                ("fsync", SpecField::Prob(|s| &mut s.fsync)),
                ("rename", SpecField::Prob(|s| &mut s.rename)),
                ("dirfsync", SpecField::Prob(|s| &mut s.dir_fsync)),
                (
                    "match",
                    SpecField::Text(|s, value| {
                        if value.split('|').all(str::is_empty) {
                            return Err(format!("match names no path substring: {value:?}"));
                        }
                        s.only_matching = Some(value.to_string());
                        Ok(())
                    }),
                ),
            ],
        )
    }
}

/// One injected fault class; `op_name` keys the draw stream.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    Write,
    Fsync,
    Rename,
    DirFsync,
}

impl Op {
    fn name(self) -> &'static str {
        match self {
            Op::Write => "write",
            Op::Fsync => "fsync",
            Op::Rename => "rename",
            Op::DirFsync => "dirfsync",
        }
    }
}

/// The I/O seam: `Real` passes through to the filesystem, `Faulty` injects
/// scheduled failures. Cloning a faulty shim shares the schedule state;
/// shims compare by spec, whatever that state.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum IoShim {
    #[default]
    Real,
    Faulty(Arc<FaultKernel<FaultSpec>>),
}

fn injected(what: &str, path: &Path) -> io::Error {
    io::Error::other(format!("injected {what} ({})", path.display()))
}

impl IoShim {
    /// A shim injecting faults per `spec`.
    pub fn faulty(spec: FaultSpec) -> IoShim {
        IoShim::Faulty(Arc::new(FaultKernel::new(spec.seed, spec)))
    }

    /// Draw the fault decision for the next `op` on `path`, keyed by
    /// `(op, file name)`. Returns the draw stream when a fault fires (so
    /// the torn-write prefix length comes from the same stream).
    fn draw(&self, op: Op, path: &Path, p_of: impl Fn(&FaultSpec) -> f64) -> Option<SplitMix64> {
        let IoShim::Faulty(plan) = self else {
            return None;
        };
        if let Some(pat) = &plan.spec().only_matching {
            let lossy = path.to_string_lossy();
            if !pat.split('|').any(|p| !p.is_empty() && lossy.contains(p)) {
                return None;
            }
        }
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        plan.draw(p_of(plan.spec()), &[op.name().as_bytes(), name.as_bytes()])
            .map(|(_, stream)| stream)
    }

    /// Write all of `bytes` to an open file. A torn fault lands only a
    /// prefix (then errors); an ENOSPC fault lands nothing.
    pub fn write_all(&self, file: &mut File, path: &Path, bytes: &[u8]) -> io::Result<()> {
        if let Some(mut stream) = self.draw(Op::Write, path, |s| s.torn) {
            let cut = if bytes.is_empty() {
                0
            } else {
                (stream.next_u64() % bytes.len() as u64) as usize
            };
            let _ = file.write_all(&bytes[..cut]);
            let _ = file.sync_data();
            return Err(injected(
                &format!("torn write at byte {cut} of {}", bytes.len()),
                path,
            ));
        }
        if self.draw(Op::Write, path, |s| s.enospc).is_some() {
            return Err(injected("ENOSPC", path));
        }
        file.write_all(bytes)
    }

    /// Fsync an open file.
    pub fn fsync(&self, file: &File, path: &Path) -> io::Result<()> {
        if self.draw(Op::Fsync, path, |s| s.fsync).is_some() {
            return Err(injected("fsync failure", path));
        }
        file.sync_data()
    }

    /// Rename `from` to `to`; an injected failure leaves both untouched.
    pub fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        if self.draw(Op::Rename, to, |s| s.rename).is_some() {
            return Err(injected("rename failure", to));
        }
        fs::rename(from, to)
    }

    /// Fsync a directory so a rename within it survives power loss of the
    /// directory metadata.
    pub(crate) fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        if self.draw(Op::DirFsync, dir, |s| s.dir_fsync).is_some() {
            return Err(injected("directory fsync failure", dir));
        }
        File::open(dir)?.sync_data()
    }
}

/// Write `content` to `path` atomically and durably through `io`: temp file
/// in the same directory, write, fsync, rename, then **fsync the parent
/// directory** — without that last step a crash can lose the rename itself
/// and a "committed" entry silently vanishes. On any injected or real
/// failure the temp file is cleaned up (a crash mid-sequence still leaves
/// one; `store fsck` reports such orphans).
pub fn write_atomic_with(io: &IoShim, path: &Path, content: &str) -> io::Result<()> {
    use std::sync::atomic::{AtomicU64, Ordering};
    // PID alone is not unique: two threads of one process writing the same
    // destination would share a temp name and rename each other's
    // half-written bytes into place.
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let tmp = dir.join(format!(
        ".tmp-{}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed),
        path.file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default()
    ));
    let attempt = (|| {
        let mut f = File::create(&tmp)?;
        io.write_all(&mut f, path, content.as_bytes())?;
        io.fsync(&f, path)?;
        drop(f);
        io.rename(&tmp, path)?;
        io.fsync_dir(dir)
    })();
    if attempt.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    attempt
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tmpdir(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "spackle-iofault-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn spec_parses_and_rejects_garbage() {
        let spec = FaultSpec::parse("seed=7, torn=0.25, enospc=0.1, match=shard-").unwrap();
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.torn, 0.25);
        assert_eq!(spec.enospc, 0.1);
        assert_eq!(spec.only_matching.as_deref(), Some("shard-"));
        assert!(FaultSpec::parse("torn=2.0").is_err());
        assert!(FaultSpec::parse("bogus=1").is_err());
        assert!(FaultSpec::parse("torn").is_err());
        assert!(FaultSpec::parse("seed=x").is_err());
    }

    #[test]
    fn real_shim_round_trips() {
        let dir = tmpdir("real");
        let path = dir.join("out.txt");
        write_atomic_with(&IoShim::Real, &path, "hello\n").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "hello\n");
        // No temp residue on success.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .collect();
        assert!(leftovers.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Regression for the durability gap: the parent-directory fsync after
    /// rename must happen AND its failure must be surfaced — otherwise a
    /// power loss can drop the rename and lose a "committed" entry.
    #[test]
    fn parent_dir_fsync_failure_is_surfaced() {
        let dir = tmpdir("dirfsync");
        let mut spec = FaultSpec::quiet(1);
        spec.dir_fsync = 1.0;
        let io = IoShim::faulty(spec);
        let err = write_atomic_with(&io, &dir.join("entry.json"), "data").unwrap_err();
        assert!(
            err.to_string().contains("directory fsync"),
            "unexpected error: {err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_lands_only_a_prefix_and_cleans_temp() {
        let dir = tmpdir("torn");
        let mut spec = FaultSpec::quiet(3);
        spec.torn = 1.0;
        let io = IoShim::faulty(spec);
        let path = dir.join("entry.json");
        let err = write_atomic_with(&io, &path, "0123456789").unwrap_err();
        assert!(err.to_string().contains("torn write"), "{err}");
        assert!(!path.exists(), "torn write must never reach the target");
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert!(leftovers.is_empty(), "temp residue: {leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rename_failure_leaves_destination_untouched() {
        let dir = tmpdir("rename");
        let path = dir.join("entry.json");
        write_atomic_with(&IoShim::Real, &path, "old").unwrap();
        let mut spec = FaultSpec::quiet(5);
        spec.rename = 1.0;
        let io = IoShim::faulty(spec);
        assert!(write_atomic_with(&io, &path, "new").is_err());
        assert_eq!(fs::read_to_string(&path).unwrap(), "old");
        let _ = fs::remove_dir_all(&dir);
    }

    /// The acceptance criterion: the same seed reproduces the same fault
    /// schedule, independent of the order operations interleave.
    #[test]
    fn schedule_is_keyed_not_ordered() {
        let spec = FaultSpec::parse("seed=11,torn=0.4,enospc=0.3,fsync=0.2").unwrap();
        let paths: Vec<PathBuf> = (0..20)
            .map(|i| PathBuf::from(format!("e{i}.json")))
            .collect();
        let schedule = |order: Vec<usize>| -> Vec<(usize, bool, bool, bool)> {
            let io = IoShim::faulty(spec.clone());
            let mut out: Vec<(usize, bool, bool, bool)> = order
                .iter()
                .map(|&i| {
                    let p = &paths[i];
                    (
                        i,
                        io.draw(Op::Write, p, |s| s.torn).is_some(),
                        io.draw(Op::Write, p, |s| s.enospc).is_some(),
                        io.draw(Op::Fsync, p, |s| s.fsync).is_some(),
                    )
                })
                .collect();
            out.sort();
            out
        };
        let forward = schedule((0..20).collect());
        let backward = schedule((0..20).rev().collect());
        assert_eq!(forward, backward, "fault schedule depends on draw order");
        assert!(
            forward.iter().any(|&(_, t, e, f)| t || e || f),
            "schedule drew no faults at these rates; keying is broken"
        );
    }

    /// `match=` with no non-empty alternative would match no path and
    /// silently disarm every fault; it must be a parse error.
    #[test]
    fn empty_match_is_rejected() {
        for text in ["torn=1,match=", "torn=1,match=|", "match= | "] {
            let err = FaultSpec::parse(text).unwrap_err();
            assert!(
                err.starts_with("match names no path substring"),
                "{text:?}: {err}"
            );
        }
        let spec = FaultSpec::parse("torn=1,match=|refs/").unwrap();
        assert_eq!(spec.only_matching.as_deref(), Some("|refs/"));
    }

    #[test]
    fn match_filter_scopes_injection() {
        let mut spec = FaultSpec::quiet(9);
        spec.torn = 1.0;
        spec.only_matching = Some("shard-".to_string());
        let io = IoShim::faulty(spec);
        let dir = tmpdir("match");
        fs::create_dir_all(dir.join("shard-00")).unwrap();
        // Outside the match: writes succeed.
        write_atomic_with(&io, &dir.join("journal.jsonl"), "ok").unwrap();
        // Inside the match: faulted.
        assert!(write_atomic_with(&io, &dir.join("shard-00/x.json"), "no").is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}
