//! Crash-safe, multi-writer on-disk package store shared across studies.
//!
//! `--warm-store` shares builds *within* a study; this module persists the
//! content-hash-keyed store to disk so nightly reruns start warm (ROADMAP:
//! "persist a store across studies" and its production-scale pivot: N
//! machines sharing one cache). Because a shared cache can lie in many
//! ways — torn writes, bit rot, concurrent writers — every layer here is
//! hardened the same way the checkpoint journal is:
//!
//! * **Entries** (`DIR/shard-XX/<hash>.json`, sharded by content-hash
//!   prefix) are written atomically (temp file + fsync + rename + parent
//!   directory fsync, through the [`crate::iofault::IoShim`] seam) and
//!   carry an FNV-1a checksum over an embedded payload string, so the
//!   checksum is byte-exact regardless of how the outer JSON is
//!   formatted. The payload keeps the rendered package *and* its full
//!   [`BuildRecord`] provenance — Principle 4: the captured build steps
//!   persist with the artifact.
//! * **Corruption quarantines, never errors.** A checksum mismatch or
//!   unparsable entry is moved to `DIR/corrupt/` and logged in
//!   `DIR/corrupt/quarantine.jsonl`; the caller simply sees a cold cell
//!   and rebuilds. Flipping any byte of any entry must degrade, not panic.
//! * **Leases, not a global lock.** Each shard carries an advisory lease
//!   file (`shard-XX/.lease`: writer id, PID, expiry) acquired with
//!   `create_new`, renewed by heartbeat, and taken over when expired or
//!   held by a dead PID. A live competing writer costs only the contended
//!   shard — its persists are skipped, everything else proceeds — instead
//!   of degrading the whole run. Reads need no lease at all: entries are
//!   immutable once committed and every read is checksum-verified.
//! * **Reference log** is per-writer: `DIR/refs/<writer>.jsonl` appends
//!   one JSONL record per study listing the hashes it used — same
//!   append-only discipline as the checkpoint journal, each segment
//!   recovered to its longest valid prefix, and the segments merged
//!   deterministically (by study number, then writer id) at read time.
//!   `gc` evicts entries not referenced by the last K merged records,
//!   refuses to evict anything referenced by a writer currently holding a
//!   live lease, skips (with notice) shards it cannot lease, and never
//!   touches the quarantine directory.
//!
//! The sharded layout above (stamped `store.meta` version 2) is the only
//! one read. A directory without `store.meta` that holds the old v1
//! single-lock layout (`DIR/entries/` or `DIR/refs.jsonl`) is refused,
//! and nothing in it is created, moved or deleted.

use crate::build::{BuildAction, BuildRecord, Store};
use crate::iofault::{write_atomic_with, IoShim};
use crate::walog::{valid_prefix, AppendLog};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs::{self, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Format marker for entry files; bump `ENTRY_VERSION` on layout changes.
const ENTRY_FORMAT: &str = "spackle-store-entry";
const ENTRY_VERSION: i64 = 1;

/// Store-level format marker (`DIR/store.meta`).
const STORE_FORMAT: &str = "spackle-store";
const STORE_VERSION: i64 = 2;
const STORE_META: &str = "store.meta";

/// Number of content-hash shards; `shard_name` maps a hash to one.
pub const SHARD_COUNT: usize = 16;

const CORRUPT_DIR: &str = "corrupt";
const QUARANTINE_LOG: &str = "quarantine.jsonl";
const REFS_DIR: &str = "refs";
const LEASE_FILE: &str = ".lease";
/// How long a lease lives without renewal before takeover is allowed.
const DEFAULT_LEASE_TTL_S: i64 = 600;

/// Markers of the refused v1 single-writer layout.
const V1_ENTRIES_DIR: &str = "entries";
const V1_REFS_FILE: &str = "refs.jsonl";

/// Errors from opening or maintaining a disk store.
#[derive(Debug)]
pub enum DiskStoreError {
    /// Filesystem trouble or a refused layout (context + source message).
    Io(String),
}

impl fmt::Display for DiskStoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let DiskStoreError::Io(msg) = self;
        write!(f, "store I/O: {msg}")
    }
}

impl std::error::Error for DiskStoreError {}

fn io_err(context: &str, err: std::io::Error) -> DiskStoreError {
    DiskStoreError::Io(format!("{context}: {err}"))
}

/// One persisted package: its content hash, rendered spec, and the full
/// build provenance captured when it was first built.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreEntry {
    pub hash: String,
    pub render: String,
    pub record: BuildRecord,
}

fn action_str(a: &BuildAction) -> &'static str {
    match a {
        BuildAction::Built => "built",
        BuildAction::Cached => "cached",
        BuildAction::External => "external",
    }
}

fn action_from(s: &str) -> Option<BuildAction> {
    match s {
        "built" => Some(BuildAction::Built),
        "cached" => Some(BuildAction::Cached),
        "external" => Some(BuildAction::External),
        _ => None,
    }
}

impl StoreEntry {
    /// Serialize to the on-disk entry format: an outer JSON object holding
    /// a checksum and the payload *as a string*, so the checksum covers
    /// exact bytes rather than a particular key ordering.
    pub fn encode(&self) -> String {
        let payload = self.payload_json();
        let mut outer = tinycfg::Map::new();
        outer.insert("format", tinycfg::Value::Str(ENTRY_FORMAT.to_string()));
        outer.insert("version", tinycfg::Value::Int(ENTRY_VERSION));
        outer.insert(
            "checksum",
            tinycfg::Value::Str(format!("{:016x}", fnv1a64(payload.as_bytes()))),
        );
        outer.insert("payload", tinycfg::Value::Str(payload));
        let mut text = tinycfg::Value::Map(outer).to_json();
        text.push('\n');
        text
    }

    fn payload_json(&self) -> String {
        let mut rec = tinycfg::Map::new();
        rec.insert("package", tinycfg::Value::Str(self.record.package.clone()));
        rec.insert("version", tinycfg::Value::Str(self.record.version.clone()));
        rec.insert("hash", tinycfg::Value::Str(self.record.hash.clone()));
        rec.insert(
            "action",
            tinycfg::Value::Str(action_str(&self.record.action).to_string()),
        );
        rec.insert(
            "build_time_s",
            tinycfg::Value::Float(self.record.build_time_s),
        );
        rec.insert(
            "steps",
            tinycfg::Value::List(
                self.record
                    .steps
                    .iter()
                    .map(|s| tinycfg::Value::Str(s.clone()))
                    .collect(),
            ),
        );
        let mut m = tinycfg::Map::new();
        m.insert("hash", tinycfg::Value::Str(self.hash.clone()));
        m.insert("render", tinycfg::Value::Str(self.render.clone()));
        m.insert("record", tinycfg::Value::Map(rec));
        tinycfg::Value::Map(m).to_json()
    }

    /// Parse and verify an on-disk entry. Any deviation — bad UTF-8, bad
    /// JSON, wrong format marker, checksum mismatch, missing field —
    /// returns `Err` with a human-readable reason (the quarantine log line).
    pub fn decode(text: &str) -> Result<StoreEntry, String> {
        let outer = tinycfg::parse(text).map_err(|e| format!("unparsable entry: {e}"))?;
        let format = outer
            .get_path("format")
            .and_then(|v| v.as_str())
            .ok_or("missing format marker")?;
        if format != ENTRY_FORMAT {
            return Err(format!("unknown format marker {format:?}"));
        }
        let version = outer
            .get_path("version")
            .and_then(|v| v.as_int())
            .ok_or("missing version")?;
        if version != ENTRY_VERSION {
            return Err(format!("unsupported entry version {version}"));
        }
        let checksum = outer
            .get_path("checksum")
            .and_then(|v| v.as_str())
            .ok_or("missing checksum")?;
        let payload = outer
            .get_path("payload")
            .and_then(|v| v.as_str())
            .ok_or("missing payload")?;
        let actual = format!("{:016x}", fnv1a64(payload.as_bytes()));
        if actual != checksum {
            return Err(format!(
                "checksum mismatch: recorded {checksum}, computed {actual}"
            ));
        }
        let inner = tinycfg::parse(payload).map_err(|e| format!("unparsable payload: {e}"))?;
        let get_str = |v: &tinycfg::Value, path: &str| -> Result<String, String> {
            v.get_path(path)
                .and_then(|x| x.as_str().map(str::to_string))
                .ok_or_else(|| format!("missing field {path}"))
        };
        let record = BuildRecord {
            package: get_str(&inner, "record.package")?,
            version: get_str(&inner, "record.version")?,
            hash: get_str(&inner, "record.hash")?,
            action: action_from(&get_str(&inner, "record.action")?)
                .ok_or("unknown build action")?,
            build_time_s: inner
                .get_path("record.build_time_s")
                .and_then(|v| v.as_float())
                .ok_or("missing field record.build_time_s")?,
            steps: inner
                .get_path("record.steps")
                .and_then(|v| v.as_list())
                .ok_or("missing field record.steps")?
                .iter()
                .map(|s| s.as_str().map(str::to_string).ok_or("non-string step"))
                .collect::<Result<Vec<_>, _>>()?,
        };
        let entry = StoreEntry {
            hash: get_str(&inner, "hash")?,
            render: get_str(&inner, "render")?,
            record,
        };
        // Canonical-form check: the writer only ever emits `encode()`
        // output, so any deviation — even in bytes the parser would
        // tolerate, like trailing whitespace — means the file was not
        // written by us intact.
        if entry.encode() != text {
            return Err("entry is not in canonical form".to_string());
        }
        Ok(entry)
    }
}

/// FNV-1a, 64-bit — small, dependency-free, and plenty to catch torn
/// writes and bit flips (this is an integrity check, not a defense
/// against an adversary who can also rewrite the checksum).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Write `content` to `path` atomically and durably: temp file in the same
/// directory, fsync, rename, parent-directory fsync.
pub fn write_atomic(path: &Path, content: &str) -> std::io::Result<()> {
    write_atomic_with(&IoShim::Real, path, content)
}

/// Is `path` a committed entry file? `<hash>.json`, and never a dotfile —
/// leases and in-flight atomic-write temps are infrastructure.
fn is_entry_file(path: &Path) -> bool {
    path.extension().map(|x| x == "json").unwrap_or(false)
        && !path
            .file_name()
            .map(|n| n.to_string_lossy().starts_with('.'))
            .unwrap_or(true)
}

/// Shard index for a content hash.
fn shard_of(hash: &str) -> usize {
    (fnv1a64(hash.as_bytes()) % SHARD_COUNT as u64) as usize
}

/// Directory name (`shard-XX`) holding entries for `hash`.
pub fn shard_name(hash: &str) -> String {
    format!("shard-{:02x}", shard_of(hash))
}

fn shard_dir_name(shard: usize) -> String {
    format!("shard-{shard:02x}")
}

/// Verify one committed entry file found in `shard`: readable, UTF-8,
/// a valid [`StoreEntry`] whose hash is its file stem and whose shard is
/// the one it sits in. `Err` carries the reason that `open` quarantines
/// with and `fsck` reports.
fn verify_entry(path: &Path, shard: usize) -> Result<StoreEntry, String> {
    let bytes = fs::read(path).map_err(|e| format!("unreadable: {e}"))?;
    let text = String::from_utf8(bytes).map_err(|_| "not valid UTF-8".to_string())?;
    let entry = StoreEntry::decode(&text)?;
    let stem = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default();
    if entry.hash != stem {
        return Err(format!(
            "hash {} does not match file name {stem}",
            entry.hash
        ));
    }
    if shard_of(&entry.hash) != shard {
        return Err(format!(
            "entry {} misplaced in {} (belongs in {})",
            entry.hash,
            shard_dir_name(shard),
            shard_name(&entry.hash)
        ));
    }
    Ok(entry)
}

/// The committed entry files of one shard directory, sorted. Dotfiles
/// are infrastructure (leases, in-flight temps from atomic writes), never
/// committed entries.
fn entry_files(shard_dir: &Path) -> Result<Vec<PathBuf>, DiskStoreError> {
    let mut names: Vec<PathBuf> = fs::read_dir(shard_dir)
        .map_err(|e| io_err("listing shard", e))?
        .filter_map(|r| r.ok().map(|d| d.path()))
        .filter(|p| is_entry_file(p))
        .collect();
    names.sort();
    Ok(names)
}

/// A note about one quarantined entry.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantineNote {
    pub file: String,
    pub reason: String,
}

/// Outcome of a `gc` pass.
#[derive(Debug, Clone, PartialEq)]
pub struct GcReport {
    pub kept: usize,
    pub evicted: usize,
    pub studies_considered: usize,
    /// Shards holding doomed entries that could not be leased (a live
    /// competing writer): eviction there was skipped, not forced.
    pub skipped_shards: Vec<String>,
}

/// Outcome of persisting one entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Persist {
    /// The entry is committed and durable on disk.
    Written,
    /// The entry's shard is leased by a live competing writer; nothing was
    /// written. The caller keeps its in-memory copy and the next study
    /// simply rebuilds the cell.
    SkippedContended,
}

/// One writer's advisory claim on a shard, as read from `.lease`.
#[derive(Debug, Clone, PartialEq)]
pub struct LeaseInfo {
    pub writer: String,
    pub pid: u32,
    /// Hostname the holder recorded when acquiring. PID liveness is only
    /// meaningful on that host; leases written before the field existed
    /// read back as the local host (the old single-host assumption).
    pub host: String,
    pub acquired_unix: i64,
    pub expires_unix: i64,
}

impl LeaseInfo {
    /// A lease is live while it has not expired and — *only when held on
    /// this host* — its holder's PID exists. A `/proc/<pid>` probe says
    /// nothing about a writer on another machine sharing the filesystem,
    /// so a foreign-host lease is trusted until its expiry alone: judging
    /// a live remote writer dead would take over a shard mid-write.
    pub fn is_live(&self, now: i64) -> bool {
        self.expires_unix >= now && (self.host != local_hostname() || pid_alive(self.pid))
    }
}

/// Read a lease file in the store's format. `None` for missing or
/// unreadable leases, which are takeover candidates.
pub fn read_lease(path: &Path) -> Option<LeaseInfo> {
    let text = fs::read_to_string(path).ok()?;
    let v = tinycfg::parse(&text).ok()?;
    let pid = v.get_path("pid")?.as_int()?;
    if pid < 0 {
        return None;
    }
    Some(LeaseInfo {
        writer: v.get_path("writer")?.as_str()?.to_string(),
        pid: pid as u32,
        host: v
            .get_path("host")
            .and_then(|h| h.as_str())
            .map(str::to_string)
            .unwrap_or_else(|| local_hostname().to_string()),
        acquired_unix: v.get_path("acquired_unix")?.as_int()?,
        expires_unix: v.get_path("expires_unix")?.as_int()?,
    })
}

/// This machine's hostname, for lease-liveness scoping. `/proc` is the
/// dependency-free answer on Linux; elsewhere fall back to `$HOSTNAME`,
/// then a fixed name (every process on the box agrees, which is all the
/// comparison needs). A machine-identity probe cached once per process,
/// not a run input: the one environment read outside `benchkit`'s `main`.
pub fn local_hostname() -> &'static str {
    static HOSTNAME: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    HOSTNAME.get_or_init(|| {
        fs::read_to_string("/proc/sys/kernel/hostname")
            .ok()
            .map(|h| h.trim().to_string())
            .filter(|h| !h.is_empty())
            .or_else(|| std::env::var("HOSTNAME").ok().filter(|h| !h.is_empty()))
            .unwrap_or_else(|| "localhost".to_string())
    })
}

/// Claim `path` as a lease for `writer` on this host for `ttl_s` seconds,
/// in the same on-disk format (and with the same liveness semantics) as
/// the store's shard leases. The write is atomic+durable through `io`;
/// callers racing for the same lease must read back and check `writer`
/// afterwards, exactly like shard acquisition.
pub fn write_lease(io: &IoShim, path: &Path, writer: &str, ttl_s: i64) -> std::io::Result<()> {
    write_atomic_with(io, path, &lease_body(writer, ttl_s))
}

/// A lease claimed now by this process on this host for `ttl_s` seconds.
fn lease_body(writer: &str, ttl_s: i64) -> String {
    let now = unix_now();
    let mut m = tinycfg::Map::new();
    m.insert("writer", tinycfg::Value::Str(writer.to_string()));
    m.insert("pid", tinycfg::Value::Int(std::process::id() as i64));
    m.insert("host", tinycfg::Value::Str(local_hostname().to_string()));
    m.insert("acquired_unix", tinycfg::Value::Int(now));
    m.insert(
        "expires_unix",
        tinycfg::Value::Int(now.saturating_add(ttl_s)),
    );
    tinycfg::Value::Map(m).to_json()
}

/// One merged reference-log record: study `study` of writer `writer` used
/// the entries in `refs`.
#[derive(Debug, Clone, PartialEq)]
pub struct RefRecord {
    pub study: usize,
    pub writer: String,
    pub refs: Vec<String>,
}

/// Read and deterministically merge every per-writer reference segment:
/// each `DIR/refs/<writer>.jsonl` is read up to its longest valid prefix
/// (never truncated: the segment belongs to its writer), then all records
/// are ordered by (append time, writer id, study number) — a total order
/// independent of segment file mtimes or scan order. Records without an
/// append time (written before records carried one) sort first, by
/// (study number, writer id).
pub fn merged_ref_log(dir: &Path) -> Result<Vec<RefRecord>, DiskStoreError> {
    let refs_dir = dir.join(REFS_DIR);
    let mut files: Vec<PathBuf> = match fs::read_dir(&refs_dir) {
        Ok(rd) => rd
            .filter_map(|r| r.ok().map(|d| d.path()))
            .filter(|p| p.extension().map(|x| x == "jsonl").unwrap_or(false))
            .collect(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(io_err("listing reference segments", e)),
    };
    files.sort();
    let mut records = Vec::new();
    for path in files {
        let writer = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let text = fs::read_to_string(&path).map_err(|e| io_err("reading reference segment", e))?;
        let (prefix, _) = valid_prefix(&text, |line, i| parse_ref_line(line, i + 1));
        for (i, (refs, unix_ns)) in prefix.into_iter().enumerate() {
            let study = i + 1;
            let untimed_study = if unix_ns.is_none() { study } else { 0 };
            let record = RefRecord {
                study,
                writer: writer.clone(),
                refs,
            };
            records.push(((unix_ns, untimed_study), record));
        }
    }
    records.sort_by(|(a_key, a), (b_key, b)| {
        (a_key, &a.writer, a.study).cmp(&(b_key, &b.writer, b.study))
    });
    Ok(records.into_iter().map(|(_, record)| record).collect())
}

/// Seconds since the unix epoch (0 if the clock is before 1970).
fn unix_now() -> i64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs() as i64)
        .unwrap_or(0)
}

/// Is `pid` a live process? On Linux, `/proc/<pid>` existence is the
/// cheapest advisory answer; elsewhere assume dead (single-host tooling).
/// A zombie is *dead* for lease purposes: a SIGKILLed writer whose
/// parent never reaps it would otherwise hold its lease hostage until
/// expiry, refusing a crash-restart over the same directory.
fn pid_alive(pid: u32) -> bool {
    if !Path::new(&format!("/proc/{pid}")).exists() {
        return false;
    }
    // `/proc/<pid>/stat` is `pid (comm) STATE ...`; comm may itself
    // contain parens, so the state letter follows the *last* `)`.
    match fs::read_to_string(format!("/proc/{pid}/stat")) {
        Ok(stat) => match stat.rfind(')') {
            Some(close) => !matches!(
                stat[close + 1..].trim_start().chars().next(),
                Some('Z') | Some('X')
            ),
            None => true,
        },
        // Raced the exit, or a non-procfs platform quirk: trust existence.
        Err(_) => Path::new(&format!("/proc/{pid}")).exists(),
    }
}

/// A process-unique default writer id, with its fault key. The id is the
/// PID plus a per-process sequence, so two stores opened by one process
/// never share a lease identity. The key (`w+<sequence>`) leaves the PID
/// out, so a fault schedule draws the same faults on the writer's
/// reference segment in every run; `+` is outside the [`sanitize_writer`]
/// alphabet, so no named writer's key can equal it.
fn default_writer() -> (String, String) {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    (format!("w{}-{seq}", std::process::id()), format!("w+{seq}"))
}

/// Writer ids become file names (`refs/<writer>.jsonl`), so restrict them
/// to a safe alphabet; anything else falls back to the default id.
fn sanitize_writer(raw: &str) -> Option<String> {
    let cleaned: String = raw
        .chars()
        .take(64)
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '.' {
                c
            } else {
                '-'
            }
        })
        .collect();
    if cleaned.is_empty() || cleaned.chars().all(|c| c == '.') {
        return None;
    }
    Some(cleaned)
}

/// How to open a store: the writer's lease identity, lease lifetime, and
/// the I/O seam (fault injection in tests and torture CI, `Real` in
/// production).
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Lease identity; `None` derives a process-unique id.
    pub writer: Option<String>,
    /// Lease lifetime without renewal; expired leases may be taken over.
    pub lease_ttl_s: i64,
    pub io: IoShim,
}

impl Default for StoreOptions {
    fn default() -> StoreOptions {
        StoreOptions {
            writer: None,
            lease_ttl_s: DEFAULT_LEASE_TTL_S,
            io: IoShim::Real,
        }
    }
}

/// The on-disk store: loaded entries, quarantine records from this open,
/// and the per-shard leases held until drop.
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
    writer: String,
    /// The writer's name in fault draws on its reference segment: the
    /// writer id itself when named, a PID-free key when defaulted.
    fault_key: String,
    lease_ttl_s: i64,
    io: IoShim,
    /// Verified resident entries: hash to rendered spec.
    renders: BTreeMap<String, String>,
    quarantined: Vec<QuarantineNote>,
    held: BTreeSet<usize>,
    contended: BTreeMap<usize, LeaseInfo>,
}

impl DiskStore {
    /// Open (creating if needed) the store at `dir` with default options.
    ///
    /// Tries to lease every shard — shards held by a live competing writer
    /// are recorded as contended (persists to them are skipped), never an
    /// error. A v1-layout directory is refused untouched. Every resident
    /// entry is verified; bad ones are moved to `dir/corrupt/` and recorded
    /// in [`DiskStore::quarantined`], never returned as errors.
    pub fn open(dir: &Path) -> Result<DiskStore, DiskStoreError> {
        Self::open_with(dir, StoreOptions::default())
    }

    /// Open with explicit writer identity, lease TTL, and I/O shim.
    pub fn open_with(dir: &Path, opts: StoreOptions) -> Result<DiskStore, DiskStoreError> {
        fs::create_dir_all(dir).map_err(|e| io_err("creating store dir", e))?;
        check_or_write_meta(dir, &opts.io)?;
        fs::create_dir_all(dir.join(CORRUPT_DIR)).map_err(|e| io_err("creating corrupt dir", e))?;
        fs::create_dir_all(dir.join(REFS_DIR)).map_err(|e| io_err("creating refs dir", e))?;
        for shard in 0..SHARD_COUNT {
            fs::create_dir_all(dir.join(shard_dir_name(shard)))
                .map_err(|e| io_err("creating shard dir", e))?;
        }
        let (writer, fault_key) = match opts.writer.as_deref().and_then(sanitize_writer) {
            Some(named) => (named.clone(), named),
            None => default_writer(),
        };
        let mut store = DiskStore {
            dir: dir.to_path_buf(),
            writer,
            fault_key,
            lease_ttl_s: opts.lease_ttl_s,
            io: opts.io,
            renders: BTreeMap::new(),
            quarantined: Vec::new(),
            held: BTreeSet::new(),
            contended: BTreeMap::new(),
        };
        // Leases are acquired lazily, per shard, at first persist — a
        // writer only claims what it actually writes, so K writers share
        // one store instead of the first open hogging every shard. Here we
        // only record who currently holds what, for accounting.
        let now = unix_now();
        for shard in 0..SHARD_COUNT {
            if let Some(info) = read_lease(&store.lease_path(shard)) {
                if info.writer != store.writer && info.is_live(now) {
                    store.contended.insert(shard, info);
                }
            }
        }
        store.load_entries()?;
        Ok(store)
    }

    /// Eagerly lease every shard this handle can (an exclusive-writer
    /// claim, e.g. for maintenance windows or contention tests). Returns
    /// the number of shards now held.
    pub fn acquire_all(&mut self) -> usize {
        for shard in 0..SHARD_COUNT {
            self.try_acquire_shard(shard);
        }
        self.held.len()
    }

    fn shard_dir(&self, shard: usize) -> PathBuf {
        self.dir.join(shard_dir_name(shard))
    }

    fn lease_path(&self, shard: usize) -> PathBuf {
        self.shard_dir(shard).join(LEASE_FILE)
    }

    /// Try to lease `shard`. A live competing lease marks the shard
    /// contended; an expired/dead/unreadable one is taken over by atomic
    /// overwrite. Every path ends in a read-back verification, so the
    /// loser of a takeover race discovers it here instead of double-
    /// writing. Never an error: a shard we cannot lease is just skipped
    /// by persists.
    fn try_acquire_shard(&mut self, shard: usize) -> bool {
        if self.held.contains(&shard) {
            return true;
        }
        let path = self.lease_path(shard);
        match OpenOptions::new().write(true).create_new(true).open(&path) {
            Ok(mut f) => {
                let body = lease_body(&self.writer, self.lease_ttl_s);
                let wrote = self
                    .io
                    .write_all(&mut f, &path, body.as_bytes())
                    .and_then(|_| self.io.fsync(&f, &path));
                drop(f);
                if wrote.is_err() {
                    // Injected or real fault mid-lease-write: the file may
                    // be torn; remove it so nobody trusts it, and treat
                    // the shard as unavailable this time around.
                    let _ = fs::remove_file(&path);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                match read_lease(&path) {
                    Some(info) if info.writer != self.writer && info.is_live(unix_now()) => {
                        self.contended.insert(shard, info);
                        return false;
                    }
                    _ => {
                        // Expired, dead-PID, or unreadable: take over by
                        // atomic overwrite (not unlink + create, which
                        // would let two racers both "win" a create_new).
                        let _ = write_lease(&self.io, &path, &self.writer, self.lease_ttl_s);
                    }
                }
            }
            Err(_) => {}
        }
        match read_lease(&path) {
            Some(info) if info.writer == self.writer => {
                self.held.insert(shard);
                self.contended.remove(&shard);
                true
            }
            Some(info) => {
                self.contended.insert(shard, info);
                false
            }
            None => {
                self.contended.insert(
                    shard,
                    LeaseInfo {
                        writer: "unknown".to_string(),
                        pid: 0,
                        host: local_hostname().to_string(),
                        acquired_unix: 0,
                        expires_unix: 0,
                    },
                );
                false
            }
        }
    }

    /// Heartbeat: push every held lease's expiry forward. Returns the
    /// shards *lost* since the last renewal (expired and taken over by
    /// another writer) — those fall back to contended and their persists
    /// are skipped from now on.
    pub fn renew_leases(&mut self) -> Vec<usize> {
        let mut lost = Vec::new();
        for shard in self.held.clone() {
            let path = self.lease_path(shard);
            match read_lease(&path) {
                Some(info) if info.writer == self.writer => {
                    // Still ours: renew. A failed renewal write keeps the
                    // old (sooner) expiry, which is safe — we only ever
                    // shorten our own claim.
                    let _ = write_lease(&self.io, &path, &self.writer, self.lease_ttl_s);
                }
                other => {
                    self.held.remove(&shard);
                    if let Some(info) = other {
                        self.contended.insert(shard, info);
                    }
                    lost.push(shard);
                }
            }
        }
        lost
    }

    fn load_entries(&mut self) -> Result<(), DiskStoreError> {
        for shard in 0..SHARD_COUNT {
            for path in entry_files(&self.shard_dir(shard))? {
                match verify_entry(&path, shard) {
                    Ok(entry) => {
                        self.renders.insert(entry.hash, entry.render);
                    }
                    Err(reason) => self.quarantine(&path, reason),
                }
            }
        }
        Ok(())
    }

    /// Move a bad entry aside and log why. Quarantine never fails the
    /// open: if even the move fails we record the reason and carry on —
    /// the entry is simply not resident, so the cell rebuilds cold.
    fn quarantine(&mut self, path: &Path, reason: String) {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let dest = self.dir.join(CORRUPT_DIR).join(&name);
        let moved = fs::rename(path, &dest).is_ok();
        let mut m = tinycfg::Map::new();
        m.insert("file", tinycfg::Value::Str(name.clone()));
        m.insert("reason", tinycfg::Value::Str(reason.clone()));
        m.insert("quarantined_unix", tinycfg::Value::Int(unix_now()));
        m.insert("moved", tinycfg::Value::Bool(moved));
        // `AppendLog` recovery assumes one writer at a time: two handles
        // quarantining in the same instant can lose one of the two notes,
        // never a quarantined file.
        let path = self.dir.join(CORRUPT_DIR).join(QUARANTINE_LOG);
        if let Ok((log, _)) = AppendLog::recover(&path, self.io.clone(), |_, _| true) {
            let _ = log.append(&tinycfg::Value::Map(m).to_json());
        }
        eprintln!("warning: store quarantined {name}: {reason}");
        self.quarantined.push(QuarantineNote { file: name, reason });
    }

    /// Root directory of this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// This store handle's lease identity.
    pub fn writer(&self) -> &str {
        &self.writer
    }

    /// Shards leased by competing writers, as (shard name, holder).
    pub fn contended(&self) -> Vec<(String, LeaseInfo)> {
        self.contended
            .iter()
            .map(|(s, info)| (shard_dir_name(*s), info.clone()))
            .collect()
    }

    /// Is `hash` resident (verified) on disk as of open?
    pub fn resident(&self, hash: &str) -> bool {
        self.renders.contains_key(hash)
    }

    /// Number of verified resident entries.
    pub fn len(&self) -> usize {
        self.renders.len()
    }

    pub fn is_empty(&self) -> bool {
        self.renders.is_empty()
    }

    /// Entries quarantined while opening this store.
    pub fn quarantined(&self) -> &[QuarantineNote] {
        &self.quarantined
    }

    /// Seed an in-memory [`Store`] with every verified resident entry, so
    /// installs against it see warm dependency builds.
    pub fn seed_into(&self, store: &mut Store) {
        for (hash, render) in &self.renders {
            store.installed.insert(hash.clone(), render.clone());
        }
    }

    /// Persist one entry atomically into its shard. Overwrites any
    /// same-hash entry (the content hash makes that a no-op in practice).
    /// A shard leased by a live competing writer is not written: the entry
    /// is skipped with [`Persist::SkippedContended`] — only the contended
    /// shard degrades, never the whole store.
    pub fn persist(&mut self, entry: &StoreEntry) -> Result<Persist, DiskStoreError> {
        let shard = shard_of(&entry.hash);
        if !self.try_acquire_shard(shard) {
            return Ok(Persist::SkippedContended);
        }
        let path = self.shard_dir(shard).join(format!("{}.json", entry.hash));
        write_atomic_with(&self.io, &path, &entry.encode())
            .map_err(|e| io_err("persisting entry", e))?;
        self.renders
            .insert(entry.hash.clone(), entry.render.clone());
        Ok(Persist::Written)
    }

    /// Append one study's reference record to this writer's own segment
    /// `refs/<writer>.jsonl` (fsync'd). Segments are single-writer, so no
    /// lease is needed: the segment is recovered to its longest valid
    /// prefix (truncating a torn tail left by a crash), the study number
    /// is one past that prefix, and the record carries its append time,
    /// which orders it in the [merged log](merged_ref_log). Injected faults
    /// on the append are drawn on, and name, the writer's fault key.
    pub fn append_refs(&self, hashes: &BTreeSet<String>) -> Result<(), DiskStoreError> {
        let refs = self.dir.join(REFS_DIR);
        let path = refs.join(format!("{}.jsonl", self.writer));
        let (log, studies) = AppendLog::recover(&path, self.io.clone(), |line, i| {
            parse_ref_line(line, i + 1).is_some()
        })
        .map_err(|e| io_err("recovering reference segment", e))?;
        let log = log.with_fault_path(refs.join(format!("{}.jsonl", self.fault_key)));
        let unix_ns = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as i64);
        let mut m = tinycfg::Map::new();
        m.insert("study", tinycfg::Value::Int(studies.len() as i64 + 1));
        m.insert(
            "refs",
            tinycfg::Value::List(
                hashes
                    .iter()
                    .map(|h| tinycfg::Value::Str(h.clone()))
                    .collect(),
            ),
        );
        m.insert("unix_ns", tinycfg::Value::Int(unix_ns));
        log.append(&tinycfg::Value::Map(m).to_json())
            .map_err(|e| io_err("appending reference segment", e))
    }

    /// Evict entries not referenced by the last `keep_last` records of the
    /// merged reference log. Entries referenced by *any* writer holding a
    /// live lease are never evicted (that writer's study is in flight);
    /// shards leased by a live competing writer are skipped with notice
    /// rather than raced. Quarantined files under `corrupt/` are never
    /// touched.
    pub fn gc(&mut self, keep_last: usize) -> Result<GcReport, DiskStoreError> {
        let records = merged_ref_log(&self.dir)?;
        let start = records.len().saturating_sub(keep_last);
        let mut live: BTreeSet<String> = records[start..]
            .iter()
            .flat_map(|r| r.refs.iter().cloned())
            .collect();
        // Writers holding a live lease anywhere may be mid-study: every
        // entry any of their records reference stays live.
        let now = unix_now();
        let live_writers: BTreeSet<String> = (0..SHARD_COUNT)
            .filter_map(|s| read_lease(&self.lease_path(s)))
            .filter(|info| info.writer != self.writer && info.is_live(now))
            .map(|info| info.writer)
            .collect();
        for record in &records {
            if live_writers.contains(&record.writer) {
                live.extend(record.refs.iter().cloned());
            }
        }
        let doomed: Vec<String> = self
            .renders
            .keys()
            .filter(|h| !live.contains(*h))
            .cloned()
            .collect();
        let mut evicted = 0;
        let mut skipped: BTreeSet<String> = BTreeSet::new();
        for hash in doomed {
            let shard = shard_of(&hash);
            if !self.try_acquire_shard(shard) {
                skipped.insert(shard_dir_name(shard));
                continue;
            }
            let path = self.shard_dir(shard).join(format!("{hash}.json"));
            fs::remove_file(&path).map_err(|e| io_err("evicting entry", e))?;
            self.renders.remove(&hash);
            evicted += 1;
        }
        Ok(GcReport {
            kept: self.renders.len(),
            evicted,
            studies_considered: records.len().min(keep_last),
            skipped_shards: skipped.into_iter().collect(),
        })
    }
}

impl Drop for DiskStore {
    fn drop(&mut self) {
        // Release only leases that are still ours: a takeover after expiry
        // means the file now belongs to someone else.
        for &shard in &self.held {
            let path = self.lease_path(shard);
            if matches!(read_lease(&path), Some(info) if info.writer == self.writer) {
                let _ = fs::remove_file(&path);
            }
        }
    }
}

/// Validate (or create) `DIR/store.meta`. An unreadable meta file is
/// rewritten — layout presence, not the marker, is the real authority —
/// but a *different version* is a hard error: refuse to scribble on a
/// future layout. A missing one is written unless the directory holds
/// the v1 layout, which is refused.
fn check_or_write_meta(dir: &Path, io: &IoShim) -> Result<(), DiskStoreError> {
    let path = dir.join(STORE_META);
    match fs::read_to_string(&path) {
        Ok(text) => {
            if let Ok(v) = tinycfg::parse(&text) {
                match v.get_path("version").and_then(|x| x.as_int()) {
                    Some(STORE_VERSION) => return Ok(()),
                    Some(other) => {
                        return Err(DiskStoreError::Io(format!(
                            "unsupported store version {other} (this build reads {STORE_VERSION})"
                        )))
                    }
                    None => {}
                }
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => refuse_v1(dir)?,
        Err(_) => {}
    }
    let mut m = tinycfg::Map::new();
    m.insert("format", tinycfg::Value::Str(STORE_FORMAT.to_string()));
    m.insert("version", tinycfg::Value::Int(STORE_VERSION));
    write_atomic_with(
        io,
        &path,
        &format!("{}\n", tinycfg::Value::Map(m).to_json()),
    )
    .map_err(|e| io_err("writing store.meta", e))
}

/// Refuse a directory holding the v1 layout (`entries/` or `refs.jsonl`;
/// the caller has found no `store.meta`): this build reads only the
/// sharded layout, and leaves an older one exactly as it found it.
fn refuse_v1(dir: &Path) -> Result<(), DiskStoreError> {
    if dir.join(V1_ENTRIES_DIR).is_dir() || dir.join(V1_REFS_FILE).is_file() {
        return Err(DiskStoreError::Io(format!(
            "{} holds a v1 store layout (entries/ or refs.jsonl, no store.meta), \
             which this build does not read",
            dir.display()
        )));
    }
    Ok(())
}

/// What `fsck` found. Only invalid committed entries make the store
/// unclean — orphaned temps and expired leases are normal crash residue,
/// reported but harmless.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FsckReport {
    /// Committed entries that decoded, checksum-verified, and sit in the
    /// right shard under the right name.
    pub valid: usize,
    /// Committed entries failing any check, as (relative path, reason).
    pub invalid: Vec<(String, String)>,
    /// Leftover `.tmp-*` files from interrupted atomic writes.
    pub orphan_temps: Vec<String>,
    /// Leases held by live writers, as human-readable descriptions.
    pub live_leases: Vec<String>,
    /// Leases past expiry or with dead holder PIDs.
    pub expired_leases: Vec<String>,
    /// Per-writer reference segments found, and valid records across them.
    pub ref_segments: usize,
    pub ref_records: usize,
    /// Files sitting in `corrupt/` (previously quarantined).
    pub quarantined: usize,
}

impl FsckReport {
    /// Clean means no invalid committed entry; crash residue is fine.
    pub fn clean(&self) -> bool {
        self.invalid.is_empty()
    }

    /// Machine-readable rendering: one compact JSON object carrying every
    /// field the text summary prints, so `store fsck --json`, `servd`'s
    /// `/v1/health`, and external monitors all parse one format.
    pub fn to_json(&self) -> String {
        let str_list = |items: &[String]| {
            tinycfg::Value::List(
                items
                    .iter()
                    .map(|s| tinycfg::Value::Str(s.clone()))
                    .collect(),
            )
        };
        let mut m = tinycfg::Map::new();
        m.insert("clean", tinycfg::Value::Bool(self.clean()));
        m.insert("valid", tinycfg::Value::Int(self.valid as i64));
        m.insert(
            "invalid",
            tinycfg::Value::List(
                self.invalid
                    .iter()
                    .map(|(file, reason)| {
                        let mut e = tinycfg::Map::new();
                        e.insert("file", tinycfg::Value::Str(file.clone()));
                        e.insert("reason", tinycfg::Value::Str(reason.clone()));
                        tinycfg::Value::Map(e)
                    })
                    .collect(),
            ),
        );
        m.insert("orphan_temps", str_list(&self.orphan_temps));
        m.insert("live_leases", str_list(&self.live_leases));
        m.insert("expired_leases", str_list(&self.expired_leases));
        m.insert(
            "ref_segments",
            tinycfg::Value::Int(self.ref_segments as i64),
        );
        m.insert("ref_records", tinycfg::Value::Int(self.ref_records as i64));
        m.insert("quarantined", tinycfg::Value::Int(self.quarantined as i64));
        tinycfg::Value::Map(m).to_json()
    }
}

fn scan_temps(dir: &Path, rel: &str, out: &mut Vec<String>) {
    let Ok(rd) = fs::read_dir(dir) else { return };
    for entry in rd.filter_map(|r| r.ok()) {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with(".tmp-") {
            out.push(if rel.is_empty() {
                name
            } else {
                format!("{rel}/{name}")
            });
        }
    }
}

/// Refuse a path that holds no store, for the commands that inspect or
/// prune one and so must not create it (opening a store creates it). A
/// store is a directory with a `store.meta` marker; a v1 layout gets the
/// v1 refusal, and any other directory is left alone.
pub fn require_store(dir: &Path) -> Result<(), DiskStoreError> {
    if dir.join(STORE_META).is_file() {
        return Ok(());
    }
    refuse_v1(dir)?;
    Err(DiskStoreError::Io(format!("no store at {}", dir.display())))
}

/// Read-only integrity scan of a store directory: verifies every
/// committed entry (checksum, canonical form, file name, shard
/// placement), and reports orphaned temp files, lease states, reference
/// segments, and quarantine counts. Takes no lease and moves nothing —
/// safe to run against a store other writers are using.
pub fn fsck(dir: &Path) -> Result<FsckReport, DiskStoreError> {
    require_store(dir)?;
    let mut report = FsckReport::default();
    let now = unix_now();
    scan_temps(dir, "", &mut report.orphan_temps);
    for shard in 0..SHARD_COUNT {
        let sname = shard_dir_name(shard);
        let shard_dir = dir.join(&sname);
        if !shard_dir.is_dir() {
            continue;
        }
        scan_temps(&shard_dir, &sname, &mut report.orphan_temps);
        let lease_path = shard_dir.join(LEASE_FILE);
        if lease_path.exists() {
            match read_lease(&lease_path) {
                Some(info) if info.is_live(now) => report.live_leases.push(format!(
                    "{sname}: writer {} (pid {}, expires unix {})",
                    info.writer, info.pid, info.expires_unix
                )),
                Some(info) => report.expired_leases.push(format!(
                    "{sname}: writer {} (pid {}, expired unix {})",
                    info.writer, info.pid, info.expires_unix
                )),
                None => report
                    .expired_leases
                    .push(format!("{sname}: unreadable lease")),
            }
        }
        for path in entry_files(&shard_dir)? {
            match verify_entry(&path, shard) {
                Ok(_) => report.valid += 1,
                Err(reason) => {
                    let name = path.file_name().unwrap_or_default().to_string_lossy();
                    report.invalid.push((format!("{sname}/{name}"), reason));
                }
            }
        }
    }
    let refs_dir = dir.join(REFS_DIR);
    if refs_dir.is_dir() {
        scan_temps(&refs_dir, REFS_DIR, &mut report.orphan_temps);
    }
    report.ref_records = merged_ref_log(dir)?.len();
    if refs_dir.is_dir() {
        report.ref_segments = fs::read_dir(&refs_dir)
            .map_err(|e| io_err("listing reference segments", e))?
            .filter_map(|r| r.ok())
            .filter(|d| d.path().extension().map(|x| x == "jsonl").unwrap_or(false))
            .count();
    }
    let corrupt_dir = dir.join(CORRUPT_DIR);
    if corrupt_dir.is_dir() {
        report.quarantined = fs::read_dir(&corrupt_dir)
            .map_err(|e| io_err("listing corrupt dir", e))?
            .filter_map(|r| r.ok())
            .filter(|d| d.file_name().to_string_lossy() != QUARANTINE_LOG)
            .count();
    }
    report.orphan_temps.sort();
    report.invalid.sort();
    Ok(report)
}

/// Parse a reference segment to its longest valid prefix: each line must
/// be a JSON map with an in-order `study` number and a list of string
/// refs. The first deviation (torn tail, garbage, out-of-order study)
/// ends the prefix — everything before it is trusted, everything after
/// discarded.
pub fn parse_ref_log(text: &str) -> Vec<Vec<String>> {
    let (records, _) = valid_prefix(text, |line, i| parse_ref_line(line, i + 1));
    records.into_iter().map(|(refs, _)| refs).collect()
}

/// One reference record: its refs and its append time (`unix_ns`, absent
/// from records written before records carried one).
fn parse_ref_line(line: &str, expect_study: usize) -> Option<(Vec<String>, Option<i64>)> {
    let v = tinycfg::parse(line).ok()?;
    let study = v.get_path("study")?.as_int()?;
    if study != expect_study as i64 {
        return None;
    }
    let refs = v
        .get_path("refs")?
        .as_list()?
        .iter()
        .map(|r| r.as_str().map(str::to_string))
        .collect::<Option<_>>()?;
    Some((refs, v.get_path("unix_ns").and_then(tinycfg::Value::as_int)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iofault::FaultSpec;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tmpdir(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "spackle-diskstore-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn entry(hash: &str) -> StoreEntry {
        StoreEntry {
            hash: hash.to_string(),
            render: format!("demo@1.0 /{hash}"),
            record: BuildRecord {
                package: "demo".to_string(),
                version: "1.0".to_string(),
                hash: hash.to_string(),
                action: BuildAction::Built,
                build_time_s: 12.5,
                steps: vec![
                    "fetch demo-1.0.tar.gz".to_string(),
                    format!("install /opt/store/demo-{hash}"),
                ],
            },
        }
    }

    fn open_as(dir: &Path, writer: &str) -> DiskStore {
        DiskStore::open_with(
            dir,
            StoreOptions {
                writer: Some(writer.to_string()),
                lease_ttl_s: DEFAULT_LEASE_TTL_S,
                io: IoShim::Real,
            },
        )
        .unwrap()
    }

    #[test]
    fn zombie_pid_is_dead_for_lease_liveness() {
        // An exited-but-unreaped child is a zombie: /proc/<pid> still
        // exists, but it can never write again, so a crashed daemon's
        // lease must be treated as stale (takeover) — not held hostage
        // until expiry just because the parent never called wait().
        let mut child = std::process::Command::new("true")
            .stdout(std::process::Stdio::null())
            .spawn()
            .unwrap();
        let pid = child.id();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let stat = fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
            let state = stat
                .rfind(')')
                .and_then(|c| stat[c + 1..].trim_start().chars().next());
            if state == Some('Z') {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "child never became a zombie (state {state:?})"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert!(!pid_alive(pid), "zombie counted as live");
        child.wait().unwrap();
        assert!(!pid_alive(pid), "reaped pid counted as live");
        assert!(pid_alive(std::process::id()), "own pid counted as dead");
    }

    #[test]
    fn encode_decode_round_trips() {
        let e = entry("abc123");
        let decoded = StoreEntry::decode(&e.encode()).unwrap();
        assert_eq!(decoded, e);
    }

    #[test]
    fn quoting_hazards_round_trip() {
        let mut e = entry("h4sh");
        e.render = "weird \"quoted\" render \\ with tab\t and nl\n end".to_string();
        e.record.steps = vec!["step with \"quotes\" and \\backslash\\".to_string()];
        let decoded = StoreEntry::decode(&e.encode()).unwrap();
        assert_eq!(decoded, e);
    }

    #[test]
    fn persist_then_reopen_is_resident() {
        let dir = tmpdir("reopen");
        {
            let mut store = DiskStore::open(&dir).unwrap();
            assert_eq!(store.persist(&entry("aaa")).unwrap(), Persist::Written);
            assert_eq!(store.persist(&entry("bbb")).unwrap(), Persist::Written);
        }
        let store = DiskStore::open(&dir).unwrap();
        assert_eq!(store.len(), 2);
        assert!(store.resident("aaa") && store.resident("bbb"));
        assert!(store.quarantined().is_empty());
        // Entries landed in their content-hash shards.
        assert!(dir.join(shard_name("aaa")).join("aaa.json").exists());
        assert!(dir.join(shard_name("bbb")).join("bbb.json").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn seed_into_warms_an_in_memory_store() {
        let dir = tmpdir("seed");
        let mut disk = DiskStore::open(&dir).unwrap();
        disk.persist(&entry("ccc")).unwrap();
        let mut mem = Store::new();
        disk.seed_into(&mut mem);
        assert!(mem.contains("ccc"));
        assert_eq!(mem.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The acceptance criterion: flipping ANY single byte of a stored
    /// entry must quarantine it on the next open — never a panic, never a
    /// silently wrong resident entry.
    #[test]
    fn any_single_byte_flip_quarantines() {
        let dir = tmpdir("byteflip");
        let path = dir.join(shard_name("flip")).join("flip.json");
        let bytes = {
            let mut store = DiskStore::open(&dir).unwrap();
            store.persist(&entry("flip")).unwrap();
            fs::read(&path).unwrap()
        };
        for offset in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[offset] ^= 0x01;
            fs::write(&path, &mutated).unwrap();
            let store = DiskStore::open(&dir).unwrap();
            assert!(
                !store.resident("flip"),
                "offset {offset}: corrupt entry stayed resident"
            );
            assert_eq!(
                store.quarantined().len(),
                1,
                "offset {offset}: expected exactly one quarantine"
            );
            assert!(
                dir.join("corrupt/flip.json").exists(),
                "offset {offset}: entry not moved to corrupt/"
            );
            fs::remove_file(dir.join("corrupt/flip.json")).unwrap();
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_is_logged() {
        let dir = tmpdir("qlog");
        {
            let mut store = DiskStore::open(&dir).unwrap();
            store.persist(&entry("logme")).unwrap();
        }
        fs::write(dir.join(shard_name("logme")).join("logme.json"), b"garbage").unwrap();
        let store = DiskStore::open(&dir).unwrap();
        assert_eq!(store.quarantined().len(), 1);
        let log = fs::read_to_string(dir.join("corrupt/quarantine.jsonl")).unwrap();
        assert!(log.contains("logme.json"), "{log}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn hash_filename_mismatch_quarantines() {
        let dir = tmpdir("mismatch");
        let text = entry("real").encode();
        fs::create_dir_all(dir.join(shard_name("fake"))).unwrap();
        fs::write(dir.join(shard_name("fake")).join("fake.json"), text).unwrap();
        let store = DiskStore::open(&dir).unwrap();
        assert_eq!(store.quarantined().len(), 1);
        assert!(!store.resident("real") && !store.resident("fake"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn misplaced_entry_quarantines() {
        let dir = tmpdir("misplaced");
        // A valid entry dropped into the wrong shard: gc and persist
        // compute paths from the hash, so a misplaced file is unreachable
        // and must be quarantined, not trusted.
        let wrong = (shard_of("stray") + 1) % SHARD_COUNT;
        fs::create_dir_all(dir.join(shard_dir_name(wrong))).unwrap();
        fs::write(
            dir.join(shard_dir_name(wrong)).join("stray.json"),
            entry("stray").encode(),
        )
        .unwrap();
        let store = DiskStore::open(&dir).unwrap();
        assert_eq!(store.quarantined().len(), 1);
        assert!(store.quarantined()[0].reason.contains("misplaced"));
        assert!(!store.resident("stray"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn competing_live_writer_contends_shards_not_the_open() {
        let dir = tmpdir("contend");
        let mut held = open_as(&dir, "first");
        assert_eq!(held.held.len(), 0, "leases are lazy: open claims none");
        held.persist(&entry("zzz")).unwrap();
        assert_eq!(held.held.len(), 1, "persist leases only its own shard");
        // A second writer still opens — only persists into the contended
        // shard are skipped; the rest of the store is free.
        let mut second = open_as(&dir, "second");
        assert_eq!(second.contended().len(), 1);
        assert_eq!(second.contended()[0].0, shard_name("zzz"));
        assert_eq!(
            second.persist(&entry("zzz")).unwrap(),
            Persist::SkippedContended
        );
        drop(held);
        // Leases released: the same handle lazily re-acquires on persist.
        assert_eq!(second.persist(&entry("zzz")).unwrap(), Persist::Written);
        assert!(second.resident("zzz"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn acquire_all_claims_every_free_shard() {
        let dir = tmpdir("acquireall");
        let mut holder = open_as(&dir, "holder");
        assert_eq!(holder.acquire_all(), SHARD_COUNT);
        let mut second = open_as(&dir, "second");
        assert_eq!(second.acquire_all(), 0);
        assert_eq!(second.contended().len(), SHARD_COUNT);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn leases_released_on_drop() {
        let dir = tmpdir("release");
        let lease = dir.join(shard_name("zzz")).join(".lease");
        {
            let mut s = open_as(&dir, "holder");
            s.persist(&entry("zzz")).unwrap();
            assert!(lease.exists());
        }
        assert!(!lease.exists());
        let mut s = open_as(&dir, "next");
        assert_eq!(s.persist(&entry("zzz")).unwrap(), Persist::Written);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn expired_lease_is_taken_over_and_renew_detects_loss() {
        let dir = tmpdir("expire");
        // TTL -1: every lease `a` writes is already expired.
        let mut a = DiskStore::open_with(
            &dir,
            StoreOptions {
                writer: Some("a".to_string()),
                lease_ttl_s: -1,
                io: IoShim::Real,
            },
        )
        .unwrap();
        a.persist(&entry("x")).unwrap();
        assert_eq!(a.held.len(), 1);
        // A second writer may take over expired leases even though the
        // holder's PID is alive — expiry, not liveness, governs takeover.
        let mut b = open_as(&dir, "b");
        assert_eq!(b.persist(&entry("x")).unwrap(), Persist::Written);
        // The original holder discovers the loss at heartbeat time...
        let lost = a.renew_leases();
        assert_eq!(lost.len(), 1);
        assert_eq!(a.held.len(), 0);
        // ...and degrades its persists instead of double-writing.
        assert_eq!(a.persist(&entry("x")).unwrap(), Persist::SkippedContended);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn renewal_extends_a_live_lease() {
        let dir = tmpdir("renew");
        let mut a = open_as(&dir, "a");
        a.persist(&entry("renewme")).unwrap();
        let lease = dir.join(shard_name("renewme")).join(".lease");
        let before = read_lease(&lease).unwrap();
        assert!(a.renew_leases().is_empty());
        let after = read_lease(&lease).unwrap();
        assert_eq!(after.writer, "a");
        assert!(after.expires_unix >= before.expires_unix);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_pid_lease_is_taken_over() {
        let dir = tmpdir("deadpid");
        let shard = dir.join(shard_name("q"));
        fs::create_dir_all(&shard).unwrap();
        // A PID far above any real pid_max with an unexpired lease: the
        // holder is dead, so the lease is stale despite its expiry.
        fs::write(
            shard.join(".lease"),
            format!(
                "{{\"writer\":\"ghost\",\"pid\":999999999,\"acquired_unix\":1,\"expires_unix\":{}}}",
                unix_now() + 3600
            ),
        )
        .unwrap();
        let mut s = open_as(&dir, "taker");
        assert_eq!(s.persist(&entry("q")).unwrap(), Persist::Written);
        assert_eq!(read_lease(&shard.join(".lease")).unwrap().writer, "taker");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A lease naming a *foreign* host must be trusted until its expiry:
    /// `/proc/<pid>` on this machine says nothing about a writer on
    /// another box sharing the filesystem. Before the `host` field this
    /// forged lease (dead-local PID, future expiry) was taken over.
    #[test]
    fn foreign_host_lease_trusts_expiry_not_local_pid() {
        let dir = tmpdir("foreignlease");
        let shard = dir.join(shard_name("q"));
        fs::create_dir_all(&shard).unwrap();
        fs::write(
            shard.join(".lease"),
            format!(
                "{{\"writer\":\"remote\",\"pid\":999999999,\"host\":\"another-box\",\
                 \"acquired_unix\":1,\"expires_unix\":{}}}",
                unix_now() + 3600
            ),
        )
        .unwrap();
        let mut s = open_as(&dir, "taker");
        assert_eq!(
            s.persist(&entry("q")).unwrap(),
            Persist::SkippedContended,
            "a live remote writer's lease must not be stolen mid-write"
        );
        assert_eq!(read_lease(&shard.join(".lease")).unwrap().writer, "remote");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Expiry still governs foreign leases: once past `expires_unix` the
    /// remote holder has lost its claim regardless of PID liveness.
    #[test]
    fn foreign_host_expired_lease_is_taken_over() {
        let dir = tmpdir("foreignexpired");
        let shard = dir.join(shard_name("q"));
        fs::create_dir_all(&shard).unwrap();
        fs::write(
            shard.join(".lease"),
            format!(
                "{{\"writer\":\"remote\",\"pid\":{},\"host\":\"another-box\",\
                 \"acquired_unix\":1,\"expires_unix\":{}}}",
                std::process::id(),
                unix_now() - 10
            ),
        )
        .unwrap();
        let mut s = open_as(&dir, "taker");
        assert_eq!(s.persist(&entry("q")).unwrap(), Persist::Written);
        let lease = read_lease(&shard.join(".lease")).unwrap();
        assert_eq!(lease.writer, "taker");
        assert_eq!(lease.host, local_hostname());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unreadable_lease_is_taken_over() {
        let dir = tmpdir("junklease");
        let shard = dir.join(shard_name("q"));
        fs::create_dir_all(&shard).unwrap();
        fs::write(shard.join(".lease"), "not json at all").unwrap();
        let mut s = open_as(&dir, "taker");
        assert_eq!(s.persist(&entry("q")).unwrap(), Persist::Written);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lease_write_faults_degrade_shards_not_the_open() {
        let dir = tmpdir("leasefault");
        let mut spec = FaultSpec::quiet(13);
        spec.torn = 1.0;
        spec.only_matching = Some(".lease".to_string());
        let mut s = DiskStore::open_with(
            &dir,
            StoreOptions {
                writer: Some("faulted".to_string()),
                lease_ttl_s: DEFAULT_LEASE_TTL_S,
                io: IoShim::faulty(spec),
            },
        )
        .unwrap();
        assert_eq!(
            s.persist(&entry("q")).unwrap(),
            Persist::SkippedContended,
            "an unleasable shard skips, never errors"
        );
        assert_eq!(s.held.len(), 0, "every lease write was torn");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn default_writers_draw_ref_faults_on_distinct_pid_free_keys() {
        // A segment's name carries the PID, so keying its faults on that
        // name would make one schedule fault differently in every process.
        let dir = tmpdir("refkey");
        let mut spec = FaultSpec::quiet(5);
        spec.fsync = 1.0;
        spec.only_matching = Some("refs/".to_string());
        let io = IoShim::faulty(spec);
        let open = || {
            let opts = StoreOptions {
                io: io.clone(),
                ..StoreOptions::default()
            };
            DiskStore::open_with(&dir, opts).unwrap()
        };
        let (a, b) = (open(), open());
        let refs: BTreeSet<String> = ["x".to_string()].into();
        let key_of = |store: &DiskStore| {
            let err = store.append_refs(&refs).unwrap_err().to_string();
            let (_, name) = err.rsplit_once("/refs/").expect("error names the segment");
            name.trim_end_matches(".jsonl)").to_string()
        };
        let (ka, kb) = (key_of(&a), key_of(&b));
        assert_ne!(ka, kb, "two writers in one process share a fault key");
        for (key, store) in [(ka, &a), (kb, &b)] {
            let seq = key.strip_prefix("w+").expect("a PID-free key");
            assert_eq!(store.writer(), format!("w{}-{seq}", std::process::id()));
            assert!(dir
                .join(REFS_DIR)
                .join(format!("{}.jsonl", store.writer()))
                .exists());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn refs_log_appends_in_order() {
        let dir = tmpdir("refs");
        let store = open_as(&dir, "solo");
        let one: BTreeSet<String> = ["a".to_string()].into();
        let two: BTreeSet<String> = ["a".to_string(), "b".to_string()].into();
        store.append_refs(&one).unwrap();
        store.append_refs(&two).unwrap();
        let text = fs::read_to_string(dir.join("refs/solo.jsonl")).unwrap();
        let parsed = parse_ref_log(&text);
        assert_eq!(
            parsed,
            vec![
                vec!["a".to_string()],
                vec!["a".to_string(), "b".to_string()]
            ]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn ref_segments_merge_by_study_then_writer() {
        let dir = tmpdir("merge");
        let a = open_as(&dir, "aa");
        let b = open_as(&dir, "bb");
        a.append_refs(&["x".to_string()].into()).unwrap();
        b.append_refs(&["y".to_string()].into()).unwrap();
        a.append_refs(&["z".to_string()].into()).unwrap();
        let merged = merged_ref_log(&dir).unwrap();
        let view: Vec<(usize, &str, &[String])> = merged
            .iter()
            .map(|r| (r.study, r.writer.as_str(), r.refs.as_slice()))
            .collect();
        assert_eq!(
            view,
            vec![
                (1, "aa", ["x".to_string()].as_slice()),
                (1, "bb", ["y".to_string()].as_slice()),
                (2, "aa", ["z".to_string()].as_slice()),
            ]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// Crash simulation: truncate one writer's reference segment at EVERY
    /// byte offset and assert recovery to the longest valid prefix — then
    /// that a new append self-heals the segment.
    #[test]
    fn refs_log_truncation_recovers_longest_valid_prefix() {
        let dir = tmpdir("truncate");
        let store = open_as(&dir, "solo");
        for n in 0..3usize {
            let refs: BTreeSet<String> = (0..=n).map(|i| format!("hash-{i}")).collect();
            store.append_refs(&refs).unwrap();
        }
        let seg = dir.join("refs/solo.jsonl");
        let full = fs::read_to_string(&seg).unwrap();
        let complete = parse_ref_log(&full);
        assert_eq!(complete.len(), 3);
        // Offsets where each full record (incl. newline) ends.
        let mut boundaries = vec![0usize];
        for (i, b) in full.bytes().enumerate() {
            if b == b'\n' {
                boundaries.push(i + 1);
            }
        }
        for cut in 0..=full.len() {
            let truncated = &full[..cut];
            let parsed = parse_ref_log(truncated);
            let expect = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
            assert_eq!(
                parsed.len(),
                expect,
                "cut at byte {cut}: wrong prefix length"
            );
            assert_eq!(parsed[..], complete[..expect], "cut at byte {cut}");
            // A post-crash append must heal: drop the torn tail, number
            // the new study after the valid prefix.
            fs::write(&seg, truncated).unwrap();
            let refs: BTreeSet<String> = ["post-crash".to_string()].into();
            store.append_refs(&refs).unwrap();
            let healed = fs::read_to_string(&seg).unwrap();
            let reparsed = parse_ref_log(&healed);
            assert_eq!(
                reparsed.len(),
                expect + 1,
                "cut at byte {cut}: append did not heal"
            );
            assert_eq!(reparsed[expect], vec!["post-crash".to_string()]);
            fs::write(&seg, &full).unwrap();
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_keeps_recent_refs_and_spares_quarantine() {
        let dir = tmpdir("gc");
        let mut store = open_as(&dir, "solo");
        for h in ["old", "mid", "new"] {
            store.persist(&entry(h)).unwrap();
        }
        // Plant a quarantined file: gc must never remove it.
        fs::write(dir.join("corrupt/dead.json"), b"junk").unwrap();
        store.append_refs(&["old".to_string()].into()).unwrap();
        store.append_refs(&["mid".to_string()].into()).unwrap();
        store
            .append_refs(&["new".to_string(), "mid".to_string()].into())
            .unwrap();
        let report = store.gc(2).unwrap();
        assert_eq!(report.evicted, 1, "only `old` falls outside the window");
        assert_eq!(report.kept, 2);
        assert!(report.skipped_shards.is_empty());
        assert!(!store.resident("old"));
        assert!(store.resident("mid") && store.resident("new"));
        assert!(!dir.join(shard_name("old")).join("old.json").exists());
        assert!(
            dir.join("corrupt/dead.json").exists(),
            "gc must never delete quarantine memory"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// `store gc --keep K` keeps the K most recently appended studies.
    /// Every CLI survey writes as its own writer, so each of its records
    /// is study 1; ordering by writer id would rank `w10-0` before `w9-0`
    /// and evict the newer study. Records from before append times were
    /// recorded sort first.
    #[test]
    fn gc_keeps_the_most_recently_appended_studies() {
        let dir = tmpdir("gc-recency");
        fs::create_dir_all(dir.join("refs")).unwrap();
        fs::write(
            dir.join("refs/legacy.jsonl"),
            "{\"refs\":[\"legacy\"],\"study\":1}\n",
        )
        .unwrap();
        for writer in ["w9-0", "w10-0"] {
            let mut store = open_as(&dir, writer);
            store.persist(&entry(writer)).unwrap();
            store.append_refs(&[writer.to_string()].into()).unwrap();
        }
        let merged = merged_ref_log(&dir).unwrap();
        let writers: Vec<&str> = merged.iter().map(|r| r.writer.as_str()).collect();
        assert_eq!(writers, ["legacy", "w9-0", "w10-0"]);
        let mut sweeper = open_as(&dir, "sweeper");
        let report = sweeper.gc(1).unwrap();
        assert_eq!(report.evicted, 1);
        assert!(sweeper.resident("w10-0"), "gc evicted the newest study");
        assert!(!sweeper.resident("w9-0"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_with_no_refs_evicts_everything_unreferenced() {
        let dir = tmpdir("gc-empty");
        let mut store = DiskStore::open(&dir).unwrap();
        store.persist(&entry("orphan")).unwrap();
        let report = store.gc(5).unwrap();
        assert_eq!(report.evicted, 1);
        assert_eq!(report.kept, 0);
        assert_eq!(report.studies_considered, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_skips_leased_shards_with_notice() {
        let dir = tmpdir("gc-leased");
        let mut holder = open_as(&dir, "holder");
        holder.persist(&entry("doomed")).unwrap();
        // A second handle cannot lease anything while `holder` lives: gc
        // must skip, not race a concurrent persist.
        let mut sweeper = open_as(&dir, "sweeper");
        let report = sweeper.gc(0).unwrap();
        assert_eq!(report.evicted, 0);
        assert_eq!(report.skipped_shards, vec![shard_name("doomed")]);
        assert!(dir.join(shard_name("doomed")).join("doomed.json").exists());
        drop(holder);
        // Holder gone: the same sweep now completes.
        let report = sweeper.gc(0).unwrap();
        assert_eq!(report.evicted, 1);
        assert!(report.skipped_shards.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_spares_entries_referenced_by_live_leased_writer() {
        let dir = tmpdir("gc-live");
        {
            let mut s = open_as(&dir, "w0");
            s.persist(&entry("keepme")).unwrap();
        }
        // A "remote" writer holds one live lease (our own PID stands in
        // for its live process) and references `keepme` — no matter which
        // shard that lease is on, gc must spare every entry it references.
        fs::write(
            dir.join("shard-00/.lease"),
            format!(
                "{{\"writer\":\"other\",\"pid\":{},\"acquired_unix\":{},\"expires_unix\":{}}}",
                std::process::id(),
                unix_now(),
                unix_now() + 3600
            ),
        )
        .unwrap();
        fs::write(
            dir.join("refs/other.jsonl"),
            "{\"refs\":[\"keepme\"],\"study\":1}\n",
        )
        .unwrap();
        let mut s = open_as(&dir, "w1");
        let report = s.gc(0).unwrap();
        assert_eq!(report.evicted, 0, "live-leased writer's refs are pinned");
        assert!(s.resident("keepme"));
        // Expire the lease: the writer is no longer live, its pin lifts.
        fs::write(
            dir.join("shard-00/.lease"),
            format!(
                "{{\"writer\":\"other\",\"pid\":{},\"acquired_unix\":1,\"expires_unix\":1}}",
                std::process::id()
            ),
        )
        .unwrap();
        let report = s.gc(0).unwrap();
        assert_eq!(report.evicted, 1);
        assert!(!s.resident("keepme"));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Recursive listing of every file under `dir` with its bytes.
    fn snapshot(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
        let mut out = Vec::new();
        let mut stack = vec![dir.to_path_buf()];
        while let Some(d) = stack.pop() {
            for e in fs::read_dir(&d).unwrap() {
                let path = e.unwrap().path();
                if path.is_dir() {
                    out.push((path.clone(), Vec::new()));
                    stack.push(path);
                } else {
                    out.push((path.clone(), fs::read(&path).unwrap()));
                }
            }
        }
        out.sort();
        out
    }

    #[test]
    fn a_v1_layout_is_refused_and_left_untouched() {
        let dir = tmpdir("v1");
        // Hand-build a v1 layout: entries/, refs.jsonl, stale .lock.
        fs::create_dir_all(dir.join("entries")).unwrap();
        fs::write(dir.join("entries/aaa.json"), entry("aaa").encode()).unwrap();
        fs::write(dir.join("refs.jsonl"), "{\"refs\":[\"aaa\"],\"study\":1}\n").unwrap();
        fs::write(dir.join(".lock"), "{\"pid\":999999999,\"acquired_unix\":1}").unwrap();
        let before = snapshot(&dir);
        let refusal = |r: Result<(), DiskStoreError>, what: &str| match r {
            Err(DiskStoreError::Io(msg)) => {
                assert!(msg.contains("v1 store layout"), "{what}: {msg}")
            }
            Ok(()) => panic!("{what}: a v1 layout was accepted"),
        };
        refusal(
            DiskStore::open_with(&dir, StoreOptions::default()).map(drop),
            "open_with",
        );
        refusal(fsck(&dir).map(drop), "fsck");
        refusal(require_store(&dir), "require_store");
        assert_eq!(snapshot(&dir), before, "the v1 directory changed");
        // Either marker alone is the v1 layout.
        fs::remove_dir_all(dir.join("entries")).unwrap();
        refusal(require_store(&dir), "refs.jsonl alone");
        // A store that finished migrating under an older build has
        // `store.meta`; leftovers in `entries/` do not make it v1.
        fs::remove_file(dir.join("refs.jsonl")).unwrap();
        fs::create_dir_all(dir.join("entries")).unwrap();
        fs::write(dir.join("entries/.tmp-1-x.json"), b"part").unwrap();
        fs::write(
            dir.join("store.meta"),
            "{\"format\":\"spackle-store\",\"version\":2}\n",
        )
        .unwrap();
        assert!(DiskStore::open(&dir).is_ok());
        assert!(fsck(&dir).unwrap().clean());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn future_store_version_is_refused() {
        let dir = tmpdir("future");
        fs::write(
            dir.join("store.meta"),
            "{\"format\":\"spackle-store\",\"version\":99}\n",
        )
        .unwrap();
        match DiskStore::open(&dir) {
            Err(DiskStoreError::Io(msg)) => assert!(msg.contains("unsupported store version")),
            other => panic!("expected version refusal, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsck_reports_clean_store_and_crash_residue() {
        let dir = tmpdir("fsck");
        {
            let mut s = open_as(&dir, "w");
            s.persist(&entry("good")).unwrap();
            s.append_refs(&["good".to_string()].into()).unwrap();
        }
        let report = fsck(&dir).unwrap();
        assert!(report.clean());
        assert_eq!(report.valid, 1);
        assert_eq!(report.ref_segments, 1);
        assert_eq!(report.ref_records, 1);
        assert!(report.orphan_temps.is_empty());
        // Plant crash residue: an orphan temp and an expired lease. Both
        // are reported but the store stays *clean*.
        fs::write(dir.join(shard_name("good")).join(".tmp-1-x.json"), b"part").unwrap();
        fs::write(
            dir.join("shard-05/.lease"),
            "{\"writer\":\"gone\",\"pid\":999999999,\"acquired_unix\":1,\"expires_unix\":1}",
        )
        .unwrap();
        let report = fsck(&dir).unwrap();
        assert!(report.clean());
        assert_eq!(report.orphan_temps.len(), 1);
        assert_eq!(report.expired_leases.len(), 1);
        // Now corrupt a committed entry in place: unclean.
        let victim = dir.join(shard_name("good")).join("good.json");
        let mut bytes = fs::read(&victim).unwrap();
        bytes[10] ^= 0x01;
        fs::write(&victim, &bytes).unwrap();
        let report = fsck(&dir).unwrap();
        assert!(!report.clean());
        assert_eq!(report.invalid.len(), 1);
        assert!(report.invalid[0].0.ends_with("good.json"));
        let _ = fs::remove_dir_all(&dir);
    }

    /// The JSON rendering carries the same fields as the text summary and
    /// parses back cleanly — the contract `store fsck --json` and
    /// `servd`'s `/v1/health` both rely on.
    #[test]
    fn fsck_json_round_trips_the_report() {
        let dir = tmpdir("fsck-json");
        {
            let mut s = open_as(&dir, "w");
            s.persist(&entry("good")).unwrap();
        }
        fs::write(dir.join(shard_name("good")).join(".tmp-9-x.json"), b"part").unwrap();
        let report = fsck(&dir).unwrap();
        let v = tinycfg::parse(&report.to_json()).unwrap();
        assert_eq!(v.get_path("clean").unwrap().as_bool(), Some(true));
        assert_eq!(v.get_path("valid").unwrap().as_int(), Some(1));
        assert_eq!(
            v.get_path("orphan_temps").unwrap().as_list().unwrap().len(),
            1
        );
        assert_eq!(v.get_path("invalid").unwrap().as_list().unwrap().len(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsck_flags_misplaced_entries() {
        let dir = tmpdir("fsck-misplaced");
        let _ = DiskStore::open(&dir).unwrap();
        let wrong = (shard_of("stray") + 1) % SHARD_COUNT;
        fs::write(
            dir.join(shard_dir_name(wrong)).join("stray.json"),
            entry("stray").encode(),
        )
        .unwrap();
        let report = fsck(&dir).unwrap();
        assert!(!report.clean());
        assert!(report.invalid[0].1.contains("misplaced"));
        let _ = fs::remove_dir_all(&dir);
    }

    /// `open` and `fsck` share one verifier: every bad entry gets the same
    /// reason from both, file for file.
    #[test]
    fn open_and_fsck_give_one_reason_per_bad_entry() {
        let dir = tmpdir("one-reason");
        {
            let mut s = DiskStore::open(&dir).unwrap();
            s.persist(&entry("flip")).unwrap();
            s.persist(&entry("canon")).unwrap();
        }
        let at = |hash: &str| dir.join(shard_name(hash)).join(format!("{hash}.json"));
        let mut bytes = fs::read(at("flip")).unwrap();
        bytes[40] ^= 0x01;
        fs::write(at("flip"), bytes).unwrap();
        fs::write(at("binary"), [0xff, 0xfe, 0x00]).unwrap();
        fs::write(at("alias"), entry("other").encode()).unwrap();
        let wrong = (shard_of("stray") + 1) % SHARD_COUNT;
        fs::write(
            dir.join(shard_dir_name(wrong)).join("stray.json"),
            entry("stray").encode(),
        )
        .unwrap();
        fs::write(at("canon"), format!("{} ", entry("canon").encode())).unwrap();
        let report = fsck(&dir).unwrap();
        let store = DiskStore::open(&dir).unwrap();
        let fsck_reasons: BTreeMap<String, String> = report
            .invalid
            .iter()
            .map(|(rel, why)| (rel.rsplit('/').next().unwrap().to_string(), why.clone()))
            .collect();
        let open_reasons: BTreeMap<String, String> = store
            .quarantined()
            .iter()
            .map(|n| (n.file.clone(), n.reason.clone()))
            .collect();
        assert_eq!(fsck_reasons.len(), 5, "{fsck_reasons:?}");
        assert_eq!(fsck_reasons, open_reasons);
        assert!(fsck_reasons["stray.json"].contains("misplaced"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn writer_ids_are_sanitized() {
        assert_eq!(
            sanitize_writer("node-7.local"),
            Some("node-7.local".to_string())
        );
        assert_eq!(sanitize_writer("a/b\\c"), Some("a-b-c".to_string()));
        assert_eq!(sanitize_writer(""), None);
        assert_eq!(sanitize_writer(".."), None);
        let dir = tmpdir("sanitize");
        let s = DiskStore::open_with(
            &dir,
            StoreOptions {
                writer: Some("../escape".to_string()),
                lease_ttl_s: DEFAULT_LEASE_TTL_S,
                io: IoShim::Real,
            },
        )
        .unwrap();
        assert!(!s.writer().contains('/'));
        let _ = fs::remove_dir_all(&dir);
    }
}
