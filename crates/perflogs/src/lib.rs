//! `perflogs` — the performance-log format (§2.4, Principle 6).
//!
//! Every benchmark run appends one structured record to a performance log
//! ("perflog") associated with the benchmark on each system. Perflogs from
//! isolated systems are later assimilated into a single data frame for
//! filtering and plotting. The on-disk format is JSON Lines: one
//! self-describing JSON object per run, written and parsed by `tinycfg`'s
//! value model (no external serialization dependency).

use dframe::{Cell, DataFrame};
use std::path::{Path, PathBuf};
use tinycfg::{Map, Value};

/// One Figure of Merit extracted from a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Fom {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// One benchmark run's perflog record.
#[derive(Debug, Clone, PartialEq)]
pub struct PerflogRecord {
    /// Monotonic run counter (stands in for a wall-clock timestamp so that
    /// records — and the experiments built on them — stay reproducible).
    pub sequence: u64,
    pub benchmark: String,
    pub system: String,
    pub partition: String,
    /// Programming environment / compiler (e.g. `gcc@9.2.0`).
    pub environ: String,
    /// The concretized spec that was built (P4: archaeology).
    pub spec: String,
    /// Content hash of the build DAG.
    pub build_hash: String,
    pub job_id: Option<u64>,
    pub num_tasks: u32,
    pub num_tasks_per_node: u32,
    pub num_cpus_per_task: u32,
    pub foms: Vec<Fom>,
    /// Free-form extra fields (queue wait, array size, variant, ...).
    pub extras: Vec<(String, String)>,
}

impl PerflogRecord {
    /// Look up a FOM by name.
    pub fn fom(&self, name: &str) -> Option<&Fom> {
        self.foms.iter().find(|f| f.name == name)
    }

    /// Look up an extra field by key.
    pub fn extra(&self, key: &str) -> Option<&str> {
        self.extras
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Serialize as a single JSON line.
    pub fn to_json_line(&self) -> String {
        self.to_value().to_json()
    }

    /// The record as a `tinycfg` value tree — the building block both for
    /// [`PerflogRecord::to_json_line`] and for containers that embed
    /// records in larger documents (the harness checkpoint journal).
    pub fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("sequence", Value::Int(self.sequence as i64));
        m.insert("benchmark", Value::from(self.benchmark.as_str()));
        m.insert("system", Value::from(self.system.as_str()));
        m.insert("partition", Value::from(self.partition.as_str()));
        m.insert("environ", Value::from(self.environ.as_str()));
        m.insert("spec", Value::from(self.spec.as_str()));
        m.insert("build_hash", Value::from(self.build_hash.as_str()));
        m.insert(
            "job_id",
            self.job_id
                .map(|j| Value::Int(j as i64))
                .unwrap_or(Value::Null),
        );
        m.insert("num_tasks", Value::Int(self.num_tasks as i64));
        m.insert(
            "num_tasks_per_node",
            Value::Int(self.num_tasks_per_node as i64),
        );
        m.insert(
            "num_cpus_per_task",
            Value::Int(self.num_cpus_per_task as i64),
        );
        let foms: Vec<Value> = self
            .foms
            .iter()
            .map(|f| {
                let mut fm = Map::new();
                fm.insert("name", Value::from(f.name.as_str()));
                // JSON has no NaN/Inf, and the emitter would write `null`
                // — which reparses as a *missing* value, silently erasing
                // a bad measurement. Encode non-finite FOMs as strings so
                // they round-trip and stay loud in the analysis layer.
                let value = if f.value.is_finite() {
                    Value::Float(f.value)
                } else {
                    Value::Str(format!("{}", f.value))
                };
                fm.insert("value", value);
                fm.insert("unit", Value::from(f.unit.as_str()));
                Value::Map(fm)
            })
            .collect();
        m.insert("foms", Value::List(foms));
        let mut extras = Map::new();
        for (k, v) in &self.extras {
            extras.insert(k.clone(), Value::from(v.as_str()));
        }
        m.insert("extras", Value::Map(extras));
        Value::Map(m)
    }

    /// Parse one JSON line back into a record.
    pub fn from_json_line(line: &str) -> Result<PerflogRecord, PerflogError> {
        Self::from_value(&parse_json(line)?)
    }

    /// Reconstruct a record from a `tinycfg` value tree (inverse of
    /// [`PerflogRecord::to_value`]), with the same strict counter
    /// validation as [`PerflogRecord::from_json_line`].
    pub fn from_value(doc: &Value) -> Result<PerflogRecord, PerflogError> {
        let str_at = |key: &str| -> Result<String, PerflogError> {
            doc.get_path(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| PerflogError(format!("missing string field `{key}`")))
        };
        let int_at = |key: &str| -> Result<i64, PerflogError> {
            doc.get_path(key)
                .and_then(Value::as_int)
                .ok_or_else(|| PerflogError(format!("missing integer field `{key}`")))
        };
        // Counters must not wrap: `"num_tasks": -1` is a malformed record,
        // not 4294967295 tasks.
        let uint_at = |key: &str| -> Result<u64, PerflogError> {
            let v = int_at(key)?;
            u64::try_from(v)
                .map_err(|_| PerflogError(format!("field `{key}` must be non-negative, got {v}")))
        };
        let u32_at = |key: &str| -> Result<u32, PerflogError> {
            let v = int_at(key)?;
            u32::try_from(v).map_err(|_| {
                PerflogError(format!("field `{key}` out of range for a count, got {v}"))
            })
        };
        let mut foms = Vec::new();
        for f in doc
            .get_path("foms")
            .and_then(Value::as_list)
            .ok_or_else(|| PerflogError("missing `foms` list".into()))?
        {
            foms.push(Fom {
                name: f
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or_else(|| PerflogError("fom missing name".into()))?
                    .to_string(),
                value: {
                    let v = f
                        .get("value")
                        .ok_or_else(|| PerflogError("fom missing value".into()))?;
                    // Non-finite values arrive as the strings to_value
                    // wrote ("NaN", "inf", "-inf"); finite ones as floats.
                    v.as_float()
                        .or_else(|| {
                            v.as_str()
                                .and_then(|s| s.parse::<f64>().ok())
                                .filter(|p| !p.is_finite())
                        })
                        .ok_or_else(|| PerflogError("fom missing value".into()))?
                },
                unit: f
                    .get("unit")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
            });
        }
        let mut extras = Vec::new();
        if let Some(m) = doc.get_path("extras").and_then(Value::as_map) {
            for (k, v) in m.iter() {
                extras.push((k.to_string(), v.scalar_string()));
            }
        }
        let job_id = match doc.get_path("job_id").and_then(Value::as_int) {
            Some(j) => Some(u64::try_from(j).map_err(|_| {
                PerflogError(format!("field `job_id` must be non-negative, got {j}"))
            })?),
            None => None,
        };
        Ok(PerflogRecord {
            sequence: uint_at("sequence")?,
            benchmark: str_at("benchmark")?,
            system: str_at("system")?,
            partition: str_at("partition")?,
            environ: str_at("environ")?,
            spec: str_at("spec")?,
            build_hash: str_at("build_hash")?,
            job_id,
            num_tasks: u32_at("num_tasks")?,
            num_tasks_per_node: u32_at("num_tasks_per_node")?,
            num_cpus_per_task: u32_at("num_cpus_per_task")?,
            foms,
            extras,
        })
    }
}

/// JSON is a subset of the flow syntax `tinycfg` already parses.
fn parse_json(line: &str) -> Result<Value, PerflogError> {
    tinycfg::parse(line).map_err(|e| PerflogError(format!("bad perflog line: {e}")))
}

/// Perflog parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerflogError(pub String);

impl std::fmt::Display for PerflogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "perflog error: {}", self.0)
    }
}

impl std::error::Error for PerflogError {}

/// An in-memory perflog: an append-only sequence of records, one per run,
/// with JSONL serialization. One `Perflog` corresponds to one benchmark on
/// one system — exactly ReFrame's layout.
#[derive(Debug, Clone, Default)]
pub struct Perflog {
    records: Vec<PerflogRecord>,
}

impl Perflog {
    pub fn new() -> Perflog {
        Perflog::default()
    }

    pub fn append(&mut self, record: PerflogRecord) {
        self.records.push(record);
    }

    pub fn records(&self) -> &[PerflogRecord] {
        &self.records
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Serialize as JSON Lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.to_json_line());
            out.push('\n');
        }
        out
    }

    /// Parse a JSONL perflog.
    pub fn from_jsonl(text: &str) -> Result<Perflog, PerflogError> {
        let mut log = Perflog::new();
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            log.append(PerflogRecord::from_json_line(line)?);
        }
        Ok(log)
    }

    /// Flatten into a data frame: one row per (record, FOM) pair. This is
    /// the representation the postprocessing pipeline consumes; frames from
    /// several perflogs concatenate cleanly (P6).
    pub fn to_frame(&self) -> DataFrame {
        let mut df = DataFrame::new(vec![
            "sequence",
            "benchmark",
            "system",
            "partition",
            "environ",
            "spec",
            "build_hash",
            "num_tasks",
            "num_tasks_per_node",
            "num_cpus_per_task",
            "fom",
            "value",
            "unit",
        ]);
        for r in &self.records {
            for f in &r.foms {
                df.push_row(vec![
                    Cell::from(r.sequence as i64),
                    Cell::from(r.benchmark.as_str()),
                    Cell::from(r.system.as_str()),
                    Cell::from(r.partition.as_str()),
                    Cell::from(r.environ.as_str()),
                    Cell::from(r.spec.as_str()),
                    Cell::from(r.build_hash.as_str()),
                    Cell::from(r.num_tasks as i64),
                    Cell::from(r.num_tasks_per_node as i64),
                    Cell::from(r.num_cpus_per_task as i64),
                    Cell::from(f.name.as_str()),
                    Cell::from(f.value),
                    Cell::from(f.unit.as_str()),
                ])
                .expect("fixed schema");
            }
        }
        df
    }
}

/// The perflog files an input path names: the path itself when it is not
/// a directory, else the directory's `*.jsonl` entries sorted by name
/// (possibly none). `rank` folds and `push` ingests in this one order, so
/// a served verdict equals the offline one over the same directory.
pub fn input_files(path: &Path) -> std::io::Result<Vec<PathBuf>> {
    if !path.is_dir() {
        return Ok(vec![path.to_path_buf()]);
    }
    let mut files: Vec<PathBuf> = std::fs::read_dir(path)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .collect();
    files.sort();
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seq: u64, system: &str, fom: f64) -> PerflogRecord {
        PerflogRecord {
            sequence: seq,
            benchmark: "babelstream".into(),
            system: system.into(),
            partition: "cascadelake".into(),
            environ: "gcc@9.2.0".into(),
            spec: "babelstream%gcc@9.2.0 +omp".into(),
            build_hash: "abcdefg".into(),
            job_id: Some(41 + seq),
            num_tasks: 1,
            num_tasks_per_node: 1,
            num_cpus_per_task: 40,
            foms: vec![
                Fom {
                    name: "Triad".into(),
                    value: fom,
                    unit: "MB/s".into(),
                },
                Fom {
                    name: "Copy".into(),
                    value: fom * 0.9,
                    unit: "MB/s".into(),
                },
            ],
            extras: vec![("array_size".into(), "33554432".into())],
        }
    }

    #[test]
    fn json_roundtrip() {
        let r = record(3, "isambard-macs", 212000.0);
        let line = r.to_json_line();
        let back = PerflogRecord::from_json_line(&line).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn jsonl_roundtrip_multiple() {
        let mut log = Perflog::new();
        for i in 0..5 {
            log.append(record(i, "archer2", 1000.0 * i as f64 + 5.0));
        }
        let text = log.to_jsonl();
        assert_eq!(text.lines().count(), 5);
        let back = Perflog::from_jsonl(&text).unwrap();
        assert_eq!(back.records(), log.records());
    }

    #[test]
    fn nonfinite_fom_round_trips_loudly() {
        // JSON cannot carry NaN/Inf, and emitting `null` used to make the
        // whole record unreadable ("fom missing value") — a bad
        // measurement silently killed its perflog. Non-finite FOMs now
        // round-trip as quoted strings and stay visible downstream.
        for (value, check) in [
            (f64::NAN, (|v: f64| v.is_nan()) as fn(f64) -> bool),
            (f64::INFINITY, |v| v == f64::INFINITY),
            (f64::NEG_INFINITY, |v| v == f64::NEG_INFINITY),
        ] {
            let r = record(1, "archer2", value);
            let line = r.to_json_line();
            let back =
                PerflogRecord::from_json_line(&line).unwrap_or_else(|e| panic!("{value}: {e}"));
            assert!(check(back.fom("Triad").unwrap().value), "{line}");
        }
        // A finite string value is still rejected: only the emitter's
        // non-finite encodings are accepted, not stringly-typed floats.
        let sneaky = record(1, "archer2", 1.0)
            .to_json_line()
            .replace("\"value\":1.0", "\"value\":\"1.5\"");
        assert!(PerflogRecord::from_json_line(&sneaky).is_err());
    }

    #[test]
    fn malformed_lines_rejected() {
        assert!(Perflog::from_jsonl("{not json").is_err());
        assert!(PerflogRecord::from_json_line("{}").is_err());
        assert!(PerflogRecord::from_json_line(r#"{"sequence": 1}"#).is_err());
    }

    #[test]
    fn negative_counters_rejected_not_wrapped() {
        // The bug: `as u64` / `as u32` casts silently turned -1 into
        // 4294967295. Every integer field must instead fail to parse.
        let good = record(3, "archer2", 1000.0).to_json_line();
        for field in [
            "sequence",
            "num_tasks",
            "num_tasks_per_node",
            "num_cpus_per_task",
            "job_id",
        ] {
            let bad = regex_free_set_int(&good, field, -1);
            let err = PerflogRecord::from_json_line(&bad).unwrap_err();
            assert!(
                err.0.contains(field),
                "field `{field}`: expected validation error, got {err:?}"
            );
        }
        // A record with every counter non-negative still parses.
        assert!(PerflogRecord::from_json_line(&good).is_ok());
    }

    /// Set `"key":<int>` to `value` in a compact JSON line (test helper).
    fn regex_free_set_int(line: &str, key: &str, value: i64) -> String {
        let marker = format!("\"{key}\":");
        let start = line.find(&marker).expect("key present") + marker.len();
        let end = start + line[start..].find([',', '}']).expect("value terminated");
        format!("{}{}{}", &line[..start], value, &line[end..])
    }

    #[test]
    fn empty_lines_skipped() {
        let mut log = Perflog::new();
        log.append(record(0, "csd3", 1.0));
        let text = format!("\n{}\n\n", log.to_jsonl());
        assert_eq!(Perflog::from_jsonl(&text).unwrap().len(), 1);
    }

    #[test]
    fn frame_flattening() {
        let mut log = Perflog::new();
        log.append(record(0, "archer2", 100.0));
        log.append(record(1, "csd3", 200.0));
        let df = log.to_frame();
        assert_eq!(df.n_rows(), 4); // 2 records × 2 FOMs
        let triads = df.filter_eq("fom", &Cell::from("Triad")).unwrap();
        assert_eq!(triads.n_rows(), 2);
        let csd3 = triads.filter_eq("system", &Cell::from("csd3")).unwrap();
        assert_eq!(csd3.column("value").unwrap().get(0).as_float(), Some(200.0));
    }

    #[test]
    fn cross_system_assimilation() {
        // The paper's key P6 workflow: concatenate per-system perflogs.
        let mut a = Perflog::new();
        a.append(record(0, "archer2", 100.0));
        let mut b = Perflog::new();
        b.append(record(0, "cosma8", 150.0));
        let combined = dframe::DataFrame::concat(vec![a.to_frame(), b.to_frame()]);
        assert_eq!(combined.n_rows(), 4);
        assert_eq!(combined.unique("system").unwrap().len(), 2);
    }

    #[test]
    fn engine_extras_round_trip_losslessly() {
        // The engine runner records subprocess facts as extras. Exit codes
        // may be negative, and stderr from a crashing engine is captured
        // lossily — non-UTF8 bytes become U+FFFD — so both must survive a
        // JSONL round-trip byte-for-byte.
        let lossy_stderr = String::from_utf8_lossy(b"kap\xff\xfeut: seg\xc3").into_owned();
        assert!(lossy_stderr.contains('\u{FFFD}'), "{lossy_stderr:?}");
        let mut r = record(7, "archer2", 1000.0);
        r.extras = vec![
            ("error".into(), "engine failure: engine exited".into()),
            ("exit_code".into(), "-11".into()),
            ("signal".into(), "15".into()),
            ("timed_out".into(), "true".into()),
            ("stderr".into(), lossy_stderr.clone()),
        ];
        let back = PerflogRecord::from_json_line(&r.to_json_line()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.extra("exit_code"), Some("-11"));
        assert_eq!(back.extra("signal"), Some("15"));
        assert_eq!(back.extra("timed_out"), Some("true"));
        assert_eq!(back.extra("stderr"), Some(lossy_stderr.as_str()));
        assert_eq!(back.extra("nope"), None);
    }

    #[test]
    fn fom_lookup() {
        let r = record(0, "x", 42.0);
        assert_eq!(r.fom("Triad").unwrap().value, 42.0);
        assert!(r.fom("Nope").is_none());
    }

    #[test]
    fn input_files_expands_a_directory_to_its_sorted_jsonl_entries() {
        let dir = std::env::temp_dir().join(format!("perflogs-inputs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(input_files(&dir).unwrap().is_empty(), "empty directory");
        for name in ["b.jsonl", "a.jsonl", "notes.txt"] {
            std::fs::write(dir.join(name), "").unwrap();
        }
        assert_eq!(
            input_files(&dir).unwrap(),
            [dir.join("a.jsonl"), dir.join("b.jsonl")]
        );
        let file = dir.join("notes.txt");
        assert_eq!(input_files(&file).unwrap(), vec![file]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
