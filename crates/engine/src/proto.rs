//! The benchkit engine conversation, expressed as KLV frames.
//!
//! The harness writes a request to the engine's stdin and closes it:
//!
//! ```text
//! proto:1:1
//! case:15:babelstream_omp
//! system:4:csd3
//! partition:11:cascadelake
//! spec:21:babelstream%gcc +omp
//! seed:1:7
//! attempt:1:1
//! run:0:
//! ```
//!
//! The engine runs the named benchmark and replies on stdout with the
//! measured wall time, the benchmark's raw textual output (the harness
//! applies its own sanity/FOM regexes to it, exactly as on the in-process
//! path), and a terminator:
//!
//! ```text
//! wall:8:0.125000
//! stdout:N:<benchmark output bytes>
//! done:0:
//! ```
//!
//! Unknown keys are ignored in both directions so either side can extend
//! the protocol. A reply without the `done` terminator is treated as
//! partial output — the tell-tale of an engine that died mid-write.

use crate::klv::{decode_all, Frame, ProtocolError};

/// Protocol revision spoken by this crate.
pub(crate) const PROTOCOL_VERSION: &str = "1";

/// What the harness asks an engine to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineRequest {
    pub case: String,
    pub system: String,
    pub partition: String,
    pub spec: String,
    pub seed: u64,
    pub attempt: u32,
}

impl EngineRequest {
    /// Wire encoding written to the engine's stdin.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for (key, value) in [
            ("proto", PROTOCOL_VERSION),
            ("case", &self.case),
            ("system", &self.system),
            ("partition", &self.partition),
            ("spec", &self.spec),
            ("seed", &self.seed.to_string()),
            ("attempt", &self.attempt.to_string()),
        ] {
            Frame::new(key, value.as_bytes().to_vec())
                .expect("request keys are valid")
                .encode_into(&mut out);
        }
        Frame::new("run", Vec::new())
            .expect("static key")
            .encode_into(&mut out);
        out
    }

    /// Parse a request from stdin bytes (the engine side; the stub uses
    /// this). Requires the `run` terminator and a known protocol version.
    pub fn decode(bytes: &[u8]) -> Result<EngineRequest, RequestError> {
        let frames = decode_all(bytes).map_err(RequestError::Protocol)?;
        let mut request = EngineRequest {
            case: String::new(),
            system: String::new(),
            partition: String::new(),
            spec: String::new(),
            seed: 0,
            attempt: 1,
        };
        let mut saw_run = false;
        let mut saw_proto = false;
        for frame in &frames {
            if saw_run {
                return Err(RequestError::TrailingFrame(frame.key.clone()));
            }
            let text = frame.value_lossy();
            match frame.key.as_str() {
                "proto" => {
                    if text != PROTOCOL_VERSION {
                        return Err(RequestError::UnsupportedVersion(text));
                    }
                    saw_proto = true;
                }
                "case" => request.case = text,
                "system" => request.system = text,
                "partition" => request.partition = text,
                "spec" => request.spec = text,
                "seed" => {
                    request.seed = text
                        .parse()
                        .map_err(|_| RequestError::BadField("seed", text))?;
                }
                "attempt" => {
                    request.attempt = text
                        .parse()
                        .map_err(|_| RequestError::BadField("attempt", text))?;
                }
                "run" => saw_run = true,
                _ => {} // forward compatibility
            }
        }
        if !saw_proto {
            return Err(RequestError::MissingField("proto"));
        }
        if !saw_run {
            return Err(RequestError::MissingField("run"));
        }
        if request.case.is_empty() {
            return Err(RequestError::MissingField("case"));
        }
        Ok(request)
    }
}

/// Why an engine rejected the harness's request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    Protocol(ProtocolError),
    UnsupportedVersion(String),
    MissingField(&'static str),
    BadField(&'static str, String),
    TrailingFrame(String),
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Protocol(e) => write!(f, "bad request framing: {e}"),
            RequestError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v:?} (want {PROTOCOL_VERSION})"
                )
            }
            RequestError::MissingField(k) => write!(f, "request missing `{k}` frame"),
            RequestError::BadField(k, v) => write!(f, "bad `{k}` value {v:?}"),
            RequestError::TrailingFrame(k) => write!(f, "frame `{k}` after `run` terminator"),
        }
    }
}

impl std::error::Error for RequestError {}

/// What a well-behaved engine reports back.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineReport {
    /// Engine-measured wall time, seconds. Finite and non-negative.
    pub wall_time_s: f64,
    /// The benchmark's raw output (lossy UTF-8); the harness extracts
    /// sanity matches and FOMs from it with the case's own regexes.
    pub stdout: String,
}

impl EngineReport {
    /// Wire encoding written to the harness (the engine side).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        Frame::text("wall", &format!("{:.6}", self.wall_time_s))
            .expect("static key")
            .encode_into(&mut out);
        Frame::new("stdout", self.stdout.as_bytes().to_vec())
            .expect("static key")
            .encode_into(&mut out);
        Frame::new("done", Vec::new())
            .expect("static key")
            .encode_into(&mut out);
        out
    }

    /// Interpret decoded frames as a report (the harness side).
    pub(crate) fn from_frames(frames: &[Frame]) -> Result<EngineReport, ReportError> {
        let mut wall: Option<f64> = None;
        let mut stdout: Option<String> = None;
        let mut saw_done = false;
        for frame in frames {
            if saw_done {
                return Err(ReportError::TrailingFrame(frame.key.clone()));
            }
            match frame.key.as_str() {
                "wall" => {
                    if wall.is_some() {
                        return Err(ReportError::DuplicateFrame("wall"));
                    }
                    let text = frame.value_lossy();
                    let value: f64 = text
                        .parse()
                        .map_err(|_| ReportError::BadWall(text.clone()))?;
                    if !value.is_finite() || value < 0.0 {
                        return Err(ReportError::BadWall(text));
                    }
                    wall = Some(value);
                }
                "stdout" => {
                    if stdout.is_some() {
                        return Err(ReportError::DuplicateFrame("stdout"));
                    }
                    stdout = Some(frame.value_lossy());
                }
                "done" => saw_done = true,
                _ => {} // forward compatibility
            }
        }
        if !saw_done {
            return Err(ReportError::MissingDone);
        }
        Ok(EngineReport {
            wall_time_s: wall.ok_or(ReportError::MissingFrame("wall"))?,
            stdout: stdout.ok_or(ReportError::MissingFrame("stdout"))?,
        })
    }
}

/// Why a syntactically valid frame stream is not a usable report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReportError {
    /// No `done` terminator: the engine died (or stopped) mid-report.
    MissingDone,
    MissingFrame(&'static str),
    DuplicateFrame(&'static str),
    TrailingFrame(String),
    /// `wall` is not a finite non-negative number.
    BadWall(String),
}

impl std::fmt::Display for ReportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReportError::MissingDone => {
                write!(f, "partial output: missing `done` terminator")
            }
            ReportError::MissingFrame(k) => write!(f, "report missing `{k}` frame"),
            ReportError::DuplicateFrame(k) => write!(f, "duplicate `{k}` frame"),
            ReportError::TrailingFrame(k) => write!(f, "frame `{k}` after `done` terminator"),
            ReportError::BadWall(v) => {
                write!(f, "bad `wall` value {v:?} (want finite seconds ≥ 0)")
            }
        }
    }
}

impl std::error::Error for ReportError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn request() -> EngineRequest {
        EngineRequest {
            case: "babelstream_omp".to_string(),
            system: "csd3".to_string(),
            partition: "cascadelake".to_string(),
            spec: "babelstream%gcc +omp".to_string(),
            seed: 7,
            attempt: 2,
        }
    }

    #[test]
    fn request_round_trips() {
        let req = request();
        assert_eq!(EngineRequest::decode(&req.encode()).unwrap(), req);
    }

    #[test]
    fn request_requires_proto_case_and_run() {
        let frames = |skip: &str| {
            let req = request();
            let all = decode_all(&req.encode()).unwrap();
            crate::klv::encode_all(
                &all.into_iter()
                    .filter(|f| f.key != skip)
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(
            EngineRequest::decode(&frames("proto")).unwrap_err(),
            RequestError::MissingField("proto")
        );
        assert_eq!(
            EngineRequest::decode(&frames("run")).unwrap_err(),
            RequestError::MissingField("run")
        );
        assert_eq!(
            EngineRequest::decode(&frames("case")).unwrap_err(),
            RequestError::MissingField("case")
        );
    }

    #[test]
    fn request_rejects_unknown_version() {
        let mut wire = Frame::text("proto", "99").unwrap().encode();
        wire.extend(Frame::text("case", "x").unwrap().encode());
        wire.extend(Frame::new("run", Vec::new()).unwrap().encode());
        assert_eq!(
            EngineRequest::decode(&wire).unwrap_err(),
            RequestError::UnsupportedVersion("99".to_string())
        );
    }

    #[test]
    fn report_round_trips() {
        let report = EngineReport {
            wall_time_s: 0.125,
            stdout: "Function    MBytes/sec\nCopy  1000.0\n".to_string(),
        };
        let frames = decode_all(&report.encode()).unwrap();
        assert_eq!(EngineReport::from_frames(&frames).unwrap(), report);
    }

    #[test]
    fn report_without_done_is_partial_output() {
        let frames = vec![
            Frame::text("wall", "1.0").unwrap(),
            Frame::text("stdout", "x").unwrap(),
        ];
        assert_eq!(
            EngineReport::from_frames(&frames).unwrap_err(),
            ReportError::MissingDone
        );
    }

    #[test]
    fn report_rejects_bad_wall() {
        for bad in ["NaN", "inf", "-1", "abc", ""] {
            let frames = vec![
                Frame::text("wall", bad).unwrap(),
                Frame::text("stdout", "x").unwrap(),
                Frame::new("done", Vec::new()).unwrap(),
            ];
            assert!(
                matches!(
                    EngineReport::from_frames(&frames),
                    Err(ReportError::BadWall(_))
                ),
                "wall={bad:?}"
            );
        }
    }

    #[test]
    fn report_ignores_unknown_frames() {
        let mut wire = Frame::text("wall", "1.0").unwrap().encode();
        wire.extend(Frame::text("future-key", "whatever").unwrap().encode());
        wire.extend(Frame::text("stdout", "out").unwrap().encode());
        wire.extend(Frame::new("done", Vec::new()).unwrap().encode());
        let frames = decode_all(&wire).unwrap();
        assert_eq!(
            EngineReport::from_frames(&frames).unwrap().stdout,
            "out".to_string()
        );
    }
}
