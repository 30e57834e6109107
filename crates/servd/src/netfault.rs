//! Deterministic network fault injection for the results daemon.
//!
//! The daemon claims that slow clients, reset connections, and torn
//! request/response streams degrade *one connection*, never the record —
//! a claim only worth its torture schedule. [`NetShim`] is the network
//! analogue of `spackle::IoShim`: a seam over the two socket operations a
//! connection performs — read and write — that either passes through
//! ([`NetShim::Real`]) or injects faults from a deterministic schedule
//! ([`NetShim::faulty`]): torn reads that deliver only a prefix then
//! error, short writes that land only a prefix of a response, injected
//! connection resets, and stalls that eat a connection's deadline.
//!
//! Determinism follows `simhpc::faults`, whose `FaultKernel` this shim
//! shares with `spackle::iofault`: it comes from draw *keying*, not draw
//! order. Every fault is drawn from a fresh `SplitMix64` stream seeded by
//! the `(seed, op, kind, connection id, per-(op, kind, connection)
//! counter)` tuple, so the n-th read on connection k faults identically
//! whatever order worker threads reach it in — the same seed reproduces
//! the same schedule at any worker count. The fired faults are recorded in
//! a sorted [transcript](NetShim::transcript) whose rendering is
//! interleaving-independent for the same reason.
//!
//! The daemon takes the shim from its configuration. The `benchkit`
//! binary arms one from `BENCHKIT_NETFAULTS` at start-up, so CI injects
//! faults without recompiling, e.g.
//! `BENCHKIT_NETFAULTS="seed=7,torn=0.2,short=0.2,reset=0.1"`.

use simhpc::faults::{parse_spec, FaultKernel, SpecField};
use simhpc::noise::SplitMix64;
use std::io::{self, Read, Write};
use std::sync::Arc;

/// Environment variable the `benchkit` binary reads a [`NetFaultSpec`] from.
pub const NETFAULTS_ENV: &str = "BENCHKIT_NETFAULTS";

/// Per-operation fault probabilities plus the seed keying the schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct NetFaultSpec {
    pub seed: u64,
    /// P(a read delivers only a prefix of what arrived, then errors).
    pub torn: f64,
    /// P(a write lands only a prefix of its bytes, then errors).
    pub short: f64,
    /// P(an operation fails immediately with a connection reset).
    pub reset: f64,
    /// P(an operation stalls for `stall_ms` before proceeding) — the
    /// slowloris generator, spending the connection's deadline budget.
    pub stall: f64,
    /// Stall duration in milliseconds.
    pub stall_ms: u64,
}

impl NetFaultSpec {
    /// No faults ever — useful as a parse base.
    pub fn quiet(seed: u64) -> NetFaultSpec {
        NetFaultSpec {
            seed,
            torn: 0.0,
            short: 0.0,
            reset: 0.0,
            stall: 0.0,
            stall_ms: 100,
        }
    }

    /// Parse the `BENCHKIT_NETFAULTS` format: comma-separated `key=value`
    /// pairs from `seed`, `torn`, `short`, `reset`, `stall`, `stallms`.
    /// Unknown keys and malformed values are hard errors — a typo in a
    /// torture schedule must not silently test nothing.
    pub fn parse(text: &str) -> Result<NetFaultSpec, String> {
        parse_spec(
            text,
            NetFaultSpec::quiet(0),
            |s| &mut s.seed,
            &[
                ("torn", SpecField::Prob(|s| &mut s.torn)),
                ("short", SpecField::Prob(|s| &mut s.short)),
                ("reset", SpecField::Prob(|s| &mut s.reset)),
                ("stall", SpecField::Prob(|s| &mut s.stall)),
                ("stallms", SpecField::Int(|s| &mut s.stall_ms)),
            ],
        )
    }
}

/// The network seam: `Real` passes through, `Faulty` injects scheduled
/// failures. Cloning a faulty shim shares the schedule and transcript.
#[derive(Debug, Clone, Default)]
pub enum NetShim {
    #[default]
    Real,
    Faulty(Arc<FaultKernel<NetFaultSpec>>),
}

fn injected(what: &str, conn: u64) -> io::Error {
    io::Error::new(
        io::ErrorKind::ConnectionReset,
        format!("injected {what} (conn {conn})"),
    )
}

impl NetShim {
    /// A shim injecting faults per `spec`.
    pub fn faulty(spec: NetFaultSpec) -> NetShim {
        NetShim::Faulty(Arc::new(FaultKernel::new(spec.seed, spec)))
    }

    /// Bind the shim to one connection's draw streams. Connection ids are
    /// assigned by the caller (the daemon uses accept order).
    pub fn conn(&self, conn: u64) -> ConnShim {
        ConnShim {
            shim: self.clone(),
            conn,
        }
    }

    /// Every fault fired so far, sorted — the reproducibility artifact.
    pub fn transcript(&self) -> Vec<String> {
        match self {
            NetShim::Real => Vec::new(),
            NetShim::Faulty(plan) => plan.transcript(),
        }
    }
}

/// A [`NetShim`] bound to one connection.
#[derive(Debug, Clone)]
pub struct ConnShim {
    shim: NetShim,
    conn: u64,
}

impl ConnShim {
    /// The bound connection id.
    pub fn conn_id(&self) -> u64 {
        self.conn
    }

    /// Draw the fault decision for the next `op:kind` on this connection
    /// and transcribe it when it fires. Returns the draw stream, so the
    /// torn/short prefix length comes from the same stream.
    fn draw(&self, op: &str, kind: &str, p_of: fn(&NetFaultSpec) -> f64) -> Option<SplitMix64> {
        let NetShim::Faulty(plan) = &self.shim else {
            return None;
        };
        let key: [&[u8]; 3] = [op.as_bytes(), kind.as_bytes(), &self.conn.to_le_bytes()];
        let (n, stream) = plan.draw(p_of(plan.spec()), &key)?;
        plan.record(format!("conn={:06} {op}:{kind} n={n:06}", self.conn));
        Some(stream)
    }

    /// A stall sleeps (spending the caller's deadline); a reset errors
    /// before the socket is touched.
    fn stall_or_reset(&self, op: &str) -> io::Result<()> {
        if self.draw(op, "stall", |s| s.stall).is_some() {
            if let NetShim::Faulty(plan) = &self.shim {
                std::thread::sleep(std::time::Duration::from_millis(plan.spec().stall_ms));
            }
        }
        if self.draw(op, "reset", |s| s.reset).is_some() {
            return Err(injected(&format!("connection reset on {op}"), self.conn));
        }
        Ok(())
    }

    /// Read into `buf`. A stall sleeps first (spending the caller's
    /// deadline); a reset errors before touching the socket; a torn read
    /// consumes bytes from the socket but delivers only a prefix, then
    /// errors — the rest of the request is gone for good, exactly like a
    /// peer dying mid-send.
    pub fn read(&self, src: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
        self.stall_or_reset("read")?;
        let n = src.read(buf)?;
        if let Some(mut stream) = self.draw("read", "torn", |s| s.torn) {
            if n > 0 {
                let cut = (stream.next_u64() % n as u64) as usize;
                return Err(injected(
                    &format!("torn read at byte {cut} of {n}"),
                    self.conn,
                ));
            }
        }
        Ok(n)
    }

    /// Write all of `bytes`. A short write lands only a prefix on the
    /// socket, then errors — the peer sees a truncated response and must
    /// treat the request as unacknowledged.
    pub fn write_all(&self, dst: &mut impl Write, bytes: &[u8]) -> io::Result<()> {
        self.stall_or_reset("write")?;
        if let Some(mut stream) = self.draw("write", "short", |s| s.short) {
            let cut = if bytes.is_empty() {
                0
            } else {
                (stream.next_u64() % bytes.len() as u64) as usize
            };
            let _ = dst.write_all(&bytes[..cut]);
            let _ = dst.flush();
            return Err(injected(
                &format!("short write at byte {cut} of {}", bytes.len()),
                self.conn,
            ));
        }
        dst.write_all(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_and_rejects_garbage() {
        let spec = NetFaultSpec::parse("seed=7, torn=0.25, short=0.1, stallms=50").unwrap();
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.torn, 0.25);
        assert_eq!(spec.short, 0.1);
        assert_eq!(spec.stall_ms, 50);
        assert!(NetFaultSpec::parse("torn=2.0").is_err());
        assert!(NetFaultSpec::parse("bogus=1").is_err());
        assert!(NetFaultSpec::parse("torn").is_err());
        assert!(NetFaultSpec::parse("seed=x").is_err());
    }

    #[test]
    fn real_shim_passes_through() {
        let shim = NetShim::Real.conn(0);
        let mut src = io::Cursor::new(b"hello".to_vec());
        let mut buf = [0u8; 8];
        assert_eq!(shim.read(&mut src, &mut buf).unwrap(), 5);
        let mut dst = Vec::new();
        shim.write_all(&mut dst, b"world").unwrap();
        assert_eq!(dst, b"world");
        assert!(NetShim::Real.transcript().is_empty());
    }

    #[test]
    fn torn_read_and_short_write_fire_and_are_transcribed() {
        let mut spec = NetFaultSpec::quiet(3);
        spec.torn = 1.0;
        spec.short = 1.0;
        let shim = NetShim::faulty(spec);
        let conn = shim.conn(1);
        let mut src = io::Cursor::new(b"request bytes".to_vec());
        let mut buf = [0u8; 16];
        let err = conn.read(&mut src, &mut buf).unwrap_err();
        assert!(err.to_string().contains("torn read"), "{err}");
        let mut dst = Vec::new();
        let err = conn.write_all(&mut dst, b"response bytes").unwrap_err();
        assert!(err.to_string().contains("short write"), "{err}");
        assert!(
            dst.len() < b"response bytes".len(),
            "short write must not land every byte"
        );
        let transcript = shim.transcript();
        assert_eq!(transcript.len(), 2, "{transcript:?}");
        assert!(transcript[0].contains("read:torn"), "{transcript:?}");
        assert!(transcript[1].contains("write:short"), "{transcript:?}");
    }

    /// The acceptance criterion: the same seed reproduces the same fault
    /// schedule and transcript, independent of the order connections
    /// interleave their operations — keyed, not ordered.
    #[test]
    fn schedule_and_transcript_are_keyed_not_ordered() {
        let spec = NetFaultSpec::parse("seed=11,torn=0.4,short=0.3,reset=0.2").unwrap();
        let run = |order: &[u64]| -> Vec<String> {
            let shim = NetShim::faulty(spec.clone());
            for &conn_id in order {
                let conn = shim.conn(conn_id);
                for _ in 0..5 {
                    let mut src = io::Cursor::new(b"x".repeat(32));
                    let mut buf = [0u8; 32];
                    let _ = conn.read(&mut src, &mut buf);
                    let _ = conn.write_all(&mut io::sink(), b"y".as_ref());
                }
            }
            shim.transcript()
        };
        let forward: Vec<u64> = (0..16).collect();
        let backward: Vec<u64> = (0..16).rev().collect();
        let a = run(&forward);
        let b = run(&backward);
        assert_eq!(a, b, "fault transcript depends on draw order");
        assert!(!a.is_empty(), "schedule drew no faults at these rates");
    }

    /// Same schedule under *real thread* interleaving: N threads each
    /// driving their own connection concurrently produce the transcript a
    /// serial run produces.
    #[test]
    fn transcript_is_stable_under_thread_interleaving() {
        let spec = NetFaultSpec::parse("seed=23,torn=0.5,short=0.5,reset=0.2").unwrap();
        let serial = {
            let shim = NetShim::faulty(spec.clone());
            for conn_id in 0..8u64 {
                let conn = shim.conn(conn_id);
                for _ in 0..6 {
                    let mut src = io::Cursor::new(b"z".repeat(16));
                    let mut buf = [0u8; 16];
                    let _ = conn.read(&mut src, &mut buf);
                    let _ = conn.write_all(&mut io::sink(), b"w".as_ref());
                }
            }
            shim.transcript()
        };
        let threaded = {
            let shim = NetShim::faulty(spec);
            std::thread::scope(|scope| {
                for conn_id in 0..8u64 {
                    let conn = shim.conn(conn_id);
                    scope.spawn(move || {
                        for _ in 0..6 {
                            let mut src = io::Cursor::new(b"z".repeat(16));
                            let mut buf = [0u8; 16];
                            let _ = conn.read(&mut src, &mut buf);
                            let _ = conn.write_all(&mut io::sink(), b"w".as_ref());
                        }
                    });
                }
            });
            shim.transcript()
        };
        assert_eq!(serial, threaded);
    }
}
