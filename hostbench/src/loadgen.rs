//! Open-loop load generation: requests are sent on a fixed schedule and
//! timed from when they were due, so a stall also charges the requests
//! queued behind it.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One request of an open loop; times are seconds since the loop's start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub due: f64,
    pub start: f64,
    pub end: f64,
    pub ok: bool,
}

impl Sample {
    /// Latency charged to the request: from its due time to its answer.
    pub fn latency(&self) -> f64 {
        self.end - self.due
    }

    /// How late the generator sent it.
    pub fn late(&self) -> f64 {
        (self.start - self.due).max(0.0)
    }
}

/// Time source of a loop (a fake one in tests).
pub trait Clock {
    fn now(&self) -> f64;
    fn sleep_until(&self, t: f64);
}

/// Wall clock anchored at a start instant.
pub struct Wall(pub Instant);

impl Clock for Wall {
    fn now(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    fn sleep_until(&self, t: f64) {
        let now = self.now();
        if t > now {
            std::thread::sleep(Duration::from_secs_f64(t - now));
        }
    }
}

/// Send request `i` at `offset + i * period` until `until`; `op` returns
/// whether the request succeeded.
pub fn open_loop(
    clock: &impl Clock,
    period: f64,
    offset: f64,
    until: f64,
    mut op: impl FnMut(usize) -> bool,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    for i in 0.. {
        let due = offset + i as f64 * period;
        if due >= until {
            break;
        }
        clock.sleep_until(due);
        let start = clock.now();
        let ok = op(i);
        samples.push(Sample {
            due,
            start,
            end: clock.now(),
            ok,
        });
    }
    samples
}

/// Whether each sample of `a` was in flight while any sample of `b` was.
pub fn overlapped(a: &[Sample], b: &[Sample]) -> Vec<bool> {
    a.iter()
        .map(|x| b.iter().any(|y| y.start < x.end && x.start < y.end))
        .collect()
}

/// An HTTP answer.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    pub body: String,
}

/// One HTTP/1.1 request on its own connection (the daemon closes it after
/// answering).
pub fn http(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> std::io::Result<Reply> {
    let mut s = TcpStream::connect_timeout(&addr, Duration::from_secs(10))?;
    s.set_read_timeout(Some(Duration::from_secs(60)))?;
    s.set_nodelay(true)?;
    let mut req = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body);
    s.write_all(&req)?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed HTTP reply");
    let (head, body) = text.split_once("\r\n\r\n").ok_or_else(bad)?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    Ok(Reply {
        status,
        body: body.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to.
    struct Fake(Cell<f64>);

    impl Clock for Fake {
        fn now(&self) -> f64 {
            self.0.get()
        }
        fn sleep_until(&self, t: f64) {
            if t > self.0.get() {
                self.0.set(t);
            }
        }
    }

    #[test]
    fn due_times_and_lateness() {
        let clock = Fake(Cell::new(0.0));
        // Request 1 stalls for 0.35 s: 2 and 3 are sent late, and their
        // latency counts from when they were due.
        let samples = open_loop(&clock, 0.1, 0.0, 0.5, |i| {
            let cost = if i == 1 { 0.35 } else { 0.01 };
            clock.0.set(clock.0.get() + cost);
            true
        });
        let due: Vec<f64> = samples.iter().map(|s| s.due).collect();
        assert_eq!(due.len(), 5);
        for (i, d) in due.iter().enumerate() {
            assert!((d - i as f64 * 0.1).abs() < 1e-12);
        }
        let late: Vec<f64> = samples.iter().map(Sample::late).collect();
        assert!(late[0].abs() < 1e-9 && late[1].abs() < 1e-9);
        assert!((late[2] - 0.25).abs() < 1e-9, "{late:?}");
        assert!((late[3] - 0.16).abs() < 1e-9, "{late:?}");
        assert!((samples[2].latency() - 0.26).abs() < 1e-9);
        assert!((samples[1].latency() - 0.35).abs() < 1e-9);
        assert!(late[4].abs() < 1e-9 + 0.07);
    }

    #[test]
    fn offset_shifts_the_schedule() {
        let clock = Fake(Cell::new(0.0));
        let s = open_loop(&clock, 1.0, 0.5, 3.0, |_| true);
        assert_eq!(
            s.iter().map(|x| x.due).collect::<Vec<_>>(),
            vec![0.5, 1.5, 2.5]
        );
    }

    #[test]
    fn overlap_is_interval_intersection() {
        let s = |start, end| Sample {
            due: start,
            start,
            end,
            ok: true,
        };
        let ingest = [s(0.0, 1.0), s(2.0, 3.0), s(4.0, 5.0)];
        let verdict = [s(0.5, 2.1), s(5.0, 6.0)];
        assert_eq!(overlapped(&ingest, &verdict), vec![true, true, false]);
    }
}
