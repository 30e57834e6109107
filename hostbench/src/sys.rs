//! Child processes with their own resource usage, and the machine's
//! condition read (read-only) from `/proc` and `/sys`.

use std::io::{self, Read};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// Linux x86-64 / aarch64 `struct rusage`.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
    fn sysconf(name: i32) -> i64;
}

const SIGKILL: i32 = 9;
const SIGTERM: i32 = 15;
const SC_CLK_TCK: i32 = 2;

/// How a child ended, with its own CPU time and peak RSS.
#[derive(Debug)]
pub struct Finished {
    /// Exit code, or `128 + signal` when killed by a signal.
    pub code: i32,
    pub stdout: String,
    pub wall: Duration,
    pub cpu_ms: f64,
    pub maxrss_kb: i64,
}

impl Finished {
    pub fn ok(&self) -> bool {
        self.code == 0
    }
}

/// Reap `child` with `wait4`, returning its exit code and rusage.
fn reap(child: &Child) -> io::Result<(i32, Rusage)> {
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are valid, exclusively borrowed
        // out-parameters of the C layout `wait4` writes; `pid` is our own
        // unreaped child, so the call cannot reap another process.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        128 + (status & 0x7f)
    };
    Ok((code, usage))
}

/// Run `cmd` to completion: stdout is captured, stderr goes to
/// `stderr_to` (a file, so no reader thread is needed).
pub fn run(cmd: &mut Command, stderr_to: &std::path::Path) -> io::Result<Finished> {
    let err = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(stderr_to)?;
    let start = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::from(err))
        .spawn()?;
    let mut stdout = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut stdout);
    let (code, usage) = reap(&child)?;
    let wall = start.elapsed();
    read?;
    let tv = |t: &Timeval| t.sec as f64 * 1e3 + t.usec as f64 / 1e3;
    Ok(Finished {
        code,
        stdout,
        wall,
        cpu_ms: tv(&usage.utime) + tv(&usage.stime),
        maxrss_kb: usage.maxrss_kb,
    })
}

/// Send `SIGTERM` (or `SIGKILL` when `hard`) to a child.
pub fn signal(child: &Child, hard: bool) {
    // SAFETY: plain syscall on our own child's pid; no memory is shared.
    unsafe {
        kill(child.id() as i32, if hard { SIGKILL } else { SIGTERM });
    }
}

/// Stop a child: `SIGTERM`, then `SIGKILL` after `grace`; always reaped.
pub fn stop(child: &mut Child, grace: Duration) -> i32 {
    signal(child, false);
    let deadline = Instant::now() + grace;
    loop {
        match child.try_wait() {
            Ok(Some(s)) => return s.code().unwrap_or(-1),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(10)),
            _ => {
                signal(child, true);
                return child.wait().ok().and_then(|s| s.code()).unwrap_or(-1);
            }
        }
    }
}

/// Clock ticks per second for `/proc/<pid>/stat` times.
pub fn clock_ticks() -> f64 {
    // SAFETY: `sysconf` only reads a configuration value.
    let t = unsafe { sysconf(SC_CLK_TCK) };
    if t > 0 {
        t as f64
    } else {
        100.0
    }
}

/// User + system CPU milliseconds of a live process.
pub fn proc_cpu_ms(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime/stime are the
    // 14th and 15th fields overall.
    let rest = &stat[stat.rfind(')')? + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?;
    Some(ticks * 1e3 / clock_ticks())
}

/// A `/proc/<pid>/status` field in kB (e.g. `VmHWM`).
pub fn proc_status_kb(pid: u32, field: &str) -> Option<i64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

fn read_trim(path: &str) -> String {
    std::fs::read_to_string(path)
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "n/a".to_string())
}

/// Steal and total jiffies from the aggregate `cpu` line of `/proc/stat`.
fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Machine condition at the start of a run; [`Machine::finish`] adds the
/// steal-time delta over the run.
pub struct Machine {
    fields: Vec<(&'static str, String)>,
    steal0: (u64, u64),
}

impl Machine {
    pub fn capture() -> Machine {
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let affinity = std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                    .map(|v| v.trim().to_string())
            })
            .unwrap_or_else(|| "n/a".to_string());
        let fields = vec![
            ("nproc", nproc.to_string()),
            ("affinity", affinity),
            (
                "governor",
                read_trim("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"),
            ),
            ("smt", read_trim("/sys/devices/system/cpu/smt/active")),
            ("loadavg", read_trim("/proc/loadavg")),
        ];
        Machine {
            fields,
            steal0: cpu_jiffies(),
        }
    }

    /// One JSON object: the start condition plus the steal share of all
    /// CPU time that elapsed since [`Machine::capture`].
    pub fn finish(&self) -> String {
        let (s1, t1) = cpu_jiffies();
        let steal = s1.saturating_sub(self.steal0.0);
        let total = t1.saturating_sub(self.steal0.1).max(1);
        let mut out = String::from("{\"machine\":{");
        for (k, v) in &self.fields {
            out.push_str(&format!("\"{k}\":\"{}\",", v.replace('"', "'")));
        }
        out.push_str(&format!(
            "\"steal_jiffies\":{steal},\"steal_share\":{:.6},\"loadavg_end\":\"{}\"}}}}",
            steal as f64 / total as f64,
            read_trim("/proc/loadavg")
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_usage_is_its_own() {
        let log = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!(".test-sys-{}.log", std::process::id()));
        let f = run(Command::new("sh").args(["-c", "echo hi; exit 3"]), &log).unwrap();
        assert_eq!(f.code, 3);
        assert_eq!(f.stdout, "hi\n");
        assert!(f.maxrss_kb > 0);
        let _ = std::fs::remove_file(log);
        let me = std::process::id();
        assert!(proc_cpu_ms(me).is_some());
        assert!(proc_status_kb(me, "VmHWM").unwrap() > 0);
        let m = Machine::capture().finish();
        assert!(m.starts_with("{\"machine\":{\"nproc\":"), "{m}");
    }
}
