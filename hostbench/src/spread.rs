//! The spread report: one workload run several times with consecutive
//! seeds, and for each metric its median, quartiles, IQR / median and
//! (max - min) / median. Bounds in `BENCHMARK.json` rest on these numbers.

use crate::stats::{median, quartiles};
use std::process::{Command, Stdio};

/// The value of metric `name` in a result line.
pub fn metric(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = line.find(&key)? + key.len();
    line[at..].split([',', '}']).next()?.trim().parse().ok()
}

/// Run this benchmark `runs` times (seeds `seed`, `seed + 1`, ...) and
/// print the report to stdout. Returns whether every run was correct.
pub fn report(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
) -> Result<bool, String> {
    let table = if trace {
        crate::metrics::PER_LAYER
    } else {
        crate::metrics::END_TO_END
    };
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let mut values: Vec<Vec<f64>> = vec![Vec::new(); table.len()];
    let mut all_correct = true;
    for i in 0..runs as u64 {
        let out = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &(seed + i).to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let last = text.lines().last().unwrap_or("");
        let machine = text
            .lines()
            .find(|l| l.starts_with("{\"machine\""))
            .unwrap_or("");
        eprintln!("run {} seed {}: {machine}", i + 1, seed + i);
        let correct = out.status.success() && last.contains("\"correct\": true");
        all_correct &= correct;
        eprintln!("run {} seed {}: {last}", i + 1, seed + i);
        for (k, (name, _)) in table.iter().enumerate() {
            if let Some(v) = metric(last, name) {
                values[k].push(v);
            }
        }
    }
    println!(
        "{workload}: {runs} runs of {seconds} s, trace {}\n{:<40} {:>4} {:>12} {:>12} {:>12} {:>9} {:>9}",
        u8::from(trace),
        "metric",
        "n",
        "median",
        "q1",
        "q3",
        "iqr/med",
        "range/med"
    );
    for ((name, unit), v) in table.iter().zip(&values) {
        let med = median(v).unwrap_or(f64::NAN);
        let (q1, _, q3) = quartiles(v).unwrap_or((f64::NAN, f64::NAN, f64::NAN));
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        println!(
            "{:<40} {:>4} {med:>12.4} {q1:>12.4} {q3:>12.4} {:>9.4} {:>9.4}",
            format!("{name} [{unit}]"),
            v.len(),
            (q3 - q1) / med,
            (hi - lo) / med
        );
    }
    Ok(all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_metrics_from_a_result_line() {
        let line = "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
                    {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"rss_mb\": {\"value\": 9, \"unit\": \"MiB\"}}}";
        assert_eq!(metric(line, "setup_s"), Some(1.25));
        assert_eq!(metric(line, "rss_mb"), Some(9.0));
        assert_eq!(metric(line, "op_p50_ms"), None);
    }
}
