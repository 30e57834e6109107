//! Order statistics used for every reported timing.

/// Percentiles a tail may be reported at, lowest first. The steps are
/// coarse on purpose: a tail with only ten samples beyond it swings from
/// run to run, so the next step down keeps more samples beyond it.
pub const TAIL_LADDER: [f64; 5] = [50.0, 75.0, 90.0, 99.0, 99.9];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Sort a copy of `values` ascending (NaN-free input assumed; NaN sorts last).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// 1-based nearest rank of percentile `p` among `n` samples (the epsilon
/// keeps binary rounding, as in 99.9 / 100 * 10000, from adding a rank).
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of `values` (any order). `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    Some(v[nearest_rank(v.len(), p) - 1])
}

/// Median with the usual midpoint rule for an even count.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The highest ladder percentile that leaves at least [`TAIL_BEYOND`]
/// samples above its nearest rank when `n` samples are taken.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| n >= nearest_rank(n.max(1), p) + TAIL_BEYOND)
}

/// The tail of `samples` (ms) at a workload's fixed percentile `p`, for a
/// run's stderr summary; flags a run with fewer than ten samples beyond it.
pub fn tail_summary(samples: &[f64], p: f64) -> String {
    let value = percentile(samples, p).unwrap_or(f64::NAN);
    let enough = tail_percentile(samples.len()).is_some_and(|q| q >= p);
    format!(
        "tail p{p} {value:.3} ms of {}{}",
        samples.len(),
        if enough {
            ""
        } else {
            " (fewer than ten beyond)"
        }
    )
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the default "exclusive" method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let v = sorted(values);
    let m = v.len() as f64 + 1.0;
    let q = |k: f64| {
        let pos = k * m / 4.0;
        let j = (pos.floor() as usize).clamp(1, v.len() - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((q(1.0), q(2.0), q(3.0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(450), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in 1..3000 {
            if let Some(p) = tail_percentile(n) {
                assert!(n - nearest_rank(n, p) >= TAIL_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn tail_summary_flags_short_runs() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail_summary(&v, 75.0), "tail p75 30.000 ms of 40");
        assert!(tail_summary(&v[..30], 75.0).ends_with("(fewer than ten beyond)"));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 97.5), Some(98.0));
        assert_eq!(percentile(&[3.0], 99.0), Some(3.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
    }
}
