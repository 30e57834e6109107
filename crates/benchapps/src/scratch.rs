//! Reusable scratch buffers for benchmark hot paths.
//!
//! A benchmark run takes several working vectors, and a caller that runs
//! benchmarks back to back (a `Harness` session over its cases, an
//! in-process replay over a grid) used to allocate them afresh every time
//! — page faults and allocator traffic that the timed kernels then
//! measured. An [`Arena`] keeps returned buffers and hands them back
//! zero-initialised, so steady-state runs are allocation-free while
//! producing exactly the values `vec![fill; n]` would: results are
//! byte-identical with or without reuse.

/// A pool of `Vec<f64>` buffers reused across benchmark iterations.
///
/// Not thread-safe by design: each `Harness` owns one. A survey builds a
/// fresh `Harness` for every cell (`SuiteRunner::run_job`), so its cells
/// do not share buffers; reuse happens within one session's runs.
#[derive(Debug, Default)]
pub struct Arena {
    pool: Vec<Vec<f64>>,
}

impl Arena {
    pub fn new() -> Arena {
        Arena::default()
    }

    /// A buffer of length `n` filled with `fill` — identical contents to a
    /// fresh `vec![fill; n]`, but reusing pooled capacity when available.
    pub fn take(&mut self, n: usize, fill: f64) -> Vec<f64> {
        match self.pool.pop() {
            Some(mut v) => {
                v.clear();
                v.resize(n, fill);
                v
            }
            None => vec![fill; n],
        }
    }

    /// A buffer of length `n` initialised from `src`.
    pub(crate) fn take_copy(&mut self, src: &[f64]) -> Vec<f64> {
        match self.pool.pop() {
            Some(mut v) => {
                v.clear();
                v.extend_from_slice(src);
                v
            }
            None => src.to_vec(),
        }
    }

    /// Return a buffer to the pool for later reuse.
    pub fn give(&mut self, v: Vec<f64>) {
        // Keep the pool bounded: tiny buffers are cheaper to reallocate
        // than to track, and an unbounded pool would pin peak memory.
        if v.capacity() > 0 && self.pool.len() < 16 {
            self.pool.push(v);
        }
    }

    /// Buffers currently pooled (for tests and diagnostics).
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_matches_fresh_allocation() {
        let mut arena = Arena::new();
        let mut v = arena.take(100, 1.5);
        assert_eq!(v, vec![1.5; 100]);
        v[0] = 42.0;
        arena.give(v);
        // Reused buffer must be indistinguishable from a fresh one.
        let v2 = arena.take(64, 0.0);
        assert_eq!(v2, vec![0.0; 64]);
        let v3 = arena.take(200, -1.0);
        assert_eq!(v3, vec![-1.0; 200]);
    }

    #[test]
    fn take_copy_matches_to_vec() {
        let mut arena = Arena::new();
        let src: Vec<f64> = (0..50).map(|i| i as f64).collect();
        arena.give(vec![9.0; 1000]);
        let v = arena.take_copy(&src);
        assert_eq!(v, src);
    }

    #[test]
    fn pool_is_bounded() {
        let mut arena = Arena::new();
        for _ in 0..100 {
            arena.give(vec![0.0; 8]);
        }
        assert!(arena.pooled() <= 16);
    }

    #[test]
    fn buffers_round_trip() {
        let mut arena = Arena::new();
        let a = arena.take(10, 0.0);
        let b = arena.take(10, 0.0);
        arena.give(a);
        arena.give(b);
        assert_eq!(arena.pooled(), 2);
        let _ = arena.take(5, 0.0);
        assert_eq!(arena.pooled(), 1);
    }
}
