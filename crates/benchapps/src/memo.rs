//! The study-scoped solve memo: one host solve per distinct problem.
//!
//! On a simulated platform the host solve only checks numerics, and its
//! inputs (the capped problem and the iteration cap) never depend on the
//! partition. A [`SolveMemo`] keyed by exactly those inputs
//! lets every cell of a study that poses the same problem share one solve.
//! Each key owns one [`OnceLock`], so concurrent cells asking for the same
//! key wait for the single in-flight solve instead of starting their own.
//! Failed validations are memoised like successes: every cell sharing the
//! key sees the same [`BenchError::ValidationFailed`].

use crate::hpcg::HpcgOperator;
use crate::BenchError;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Every input that reaches one app's host computation in simulated mode,
/// read at the call site after the size and iteration caps are applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolveKey {
    Hpcg {
        /// `HpcgVariant::operator`: variants building the same operator
        /// pose the same problem.
        operator: HpcgOperator,
        /// `min(local_dim, 16)`.
        dim: usize,
        /// `min(iterations, 60)`.
        iterations: usize,
    },
    Hpgmg {
        /// Box edge, `2^min(log2_box_dim, 5)`.
        n: usize,
    },
    BabelStream {
        /// `min(array_size, SIM_EXECUTION_CAP)`.
        n: usize,
        /// `min(reps, 3)`.
        reps: usize,
    },
    Stream {
        /// `min(array_size, SIM_EXECUTION_CAP)`.
        n: usize,
        /// `min(reps, 2)`.
        reps: usize,
    },
}

/// What a solve leaves behind for the partition-dependent render.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Solution {
    /// CG iterations run and the final relative residual.
    Hpcg { iterations: usize, residual: f64 },
    /// Initial and final residual norms and the V-cycles used.
    Hpgmg { r0: f64, r: f64, cycles: usize },
    /// The bandwidth kernels validated (their host times are not kept).
    Validated,
}

type Slot = Arc<OnceLock<Result<Solution, BenchError>>>;

/// One solve outcome per [`SolveKey`], shared by every cell of a study.
#[derive(Debug, Default)]
pub struct SolveMemo {
    slots: Mutex<HashMap<SolveKey, Slot>>,
}

impl SolveMemo {
    pub fn new() -> SolveMemo {
        SolveMemo::default()
    }

    /// The outcome for `key`, running `solve` only if no caller has run
    /// it yet. A caller arriving while the key's solve is in flight blocks
    /// until it finishes and then shares its outcome.
    pub fn solve(
        &self,
        key: SolveKey,
        solve: impl FnOnce() -> Result<Solution, BenchError>,
    ) -> Result<Solution, BenchError> {
        // The map lock covers only the slot lookup; the solve itself runs
        // under the key's own `OnceLock`, so distinct keys solve in parallel.
        let slot = Arc::clone(
            self.slots
                .lock()
                .expect("solve memo poisoned")
                .entry(key)
                .or_default(),
        );
        slot.get_or_init(solve).clone()
    }

    /// The keys solved (or being solved) so far, in no particular order.
    pub fn keys(&self) -> Vec<SolveKey> {
        self.slots
            .lock()
            .expect("solve memo poisoned")
            .keys()
            .copied()
            .collect()
    }
}

/// Run `solve` through `memo` when there is one, directly otherwise.
pub(crate) fn solve_with(
    memo: Option<&SolveMemo>,
    key: SolveKey,
    solve: impl FnOnce() -> Result<Solution, BenchError>,
) -> Result<Solution, BenchError> {
    match memo {
        Some(memo) => memo.solve(key, solve),
        None => solve(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    const KEY: SolveKey = SolveKey::Hpgmg { n: 32 };

    #[test]
    fn concurrent_callers_on_one_key_run_the_solve_once() {
        let memo = SolveMemo::new();
        let runs = AtomicUsize::new(0);
        let start = Barrier::new(8);
        let outcomes: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        memo.solve(KEY, || {
                            runs.fetch_add(1, Ordering::SeqCst);
                            // Hold the solve open so the other callers
                            // arrive while it is in flight.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Ok(Solution::Hpgmg {
                                r0: 1.0,
                                r: 1e-9,
                                cycles: 7,
                            })
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("caller panicked"))
                .collect()
        });
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        for outcome in outcomes {
            assert_eq!(
                outcome,
                Ok(Solution::Hpgmg {
                    r0: 1.0,
                    r: 1e-9,
                    cycles: 7
                })
            );
        }
        assert_eq!(memo.keys(), vec![KEY]);
    }

    #[test]
    fn a_failed_validation_is_solved_once_and_shared() {
        let memo = SolveMemo::new();
        let runs = AtomicUsize::new(0);
        let failing = || {
            runs.fetch_add(1, Ordering::SeqCst);
            Err(BenchError::ValidationFailed("triad mismatch".into()))
        };
        let first = memo.solve(KEY, failing);
        let second = memo.solve(KEY, || unreachable!("the failure is memoised"));
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        assert_eq!(
            first,
            Err(BenchError::ValidationFailed("triad mismatch".into()))
        );
        assert_eq!(first, second);
    }

    #[test]
    fn distinct_keys_solve_separately_and_no_memo_always_solves() {
        let memo = SolveMemo::new();
        let other = SolveKey::Hpgmg { n: 16 };
        memo.solve(KEY, || Ok(Solution::Validated)).unwrap();
        let got = memo.solve(other, || Err(BenchError::ValidationFailed("x".into())));
        assert!(got.is_err());
        assert_eq!(memo.keys().len(), 2);
        let runs = AtomicUsize::new(0);
        for _ in 0..3 {
            solve_with(None, KEY, || {
                runs.fetch_add(1, Ordering::SeqCst);
                Ok(Solution::Validated)
            })
            .unwrap();
        }
        assert_eq!(runs.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn bandwidth_keys_ignore_the_thread_worker_cap() {
        // A simulated validation runs on the serial reference, so its key
        // reads no thread-local state: two threads with different kernel
        // worker caps pose the same problems.
        let keys_at = |cap| {
            std::thread::spawn(move || {
                parkern::set_worker_cap(cap);
                (
                    crate::babelstream::solve_key(&Default::default()),
                    crate::stream::solve_key(&Default::default()),
                )
            })
            .join()
            .expect("key thread panicked")
        };
        assert_eq!(keys_at(1), keys_at(4));
    }
}
