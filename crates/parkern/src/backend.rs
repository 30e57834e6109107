//! The execution backend abstraction and its sequential reference.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::ops::Range;

thread_local! {
    /// This thread's worker count for [`default_workers`] (0 = unset).
    static WORKERS: Cell<usize> = const { Cell::new(0) };
}

/// Set this thread's worker count: [`default_workers`] on this thread then
/// returns exactly `n` (0 unsets it). The count is per thread, so suite
/// workers size their own cells and concurrent sweeps cannot clobber each
/// other's counts.
pub fn set_worker_cap(n: usize) {
    WORKERS.with(|w| w.set(n));
}

/// A data-parallel execution backend.
///
/// Kernels are expressed as chunked loops: the backend splits `0..n` into
/// contiguous chunks and runs the closure on each, possibly concurrently.
/// Closures borrow kernel data, so implementations must not let a chunk
/// outlive the call that dispatched it. [`SerialBackend`] is the reference;
/// [`crate::PoolBackend`] is the one threaded implementation.
pub trait Backend: Send + Sync {
    /// Number of workers this backend will use.
    fn workers(&self) -> usize;

    /// Run `body` over disjoint chunks covering `0..n`.
    fn par_for(&self, n: usize, body: &(dyn Fn(Range<usize>) + Sync));

    /// Run `body` over disjoint chunks covering `0..n`, with at least
    /// `grain` indices per chunk. Small iteration spaces therefore use
    /// fewer workers (possibly one), so per-chunk dispatch overhead never
    /// dominates tiny loops. `grain <= 1` behaves like [`Backend::par_for`].
    fn par_for_grained(&self, n: usize, grain: usize, body: &(dyn Fn(Range<usize>) + Sync));

    /// Sum the per-chunk partial results of `body` over `0..n`, adding the
    /// partials in chunk order.
    fn par_reduce_sum(&self, n: usize, body: &(dyn Fn(Range<usize>) -> f64 + Sync)) -> f64;

    /// Backend label for logs.
    fn label(&self) -> &'static str;
}

/// The `index`-th of `pieces` contiguous, balanced chunks covering `0..n`,
/// computed without allocating. `pieces` is clamped to `1..=n`; out-of-range
/// indices (and `n == 0`) yield `None`.
pub fn chunk_range(n: usize, pieces: usize, index: usize) -> Option<Range<usize>> {
    if n == 0 {
        return None;
    }
    let pieces = pieces.clamp(1, n);
    if index >= pieces {
        return None;
    }
    let base = n / pieces;
    let extra = n % pieces;
    let start = index * base + index.min(extra);
    let len = base + usize::from(index < extra);
    Some(start..start + len)
}

/// How many chunks a grained loop over `0..n` should use: enough to give
/// every chunk at least `grain` indices, capped at `workers`.
pub(crate) fn grained_pieces(n: usize, grain: usize, workers: usize) -> usize {
    let grain = grain.max(1);
    n.div_ceil(grain).clamp(1, workers.max(1))
}

/// Worker count to use when none is specified: this thread's count from
/// [`set_worker_cap`] if set, otherwise
/// [`std::thread::available_parallelism`].
pub fn default_workers() -> usize {
    match WORKERS.with(Cell::get) {
        0 => std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
        n => n,
    }
}

/// Sequential reference backend.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialBackend;

impl Backend for SerialBackend {
    fn workers(&self) -> usize {
        1
    }

    fn par_for(&self, n: usize, body: &(dyn Fn(Range<usize>) + Sync)) {
        if n > 0 {
            body(0..n);
        }
    }

    fn par_for_grained(&self, n: usize, _grain: usize, body: &(dyn Fn(Range<usize>) + Sync)) {
        self.par_for(n, body);
    }

    fn par_reduce_sum(&self, n: usize, body: &(dyn Fn(Range<usize>) -> f64 + Sync)) -> f64 {
        if n > 0 {
            body(0..n)
        } else {
            0.0
        }
    }

    fn label(&self) -> &'static str {
        "serial"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PoolBackend;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The serial reference plus the pool at 1, 2, 3 and 8 workers.
    fn backends() -> Vec<Box<dyn Backend>> {
        let mut all: Vec<Box<dyn Backend>> = vec![Box::new(SerialBackend)];
        for workers in [1, 2, 3, 8] {
            all.push(Box::new(PoolBackend::new(workers)));
        }
        all
    }

    #[test]
    fn chunks_cover_exactly() {
        for n in [0usize, 1, 7, 8, 100, 1023] {
            for p in [1usize, 2, 3, 8, 200] {
                let parts: Vec<_> = (0..p).map_while(|i| chunk_range(n, p, i)).collect();
                assert!(parts.len() <= p.min(n), "n={n} p={p}");
                assert_eq!(chunk_range(n, p, p), None);
                let total: usize = parts.iter().map(|r| r.len()).sum();
                assert_eq!(total, n, "n={n} p={p}");
                // Contiguous and ordered.
                let mut expect = 0;
                for r in &parts {
                    assert_eq!(r.start, expect);
                    expect = r.end;
                }
                // Balanced within 1.
                if !parts.is_empty() {
                    let min = parts.iter().map(|r| r.len()).min().unwrap();
                    let max = parts.iter().map(|r| r.len()).max().unwrap();
                    assert!(max - min <= 1);
                }
            }
        }
    }

    #[test]
    fn grained_pieces_respects_grain_and_cap() {
        assert_eq!(grained_pieces(1000, 1, 8), 8);
        assert_eq!(grained_pieces(1000, 500, 8), 2);
        assert_eq!(grained_pieces(1000, 1000, 8), 1);
        assert_eq!(grained_pieces(3, 1, 8), 3); // capped by chunk_range clamp anyway
        assert_eq!(grained_pieces(0, 1, 8), 1);
        // Every chunk meets the grain (except possibly when n < grain).
        for (n, grain, workers) in [(10_000, 256, 8), (777, 100, 4), (50, 64, 8)] {
            let pieces = grained_pieces(n, grain, workers);
            for i in 0..pieces {
                let r = chunk_range(n, pieces, i).unwrap();
                assert!(r.len() >= grain.min(n), "n={n} grain={grain}: {r:?}");
            }
        }
    }

    #[test]
    fn worker_count_is_exact_and_per_thread() {
        let machine = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        // Unset means the machine's parallelism.
        assert_eq!(default_workers(), machine);
        // A set count is exact in both directions: above the machine and
        // below it, never clamped.
        for n in [1, 3, 12, machine + 10] {
            set_worker_cap(n);
            assert_eq!(default_workers(), n);
        }
        // Another thread never sees this thread's count.
        std::thread::scope(|s| {
            s.spawn(|| assert_eq!(default_workers(), machine));
        });
        set_worker_cap(0);
        assert_eq!(default_workers(), machine);
    }

    #[test]
    fn worker_cap_round_trips() {
        // The count is per thread, so concurrent tests cannot see it.
        let machine = default_workers();
        set_worker_cap(3);
        assert_eq!(default_workers(), 3);
        set_worker_cap(0);
        assert_eq!(default_workers(), machine);
    }

    #[test]
    fn par_for_visits_every_index_once() {
        for b in backends() {
            let n = 10_000;
            let counters: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            b.par_for(n, &|r| {
                for i in r {
                    counters[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(
                counters.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                "backend {} missed or duplicated indices",
                b.label()
            );
        }
    }

    #[test]
    fn par_for_grained_visits_every_index_once() {
        for b in backends() {
            for (n, grain) in [(10_000, 256), (100, 1000), (9, 2), (1, 4)] {
                let counters: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                b.par_for_grained(n, grain, &|r| {
                    for i in r {
                        counters[i].fetch_add(1, Ordering::Relaxed);
                    }
                });
                assert!(
                    counters.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                    "backend {} n={n} grain={grain} missed or duplicated indices",
                    b.label()
                );
            }
        }
    }

    #[test]
    fn reduce_matches_serial() {
        let n = 100_000;
        let data: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let expect: f64 = data.iter().sum();
        for b in backends() {
            let got = b.par_reduce_sum(n, &|r| r.map(|i| data[i]).sum());
            assert!(
                (got - expect).abs() < 1e-6 * expect.abs().max(1.0),
                "backend {}: {got} != {expect}",
                b.label()
            );
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        for b in backends() {
            b.par_for(0, &|_| panic!("no work expected"));
            b.par_for_grained(0, 64, &|_| panic!("no work expected"));
            assert_eq!(b.par_reduce_sum(0, &|_| 1.0), 0.0);
            let mut hit = std::sync::atomic::AtomicUsize::new(0);
            b.par_for(1, &|r| {
                assert_eq!(r, 0..1);
                hit.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(*hit.get_mut(), 1);
        }
    }

    #[test]
    fn caller_participates_in_fork_join() {
        // The dispatching thread must run a chunk itself instead of idling:
        // with as many workers as chunks, one chunk lands on the caller.
        let caller = std::thread::current().id();
        for b in [PoolBackend::new(2), PoolBackend::new(4)] {
            let caller_chunks = AtomicUsize::new(0);
            b.par_for(4096, &|_| {
                if std::thread::current().id() == caller {
                    caller_chunks.fetch_add(1, Ordering::Relaxed);
                }
            });
            assert_eq!(
                caller_chunks.load(Ordering::Relaxed),
                1,
                "backend {} caller did not run exactly one chunk",
                b.label()
            );
            let caller_parts = AtomicUsize::new(0);
            b.par_reduce_sum(4096, &|r| {
                if std::thread::current().id() == caller {
                    caller_parts.fetch_add(1, Ordering::Relaxed);
                }
                r.len() as f64
            });
            assert_eq!(caller_parts.load(Ordering::Relaxed), 1, "{}", b.label());
        }
    }

    #[test]
    fn writes_through_disjoint_chunks() {
        // The canonical kernel pattern: write a slice in parallel through
        // raw chunk math (each index written exactly once).
        for b in backends() {
            let n = 4096;
            let mut out = vec![0.0f64; n];
            let ptr = SlicePtr(out.as_mut_ptr());
            b.par_for(n, &|r| {
                // Capture the whole wrapper (2021 closures capture fields
                // precisely, which would grab the bare `*mut f64`).
                let p = ptr;
                for i in r {
                    // SAFETY: chunks are disjoint; each index is written by
                    // exactly one worker.
                    unsafe { *p.0.add(i) = i as f64 * 2.0 };
                }
            });
            assert!(out.iter().enumerate().all(|(i, &v)| v == i as f64 * 2.0));
        }
    }

    #[derive(Clone, Copy)]
    struct SlicePtr(*mut f64);
    unsafe impl Send for SlicePtr {}
    unsafe impl Sync for SlicePtr {}
}
