//! The persistent worker pool: the one threaded backend. Workers are
//! created once and reused for every parallel region, as in the runtimes
//! behind the threaded models of Figure 2 (OpenMP, Kokkos over OpenMP, TBB
//! and std::par over TBB), none of which spawns threads per region.
//!
//! Dispatch and sleep follow the Mutex/Condvar handshake from *Rust Atomics
//! and Locks* (Bos, 2023). The calling thread works the first chunk itself,
//! so a one-worker pool spawns no thread and runs every chunk inline.
//!
//! Parallel regions are allocation-free: chunk boundaries come from
//! [`chunk_range`] arithmetic instead of a materialized `Vec<Range>`.

use parking_lot::{Condvar, Mutex};
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::backend::{chunk_range, Backend};

/// The closure type broadcast to workers: `f(worker_index, n_workers)`.
type TaskRef = *const (dyn Fn(usize, usize) + Sync);

/// A `TaskRef` with the lifetime erased so it can sit in shared state.
/// Safety: `PoolBackend::run` guarantees the pointee outlives every
/// dereference (it blocks until all workers signal completion).
#[derive(Clone, Copy)]
struct ErasedTask(TaskRef);
unsafe impl Send for ErasedTask {}
unsafe impl Sync for ErasedTask {}

struct Shared {
    /// Current task and its epoch; epoch bumps signal new work.
    slot: Mutex<(u64, Option<ErasedTask>)>,
    dispatch_cv: Condvar,
    /// Workers still running the current task.
    remaining: AtomicUsize,
    /// Set when a worker's chunk of the current task panicked.
    panicked: AtomicBool,
    done_lock: Mutex<()>,
    done_cv: Condvar,
    shutdown: AtomicBool,
}

/// Persistent worker-pool backend.
pub struct PoolBackend {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// Total workers including the calling thread.
    workers: usize,
    /// Held across a region, so callers sharing one pool take turns.
    /// Regions do not nest.
    turn: Mutex<()>,
}

impl PoolBackend {
    /// A pool using `workers` total workers (the calling thread counts as
    /// one, so `workers - 1` OS threads are spawned).
    pub fn new(workers: usize) -> PoolBackend {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            slot: Mutex::new((0, None)),
            dispatch_cv: Condvar::new(),
            remaining: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            done_lock: Mutex::new(()),
            done_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let mut handles = Vec::new();
        for worker_id in 1..workers {
            let shared = Arc::clone(&shared);
            handles.push(std::thread::spawn(move || {
                worker_loop(shared, worker_id, workers)
            }));
        }
        PoolBackend {
            shared,
            handles,
            workers,
            turn: Mutex::new(()),
        }
    }

    /// Broadcast `f` to all workers and wait for completion. Callers run
    /// one-chunk regions inline, so this only runs with spawned workers.
    fn run(&self, f: &(dyn Fn(usize, usize) + Sync)) {
        // SAFETY: we erase the borrow's lifetime, but do not return until
        // `remaining` hits zero, i.e. no worker holds the pointer anymore.
        let erased = ErasedTask(unsafe {
            std::mem::transmute::<
                &(dyn Fn(usize, usize) + Sync),
                &'static (dyn Fn(usize, usize) + Sync),
            >(f) as TaskRef
        });
        self.shared.panicked.store(false, Ordering::Relaxed);
        self.shared
            .remaining
            .store(self.workers - 1, Ordering::Release);
        {
            let mut slot = self.shared.slot.lock();
            *slot = (slot.0 + 1, Some(erased));
            self.shared.dispatch_cv.notify_all();
        }
        // The calling thread is worker 0. A panic in its chunk waits for
        // the others, which still borrow `f`.
        let mine = catch_unwind(AssertUnwindSafe(|| f(0, self.workers)));
        let mut guard = self.shared.done_lock.lock();
        while self.shared.remaining.load(Ordering::Acquire) != 0 {
            self.shared.done_cv.wait(&mut guard);
        }
        drop(guard);
        if let Err(payload) = mine {
            resume_unwind(payload);
        }
        assert!(
            !self.shared.panicked.load(Ordering::Acquire),
            "kernel worker panicked"
        );
    }
}

fn worker_loop(shared: Arc<Shared>, worker_id: usize, workers: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let task = {
            let mut slot = shared.slot.lock();
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                let (epoch, task) = *slot;
                if epoch != seen_epoch {
                    seen_epoch = epoch;
                    break task.expect("epoch bumped with no task");
                }
                shared.dispatch_cv.wait(&mut slot);
            }
        };
        // SAFETY: the dispatcher blocks in `run` until we decrement
        // `remaining`, so the closure is alive for this call.
        if catch_unwind(AssertUnwindSafe(|| unsafe {
            (*task.0)(worker_id, workers)
        }))
        .is_err()
        {
            shared.panicked.store(true, Ordering::Release);
        }
        if shared.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = shared.done_lock.lock();
            shared.done_cv.notify_one();
        }
    }
}

impl Drop for PoolBackend {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _slot = self.shared.slot.lock();
            self.shared.dispatch_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Backend for PoolBackend {
    fn workers(&self) -> usize {
        self.workers
    }

    fn par_for(&self, n: usize, body: &(dyn Fn(Range<usize>) + Sync)) {
        if n == 0 {
            return;
        }
        let pieces = n.min(self.workers);
        if pieces == 1 {
            body(0..n);
            return;
        }
        let _turn = self.turn.lock();
        self.run(&|worker, _| {
            if let Some(r) = chunk_range(n, pieces, worker) {
                body(r);
            }
        });
    }

    fn label(&self) -> &'static str {
        "pool"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn pool_reuses_workers_across_regions() {
        let pool = PoolBackend::new(4);
        let total = AtomicUsize::new(0);
        for _ in 0..100 {
            pool.par_for(1000, &|r| {
                total.fetch_add(r.len(), Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 100_000);
    }

    #[test]
    fn single_worker_pool_is_serial() {
        // The path of every native survey cell that `--jobs` leaves one
        // kernel thread: no thread is spawned and every region runs on the
        // caller.
        let pool = PoolBackend::new(1);
        assert!(
            pool.handles.is_empty(),
            "a one-worker pool spawned a thread"
        );
        let caller = std::thread::current().id();
        let seen = std::sync::Mutex::new(Vec::new());
        let on_caller = |r: Range<usize>| {
            assert_eq!(std::thread::current().id(), caller);
            seen.lock().unwrap().push(r);
        };
        pool.par_for(10, &on_caller);
        assert_eq!(seen.into_inner().unwrap(), vec![0..10]);
    }

    #[test]
    fn a_panicking_chunk_reaches_the_caller_and_the_pool_survives() {
        let pool = PoolBackend::new(3);
        // Chunk 0 runs on the caller, chunk 2 on a spawned worker.
        for bad in [0..1, 2..3] {
            let hit = catch_unwind(AssertUnwindSafe(|| {
                pool.par_for(3, &|r| assert!(r != bad, "chunk {r:?} fails"));
            }));
            assert!(hit.is_err(), "the panic in chunk {bad:?} was lost");
            let total = AtomicUsize::new(0);
            pool.par_for(300, &|r| {
                total.fetch_add(r.len(), Ordering::Relaxed);
            });
            assert_eq!(total.load(Ordering::Relaxed), 300);
        }
    }

    #[test]
    fn callers_sharing_a_pool_take_turns() {
        let pool = PoolBackend::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..200 {
                        let total = AtomicUsize::new(0);
                        pool.par_for(4_000, &|r| {
                            total.fetch_add(r.len(), Ordering::Relaxed);
                        });
                        assert_eq!(total.load(Ordering::Relaxed), 4_000);
                    }
                });
            }
        });
    }

    #[test]
    fn drop_joins_cleanly() {
        for _ in 0..20 {
            let pool = PoolBackend::new(4);
            pool.par_for(100, &|_| {});
            drop(pool); // must not hang or leak
        }
    }
}
