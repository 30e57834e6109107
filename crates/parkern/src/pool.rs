//! A persistent worker pool with a hand-built spin barrier — the
//! "OpenMP-style" backend: workers are created once and reused for every
//! parallel region, which is what makes OpenMP's region overhead low and is
//! the behaviour the platform cost model assumes for the `omp` rows of
//! Figure 2.
//!
//! The synchronization primitives follow the patterns from *Rust Atomics
//! and Locks* (Bos, 2023): a generation-counted spin barrier on atomics,
//! and a Mutex/Condvar handshake for task dispatch and sleep.
//!
//! Parallel regions are allocation-free: chunk boundaries come from
//! [`chunk_range`] arithmetic instead of a materialized `Vec<Range>`, and
//! reductions write into a cache-line-padded partials array allocated once
//! at pool construction and reused by every `par_reduce_sum` call.

use parking_lot::{Condvar, Mutex};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::backend::{chunk_range, grained_pieces, Backend};

/// A reusable spin barrier: `total` participants rendezvous; the last one
/// to arrive flips the generation and releases the rest.
#[derive(Debug)]
pub struct SpinBarrier {
    count: AtomicUsize,
    generation: AtomicUsize,
    total: usize,
}

impl SpinBarrier {
    pub fn new(total: usize) -> SpinBarrier {
        assert!(total > 0, "a barrier needs at least one participant");
        SpinBarrier {
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            total,
        }
    }

    /// Block (spinning) until all participants have arrived.
    pub fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            // Last arrival: reset and release this generation.
            self.count.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
        } else {
            while self.generation.load(Ordering::Acquire) == gen {
                std::hint::spin_loop();
            }
        }
    }
}

/// One cache line per slot so workers publishing partial sums never bounce
/// a shared line between cores.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedSlot(AtomicU64);

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
    done_lock: Mutex<()>,
    done_cv: Condvar,
    shutdown: AtomicBool,
    epoch: AtomicU64,
}

/// Persistent worker-pool backend.
pub struct PoolBackend {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// Total workers including the calling thread.
    workers: usize,
    /// Reduction scratch, one padded slot per worker, allocated once.
    partials: Box<[PaddedSlot]>,
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
            done_lock: Mutex::new(()),
            done_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            epoch: AtomicU64::new(0),
        });
        let mut handles = Vec::new();
        for worker_id in 1..workers {
            let shared = Arc::clone(&shared);
            handles.push(std::thread::spawn(move || {
                worker_loop(shared, worker_id, workers)
            }));
        }
        let partials = (0..workers).map(|_| PaddedSlot::default()).collect();
        PoolBackend {
            shared,
            handles,
            workers,
            partials,
        }
    }

    /// Broadcast `f` to all workers and wait for completion.
    fn run(&self, f: &(dyn Fn(usize, usize) + Sync)) {
        if self.workers == 1 {
            f(0, 1);
            return;
        }
        // SAFETY: we erase the borrow's lifetime, but do not return until
        // `remaining` hits zero, i.e. no worker holds the pointer anymore.
        let erased = ErasedTask(unsafe {
            std::mem::transmute::<
                &(dyn Fn(usize, usize) + Sync),
                &'static (dyn Fn(usize, usize) + Sync),
            >(f) as TaskRef
        });
        self.shared
            .remaining
            .store(self.workers - 1, Ordering::Release);
        {
            let mut slot = self.shared.slot.lock();
            let epoch = self.shared.epoch.fetch_add(1, Ordering::AcqRel) + 1;
            *slot = (epoch, Some(erased));
            self.shared.dispatch_cv.notify_all();
        }
        // The calling thread is worker 0.
        f(0, self.workers);
        // Wait for the others.
        let mut guard = self.shared.done_lock.lock();
        while self.shared.remaining.load(Ordering::Acquire) != 0 {
            self.shared.done_cv.wait(&mut guard);
        }
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
        unsafe { (*task.0)(worker_id, workers) };
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
        self.par_for_grained(n, 1, body);
    }

    fn par_for_grained(&self, n: usize, grain: usize, body: &(dyn Fn(Range<usize>) + Sync)) {
        if n == 0 {
            return;
        }
        let pieces = grained_pieces(n, grain, self.workers);
        if pieces <= 1 {
            body(0..n);
            return;
        }
        self.run(&|worker, _| {
            if let Some(r) = chunk_range(n, pieces, worker) {
                body(r);
            }
        });
    }

    fn par_reduce_sum(&self, n: usize, body: &(dyn Fn(Range<usize>) -> f64 + Sync)) -> f64 {
        if n == 0 {
            return 0.0;
        }
        let pieces = self.workers.min(n);
        if pieces <= 1 {
            return body(0..n);
        }
        // Every worker < pieces overwrites its slot, and only those slots
        // are read back, so no reset pass is needed between calls.
        self.run(&|worker, _| {
            if let Some(r) = chunk_range(n, pieces, worker) {
                let v = body(r);
                self.partials[worker]
                    .0
                    .store(v.to_bits(), Ordering::Release);
            }
        });
        self.partials[..pieces]
            .iter()
            .map(|slot| f64::from_bits(slot.0.load(Ordering::Acquire)))
            .sum()
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
    fn barrier_synchronizes_phases() {
        let n = 4;
        let barrier = SpinBarrier::new(n);
        let phase = AtomicUsize::new(0);
        let errors = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..n {
                s.spawn(|| {
                    for p in 0..50 {
                        // Everyone must observe the same phase before the
                        // barrier releases anyone into the next one.
                        if phase.load(Ordering::SeqCst) > p {
                            errors.fetch_add(1, Ordering::SeqCst);
                        }
                        barrier.wait();
                        // One designated incrementer per phase (whichever
                        // thread wins the exchange).
                        let _ =
                            phase.compare_exchange(p, p + 1, Ordering::SeqCst, Ordering::SeqCst);
                        barrier.wait();
                    }
                });
            }
        });
        assert_eq!(errors.load(Ordering::SeqCst), 0);
        assert_eq!(phase.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn barrier_single_participant_never_blocks() {
        let b = SpinBarrier::new(1);
        for _ in 0..10 {
            b.wait();
        }
    }

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
    fn pool_reduce_correct_repeatedly() {
        let pool = PoolBackend::new(3);
        let data: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
        for _ in 0..20 {
            let s = pool.par_reduce_sum(data.len(), &|r| r.map(|i| data[i]).sum());
            assert_eq!(s, (9999.0 * 10_000.0) / 2.0);
        }
    }

    #[test]
    fn pool_reduce_stale_slots_do_not_leak() {
        // A wide reduction followed by a narrow one must not re-read slots
        // written by the wide call.
        let pool = PoolBackend::new(4);
        let wide = pool.par_reduce_sum(4_000, &|r| r.len() as f64);
        assert_eq!(wide, 4_000.0);
        let narrow = pool.par_reduce_sum(2, &|r| r.len() as f64);
        assert_eq!(narrow, 2.0);
    }

    #[test]
    fn pool_grained_uses_fewer_chunks() {
        let pool = PoolBackend::new(4);
        let calls = AtomicUsize::new(0);
        let indices = AtomicUsize::new(0);
        pool.par_for_grained(1000, 600, &|r| {
            calls.fetch_add(1, Ordering::Relaxed);
            indices.fetch_add(r.len(), Ordering::Relaxed);
        });
        // ceil(1000/600) = 2 chunks despite 4 workers.
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        assert_eq!(indices.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn single_worker_pool_is_serial() {
        let pool = PoolBackend::new(1);
        let mut seen = Vec::new();
        let seen_ptr = std::sync::Mutex::new(&mut seen);
        pool.par_for(10, &|r| {
            seen_ptr.lock().unwrap().push(r);
        });
        assert_eq!(seen, vec![0..10]);
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
