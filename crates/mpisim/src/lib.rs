//! `mpisim` — an in-process message-passing runtime (the MPI substrate).
//!
//! The paper's benchmarks are MPI programs: HPCG runs "MPI only" on a
//! single node (Table 2), HPGMG-FV distributes boxes over ranks (Table 4),
//! and the run layouts are expressed as `num_tasks` / `num_tasks_per_node`.
//! This crate provides the message-passing substrate those codes are
//! written against: a *world* of ranks executed as threads, point-to-point
//! sends/receives with tag matching, and the collectives the benchmarks
//! need (barrier, broadcast, all-reduce, gather).
//!
//! Semantics follow MPI where it matters:
//!
//! * messages between a (source, destination) pair are non-overtaking per
//!   tag stream;
//! * `recv` blocks; out-of-order tags are stashed, not lost;
//! * collectives are synchronizing and must be called by every rank.
//!
//! # Example
//!
//! ```
//! // 4 ranks compute a distributed dot product.
//! let partials = mpisim::run(4, |comm| {
//!     let local: f64 = (0..10).map(|i| (comm.rank() * 10 + i) as f64).sum();
//!     comm.allreduce_sum(local)
//! });
//! let expect: f64 = (0..40).map(|i| i as f64).sum();
//! assert!(partials.iter().all(|&p| p == expect));
//! ```

mod comm;
mod world;

pub use comm::{Comm, Message};
pub use world::run;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_returns_per_rank_results() {
        let out = run(6, |c| c.rank() * 2);
        assert_eq!(out, vec![0, 2, 4, 6, 8, 10]);
    }

    #[test]
    fn single_rank_world() {
        let out = run(1, |c| {
            assert_eq!(c.size(), 1);
            c.barrier();
            c.allreduce_sum(5.0)
        });
        assert_eq!(out, vec![5.0]);
    }

    #[test]
    fn ring_pass() {
        // Each rank sends its rank to the right; receives from the left.
        let out = run(5, |c| {
            let right = (c.rank() + 1) % c.size();
            let left = (c.rank() + c.size() - 1) % c.size();
            c.send(right, 0, vec![c.rank() as f64]);
            let got = c.recv(left, 0);
            got[0] as usize
        });
        assert_eq!(out, vec![4, 0, 1, 2, 3]);
    }

    #[test]
    fn messages_non_overtaking_per_tag() {
        let out = run(2, |c| {
            if c.rank() == 0 {
                for i in 0..50 {
                    c.send(1, 7, vec![i as f64]);
                }
                0.0
            } else {
                let mut last = -1.0;
                for _ in 0..50 {
                    let m = c.recv(0, 7);
                    assert!(m[0] > last, "overtaking: {} after {last}", m[0]);
                    last = m[0];
                }
                last
            }
        });
        assert_eq!(out[1], 49.0);
    }

    #[test]
    fn out_of_order_tags_are_stashed() {
        let out = run(2, |c| {
            if c.rank() == 0 {
                c.send(1, 1, vec![1.0]);
                c.send(1, 2, vec![2.0]);
                0.0
            } else {
                // Receive tag 2 first even though tag 1 arrived first.
                let b = c.recv(0, 2);
                let a = c.recv(0, 1);
                b[0] * 10.0 + a[0]
            }
        });
        assert_eq!(out[1], 21.0);
    }

    #[test]
    fn allreduce_variants() {
        let sums = run(4, |c| c.allreduce_sum((c.rank() + 1) as f64));
        assert!(sums.iter().all(|&s| s == 10.0));
    }

    #[test]
    fn broadcast_from_root() {
        let out = run(5, |c| {
            let data = if c.rank() == 0 {
                vec![42.0, 7.0]
            } else {
                Vec::new()
            };
            c.broadcast(0, data)
        });
        for v in out {
            assert_eq!(v, vec![42.0, 7.0]);
        }
    }

    #[test]
    fn gather_to_root() {
        let out = run(4, |c| c.gather(0, vec![c.rank() as f64]));
        assert_eq!(out[0], vec![0.0, 1.0, 2.0, 3.0]);
        assert!(out[1].is_empty() && out[3].is_empty());
    }

    #[test]
    fn sendrecv_exchanges_without_deadlock() {
        // Every rank sends to its neighbour before receiving — the
        // classic halo pattern that deadlocks naive blocking sends.
        let out = run(8, |c| {
            let partner = c.rank() ^ 1; // pair 0-1, 2-3, ...
            c.send(partner, 3, vec![c.rank() as f64]);
            let got = c.recv(partner, 3);
            got[0] as usize
        });
        assert_eq!(out, vec![1, 0, 3, 2, 5, 4, 7, 6]);
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let before = Arc::new(AtomicUsize::new(0));
        let violations = Arc::new(AtomicUsize::new(0));
        let b2 = Arc::clone(&before);
        let v2 = Arc::clone(&violations);
        run(6, move |c| {
            b2.fetch_add(1, Ordering::SeqCst);
            c.barrier();
            if b2.load(Ordering::SeqCst) != 6 {
                v2.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert_eq!(violations.load(std::sync::atomic::Ordering::SeqCst), 0);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        run(0, |_| ());
    }
}
