//! The per-rank communicator.

use crossbeam::channel::{Receiver, Sender};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::{Arc, Barrier};

/// A tagged message of doubles (the payload type every benchmark uses).
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    pub source: usize,
    pub tag: u32,
    pub data: Vec<f64>,
}

/// Shared collective state.
pub(crate) struct Collectives {
    pub barrier: Barrier,
    /// One slot per rank for reduction/broadcast staging.
    pub slots: Vec<Mutex<Vec<f64>>>,
}

/// The communicator handed to each rank's closure.
pub struct Comm {
    rank: usize,
    size: usize,
    /// `senders[d]` delivers to rank `d`'s inbox.
    senders: Vec<Sender<Message>>,
    /// This rank's inbox.
    inbox: Receiver<Message>,
    /// Messages received but not yet asked for (tag/source mismatch).
    stash: VecDeque<Message>,
    collectives: Arc<Collectives>,
}

impl Comm {
    pub(crate) fn new(
        rank: usize,
        size: usize,
        senders: Vec<Sender<Message>>,
        inbox: Receiver<Message>,
        collectives: Arc<Collectives>,
    ) -> Comm {
        Comm {
            rank,
            size,
            senders,
            inbox,
            stash: VecDeque::new(),
            collectives,
        }
    }

    /// This rank's index, `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Asynchronous (buffered) send to `dest` with `tag`.
    pub fn send(&self, dest: usize, tag: u32, data: Vec<f64>) {
        assert!(dest < self.size, "send to rank {dest} of {}", self.size);
        self.senders[dest]
            .send(Message {
                source: self.rank,
                tag,
                data,
            })
            .expect("receiving rank has exited the world");
    }

    /// Blocking receive of the next message from `source` with `tag`
    /// (non-overtaking per (source, tag) stream).
    pub fn recv(&mut self, source: usize, tag: u32) -> Vec<f64> {
        // Check the stash first.
        if let Some(pos) = self
            .stash
            .iter()
            .position(|m| m.source == source && m.tag == tag)
        {
            return self.stash.remove(pos).expect("position valid").data;
        }
        loop {
            let msg = self.inbox.recv().expect("world torn down during recv");
            if msg.source == source && msg.tag == tag {
                return msg.data;
            }
            self.stash.push_back(msg);
        }
    }

    /// Synchronize all ranks.
    pub(crate) fn barrier(&self) {
        self.collectives.barrier.wait();
    }

    /// Sum a scalar across all ranks; every rank gets the total.
    pub fn allreduce_sum(&self, value: f64) -> f64 {
        self.allreduce_vec(vec![value], |acc, v| acc[0] += v[0])[0]
    }

    /// Element-wise vector all-reduce with a custom combiner.
    pub(crate) fn allreduce_vec(
        &self,
        value: Vec<f64>,
        combine: impl Fn(&mut Vec<f64>, &Vec<f64>),
    ) -> Vec<f64> {
        // Stage every rank's contribution, synchronize, reduce locally.
        // (Deterministic: reduction order is rank order on every rank.)
        *self.collectives.slots[self.rank].lock() = value;
        self.barrier();
        let mut acc = self.collectives.slots[0].lock().clone();
        for r in 1..self.size {
            let v = self.collectives.slots[r].lock().clone();
            combine(&mut acc, &v);
        }
        // Second barrier: no rank may restage before everyone has read.
        self.barrier();
        acc
    }

    /// Broadcast `data` from `root` to every rank (non-roots pass anything).
    pub fn broadcast(&self, root: usize, data: Vec<f64>) -> Vec<f64> {
        assert!(root < self.size);
        if self.rank == root {
            *self.collectives.slots[root].lock() = data;
        }
        self.barrier();
        let out = self.collectives.slots[root].lock().clone();
        self.barrier();
        out
    }

    /// Gather each rank's vector at `root` (concatenated in rank order);
    /// other ranks receive an empty vector.
    pub fn gather(&self, root: usize, data: Vec<f64>) -> Vec<f64> {
        *self.collectives.slots[self.rank].lock() = data;
        self.barrier();
        let out = if self.rank == root {
            let mut all = Vec::new();
            for r in 0..self.size {
                all.extend(self.collectives.slots[r].lock().iter().copied());
            }
            all
        } else {
            Vec::new()
        };
        self.barrier();
        out
    }
}
