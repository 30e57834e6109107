//! Kernel cost descriptors and the roofline-style time model.

/// The resource demands of one kernel invocation.
///
/// Benchmarks build these from their actual loop bounds; the platform model
/// turns them into simulated wall time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelCost {
    /// Bytes moved to/from the memory hierarchy (reads + writes).
    pub bytes: u64,
    /// Double-precision floating point operations.
    pub flops: u64,
    /// Bytes of the resident working set (decides cache residency).
    /// Defaults to `bytes` when built via the convenience constructors.
    pub working_set: u64,
    /// Number of synchronization points (barriers/reductions) in the kernel.
    pub sync_points: u32,
}

impl KernelCost {
    /// A pure streaming kernel (copy/scale/add/triad).
    pub fn streaming(bytes: u64) -> KernelCost {
        KernelCost {
            bytes,
            flops: bytes / 8,
            working_set: bytes,
            sync_points: 1,
        }
    }

    /// A compute + data kernel with explicit byte and flop counts.
    pub fn new(bytes: u64, flops: u64) -> KernelCost {
        KernelCost {
            bytes,
            flops,
            working_set: bytes,
            sync_points: 1,
        }
    }

    /// Override the resident working-set size.
    pub fn with_working_set(mut self, ws: u64) -> KernelCost {
        self.working_set = ws;
        self
    }

    /// Merge two phases executed back to back.
    pub fn then(self, other: KernelCost) -> KernelCost {
        KernelCost {
            bytes: self.bytes + other.bytes,
            flops: self.flops + other.flops,
            working_set: self.working_set.max(other.working_set),
            sync_points: self.sync_points + other.sync_points,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn then_accumulates() {
        let a = KernelCost::new(100, 10).with_working_set(500);
        let b = KernelCost::new(200, 30).with_working_set(300);
        let c = a.then(b);
        assert_eq!(c.bytes, 300);
        assert_eq!(c.flops, 40);
        assert_eq!(c.working_set, 500);
        assert_eq!(c.sync_points, 2);
    }
}
