//! Processor descriptions: topology, caches, memory, and throughput.

/// CPU or accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcessorKind {
    Cpu,
    Gpu,
}

/// One level of the cache hierarchy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheLevel {
    /// 1, 2, 3, ...
    pub level: u8,
    /// Total capacity across the whole processor (all sockets), in bytes.
    pub total_bytes: u64,
    /// Sustained bandwidth out of this level, GB/s (whole processor).
    pub bandwidth_gbs: f64,
}

/// A processor (or accelerator) model.
///
/// All bandwidth figures are for the full node-level processor complex
/// (both sockets for dual-socket CPUs).
#[derive(Debug, Clone, PartialEq)]
pub struct Processor {
    vendor: String,
    model: String,
    kind: ProcessorKind,
    sockets: u32,
    /// Physical cores per socket (CUDA SMs for GPUs).
    cores_per_socket: u32,
    clock_ghz: f64,
    caches: Vec<CacheLevel>,
    /// Theoretical peak memory bandwidth, GB/s (Table 1 values).
    peak_mem_bw_gbs: f64,
    /// Fraction of peak achievable by a perfectly tuned streaming kernel.
    stream_efficiency: f64,
    /// Achievable bandwidth of a single core, GB/s.
    per_core_bw_gbs: f64,
    /// Double-precision FLOPs per core per cycle (vector FMA throughput).
    flops_per_cycle: f64,
    /// Fixed cost to launch a parallel region / device kernel, seconds.
    launch_overhead_s: f64,
}

impl Processor {
    /// Builder entry point.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        vendor: &str,
        model: &str,
        kind: ProcessorKind,
        sockets: u32,
        cores_per_socket: u32,
        clock_ghz: f64,
        peak_mem_bw_gbs: f64,
        stream_efficiency: f64,
        per_core_bw_gbs: f64,
        flops_per_cycle: f64,
        launch_overhead_s: f64,
        caches: Vec<CacheLevel>,
    ) -> Processor {
        assert!(
            sockets > 0 && cores_per_socket > 0,
            "topology must be non-empty"
        );
        assert!(
            (0.0..1.0).contains(&stream_efficiency) && stream_efficiency > 0.0,
            "stream efficiency must be in (0, 1)"
        );
        Processor {
            vendor: vendor.to_string(),
            model: model.to_string(),
            kind,
            sockets,
            cores_per_socket,
            clock_ghz,
            caches,
            peak_mem_bw_gbs,
            stream_efficiency,
            per_core_bw_gbs,
            flops_per_cycle,
            launch_overhead_s,
        }
    }

    pub fn vendor(&self) -> &str {
        &self.vendor
    }

    pub fn model(&self) -> &str {
        &self.model
    }

    pub fn kind(&self) -> ProcessorKind {
        self.kind
    }

    pub fn is_gpu(&self) -> bool {
        self.kind == ProcessorKind::Gpu
    }

    pub fn sockets(&self) -> u32 {
        self.sockets
    }

    pub fn cores_per_socket(&self) -> u32 {
        self.cores_per_socket
    }

    /// Total cores (or SMs) across all sockets.
    pub fn total_cores(&self) -> u32 {
        self.sockets * self.cores_per_socket
    }

    pub fn clock_ghz(&self) -> f64 {
        self.clock_ghz
    }

    pub fn caches(&self) -> &[CacheLevel] {
        &self.caches
    }

    /// Capacity of the last-level cache, bytes (0 if none modelled).
    pub fn llc_bytes(&self) -> u64 {
        self.caches.iter().map(|c| c.total_bytes).max().unwrap_or(0)
    }

    /// Bandwidth of the last-level cache, GB/s.
    pub fn llc_bandwidth_gbs(&self) -> f64 {
        self.caches
            .iter()
            .max_by_key(|c| c.level)
            .map(|c| c.bandwidth_gbs)
            .unwrap_or(self.peak_mem_bw_gbs)
    }

    /// Theoretical peak memory bandwidth (Table 1), GB/s.
    pub fn peak_mem_bw_gbs(&self) -> f64 {
        self.peak_mem_bw_gbs
    }

    /// Sustained streaming bandwidth for perfectly tuned code, GB/s.
    pub(crate) fn sustained_mem_bw_gbs(&self) -> f64 {
        self.peak_mem_bw_gbs * self.stream_efficiency
    }

    /// Theoretical peak double-precision GFLOP/s for the whole processor.
    pub(crate) fn peak_gflops(&self) -> f64 {
        self.total_cores() as f64 * self.clock_ghz * self.flops_per_cycle
    }

    /// Fixed parallel-region / kernel-launch overhead, seconds.
    pub(crate) fn launch_overhead_s(&self) -> f64 {
        self.launch_overhead_s
    }

    /// Effective memory bandwidth when `threads` workers stream a working
    /// set of `working_set` bytes, GB/s.
    ///
    /// Three regimes compose:
    /// 1. the single-core limit (`threads * per_core_bw`),
    /// 2. the saturated sustained bandwidth of the memory system,
    /// 3. the last-level cache, when the working set fits.
    pub fn effective_bandwidth_gbs(&self, threads: u32, working_set: u64) -> f64 {
        let threads = threads.clamp(1, self.total_cores()) as f64;
        let scaling = (threads * self.per_core_bw_gbs).min(self.sustained_mem_bw_gbs());
        if working_set > 0 && working_set <= self.llc_bytes() {
            // Cache-resident: bandwidth follows the LLC, which also scales
            // with participating cores but saturates higher.
            let cache_limit = (threads * self.per_core_bw_gbs * 2.0).min(self.llc_bandwidth_gbs());
            cache_limit.max(scaling)
        } else {
            scaling
        }
    }

    /// Effective GFLOP/s with `threads` workers and a model-efficiency
    /// multiplier in (0, 1].
    pub(crate) fn effective_gflops(&self, threads: u32, model_eff: f64) -> f64 {
        let threads = threads.clamp(1, self.total_cores()) as f64;
        let frac = threads / self.total_cores() as f64;
        self.peak_gflops() * frac * model_eff.clamp(0.01, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu() -> Processor {
        Processor::new(
            "TestCo",
            "T1000",
            ProcessorKind::Cpu,
            2,
            16,
            2.0,
            200.0,
            0.8,
            12.0,
            16.0,
            2e-6,
            vec![CacheLevel {
                level: 3,
                total_bytes: 64 << 20,
                bandwidth_gbs: 800.0,
            }],
        )
    }

    #[test]
    fn topology_arithmetic() {
        let p = cpu();
        assert_eq!(p.total_cores(), 32);
        assert_eq!(p.peak_gflops(), 32.0 * 2.0 * 16.0);
        assert_eq!(p.llc_bytes(), 64 << 20);
    }

    #[test]
    fn bandwidth_regimes() {
        let p = cpu();
        // One thread: limited by per-core bandwidth.
        assert_eq!(p.effective_bandwidth_gbs(1, u64::MAX), 12.0);
        // Full machine: limited by sustained bandwidth.
        assert_eq!(p.effective_bandwidth_gbs(32, u64::MAX), 160.0);
        // Cache-resident: faster than DRAM.
        assert!(p.effective_bandwidth_gbs(32, 1 << 20) > 160.0);
        // Requesting more threads than cores clamps.
        assert_eq!(p.effective_bandwidth_gbs(999, u64::MAX), 160.0);
    }

    #[test]
    #[should_panic(expected = "stream efficiency")]
    fn invalid_efficiency_panics() {
        Processor::new(
            "x",
            "y",
            ProcessorKind::Cpu,
            1,
            1,
            1.0,
            10.0,
            1.5,
            1.0,
            1.0,
            0.0,
            vec![],
        );
    }
}
