//! Systems, partitions and the `Platform` cost model.
//!
//! The paper (after Pennycook et al.) defines a *platform* as the union of
//! hardware, system software, compilers and runtimes needed to run a
//! benchmark. Here a [`System`] holds the site-level configuration (name,
//! installed "external" packages, scheduler), each [`Partition`] holds one
//! processor + interconnect combination, and [`Platform`] is the object the
//! cost model hangs off.

use crate::perf::KernelCost;
use crate::processor::Processor;

/// Node-to-node interconnect characteristics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interconnect {
    /// Per-direction link bandwidth, GB/s.
    pub bandwidth_gbs: f64,
    /// One-way small-message latency, seconds.
    pub latency_s: f64,
}

impl Interconnect {
    /// Time to exchange `bytes` between two ranks.
    pub(crate) fn transfer_time(&self, bytes: u64) -> f64 {
        self.latency_s + bytes as f64 / (self.bandwidth_gbs * 1e9)
    }
}

/// A software package pre-installed on a system ("external" in Spack terms).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExternalPkg {
    pub name: String,
    pub version: String,
}

impl ExternalPkg {
    pub fn new(name: &str, version: &str) -> ExternalPkg {
        ExternalPkg {
            name: name.to_string(),
            version: version.to_string(),
        }
    }
}

/// Which batch scheduler fronts the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    Slurm,
    Pbs,
    /// Run directly on the local host (the `native` pseudo-system).
    Local,
}

/// One partition of a system: a homogeneous pool of nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    name: String,
    processor: Processor,
    nodes: u32,
    interconnect: Interconnect,
    /// Multiplier (0, 1] describing system-software quality for
    /// communication-heavy workloads: MPI stack, filesystem, topology.
    /// Calibrated from the paper's own cross-system measurements
    /// (Table 4 shows ~4x between two Cascade Lake systems).
    system_factor: f64,
    /// Programming environments (compiler specs) available here.
    environs: Vec<String>,
}

impl Partition {
    pub fn new(
        name: &str,
        processor: Processor,
        nodes: u32,
        interconnect: Interconnect,
        system_factor: f64,
        environs: Vec<String>,
    ) -> Partition {
        assert!((0.0..=1.0).contains(&system_factor) && system_factor > 0.0);
        Partition {
            name: name.to_string(),
            processor,
            nodes,
            interconnect,
            system_factor,
            environs,
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn processor(&self) -> &Processor {
        &self.processor
    }

    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    pub fn interconnect(&self) -> Interconnect {
        self.interconnect
    }

    pub fn system_factor(&self) -> f64 {
        self.system_factor
    }

    pub fn environs(&self) -> &[String] {
        &self.environs
    }

    /// The cost-model view of this partition.
    pub fn platform(&self) -> Platform<'_> {
        Platform { partition: self }
    }
}

/// A full system: a named site with partitions and installed packages.
#[derive(Debug, Clone, PartialEq)]
pub struct System {
    name: String,
    scheduler: SchedulerKind,
    partitions: Vec<Partition>,
    externals: Vec<ExternalPkg>,
}

impl System {
    pub fn new(
        name: &str,
        scheduler: SchedulerKind,
        partitions: Vec<Partition>,
        externals: Vec<ExternalPkg>,
    ) -> System {
        System {
            name: name.to_string(),
            scheduler,
            partitions,
            externals,
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn scheduler(&self) -> SchedulerKind {
        self.scheduler
    }

    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    pub fn partition(&self, name: &str) -> Option<&Partition> {
        self.partitions.iter().find(|p| p.name() == name)
    }

    /// The default (first) partition.
    pub fn default_partition(&self) -> &Partition {
        &self.partitions[0]
    }

    /// Packages pre-installed by the site (feed the concretizer).
    pub fn externals(&self) -> &[ExternalPkg] {
        &self.externals
    }

    /// Version of an external package, if installed.
    pub fn external_version(&self, name: &str) -> Option<&str> {
        self.externals
            .iter()
            .find(|e| e.name == name)
            .map(|e| e.version.as_str())
    }
}

/// The cost model for one partition.
#[derive(Debug, Clone, Copy)]
pub struct Platform<'a> {
    partition: &'a Partition,
}

impl Platform<'_> {
    pub fn partition(&self) -> &Partition {
        self.partition
    }

    pub fn processor(&self) -> &Processor {
        self.partition.processor()
    }

    /// Simulated wall time for one kernel on a single node.
    ///
    /// Roofline: the kernel takes the larger of its memory time and its
    /// compute time, plus fixed launch/synchronization overheads.
    /// `model_eff` in (0, 1] derates for programming-model overhead
    /// (abstraction layers, crippled backends); 1.0 is a perfectly tuned
    /// native implementation.
    pub fn kernel_time(&self, cost: &KernelCost, threads: u32, model_eff: f64) -> f64 {
        let p = self.partition.processor();
        let model_eff = model_eff.clamp(0.01, 1.0);
        let bw = p.effective_bandwidth_gbs(threads, cost.working_set) * model_eff;
        let mem_time = cost.bytes as f64 / (bw * 1e9);
        let gflops = p.effective_gflops(threads, model_eff);
        let cpu_time = cost.flops as f64 / (gflops * 1e9);
        let overhead = p.launch_overhead_s() * cost.sync_points.max(1) as f64;
        mem_time.max(cpu_time) + overhead
    }

    /// Simulated wall time for a distributed kernel over `ranks` MPI ranks
    /// spread across `nodes_used` nodes, each rank running `threads`
    /// threads. Communication adds a per-sync halo-exchange term derated by
    /// the partition's system factor.
    #[allow(clippy::too_many_arguments)]
    pub fn mpi_kernel_time(
        &self,
        cost: &KernelCost,
        ranks: u32,
        nodes_used: u32,
        threads: u32,
        model_eff: f64,
        halo_bytes_per_sync: u64,
    ) -> f64 {
        let ranks = ranks.max(1);
        let nodes_used = nodes_used.max(1);
        // Per-node share of the work.
        let ranks_per_node = ranks.div_ceil(nodes_used);
        let node_cost = KernelCost {
            bytes: cost.bytes / nodes_used as u64,
            flops: cost.flops / nodes_used as u64,
            working_set: cost.working_set / nodes_used as u64,
            sync_points: cost.sync_points,
        };
        let node_threads = (threads * ranks_per_node).min(self.processor().total_cores());
        let compute = self.kernel_time(&node_cost, node_threads, model_eff);
        let comm = if nodes_used > 1 || ranks > 1 {
            let per_sync = self
                .partition
                .interconnect()
                .transfer_time(halo_bytes_per_sync)
                * (ranks as f64).log2().max(1.0);
            cost.sync_points.max(1) as f64 * per_sync / self.partition.system_factor()
        } else {
            0.0
        };
        compute + comm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::processor::{CacheLevel, ProcessorKind};

    fn part() -> Partition {
        let p = Processor::new(
            "T",
            "cpu",
            ProcessorKind::Cpu,
            2,
            8,
            2.0,
            100.0,
            0.8,
            10.0,
            8.0,
            1e-6,
            vec![CacheLevel {
                level: 3,
                total_bytes: 32 << 20,
                bandwidth_gbs: 400.0,
            }],
        );
        Partition::new(
            "std",
            p,
            4,
            Interconnect {
                bandwidth_gbs: 10.0,
                latency_s: 1e-6,
            },
            0.9,
            vec!["gcc".into()],
        )
    }

    #[test]
    fn roofline_picks_the_binding_resource() {
        let part = part();
        let pl = part.platform();
        // Memory-bound: huge bytes, no flops.
        let mem = pl.kernel_time(&KernelCost::new(8_000_000_000, 0), 16, 1.0);
        assert!((mem - 8.0 / 80.0).abs() / mem < 0.05);
        // Compute-bound: no bytes, many flops.
        let cpu = pl.kernel_time(&KernelCost::new(0, 256_000_000_000), 16, 1.0);
        assert!((cpu - 1.0).abs() < 0.05, "peak 256 GF/s -> 1 s, got {cpu}");
    }

    #[test]
    fn model_eff_derates_proportionally() {
        let part = part();
        let pl = part.platform();
        let cost = KernelCost::streaming(1u64 << 30);
        let full = pl.kernel_time(&cost, 16, 1.0);
        let half = pl.kernel_time(&cost, 16, 0.5);
        assert!(half > 1.8 * full && half < 2.2 * full);
    }

    #[test]
    fn mpi_adds_communication() {
        let part = part();
        let pl = part.platform();
        let cost = KernelCost {
            sync_points: 10,
            ..KernelCost::streaming(1u64 << 30)
        };
        let single = pl.kernel_time(&cost, 16, 1.0);
        let multi = pl.mpi_kernel_time(&cost, 8, 4, 2, 1.0, 1 << 20);
        // Distributed run divides memory traffic 4 ways but pays comm.
        assert!(multi < single);
        let sync_heavy = KernelCost {
            sync_points: 10_000,
            ..cost
        };
        let comm_heavy = pl.mpi_kernel_time(&sync_heavy, 8, 4, 2, 1.0, 1 << 20);
        assert!(comm_heavy > multi);
    }

    #[test]
    fn interconnect_transfer_time() {
        let ic = Interconnect {
            bandwidth_gbs: 10.0,
            latency_s: 2e-6,
        };
        let t = ic.transfer_time(10_000_000_000);
        assert!((t - 1.0).abs() < 0.01);
        assert!(ic.transfer_time(0) == 2e-6);
    }
}
