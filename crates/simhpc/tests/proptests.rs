//! Property tests for the platform cost model: the invariants the
//! benchmarks' simulated timings rest on.

use proptest::prelude::*;
use simhpc::perf::KernelCost;

fn partitions() -> Vec<simhpc::Partition> {
    simhpc::catalog::all_systems()
        .iter()
        .flat_map(|s| s.partitions().to_vec())
        .collect()
}

proptest! {
    /// Time is positive, finite, and monotone in the byte count.
    #[test]
    fn kernel_time_monotone_in_bytes(
        part_idx in 0usize..8,
        bytes_a in 1u64..1u64 << 34,
        bytes_b in 1u64..1u64 << 34,
        threads in 1u32..256,
    ) {
        let parts = partitions();
        let part = &parts[part_idx % parts.len()];
        let (lo, hi) = if bytes_a <= bytes_b { (bytes_a, bytes_b) } else { (bytes_b, bytes_a) };
        // Fix the working set so cache residency doesn't flip between the
        // two sizes (residency is a legitimate non-monotonicity).
        let t_lo = part.platform().kernel_time(
            &KernelCost::new(lo, 0).with_working_set(u64::MAX), threads, 1.0);
        let t_hi = part.platform().kernel_time(
            &KernelCost::new(hi, 0).with_working_set(u64::MAX), threads, 1.0);
        prop_assert!(t_lo.is_finite() && t_lo > 0.0);
        prop_assert!(t_hi >= t_lo, "{}: {t_hi} < {t_lo}", part.name());
    }

    /// Lower model efficiency never makes a kernel faster.
    #[test]
    fn model_efficiency_monotone(
        part_idx in 0usize..8,
        bytes in 1u64..1u64 << 32,
        eff_a in 0.05f64..1.0,
        eff_b in 0.05f64..1.0,
        threads in 1u32..128,
    ) {
        let parts = partitions();
        let part = &parts[part_idx % parts.len()];
        let cost = KernelCost::streaming(bytes);
        let (lo, hi) = if eff_a <= eff_b { (eff_a, eff_b) } else { (eff_b, eff_a) };
        let t_lo_eff = part.platform().kernel_time(&cost, threads, lo);
        let t_hi_eff = part.platform().kernel_time(&cost, threads, hi);
        prop_assert!(t_lo_eff >= t_hi_eff * 0.999);
    }

    /// Effective bandwidth never exceeds the theoretical peak... except via
    /// the cache, and never exceeds the LLC bandwidth either way.
    #[test]
    fn bandwidth_bounded(
        part_idx in 0usize..8,
        threads in 1u32..256,
        working_set in 1u64..1u64 << 34,
    ) {
        let parts = partitions();
        let proc = parts[part_idx % parts.len()].processor().clone();
        let bw = proc.effective_bandwidth_gbs(threads, working_set);
        prop_assert!(bw > 0.0);
        let cap = proc.peak_mem_bw_gbs().max(proc.llc_bandwidth_gbs());
        prop_assert!(bw <= cap * 1.0001, "{bw} exceeds every ceiling {cap}");
        if working_set > proc.llc_bytes() {
            prop_assert!(bw <= proc.peak_mem_bw_gbs() * 1.0001, "DRAM-bound run above peak");
        }
    }

    /// The noise stream is a pure function of (system, benchmark, seed).
    #[test]
    fn noise_deterministic(seed in any::<u64>(), n in 1usize..50) {
        let sample = |s| -> Vec<f64> {
            let mut m = simhpc::noise::NoiseModel::for_run("sys", "bench", s);
            (0..n).map(|_| m.perturb(1.0)).collect()
        };
        prop_assert_eq!(sample(seed), sample(seed));
    }

    /// Perturbation is bounded: never below the floor, never absurdly high.
    #[test]
    fn noise_bounded(seed in any::<u64>(), t in 1e-9f64..1e3) {
        let mut m = simhpc::noise::NoiseModel::for_run("s", "b", seed);
        for _ in 0..50 {
            let p = m.perturb(t);
            prop_assert!(p >= t);
            prop_assert!(p <= t * 1.5);
        }
    }

    /// MPI distribution over more nodes never increases per-node compute
    /// time for a fixed total problem (communication may dominate, but the
    /// total must stay finite and positive).
    #[test]
    fn mpi_time_positive_finite(
        part_idx in 0usize..8,
        bytes in 1u64..1u64 << 33,
        ranks in 1u32..256,
        nodes in 1u32..32,
        halo in 0u64..1u64 << 24,
    ) {
        let parts = partitions();
        let part = &parts[part_idx % parts.len()];
        let cost = KernelCost::streaming(bytes);
        let t = part.platform().mpi_kernel_time(&cost, ranks, nodes, 1, 1.0, halo);
        prop_assert!(t.is_finite() && t > 0.0);
    }

    /// Telemetry energy is non-negative and linear in wall time.
    #[test]
    fn telemetry_linear_in_time(
        part_idx in 0usize..8,
        wall in 0.0f64..1e4,
        threads in 1u32..256,
        nodes in 1u32..64,
    ) {
        let parts = partitions();
        let part = &parts[part_idx % parts.len()];
        let t1 = simhpc::telemetry::capture(part, wall, threads, nodes, 0);
        let t2 = simhpc::telemetry::capture(part, wall * 2.0, threads, nodes, 0);
        prop_assert!(t1.energy_j >= 0.0);
        prop_assert!((t2.energy_j - 2.0 * t1.energy_j).abs() <= 1e-9 * t2.energy_j.abs().max(1.0));
        prop_assert!(t1.avg_power_w > 0.0);
    }
}
