//! System-state telemetry during benchmark runs.
//!
//! The paper's future-work list (§4) includes "functionality to capture
//! relevant parameters of the system state during the runtime of the
//! benchmarks, such as network or filesystem usage levels or energy
//! consumption". This module implements that extension for the simulated
//! platforms: a power model per processor and interconnect-traffic
//! accounting, sampled over a run and attached to the perflog.

use crate::platform::Partition;
use crate::processor::Processor;

/// Thermal design power, watts, estimated from the catalog processors.
/// (The catalog keeps TDP out of the constructor to preserve Table 1/5
/// provenance; the estimates below follow the vendors' public specs.)
pub(crate) fn tdp_watts(proc: &Processor) -> f64 {
    let model = proc.model().to_lowercase();
    if model.contains("v100") {
        250.0
    } else if model.contains("7763") || model.contains("7h12") {
        280.0 * proc.sockets() as f64
    } else if model.contains("7742") {
        225.0 * proc.sockets() as f64
    } else if model.contains("8276") {
        165.0 * proc.sockets() as f64
    } else if model.contains("6230") {
        125.0 * proc.sockets() as f64
    } else if model.contains("thunderx2") {
        180.0 * proc.sockets() as f64
    } else {
        // Generic estimate: ~2.5 W per core, with a desktop-package floor.
        (2.5 * proc.total_cores() as f64).max(65.0)
    }
}

/// Telemetry captured for one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Telemetry {
    /// Average node power draw, watts.
    pub avg_power_w: f64,
    /// Total energy over all nodes, joules.
    pub energy_j: f64,
    /// Estimated interconnect traffic, bytes.
    pub network_bytes: u64,
    /// Energy efficiency helper: joules per second of runtime (= watts,
    /// all nodes).
    pub total_power_w: f64,
}

/// Power/energy for a run of `wall_s` seconds using `threads` workers per
/// node across `nodes` nodes, moving `network_bytes` over the fabric.
///
/// Power model: `P = TDP × (idle + (1 − idle) × utilization)` with a 30%
/// idle floor — the standard linear machine-room approximation.
pub fn capture(
    partition: &Partition,
    wall_s: f64,
    threads: u32,
    nodes: u32,
    network_bytes: u64,
) -> Telemetry {
    let proc = partition.processor();
    let tdp = tdp_watts(proc);
    let utilization =
        (threads.min(proc.total_cores()) as f64 / proc.total_cores() as f64).clamp(0.0, 1.0);
    const IDLE_FRACTION: f64 = 0.3;
    let node_power = tdp * (IDLE_FRACTION + (1.0 - IDLE_FRACTION) * utilization);
    let total_power = node_power * nodes.max(1) as f64;
    Telemetry {
        avg_power_w: node_power,
        energy_j: total_power * wall_s.max(0.0),
        network_bytes,
        total_power_w: total_power,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    fn partition(spec: &str) -> crate::platform::Partition {
        let (sys, part) = catalog::resolve(spec).expect("catalog");
        sys.partition(&part).expect("partition").clone()
    }

    #[test]
    fn tdp_estimates_reasonable() {
        for sys in catalog::all_systems() {
            for part in sys.partitions() {
                let tdp = tdp_watts(part.processor());
                assert!(
                    (50.0..=600.0).contains(&tdp),
                    "{}: TDP {tdp} out of range",
                    part.name()
                );
            }
        }
        // Dual-socket Rome draws more than the single V100 card.
        let rome = tdp_watts(partition("archer2").processor());
        let v100 = tdp_watts(partition("isambard-macs:volta").processor());
        assert!(rome > v100);
    }

    #[test]
    fn energy_scales_with_time_and_nodes() {
        let p = partition("csd3");
        let t1 = capture(&p, 10.0, 56, 1, 0);
        let t2 = capture(&p, 20.0, 56, 1, 0);
        let t4 = capture(&p, 10.0, 56, 4, 0);
        assert!((t2.energy_j - 2.0 * t1.energy_j).abs() < 1e-9);
        assert!((t4.energy_j - 4.0 * t1.energy_j).abs() < 1e-9);
    }

    #[test]
    fn idle_floor_respected() {
        let p = partition("csd3");
        let idle = capture(&p, 1.0, 1, 1, 0);
        let busy = capture(&p, 1.0, 56, 1, 0);
        let tdp = tdp_watts(p.processor());
        assert!(idle.avg_power_w >= 0.3 * tdp);
        assert!(idle.avg_power_w < busy.avg_power_w);
        assert!(busy.avg_power_w <= tdp * 1.0001);
    }
}
