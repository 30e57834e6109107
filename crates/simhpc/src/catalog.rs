//! The system catalog: the supercomputers of the paper's Table 5, plus a
//! `native` pseudo-system for running on the local host.
//!
//! Peak memory bandwidths are the paper's Table 1; core counts and clocks
//! are Table 5. Sustained-bandwidth fractions, per-core bandwidths,
//! interconnects and system factors are calibrated so the model reproduces
//! the *shapes* the paper reports (Figure 2, Tables 2 and 4) — see
//! DESIGN.md for the substitution rationale.
//!
//! The table is built once per process, on first use, and every lookup
//! borrows from it: a survey resolves its partitions hundreds of times.

use std::sync::LazyLock;

use crate::platform::{ExternalPkg, Interconnect, Partition, SchedulerKind, System};
use crate::processor::{CacheLevel, Processor, ProcessorKind};

fn cache(level: u8, mb: u64, bw: f64) -> CacheLevel {
    CacheLevel {
        level,
        total_bytes: mb * 1024 * 1024,
        bandwidth_gbs: bw,
    }
}

/// Marvell ThunderX2 @ 2.5 GHz, dual 32-core (Isambard XCI).
fn thunderx2() -> Processor {
    Processor::new(
        "Marvell",
        "ThunderX2",
        ProcessorKind::Cpu,
        2,
        32,
        2.5,
        288.0, // Table 1
        0.63,  // Figure 2: ARM CPU shows lower utilisation than x86
        7.0,
        8.0, // 128-bit NEON FMA
        4e-6,
        vec![cache(2, 16, 900.0), cache(3, 64, 700.0)],
    )
}

/// Intel Xeon Gold 6230 (Cascade Lake) @ 2.1 GHz, dual 20-core
/// (Isambard MACS).
fn cascade_lake_6230() -> Processor {
    Processor::new(
        "Intel",
        "Xeon Gold 6230 (Cascade Lake)",
        ProcessorKind::Cpu,
        2,
        20,
        2.1,
        282.0, // Table 1: 2 x 140.784
        0.76,
        13.0,
        32.0, // AVX-512, 2 FMA units
        2.5e-6,
        vec![cache(2, 40, 1400.0), cache(3, 55, 1000.0)],
    )
}

/// Intel Xeon Platinum 8276 (Cascade Lake) @ 2.2 GHz, dual 28-core (CSD3).
fn cascade_lake_8276() -> Processor {
    Processor::new(
        "Intel",
        "Xeon Platinum 8276 (Cascade Lake)",
        ProcessorKind::Cpu,
        2,
        28,
        2.2,
        282.0,
        0.78,
        13.0,
        32.0,
        2.5e-6,
        vec![cache(2, 56, 1700.0), cache(3, 77, 1200.0)],
    )
}

/// AMD EPYC 7742 (Rome) @ 2.25 GHz, dual 64-core (ARCHER2).
fn rome_7742() -> Processor {
    Processor::new(
        "AMD",
        "EPYC 7742 (Rome)",
        ProcessorKind::Cpu,
        2,
        64,
        2.25,
        409.6, // 2 x 204.8
        0.80,
        9.5,
        16.0, // AVX2 FMA
        2.5e-6,
        vec![cache(2, 64, 2500.0), cache(3, 512, 2000.0)],
    )
}

/// AMD EPYC 7H12 (Rome) @ 2.6 GHz, dual 64-core (COSMA8).
fn rome_7h12() -> Processor {
    Processor::new(
        "AMD",
        "EPYC 7H12 (Rome)",
        ProcessorKind::Cpu,
        2,
        64,
        2.6,
        409.6,
        0.79,
        9.5,
        16.0,
        2.5e-6,
        vec![cache(2, 64, 2500.0), cache(3, 512, 2100.0)],
    )
}

/// AMD EPYC 7763 (Milan) @ 2.45 GHz, dual 64-core (Noctua2 / Paderborn).
fn milan_7763() -> Processor {
    Processor::new(
        "AMD",
        "EPYC 7763 (Milan)",
        ProcessorKind::Cpu,
        2,
        64,
        2.45,
        409.6, // Table 1: 2 x 204.8
        0.82,
        10.0,
        16.0,
        2.5e-6,
        // 256 MB L3 per socket — the reason the paper used 2^29 elements.
        vec![cache(2, 64, 2600.0), cache(3, 512, 2200.0)],
    )
}

/// NVIDIA Tesla V100 PCIe 16 GB (Isambard MACS GPU nodes).
fn v100() -> Processor {
    Processor::new(
        "NVIDIA",
        "Tesla V100 PCIe 16GB",
        ProcessorKind::Gpu,
        1,
        80, // SMs ("compute units" in Table 1)
        1.38,
        900.0, // Table 1
        0.93,  // HBM2 is very efficient for streaming
        14.0,
        128.0, // 64 DP FMA per SM per cycle
        8e-6,  // kernel launch latency
        vec![cache(2, 6, 2500.0)],
    )
}

fn hdr_infiniband() -> Interconnect {
    Interconnect {
        bandwidth_gbs: 25.0,
        latency_s: 1.4e-6,
    }
}

/// The process-wide catalog table.
static CATALOG: LazyLock<Vec<System>> = LazyLock::new(build);

/// The full catalog.
pub fn all_systems() -> &'static [System] {
    &CATALOG
}

fn build() -> Vec<System> {
    vec![
        System::new(
            "archer2",
            SchedulerKind::Slurm,
            vec![Partition::new(
                "rome",
                rome_7742(),
                5860,
                // HPE Slingshot.
                Interconnect {
                    bandwidth_gbs: 25.0,
                    latency_s: 1.7e-6,
                },
                0.92,
                vec!["gcc@11.2.0".into(), "cce@15.0.0".into()],
            )],
            vec![
                ExternalPkg::new("gcc", "11.2.0"),
                ExternalPkg::new("python", "3.10.12"),
                ExternalPkg::new("cray-mpich", "8.1.23"),
                ExternalPkg::new("libfabric", "1.12.1"),
            ],
        ),
        System::new(
            "cosma8",
            SchedulerKind::Slurm,
            vec![Partition::new(
                "rome",
                rome_7h12(),
                360,
                // Low-latency HDR200 fabric: coarse levels stay efficient,
                // which produces the paper's l2 > l1 inversion in Table 4.
                Interconnect {
                    bandwidth_gbs: 25.0,
                    latency_s: 0.9e-6,
                },
                0.85,
                vec!["gcc@11.1.0".into(), "icc@2021.4".into()],
            )],
            vec![
                ExternalPkg::new("gcc", "11.1.0"),
                ExternalPkg::new("python", "2.7.15"),
                ExternalPkg::new("mvapich", "2.3.6"),
            ],
        ),
        System::new(
            "csd3",
            SchedulerKind::Slurm,
            vec![Partition::new(
                "cascadelake",
                cascade_lake_8276(),
                672,
                hdr_infiniband(),
                0.95,
                vec!["gcc@11.2.0".into(), "intel@2020.2".into()],
            )],
            vec![
                ExternalPkg::new("gcc", "11.2.0"),
                ExternalPkg::new("python", "3.8.2"),
                ExternalPkg::new("openmpi", "4.0.4"),
            ],
        ),
        System::new(
            "isambard",
            SchedulerKind::Pbs,
            vec![Partition::new(
                "xci",
                thunderx2(),
                328,
                // Cray XC50 Aries.
                Interconnect {
                    bandwidth_gbs: 14.0,
                    latency_s: 1.8e-6,
                },
                0.88,
                vec!["gcc@10.3.0".into(), "arm@21.0".into(), "cce@12.0".into()],
            )],
            vec![
                ExternalPkg::new("gcc", "10.3.0"),
                ExternalPkg::new("python", "3.8.6"),
                ExternalPkg::new("cray-mpich", "8.0.16"),
            ],
        ),
        System::new(
            "isambard-macs",
            SchedulerKind::Pbs,
            vec![
                Partition::new(
                    "cascadelake",
                    cascade_lake_6230(),
                    4,
                    // Small multi-architecture comparison system: modest
                    // fabric and stack — the paper's Table 4 shows it ~4x
                    // behind CSD3 on the same microarchitecture.
                    Interconnect {
                        bandwidth_gbs: 10.0,
                        latency_s: 3.0e-6,
                    },
                    0.24,
                    vec!["gcc@9.2.0".into(), "gcc@10.3.0".into(), "gcc@12.1.0".into()],
                ),
                Partition::new(
                    "volta",
                    v100(),
                    2,
                    Interconnect {
                        bandwidth_gbs: 10.0,
                        latency_s: 3.0e-6,
                    },
                    0.24,
                    vec!["gcc@9.2.0".into(), "nvhpc@22.9".into()],
                ),
            ],
            vec![
                ExternalPkg::new("gcc", "9.2.0"),
                ExternalPkg::new("python", "3.7.5"),
                ExternalPkg::new("openmpi", "4.0.3"),
                ExternalPkg::new("cuda", "11.4"),
            ],
        ),
        System::new(
            "noctua2",
            SchedulerKind::Slurm,
            vec![Partition::new(
                "milan",
                milan_7763(),
                990,
                hdr_infiniband(),
                0.93,
                vec!["gcc@12.1.0".into(), "oneapi@2023.1.0".into()],
            )],
            vec![
                ExternalPkg::new("gcc", "12.1.0"),
                ExternalPkg::new("python", "3.10.4"),
                ExternalPkg::new("openmpi", "4.1.4"),
            ],
        ),
        // The local host: benchmarks run with real wall-clock timing here.
        System::new(
            "native",
            SchedulerKind::Local,
            vec![Partition::new(
                "default",
                generic_host(),
                1,
                Interconnect {
                    bandwidth_gbs: 10.0,
                    latency_s: 1e-6,
                },
                1.0,
                vec!["rustc".into()],
            )],
            vec![],
        ),
    ]
}

/// A conservative generic model of "whatever this laptop/CI node is".
/// Only used for the `native` pseudo-system's metadata; real timing comes
/// from the clock when running natively.
fn generic_host() -> Processor {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get() as u32)
        .unwrap_or(4);
    Processor::new(
        "generic",
        "local host",
        ProcessorKind::Cpu,
        1,
        cores,
        2.0,
        50.0,
        0.8,
        10.0,
        8.0,
        5e-6,
        vec![cache(3, 16, 200.0)],
    )
}

/// Look up a system by name.
pub fn system(name: &str) -> Option<&'static System> {
    all_systems().iter().find(|s| s.name() == name)
}

/// Look up `system:partition` (ReFrame-style); a bare system name selects
/// its default partition.
pub fn partition(spec: &str) -> Option<(&'static System, &'static Partition)> {
    let (sys_name, part_name) = match spec.split_once(':') {
        Some((s, p)) => (s, Some(p)),
        None => (spec, None),
    };
    let sys = system(sys_name)?;
    let part = match part_name {
        Some(p) => sys.partition(p)?,
        None => sys.default_partition(),
    };
    Some((sys, part))
}

/// [`partition`] as an owned system plus the partition's name, for
/// callers that keep a platform of their own.
pub fn resolve(spec: &str) -> Option<(System, String)> {
    let (sys, part) = partition(spec)?;
    Some((sys.clone(), part.name().to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_with_and_without_partition() {
        let (s, p) = resolve("isambard-macs:volta").unwrap();
        assert_eq!(s.name(), "isambard-macs");
        assert_eq!(p, "volta");
        let (s, p) = resolve("archer2").unwrap();
        assert_eq!(s.name(), "archer2");
        assert_eq!(p, "rome");
        assert!(resolve("archer2:gpu").is_none());
        assert!(resolve("nowhere").is_none());
    }

    #[test]
    fn lookups_borrow_one_process_wide_table() {
        let a = system("csd3").unwrap();
        let b = system("csd3").unwrap();
        assert!(std::ptr::eq(a, b));
        let (s, p) = partition("isambard-macs:volta").unwrap();
        assert!(std::ptr::eq(s, system("isambard-macs").unwrap()));
        assert!(std::ptr::eq(p, s.partition("volta").unwrap()));
        assert!(std::ptr::eq(
            partition("archer2").unwrap().1,
            system("archer2").unwrap().default_partition()
        ));
    }

    #[test]
    fn v100_is_gpu() {
        let (s, _) = resolve("isambard-macs:volta").unwrap();
        assert!(s.partition("volta").unwrap().processor().is_gpu());
        assert!(!s.partition("cascadelake").unwrap().processor().is_gpu());
    }

    #[test]
    fn native_system_exists() {
        let s = system("native").unwrap();
        assert_eq!(s.scheduler(), SchedulerKind::Local);
        assert!(s.default_partition().processor().total_cores() >= 1);
    }

    #[test]
    fn table3_external_versions() {
        // Exactly the concretized versions of the paper's Table 3.
        let cases = [
            ("archer2", "gcc", "11.2.0"),
            ("archer2", "python", "3.10.12"),
            ("archer2", "cray-mpich", "8.1.23"),
            ("cosma8", "gcc", "11.1.0"),
            ("cosma8", "python", "2.7.15"),
            ("cosma8", "mvapich", "2.3.6"),
            ("csd3", "gcc", "11.2.0"),
            ("csd3", "python", "3.8.2"),
            ("csd3", "openmpi", "4.0.4"),
            ("isambard-macs", "gcc", "9.2.0"),
            ("isambard-macs", "python", "3.7.5"),
            ("isambard-macs", "openmpi", "4.0.3"),
        ];
        for (sys, pkg, ver) in cases {
            assert_eq!(
                system(sys).unwrap().external_version(pkg),
                Some(ver),
                "{sys}/{pkg} should be {ver}"
            );
        }
    }

    #[test]
    fn milan_l3_is_512mb() {
        let (s, _) = resolve("noctua2").unwrap();
        assert_eq!(
            s.default_partition().processor().llc_bytes(),
            512 * 1024 * 1024
        );
    }
}
