//! `parkern` — programming-model backends for the benchmark kernels.
//!
//! BabelStream exists in many parallel programming models precisely so the
//! paper can ask "how performance portable are different programming models
//! across CPUs and GPUs?" (§3.1, Figure 2). This crate reproduces that axis:
//!
//! * [`Model`] enumerates the models of Figure 2 (OpenMP, Kokkos, CUDA,
//!   OpenCL, std-data, std-indices, std-ranges, TBB, serial) with their
//!   device targets, availability rules, and abstraction-overhead factors;
//! * [`Backend`] is the execution abstraction the kernels are written
//!   against, with two host implementations: [`SerialBackend`], the
//!   sequential reference, and [`PoolBackend`], a persistent worker pool.
//!   [`Model::host_backend`] runs the single-threaded models (serial,
//!   std-ranges) on the first and every threaded model on the second, as
//!   their real runtimes all keep a persistent pool;
//! * [`kernels`] holds the shared array kernels (copy/mul/add/triad/dot
//!   and SpMV) used by the benchmark applications.
//!
//! Kernels always execute for real on the host, so numerical validation is
//! genuine. When a benchmark targets a *simulated* platform, the timing is
//! produced by `simhpc`'s cost model using the model's efficiency factor
//! and thread count from here.

pub mod backend;
pub mod kernels;
pub mod pool;

pub use backend::{chunk_range, default_workers, set_worker_cap, Backend, SerialBackend};
pub use pool::PoolBackend;

use simhpc::Processor;

/// Which device a programming model targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Device {
    Cpu,
    Gpu,
}

/// The programming models of Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Model {
    /// OpenMP-style: persistent worker pool, static schedule.
    Omp,
    /// Kokkos-style: an abstraction layered over the OpenMP-style pool.
    Kokkos,
    /// CUDA: NVIDIA GPUs only.
    Cuda,
    /// OpenCL: in this study, exercised on the GPU.
    Ocl,
    /// ISO C++ std::par with data-oriented algorithms (needs a TBB runtime).
    StdData,
    /// ISO C++ std::par over index ranges (needs a TBB runtime).
    StdIndices,
    /// std::ranges pipeline — multicore support is work-in-progress, so it
    /// executes on a single thread (the paper's observed behaviour).
    StdRanges,
    /// Intel TBB directly.
    Tbb,
    /// Reference sequential implementation.
    Serial,
}

impl Model {
    /// All models, in Figure 2 row order.
    pub fn all() -> &'static [Model] {
        &[
            Model::Omp,
            Model::Kokkos,
            Model::Cuda,
            Model::Ocl,
            Model::StdData,
            Model::StdIndices,
            Model::StdRanges,
            Model::Tbb,
            Model::Serial,
        ]
    }

    /// The spec-variant / display name (matches the Spack recipe variants).
    pub fn name(&self) -> &'static str {
        match self {
            Model::Omp => "omp",
            Model::Kokkos => "kokkos",
            Model::Cuda => "cuda",
            Model::Ocl => "ocl",
            Model::StdData => "std-data",
            Model::StdIndices => "std-indices",
            Model::StdRanges => "std-ranges",
            Model::Tbb => "tbb",
            Model::Serial => "serial",
        }
    }

    /// Parse a model name.
    pub fn from_name(name: &str) -> Option<Model> {
        Model::all().iter().copied().find(|m| m.name() == name)
    }

    pub fn device(&self) -> Device {
        match self {
            Model::Cuda | Model::Ocl => Device::Gpu,
            _ => Device::Cpu,
        }
    }

    /// Is this model runnable on the given processor? Encodes the white
    /// boxes of Figure 2: CUDA/OpenCL need the GPU; TBB (and the std::par
    /// models that need a TBB runtime) are unavailable on the ThunderX2.
    pub fn available_on(&self, proc: &Processor) -> bool {
        let arm = proc.vendor().eq_ignore_ascii_case("marvell");
        match self.device() {
            Device::Gpu => proc.is_gpu(),
            Device::Cpu => {
                if proc.is_gpu() {
                    return false;
                }
                match self {
                    Model::Tbb => !arm,
                    _ => true,
                }
            }
        }
    }

    /// Abstraction-overhead factor in (0, 1]: the fraction of the tuned
    /// native bandwidth this model achieves on the given processor.
    /// Calibrated to the ordering visible in Figure 2.
    pub fn efficiency_on(&self, proc: &Processor) -> f64 {
        let vendor = proc.vendor().to_lowercase();
        match self {
            Model::Omp => 1.0,
            // Abstractions over a native backend cost a few percent.
            Model::Kokkos => 0.94,
            Model::Cuda => 1.0,
            Model::Ocl => 0.985,
            // std::par maps onto the TBB runtime; where that runtime is
            // second-class (AMD reported lower TBB efficiency in the paper's
            // data) it loses a little more.
            Model::StdData | Model::StdIndices => {
                if vendor == "amd" {
                    0.82
                } else {
                    0.90
                }
            }
            // Single-threaded anyway; the factor models loop overheads.
            Model::StdRanges => 0.85,
            Model::Tbb => {
                if vendor == "amd" {
                    0.78
                } else {
                    0.88
                }
            }
            Model::Serial => 1.0,
        }
    }

    /// How many workers this model uses on the given processor.
    pub fn threads_on(&self, proc: &Processor) -> u32 {
        match self {
            Model::StdRanges | Model::Serial => 1,
            _ => proc.total_cores(),
        }
    }

    /// The host execution backend used when this model's kernels really
    /// run: the serial reference for the single-threaded models, the
    /// persistent pool of `max_threads` workers for every other one.
    pub fn host_backend(&self, max_threads: usize) -> Box<dyn Backend> {
        match self {
            Model::Serial | Model::StdRanges => Box::new(SerialBackend),
            _ => Box::new(PoolBackend::new(max_threads)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proc(sys: &str, part: &str) -> Processor {
        simhpc::catalog::system(sys)
            .unwrap()
            .partition(part)
            .unwrap()
            .processor()
            .clone()
    }

    #[test]
    fn names_roundtrip() {
        for m in Model::all() {
            assert_eq!(Model::from_name(m.name()), Some(*m));
        }
        assert_eq!(Model::from_name("fortran"), None);
    }

    #[test]
    fn figure2_availability_matrix() {
        let cl = proc("isambard-macs", "cascadelake");
        let tx2 = proc("isambard", "xci");
        let milan = proc("noctua2", "milan");
        let v100 = proc("isambard-macs", "volta");

        // CUDA: GPU only (starred boxes on CPUs in Figure 2).
        assert!(!Model::Cuda.available_on(&cl));
        assert!(!Model::Cuda.available_on(&milan));
        assert!(Model::Cuda.available_on(&v100));
        // TBB: unavailable on ThunderX2.
        assert!(!Model::Tbb.available_on(&tx2));
        assert!(Model::Tbb.available_on(&cl));
        // OpenMP runs everywhere (on CPUs).
        assert!(Model::Omp.available_on(&cl));
        assert!(Model::Omp.available_on(&tx2));
        assert!(Model::Omp.available_on(&milan));
        assert!(
            !Model::Omp.available_on(&v100),
            "no host OpenMP rows for the GPU partition"
        );
    }

    #[test]
    fn std_ranges_is_single_threaded() {
        let milan = proc("noctua2", "milan");
        assert_eq!(Model::StdRanges.threads_on(&milan), 1);
        assert_eq!(Model::Omp.threads_on(&milan), 128);
    }

    #[test]
    fn single_threaded_models_run_serial_and_the_rest_on_the_pool() {
        for m in Model::all() {
            let want = match m {
                Model::Serial | Model::StdRanges => "serial",
                _ => "pool",
            };
            let backend = m.host_backend(2);
            assert_eq!(backend.label(), want, "{}", m.name());
        }
    }

    #[test]
    fn abstraction_ordering() {
        let cl = proc("isambard-macs", "cascadelake");
        // Direct model ≥ abstraction ≥ crippled runtime.
        assert!(Model::Omp.efficiency_on(&cl) >= Model::Kokkos.efficiency_on(&cl));
        assert!(Model::Kokkos.efficiency_on(&cl) > Model::Tbb.efficiency_on(&cl));
        for m in Model::all() {
            let e = m.efficiency_on(&cl);
            assert!(e > 0.0 && e <= 1.0);
        }
    }
}
