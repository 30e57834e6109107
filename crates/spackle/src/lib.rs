//! `spackle` — a Spack-like package manager for reproducible builds.
//!
//! The paper drives every benchmark build through Spack (§2.2) so that
//! Principles 2–4 hold: the build system knows how to build each benchmark
//! on each platform, the benchmark is rebuilt every time it runs, and every
//! step is captured for replay from the system default environment. This
//! crate reimplements the pieces of Spack the framework relies on:
//!
//! * the **spec grammar** — `babelstream%gcc@9.2.0 +omp`,
//!   `hpgmg%gcc ^openmpi@4.0.4` ([`Spec`]),
//! * **recipes** with versions, variants, conditional dependencies,
//!   conflicts, and virtual packages ([`Recipe`], [`Repo`]),
//! * the **concretizer** — abstract spec + system externals → a fully
//!   pinned dependency DAG ([`concretize`]), which regenerates the paper's
//!   Table 3,
//! * **environments & lockfiles** for archaeological reproducibility
//!   ([`Environment`]),
//! * a **build simulator** with content-hash store and per-package
//!   provenance records ([`install`]).
//!
//! # Example
//!
//! ```
//! use spackle::{concretize, Repo, Spec, SystemContext, Target};
//!
//! let repo = Repo::builtin();
//! let ctx = SystemContext::new("archer2", Target::cpu("amd", "x86_64"))
//!     .with_external("gcc", "11.2.0")
//!     .with_external("python", "3.10.12")
//!     .with_external("cray-mpich", "8.1.23")
//!     .with_compiler("gcc", "11.2.0");
//! let spec = Spec::parse("hpgmg%gcc").unwrap();
//! let concrete = concretize(&spec, &repo, &ctx).unwrap();
//! // Table 3, ARCHER2 row: gcc 11.2.0, Python 3.10.12, cray-mpich 8.1.23.
//! assert_eq!(concrete.provider_of("mpi").unwrap().version.as_str(), "8.1.23");
//! ```

mod build;
mod concretize;
mod diskstore;
mod environment;
mod iofault;
mod recipe;
mod repo;
mod spec;
mod version;
pub mod walog;
mod yaml_repo;

pub use build::{
    install, BuildAction, BuildRecord, InstallOptions, InstallReport, SharedStore, Store,
};
pub use concretize::{
    concretize, ConcretePackage, ConcreteSpec, ConcretizeError, SystemContext, Target,
};
pub use diskstore::{
    fnv1a64, fsck, local_hostname, merged_ref_log, parse_ref_log, read_lease, require_store,
    shard_name, write_atomic, write_lease, DiskStore, DiskStoreError, FsckReport, GcReport,
    LeaseInfo, Persist, QuarantineNote, RefRecord, StoreEntry, StoreOptions, SHARD_COUNT,
};
pub use environment::Environment;
pub use iofault::{write_atomic_with, FaultSpec, IoShim, IOFAULTS_ENV};
pub use recipe::{Conflict, DepDecl, DepKind, Recipe, VariantDecl, When};
pub use repo::{Repo, BABELSTREAM_MODELS, HPCG_IMPLS};
pub use spec::{CompilerReq, Spec, SpecParseError, VariantSetting};
pub use version::{Version, VersionReq};
pub use yaml_repo::RepoLoadError;

/// Build a [`SystemContext`] from a `simhpc` system + partition description.
///
/// This is the glue the harness uses: the partition's processor gives the
/// conflict target, the system's externals and environs feed the resolver.
pub fn context_for(system: &simhpc::System, partition: &simhpc::Partition) -> SystemContext {
    let proc = partition.processor();
    let vendor = proc.vendor().to_lowercase();
    let target = if proc.is_gpu() {
        Target::gpu(&vendor)
    } else {
        let arch = if vendor == "marvell" {
            "aarch64"
        } else {
            "x86_64"
        };
        Target::cpu(&vendor, arch)
    };
    let mut ctx = SystemContext::new(system.name(), target);
    for e in system.externals() {
        ctx = ctx.with_external(&e.name, &e.version);
    }
    for env in partition.environs() {
        if let Some((name, ver)) = env.split_once('@') {
            ctx = ctx.with_compiler(name, ver);
        }
    }
    ctx
}

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end: the full Table 3 of the paper, via the simhpc catalog.
    #[test]
    fn table3_reproduced_for_all_four_systems() {
        let repo = Repo::builtin();
        let expected = [
            ("archer2", "11.2.0", "3.10.12", "cray-mpich", "8.1.23"),
            ("cosma8", "11.1.0", "2.7.15", "mvapich", "2.3.6"),
            ("csd3", "11.2.0", "3.8.2", "openmpi", "4.0.4"),
            ("isambard-macs", "9.2.0", "3.7.5", "openmpi", "4.0.3"),
        ];
        for (sys_name, gcc, python, mpi_name, mpi_ver) in expected {
            let sys = simhpc::catalog::system(sys_name).unwrap();
            let part = sys.default_partition();
            let ctx = context_for(sys, part);
            let spec = Spec::parse("hpgmg%gcc").unwrap();
            let c = concretize(&spec, &repo, &ctx).unwrap();
            assert_eq!(
                c.root().compiler.as_ref().unwrap().1.as_str(),
                gcc,
                "{sys_name}: gcc version"
            );
            assert_eq!(
                c.node("python").unwrap().version.as_str(),
                python,
                "{sys_name}: python"
            );
            let mpi = c.provider_of("mpi").unwrap();
            assert_eq!(mpi.name, mpi_name, "{sys_name}: MPI library");
            assert_eq!(mpi.version.as_str(), mpi_ver, "{sys_name}: MPI version");
        }
    }

    #[test]
    fn gpu_partition_context_allows_cuda() {
        let repo = Repo::builtin();
        let sys = simhpc::catalog::system("isambard-macs").unwrap();
        let volta = sys.partition("volta").unwrap();
        let ctx = context_for(sys, volta);
        assert!(concretize(&Spec::parse("babelstream +cuda").unwrap(), &repo, &ctx).is_ok());
        let cl = sys.partition("cascadelake").unwrap();
        let ctx = context_for(sys, cl);
        assert!(concretize(&Spec::parse("babelstream +cuda").unwrap(), &repo, &ctx).is_err());
    }
}
