//! The built-in recipe repository.
//!
//! Spack ships thousands of recipes; we ship the ones this study needs —
//! the benchmark applications themselves, the compilers and MPI libraries
//! found on the paper's systems (Table 3), and enough supporting packages
//! to give the concretizer realistic DAGs. Custom repositories can be
//! layered on top, mirroring the paper's local-repo workflow.

use crate::recipe::{Conflict, DepKind, Recipe, VariantDecl, When};
use crate::spec::VariantSetting;
use std::sync::LazyLock;

/// The process-wide built-in repository.
static BUILTIN: LazyLock<Repo> = LazyLock::new(Repo::builtin);

/// A collection of recipes, searched in order (later repos shadow earlier
/// ones, so a site-local repo can override a built-in recipe).
#[derive(Debug, Clone, Default)]
pub struct Repo {
    recipes: Vec<Recipe>,
}

impl Repo {
    /// An empty repository.
    pub fn empty() -> Repo {
        Repo::default()
    }

    /// The built-in repository with all packages this study uses.
    pub fn builtin() -> Repo {
        let mut r = Repo::empty();
        for recipe in builtin_recipes() {
            r.add(recipe);
        }
        r
    }

    /// The built-in repository, built once per process and shared: what a
    /// harness session concretizes against unless a site layers its own
    /// repository on top (which starts from an owned [`Repo::builtin`]).
    pub fn builtin_shared() -> &'static Repo {
        &BUILTIN
    }

    /// Add (or shadow) a recipe.
    pub fn add(&mut self, recipe: Recipe) {
        self.recipes.retain(|r| r.name != recipe.name);
        self.recipes.push(recipe);
    }

    pub fn get(&self, name: &str) -> Option<&Recipe> {
        self.recipes.iter().find(|r| r.name == name)
    }

    pub fn len(&self) -> usize {
        self.recipes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.recipes.is_empty()
    }

    /// All recipes that provide the virtual package `virtual_name`.
    pub(crate) fn providers_of(&self, virtual_name: &str) -> Vec<&Recipe> {
        self.recipes
            .iter()
            .filter(|r| r.provides.iter().any(|p| p == virtual_name))
            .collect()
    }

    /// Is `name` a virtual package (has providers but no recipe of its own)?
    pub(crate) fn is_virtual(&self, name: &str) -> bool {
        self.get(name).is_none() && !self.providers_of(name).is_empty()
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.recipes.iter().map(|r| r.name.as_str())
    }
}

/// The programming models BabelStream is written in (§3.1 / Figure 2).
pub const BABELSTREAM_MODELS: &[&str] = &[
    "omp",
    "kokkos",
    "cuda",
    "ocl",
    "std-data",
    "std-indices",
    "std-ranges",
    "tbb",
    "serial",
];

/// The HPCG algorithm/implementation variants of §3.2 / Table 2, plus the
/// SELL-C-σ layout extension (`sell`, DESIGN.md § "Roofline kernels").
pub const HPCG_IMPLS: &[&str] = &["csr", "avx2", "matfree", "lfric", "sell"];

fn builtin_recipes() -> Vec<Recipe> {
    vec![
        // ---- benchmark applications -------------------------------------
        {
            // Like the real Spack recipe, each programming model is a
            // boolean variant: `babelstream +omp`, `babelstream +cuda`, ...
            let mut bs = Recipe::new("babelstream", &["3.4", "4.0", "5.0"])
                .with_dep("cmake", "3.14:", DepKind::Build)
                .with_dep_when(
                    "cuda",
                    "",
                    DepKind::Link,
                    When::VariantIs("cuda".into(), VariantSetting::On),
                )
                .with_dep_when(
                    "kokkos",
                    "",
                    DepKind::Link,
                    When::VariantIs("kokkos".into(), VariantSetting::On),
                )
                .with_dep_when(
                    "opencl-loader",
                    "",
                    DepKind::Link,
                    When::VariantIs("ocl".into(), VariantSetting::On),
                )
                .with_dep_when(
                    "intel-tbb",
                    "",
                    DepKind::Link,
                    When::VariantIs("tbb".into(), VariantSetting::On),
                )
                .with_conflict(Conflict {
                    when: When::VariantIs("cuda".into(), VariantSetting::On),
                    on_processor: Some("cpu".into()),
                    reason: "CUDA requires an NVIDIA GPU".into(),
                })
                .with_conflict(Conflict {
                    when: When::VariantIs("ocl".into(), VariantSetting::On),
                    on_processor: Some("cpu".into()),
                    reason: "no OpenCL runtime installed on the CPU systems in this study".into(),
                })
                .with_conflict(Conflict {
                    when: When::VariantIs("tbb".into(), VariantSetting::On),
                    on_processor: Some("arm".into()),
                    reason: "Intel TBB is not available on this ARM system".into(),
                })
                .with_build_cost(2.0);
            for m in BABELSTREAM_MODELS {
                bs = bs.with_variant(VariantDecl::boolean(
                    m,
                    false,
                    "build this programming-model implementation",
                ));
            }
            bs
        },
        Recipe::new("stream", &["5.10"]).with_build_cost(0.5),
        Recipe::new("hpcg", &["3.1"])
            .with_variant(VariantDecl::boolean("mpi", true, "build with MPI"))
            .with_variant(VariantDecl::choice(
                "impl",
                "csr",
                HPCG_IMPLS,
                "algorithm/implementation variant (§3.2)",
            ))
            .with_dep_when(
                "mpi",
                "",
                DepKind::Link,
                When::VariantIs("mpi".into(), VariantSetting::On),
            )
            .with_conflict(Conflict {
                when: When::VariantIs("impl".into(), VariantSetting::Value("avx2".into())),
                on_processor: Some("amd".into()),
                reason: "the Intel-optimized binary targets Intel microarchitectures".into(),
            })
            .with_conflict(Conflict {
                when: When::VariantIs("impl".into(), VariantSetting::Value("avx2".into())),
                on_processor: Some("arm".into()),
                reason: "the Intel-optimized binary targets Intel microarchitectures".into(),
            })
            .with_build_cost(3.0),
        Recipe::new("hpgmg", &["0.4", "1.0"])
            .with_variant(VariantDecl::boolean(
                "fv",
                true,
                "build the finite-volume solver",
            ))
            .with_dep("mpi", "", DepKind::Link)
            .with_dep("python", "", DepKind::Build)
            .with_build_cost(2.5),
        // ---- compilers ---------------------------------------------------
        Recipe::new("gcc", &["9.2.0", "10.3.0", "11.1.0", "11.2.0", "12.1.0"])
            .with_build_cost(30.0),
        Recipe::new("oneapi", &["2023.1.0"]).with_build_cost(20.0),
        // ---- MPI providers (Table 3) --------------------------------------
        Recipe::new("openmpi", &["4.0.3", "4.0.4", "4.1.4"])
            .providing("mpi")
            .with_dep("hwloc", "", DepKind::Link)
            .with_build_cost(8.0),
        Recipe::new("mvapich", &["2.3.6"])
            .providing("mpi")
            .with_dep("hwloc", "", DepKind::Link)
            .with_build_cost(8.0),
        Recipe::new("cray-mpich", &["8.0.16", "8.1.23"])
            .providing("mpi")
            .with_dep("libfabric", "", DepKind::Link)
            .with_build_cost(6.0),
        Recipe::new("mpich", &["3.4.2", "4.1.1"])
            .providing("mpi")
            .with_dep("hwloc", "", DepKind::Link)
            .with_build_cost(8.0),
        // ---- supporting packages -----------------------------------------
        Recipe::new(
            "python",
            &["2.7.15", "3.7.5", "3.8.2", "3.8.6", "3.10.4", "3.10.12"],
        )
        .with_dep("zlib", "1.2:", DepKind::Link)
        .with_build_cost(10.0),
        Recipe::new("cmake", &["3.23.1", "3.26.3"]).with_build_cost(5.0),
        Recipe::new("cuda", &["11.4", "12.0"]).with_build_cost(15.0),
        Recipe::new("kokkos", &["3.7.01", "4.0.01"])
            .with_dep("cmake", "3.16:", DepKind::Build)
            .with_build_cost(4.0),
        Recipe::new("intel-tbb", &["2020.3", "2021.9.0"])
            .with_dep("cmake", "3.14:", DepKind::Build)
            .with_build_cost(3.0),
        Recipe::new("opencl-loader", &["2023.04.17"]).with_build_cost(1.0),
        Recipe::new("hwloc", &["2.9.1"]).with_dep("numactl", "", DepKind::Link),
        Recipe::new("numactl", &["2.0.16"]),
        Recipe::new("libfabric", &["1.12.1", "1.18.0"]),
        Recipe::new("zlib", &["1.2.13", "1.3"]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_shared_builtin_is_one_table_with_the_builtin_recipes() {
        let shared = Repo::builtin_shared();
        assert!(std::ptr::eq(shared, Repo::builtin_shared()));
        assert!(shared.names().eq(Repo::builtin().names()));
    }

    #[test]
    fn builtin_has_all_study_packages() {
        let r = Repo::builtin();
        for name in [
            "babelstream",
            "hpcg",
            "hpgmg",
            "stream",
            "gcc",
            "openmpi",
            "cray-mpich",
            "python",
        ] {
            assert!(r.get(name).is_some(), "missing recipe {name}");
        }
    }

    #[test]
    fn mpi_is_virtual_with_providers() {
        let r = Repo::builtin();
        assert!(r.is_virtual("mpi"));
        let providers: Vec<&str> = r
            .providers_of("mpi")
            .iter()
            .map(|p| p.name.as_str())
            .collect();
        assert!(providers.contains(&"openmpi"));
        assert!(providers.contains(&"cray-mpich"));
        assert!(providers.contains(&"mvapich"));
        assert!(!r.is_virtual("openmpi"));
        assert!(!r.is_virtual("no-such-thing"));
    }

    #[test]
    fn shadowing_replaces_recipe() {
        let mut r = Repo::builtin();
        let n = r.len();
        r.add(Recipe::new("stream", &["9.9"]));
        assert_eq!(r.len(), n);
        assert_eq!(r.get("stream").unwrap().versions[0].as_str(), "9.9");
    }

    #[test]
    fn babelstream_models_match_figure2() {
        let r = Repo::builtin();
        let recipe = r.get("babelstream").unwrap();
        for m in BABELSTREAM_MODELS {
            let decl = recipe
                .variant_decl(m)
                .unwrap_or_else(|| panic!("missing variant {m}"));
            assert_eq!(decl.default, VariantSetting::Off, "models default off");
        }
    }
}
