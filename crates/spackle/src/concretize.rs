//! The concretizer: abstract spec + system context → fully concrete DAG.
//!
//! This is the heart of Principles 2–4: given an under-constrained spec like
//! `hpgmg%gcc` and a description of what a system already provides, produce
//! a complete, reproducible build plan — every package pinned to a version,
//! compiler, and variant assignment, externals reused where the site has
//! them, virtual dependencies (like `mpi`) mapped to concrete providers.
//! The paper's Table 3 is exactly the output of this process on four
//! systems.

use crate::recipe::DepKind;
use crate::repo::Repo;
use crate::spec::{Spec, VariantSetting};
use crate::version::{Version, VersionReq};
use std::fmt;

/// Processor target description used for conflict checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Target {
    /// "cpu" or "gpu".
    pub kind: String,
    /// Lowercase vendor: "intel", "amd", "marvell", "nvidia", ...
    pub vendor: String,
    /// Lowercase ISA family: "x86_64", "aarch64", "ptx", ...
    pub arch: String,
}

impl Target {
    pub fn cpu(vendor: &str, arch: &str) -> Target {
        Target {
            kind: "cpu".into(),
            vendor: vendor.to_lowercase(),
            arch: arch.to_lowercase(),
        }
    }

    pub fn gpu(vendor: &str) -> Target {
        Target {
            kind: "gpu".into(),
            vendor: vendor.to_lowercase(),
            arch: "ptx".into(),
        }
    }

    /// Does a conflict's `on_processor` matcher apply to this target?
    /// The matcher may name a kind ("cpu"/"gpu"), a vendor, or an arch.
    pub fn matches(&self, matcher: &str) -> bool {
        let m = matcher.to_lowercase();
        m == self.kind
            || m == self.vendor
            || m == self.arch
            || (m == "arm" && self.arch == "aarch64")
    }
}

/// What a system makes available to the concretizer.
#[derive(Debug, Clone)]
pub struct SystemContext {
    pub system_name: String,
    /// Site-installed packages: (name, version).
    pub externals: Vec<(String, Version)>,
    /// Compilers installed on the system: (name, version).
    pub compilers: Vec<(String, Version)>,
    pub target: Target,
}

impl SystemContext {
    /// Build a context from a `simhpc`-style description.
    pub fn new(system_name: &str, target: Target) -> SystemContext {
        SystemContext {
            system_name: system_name.to_string(),
            externals: Vec::new(),
            compilers: Vec::new(),
            target,
        }
    }

    pub fn with_external(mut self, name: &str, version: &str) -> SystemContext {
        self.externals
            .push((name.to_string(), Version::new(version)));
        self
    }

    pub fn with_compiler(mut self, name: &str, version: &str) -> SystemContext {
        self.compilers
            .push((name.to_string(), Version::new(version)));
        self
    }

    fn external_version(&self, name: &str, req: &VersionReq) -> Option<&Version> {
        self.externals
            .iter()
            .find(|(n, v)| n == name && req.matches(v))
            .map(|(_, v)| v)
    }

    fn compiler_version(&self, name: &str, req: &VersionReq) -> Option<&Version> {
        // Highest installed compiler satisfying the request.
        self.compilers
            .iter()
            .filter(|(n, v)| n == name && req.matches(v))
            .map(|(_, v)| v)
            .max()
    }
}

/// One node of the concretized DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct ConcretePackage {
    pub name: String,
    pub version: Version,
    /// (compiler name, compiler version); None for externals.
    pub compiler: Option<(String, Version)>,
    /// Fully resolved variant assignment.
    pub variants: Vec<(String, VariantSetting)>,
    /// Reused from the system installation rather than built.
    pub external: bool,
    /// Virtual names this node satisfies in this DAG (e.g. `mpi`).
    pub satisfies: Vec<String>,
    /// Indices of dependency nodes within the owning [`ConcreteSpec`].
    pub deps: Vec<usize>,
    /// Content hash of (name, version, compiler, variants, dep hashes).
    pub hash: String,
    /// Relative build cost from the recipe (0 for externals).
    pub build_cost: f64,
}

impl ConcretePackage {
    /// Spack-style short rendering: `name@version%gcc@v +variants [external]`.
    pub fn render(&self) -> String {
        let mut s = format!("{}@{}", self.name, self.version);
        if let Some((c, v)) = &self.compiler {
            s.push_str(&format!("%{c}@{v}"));
        }
        for (name, setting) in &self.variants {
            match setting {
                VariantSetting::On => s.push_str(&format!(" +{name}")),
                VariantSetting::Off => s.push_str(&format!(" ~{name}")),
                VariantSetting::Value(v) => s.push_str(&format!(" {name}={v}")),
            }
        }
        if self.external {
            s.push_str(" [external]");
        }
        s
    }
}

/// A fully concretized spec: a DAG of pinned packages.
#[derive(Debug, Clone, PartialEq)]
pub struct ConcreteSpec {
    nodes: Vec<ConcretePackage>,
    root: usize,
}

impl ConcreteSpec {
    pub fn root(&self) -> &ConcretePackage {
        &self.nodes[self.root]
    }

    pub fn nodes(&self) -> &[ConcretePackage] {
        &self.nodes
    }

    /// Find a node by package name.
    pub fn node(&self, name: &str) -> Option<&ConcretePackage> {
        self.nodes.iter().find(|n| n.name == name)
    }

    /// The node satisfying virtual `name` (e.g. which MPI was chosen).
    pub fn provider_of(&self, virtual_name: &str) -> Option<&ConcretePackage> {
        self.nodes
            .iter()
            .find(|n| n.satisfies.iter().any(|s| s == virtual_name))
    }

    /// Install order: dependencies before dependents (deterministic).
    pub(crate) fn topo_order(&self) -> Vec<&ConcretePackage> {
        let mut order: Vec<usize> = Vec::with_capacity(self.nodes.len());
        let mut state = vec![0u8; self.nodes.len()]; // 0 new, 1 visiting, 2 done
        fn visit(nodes: &[ConcretePackage], i: usize, state: &mut [u8], order: &mut Vec<usize>) {
            if state[i] != 0 {
                return;
            }
            state[i] = 1;
            for &d in &nodes[i].deps {
                visit(nodes, d, state, order);
            }
            state[i] = 2;
            order.push(i);
        }
        for i in 0..self.nodes.len() {
            visit(&self.nodes, i, &mut state, &mut order);
        }
        order.into_iter().map(|i| &self.nodes[i]).collect()
    }

    /// Full DAG hash (hash of the root, which folds in dependency hashes).
    pub fn dag_hash(&self) -> &str {
        &self.nodes[self.root].hash
    }
}

impl fmt::Display for ConcreteSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn write_node(
            spec: &ConcreteSpec,
            i: usize,
            depth: usize,
            f: &mut fmt::Formatter<'_>,
        ) -> fmt::Result {
            writeln!(f, "{}{}", "    ".repeat(depth), spec.nodes[i].render())?;
            for &d in &spec.nodes[i].deps {
                write_node(spec, d, depth + 1, f)?;
            }
            Ok(())
        }
        write_node(self, self.root, 0, f)
    }
}

/// Concretization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConcretizeError {
    UnknownPackage(String),
    UnknownVariant {
        package: String,
        variant: String,
    },
    BadVariantValue {
        package: String,
        variant: String,
        value: String,
        allowed: Vec<String>,
    },
    NoSatisfyingVersion {
        package: String,
        requirement: String,
    },
    NoProvider {
        virtual_name: String,
    },
    NoCompiler {
        name: String,
        requirement: String,
    },
    Conflict {
        package: String,
        reason: String,
    },
    Contradiction {
        package: String,
        a: String,
        b: String,
    },
}

impl fmt::Display for ConcretizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConcretizeError::UnknownPackage(p) => write!(f, "unknown package `{p}`"),
            ConcretizeError::UnknownVariant { package, variant } => {
                write!(f, "package `{package}` has no variant `{variant}`")
            }
            ConcretizeError::BadVariantValue {
                package,
                variant,
                value,
                allowed,
            } => write!(
                f,
                "`{value}` is not a valid value for `{package}` variant `{variant}` (allowed: {})",
                allowed.join(", ")
            ),
            ConcretizeError::NoSatisfyingVersion {
                package,
                requirement,
            } => {
                write!(f, "no version of `{package}` satisfies `{requirement}`")
            }
            ConcretizeError::NoProvider { virtual_name } => {
                write!(
                    f,
                    "no provider available for virtual package `{virtual_name}`"
                )
            }
            ConcretizeError::NoCompiler { name, requirement } => {
                write!(
                    f,
                    "compiler `{name}{requirement}` not available on this system"
                )
            }
            ConcretizeError::Conflict { package, reason } => {
                write!(f, "conflict concretizing `{package}`: {reason}")
            }
            ConcretizeError::Contradiction { package, a, b } => {
                write!(
                    f,
                    "contradictory constraints on `{package}`: `{a}` vs `{b}`"
                )
            }
        }
    }
}

impl std::error::Error for ConcretizeError {}

/// Preferred providers for virtual packages when the site expresses no
/// preference through externals.
const PROVIDER_PREFERENCE: &[(&str, &[&str])] =
    &[("mpi", &["openmpi", "mpich", "mvapich", "cray-mpich"])];

/// Concretize `spec` against `repo` on `ctx`.
pub fn concretize(
    spec: &Spec,
    repo: &Repo,
    ctx: &SystemContext,
) -> Result<ConcreteSpec, ConcretizeError> {
    let mut cz = Concretizer {
        repo,
        ctx,
        nodes: Vec::new(),
        dep_constraints: spec.deps.clone(),
    };
    // Resolve the root compiler first: everything inherits it.
    let compiler = cz.resolve_compiler(spec)?;
    let root = cz.resolve(
        &spec.name,
        spec.version.clone(),
        Some(spec),
        compiler.clone(),
        &[],
    )?;
    let mut spec_out = ConcreteSpec {
        nodes: cz.nodes,
        root,
    };
    compute_hashes(&mut spec_out);
    Ok(spec_out)
}

struct Concretizer<'a> {
    repo: &'a Repo,
    ctx: &'a SystemContext,
    nodes: Vec<ConcretePackage>,
    /// `^dep` constraints from the command-line spec: apply DAG-wide.
    dep_constraints: Vec<Spec>,
}

impl Concretizer<'_> {
    fn resolve_compiler(&self, spec: &Spec) -> Result<Option<(String, Version)>, ConcretizeError> {
        match &spec.compiler {
            Some(req) => {
                // An unversioned request (`%gcc`) means "the system default
                // environment's gcc" (Principle 4) — the site-installed
                // external — not the newest module available. This is why
                // Isambard-MACS concretizes to gcc 9.2.0 in Table 3.
                if req.version == VersionReq::Any {
                    if let Some(v) = self.ctx.external_version(&req.name, &VersionReq::Any) {
                        return Ok(Some((req.name.clone(), v.clone())));
                    }
                }
                let v = self
                    .ctx
                    .compiler_version(&req.name, &req.version)
                    // Fall back to the repo's own compiler package (build it).
                    .cloned()
                    .or_else(|| {
                        self.repo
                            .get(&req.name)
                            .and_then(|r| r.best_version(&req.version))
                            .cloned()
                    })
                    .ok_or_else(|| ConcretizeError::NoCompiler {
                        name: req.name.clone(),
                        requirement: req.version.to_string(),
                    })?;
                Ok(Some((req.name.clone(), v)))
            }
            None => {
                // Default: the first compiler the system declares.
                Ok(self.ctx.compilers.first().cloned())
            }
        }
    }

    /// Resolve one package (or virtual) into a node index, reusing a node if
    /// the package already appears in the DAG.
    fn resolve(
        &mut self,
        name: &str,
        req: VersionReq,
        cli_spec: Option<&Spec>,
        compiler: Option<(String, Version)>,
        stack: &[String],
    ) -> Result<usize, ConcretizeError> {
        // Virtual package? Map to a provider first.
        if self.repo.is_virtual(name) {
            return self.resolve_virtual(name, req, compiler, stack);
        }

        // Fold in any DAG-wide `^` constraint for this package.
        let mut req = req;
        let mut cli_variants: Vec<(String, VariantSetting)> =
            cli_spec.map(|s| s.variants.clone()).unwrap_or_default();
        let mut compiler = compiler;
        for c in &self.dep_constraints.clone() {
            if c.name == name {
                req = req
                    .intersect(&c.version)
                    .ok_or_else(|| ConcretizeError::Contradiction {
                        package: name.to_string(),
                        a: req.to_string(),
                        b: c.version.to_string(),
                    })?;
                cli_variants.extend(c.variants.clone());
                if let Some(creq) = &c.compiler {
                    let v = self
                        .ctx
                        .compiler_version(&creq.name, &creq.version)
                        .cloned()
                        .ok_or_else(|| ConcretizeError::NoCompiler {
                            name: creq.name.clone(),
                            requirement: creq.version.to_string(),
                        })?;
                    compiler = Some((creq.name.clone(), v));
                }
            }
        }

        // Unify with an existing node for this package.
        if let Some(i) = self.nodes.iter().position(|n| n.name == name) {
            if !req.matches(&self.nodes[i].version) {
                return Err(ConcretizeError::Contradiction {
                    package: name.to_string(),
                    a: self.nodes[i].version.to_string(),
                    b: req.to_string(),
                });
            }
            return Ok(i);
        }

        if stack.iter().any(|s| s == name) {
            return Err(ConcretizeError::Conflict {
                package: name.to_string(),
                reason: format!("dependency cycle: {} -> {name}", stack.join(" -> ")),
            });
        }

        let recipe = self
            .repo
            .get(name)
            .ok_or_else(|| ConcretizeError::UnknownPackage(name.to_string()))?
            .clone();

        // Prefer the site's external installation when it satisfies the
        // request (Principle 4: build against the default environment).
        if let Some(v) = self.ctx.external_version(name, &req) {
            let node = ConcretePackage {
                name: name.to_string(),
                version: v.clone(),
                compiler: None,
                variants: Vec::new(),
                external: true,
                satisfies: recipe.provides.clone(),
                deps: Vec::new(),
                hash: String::new(),
                build_cost: 0.0,
            };
            self.nodes.push(node);
            return Ok(self.nodes.len() - 1);
        }

        let version = recipe
            .best_version(&req)
            .ok_or_else(|| ConcretizeError::NoSatisfyingVersion {
                package: name.to_string(),
                requirement: req.to_string(),
            })?
            .clone();

        // Resolve variants: defaults, overridden by the CLI spec.
        let mut variants: Vec<(String, VariantSetting)> = recipe
            .variants
            .iter()
            .map(|v| (v.name.clone(), v.default.clone()))
            .collect();
        for (vname, setting) in &cli_variants {
            let decl =
                recipe
                    .variant_decl(vname)
                    .ok_or_else(|| ConcretizeError::UnknownVariant {
                        package: name.to_string(),
                        variant: vname.clone(),
                    })?;
            if let VariantSetting::Value(val) = setting {
                if !decl.allowed.is_empty() && !decl.allowed.iter().any(|a| a == val) {
                    return Err(ConcretizeError::BadVariantValue {
                        package: name.to_string(),
                        variant: vname.clone(),
                        value: val.clone(),
                        allowed: decl.allowed.clone(),
                    });
                }
            }
            let slot = variants
                .iter_mut()
                .find(|(n, _)| n == vname)
                .expect("declared above");
            slot.1 = setting.clone();
        }

        // Conflicts against the target processor.
        for c in &recipe.conflicts {
            if c.when.holds(&variants) {
                if let Some(matcher) = &c.on_processor {
                    if self.ctx.target.matches(matcher) {
                        return Err(ConcretizeError::Conflict {
                            package: name.to_string(),
                            reason: c.reason.clone(),
                        });
                    }
                } else {
                    return Err(ConcretizeError::Conflict {
                        package: name.to_string(),
                        reason: c.reason.clone(),
                    });
                }
            }
        }

        // Reserve the node before recursing so unification sees it.
        let node_index = self.nodes.len();
        self.nodes.push(ConcretePackage {
            name: name.to_string(),
            version,
            compiler: compiler.clone(),
            variants: variants.clone(),
            external: false,
            satisfies: recipe.provides.clone(),
            deps: Vec::new(),
            hash: String::new(),
            build_cost: recipe.build_cost,
        });

        let mut stack2: Vec<String> = stack.to_vec();
        stack2.push(name.to_string());
        let mut dep_indices = Vec::new();
        for dep in &recipe.dependencies {
            if !dep.when.holds(&variants) {
                continue;
            }
            // Build-time tools don't need the target compiler chain.
            let dep_compiler = match dep.kind {
                DepKind::Build => compiler.clone(),
                _ => compiler.clone(),
            };
            let i = self.resolve(&dep.name, dep.req.clone(), None, dep_compiler, &stack2)?;
            if !dep_indices.contains(&i) {
                dep_indices.push(i);
            }
        }
        self.nodes[node_index].deps = dep_indices;
        Ok(node_index)
    }

    fn resolve_virtual(
        &mut self,
        virtual_name: &str,
        req: VersionReq,
        compiler: Option<(String, Version)>,
        stack: &[String],
    ) -> Result<usize, ConcretizeError> {
        // Already satisfied in this DAG?
        if let Some(i) = self
            .nodes
            .iter()
            .position(|n| n.satisfies.iter().any(|s| s == virtual_name))
        {
            return Ok(i);
        }
        let providers = self.repo.providers_of(virtual_name);
        if providers.is_empty() {
            return Err(ConcretizeError::NoProvider {
                virtual_name: virtual_name.to_string(),
            });
        }
        // 1. A `^provider` constraint on the command line picks explicitly.
        for c in &self.dep_constraints.clone() {
            if providers.iter().any(|p| p.name == c.name) {
                let name = c.name.clone();
                return self.resolve(&name, req.clone(), None, compiler, stack);
            }
        }
        // 2. An external provider on the system wins (reuse the site MPI —
        //    this is how Table 3 selects cray-mpich / mvapich / openmpi).
        for (ext_name, _) in &self.ctx.externals {
            if providers.iter().any(|p| &p.name == ext_name) {
                let name = ext_name.clone();
                return self.resolve(&name, req.clone(), None, compiler, stack);
            }
        }
        // 3. Fall back to the global preference order.
        let pref = PROVIDER_PREFERENCE
            .iter()
            .find(|(v, _)| *v == virtual_name)
            .map(|(_, order)| *order)
            .unwrap_or(&[]);
        for want in pref {
            if providers.iter().any(|p| p.name == *want) {
                return self.resolve(want, req.clone(), None, compiler, stack);
            }
        }
        let name = providers[0].name.clone();
        self.resolve(&name, req, None, compiler, stack)
    }
}

/// Deterministic content hashes, dependencies first.
fn compute_hashes(spec: &mut ConcreteSpec) {
    let order: Vec<usize> = {
        // Reuse topo logic over indices.
        let mut order = Vec::new();
        let mut state = vec![0u8; spec.nodes.len()];
        fn visit(nodes: &[ConcretePackage], i: usize, state: &mut [u8], order: &mut Vec<usize>) {
            if state[i] != 0 {
                return;
            }
            state[i] = 1;
            for &d in &nodes[i].deps {
                visit(nodes, d, state, order);
            }
            state[i] = 2;
            order.push(i);
        }
        for i in 0..spec.nodes.len() {
            visit(&spec.nodes, i, &mut state, &mut order);
        }
        order
    };
    for i in order {
        let mut material = spec.nodes[i].render();
        let deps: Vec<String> = spec.nodes[i]
            .deps
            .iter()
            .map(|&d| spec.nodes[d].hash.clone())
            .collect();
        material.push('|');
        material.push_str(&deps.join(","));
        spec.nodes[i].hash = short_hash(&material);
    }
}

/// 7-character base-32 content hash (FNV-1a based).
fn short_hash(material: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in material.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz234567";
    let mut out = String::with_capacity(7);
    for i in 0..7 {
        out.push(ALPHABET[((h >> (i * 5)) & 31) as usize] as char);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_archer2() -> SystemContext {
        SystemContext::new("archer2", Target::cpu("amd", "x86_64"))
            .with_external("gcc", "11.2.0")
            .with_external("python", "3.10.12")
            .with_external("cray-mpich", "8.1.23")
            .with_compiler("gcc", "11.2.0")
    }

    #[test]
    fn hpgmg_on_archer2_matches_table3() {
        let repo = Repo::builtin();
        let spec = Spec::parse("hpgmg%gcc").unwrap();
        let c = concretize(&spec, &repo, &ctx_archer2()).unwrap();
        assert_eq!(c.root().name, "hpgmg");
        assert_eq!(c.root().compiler.as_ref().unwrap().1.as_str(), "11.2.0");
        let mpi = c.provider_of("mpi").unwrap();
        assert_eq!(mpi.name, "cray-mpich");
        assert_eq!(mpi.version.as_str(), "8.1.23");
        assert!(mpi.external);
        let py = c.node("python").unwrap();
        assert_eq!(py.version.as_str(), "3.10.12");
        assert!(py.external);
    }

    #[test]
    fn cli_provider_override_wins() {
        let repo = Repo::builtin();
        let spec = Spec::parse("hpgmg%gcc ^openmpi@4.0.4").unwrap();
        let c = concretize(&spec, &repo, &ctx_archer2()).unwrap();
        let mpi = c.provider_of("mpi").unwrap();
        assert_eq!(mpi.name, "openmpi");
        assert_eq!(mpi.version.as_str(), "4.0.4");
        assert!(
            !mpi.external,
            "no openmpi external on archer2 — must build it"
        );
    }

    #[test]
    fn missing_external_builds_from_source() {
        let repo = Repo::builtin();
        let ctx = SystemContext::new("bare", Target::cpu("intel", "x86_64"))
            .with_compiler("gcc", "12.1.0");
        let spec = Spec::parse("hpgmg%gcc").unwrap();
        let c = concretize(&spec, &repo, &ctx).unwrap();
        let py = c.node("python").unwrap();
        assert!(!py.external);
        assert_eq!(py.version.as_str(), "3.10.12"); // newest in repo
                                                    // zlib pulled in transitively only for built python.
        assert!(c.node("zlib").is_some());
        let mpi = c.provider_of("mpi").unwrap();
        assert_eq!(mpi.name, "openmpi", "preference order picks openmpi");
    }

    #[test]
    fn cuda_on_cpu_conflicts() {
        let repo = Repo::builtin();
        let ctx = SystemContext::new("cpu-sys", Target::cpu("intel", "x86_64"))
            .with_compiler("gcc", "12.1.0");
        let spec = Spec::parse("babelstream +cuda").unwrap();
        let err = concretize(&spec, &repo, &ctx).unwrap_err();
        assert!(matches!(err, ConcretizeError::Conflict { .. }));

        let gpu_ctx =
            SystemContext::new("gpu-sys", Target::gpu("nvidia")).with_compiler("gcc", "12.1.0");
        let ok = concretize(&spec, &repo, &gpu_ctx).unwrap();
        assert!(ok.node("cuda").is_some(), "cuda toolkit pulled in");
    }

    #[test]
    fn tbb_on_arm_conflicts() {
        let repo = Repo::builtin();
        let ctx = SystemContext::new("isambard", Target::cpu("marvell", "aarch64"))
            .with_compiler("gcc", "10.3.0");
        let spec = Spec::parse("babelstream +tbb").unwrap();
        assert!(matches!(
            concretize(&spec, &repo, &ctx),
            Err(ConcretizeError::Conflict { .. })
        ));
    }

    #[test]
    fn hpcg_avx2_conflicts_on_amd() {
        let repo = Repo::builtin();
        let amd = SystemContext::new("archer2", Target::cpu("amd", "x86_64"))
            .with_compiler("gcc", "11.2.0");
        let spec = Spec::parse("hpcg impl=avx2").unwrap();
        assert!(
            concretize(&spec, &repo, &amd).is_err(),
            "Table 2: Intel-avx2 N/A on AMD"
        );
        let intel = SystemContext::new("csd3", Target::cpu("intel", "x86_64"))
            .with_compiler("gcc", "11.2.0");
        assert!(concretize(&spec, &repo, &intel).is_ok());
    }

    #[test]
    fn unknown_variant_and_value_rejected() {
        let repo = Repo::builtin();
        let ctx = ctx_archer2();
        assert!(matches!(
            concretize(&Spec::parse("hpgmg +nothere").unwrap(), &repo, &ctx),
            Err(ConcretizeError::UnknownVariant { .. })
        ));
        assert!(matches!(
            concretize(&Spec::parse("hpcg impl=fortran").unwrap(), &repo, &ctx),
            Err(ConcretizeError::BadVariantValue { .. })
        ));
    }

    #[test]
    fn contradiction_detected() {
        let repo = Repo::builtin();
        let ctx = ctx_archer2();
        let spec = Spec::parse("hpgmg ^python@3.8 ^python@2.7").unwrap();
        // Both constraints apply to the same node: versions clash.
        assert!(concretize(&spec, &repo, &ctx).is_err());
    }

    #[test]
    fn hashes_stable_and_sensitive() {
        let repo = Repo::builtin();
        let ctx = ctx_archer2();
        let a = concretize(&Spec::parse("hpgmg%gcc").unwrap(), &repo, &ctx).unwrap();
        let b = concretize(&Spec::parse("hpgmg%gcc").unwrap(), &repo, &ctx).unwrap();
        assert_eq!(
            a.dag_hash(),
            b.dag_hash(),
            "concretization must be deterministic"
        );
        let c = concretize(&Spec::parse("hpgmg%gcc ~fv").unwrap(), &repo, &ctx).unwrap();
        assert_ne!(a.dag_hash(), c.dag_hash(), "variants must change the hash");
        assert_eq!(a.dag_hash().len(), 7);
    }

    #[test]
    fn topo_order_deps_first() {
        let repo = Repo::builtin();
        let ctx = SystemContext::new("bare", Target::cpu("intel", "x86_64"))
            .with_compiler("gcc", "12.1.0");
        let c = concretize(&Spec::parse("hpgmg").unwrap(), &repo, &ctx).unwrap();
        let order = c.topo_order();
        let pos = |name: &str| order.iter().position(|n| n.name == name).unwrap();
        assert!(pos("zlib") < pos("python"));
        assert!(pos("python") < pos("hpgmg"));
        assert!(pos("hwloc") < pos("openmpi"));
        assert!(pos("openmpi") < pos("hpgmg"));
        assert_eq!(order.len(), c.nodes().len());
    }

    #[test]
    fn display_renders_tree() {
        let repo = Repo::builtin();
        let c = concretize(&Spec::parse("hpgmg%gcc").unwrap(), &repo, &ctx_archer2()).unwrap();
        let shown = c.to_string();
        assert!(shown.contains("hpgmg@"));
        assert!(shown.contains("[external]"));
    }
}
