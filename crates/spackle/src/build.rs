//! Build execution and provenance.
//!
//! Principle 3 says the benchmark must be rebuilt every time it runs so the
//! steps to reproduce the binary are always known. The installer walks the
//! concrete DAG in dependency order; already-installed hashes are reused
//! (like Spack's store) but the *root* package is always rebuilt when
//! `rebuild_root` is set — that is the framework's default. Every action is
//! recorded in a [`BuildRecord`] for later audit.

use crate::concretize::ConcreteSpec;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// What happened to one package during an install.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildAction {
    /// Fresh build from source.
    Built,
    /// Reused from the installation store (same content hash).
    Cached,
    /// Provided by the system; nothing to do.
    External,
}

/// Provenance for one package install.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildRecord {
    pub package: String,
    pub version: String,
    pub hash: String,
    pub action: BuildAction,
    /// Simulated build time, seconds.
    pub build_time_s: f64,
    /// The exact steps a human would replay.
    pub steps: Vec<String>,
}

/// The install store: content-hash keyed, like Spack's opt/spack tree.
#[derive(Debug, Clone, Default)]
pub struct Store {
    pub(crate) installed: BTreeMap<String, String>, // hash -> package render
}

impl Store {
    pub fn new() -> Store {
        Store::default()
    }

    pub fn contains(&self, hash: &str) -> bool {
        self.installed.contains_key(hash)
    }

    pub fn len(&self) -> usize {
        self.installed.len()
    }

    pub fn is_empty(&self) -> bool {
        self.installed.is_empty()
    }

    /// Wrap this store for shared use across threads.
    pub fn into_shared(self) -> SharedStore {
        SharedStore(Arc::new(Mutex::new(self)))
    }
}

/// A [`Store`] shared between concurrent installers — the warm-store mode
/// of the suite executor: one store per system, behind a lock, so the
/// (system × case) grid reuses dependency builds the way Spack's build
/// cache does across test cases on the same machine.
///
/// Cache *accounting* against a shared store depends on who installs
/// first; callers that need deterministic attribution (the suite runner's
/// byte-identical-report invariant) must serialize their installs in a
/// canonical order — see `harness::SuiteRunner`'s warm prepass.
#[derive(Debug, Clone, Default)]
pub struct SharedStore(Arc<Mutex<Store>>);

impl SharedStore {
    pub fn new() -> SharedStore {
        SharedStore::default()
    }

    /// Lock the store for an install (or inspection).
    pub fn lock(&self) -> MutexGuard<'_, Store> {
        self.0.lock().expect("shared store poisoned")
    }
}

/// Installer options.
#[derive(Debug, Clone, Copy)]
pub struct InstallOptions {
    /// Always rebuild the root package even if its hash is installed
    /// (Principle 3). Dependencies may still be cache hits.
    pub rebuild_root: bool,
    /// Seconds of simulated time per unit of recipe build cost.
    pub seconds_per_cost: f64,
}

impl Default for InstallOptions {
    fn default() -> InstallOptions {
        InstallOptions {
            rebuild_root: true,
            seconds_per_cost: 30.0,
        }
    }
}

/// Result of installing one concrete spec.
#[derive(Debug, Clone)]
pub struct InstallReport {
    pub records: Vec<BuildRecord>,
    pub total_time_s: f64,
}

impl InstallReport {
    #[cfg(test)]
    pub(crate) fn record_for(&self, package: &str) -> Option<&BuildRecord> {
        self.records.iter().find(|r| r.package == package)
    }

    pub fn n_built(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.action == BuildAction::Built)
            .count()
    }

    pub fn n_cached(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.action == BuildAction::Cached)
            .count()
    }
}

/// Install `spec` into `store`, returning full provenance.
pub fn install(spec: &ConcreteSpec, store: &mut Store, opts: InstallOptions) -> InstallReport {
    let root_hash = spec.dag_hash().to_string();
    let mut records = Vec::new();
    let mut total = 0.0;
    for node in spec.topo_order() {
        let action = if node.external {
            BuildAction::External
        } else if store.contains(&node.hash) && !(opts.rebuild_root && node.hash == root_hash) {
            BuildAction::Cached
        } else {
            BuildAction::Built
        };
        let build_time = match action {
            BuildAction::Built => node.build_cost * opts.seconds_per_cost,
            _ => 0.0,
        };
        total += build_time;
        let steps = match action {
            BuildAction::External => {
                vec![format!("use system {}@{}", node.name, node.version)]
            }
            BuildAction::Cached => {
                vec![format!("reuse /opt/store/{}-{}", node.name, node.hash)]
            }
            BuildAction::Built => vec![
                format!("fetch {}-{}.tar.gz", node.name, node.version),
                format!(
                    "configure {} --prefix=/opt/store/{}-{}{}",
                    node.name,
                    node.name,
                    node.hash,
                    node.compiler
                        .as_ref()
                        .map(|(c, v)| format!(" CC={c}@{v}"))
                        .unwrap_or_default()
                ),
                format!("build {}", node.render()),
                format!("install /opt/store/{}-{}", node.name, node.hash),
            ],
        };
        if action == BuildAction::Built {
            store.installed.insert(node.hash.clone(), node.render());
        }
        records.push(BuildRecord {
            package: node.name.clone(),
            version: node.version.to_string(),
            hash: node.hash.clone(),
            action,
            build_time_s: build_time,
            steps,
        });
    }
    InstallReport {
        records,
        total_time_s: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concretize::{concretize, SystemContext, Target};
    use crate::repo::Repo;
    use crate::spec::Spec;

    fn concrete() -> ConcreteSpec {
        let repo = Repo::builtin();
        let ctx = SystemContext::new("bare", Target::cpu("intel", "x86_64"))
            .with_compiler("gcc", "12.1.0");
        concretize(&Spec::parse("hpgmg%gcc").unwrap(), &repo, &ctx).unwrap()
    }

    #[test]
    fn first_install_builds_everything() {
        let spec = concrete();
        let mut store = Store::new();
        let report = install(&spec, &mut store, InstallOptions::default());
        assert_eq!(report.n_cached(), 0);
        assert_eq!(report.n_built(), spec.nodes().len());
        assert!(report.total_time_s > 0.0);
        assert_eq!(store.len(), spec.nodes().len());
    }

    #[test]
    fn second_install_rebuilds_only_root() {
        let spec = concrete();
        let mut store = Store::new();
        install(&spec, &mut store, InstallOptions::default());
        let report = install(&spec, &mut store, InstallOptions::default());
        assert_eq!(report.n_built(), 1, "Principle 3: root rebuilt every time");
        assert_eq!(
            report.record_for("hpgmg").unwrap().action,
            BuildAction::Built
        );
        assert_eq!(report.n_cached(), spec.nodes().len() - 1);
    }

    #[test]
    fn without_p3_everything_caches() {
        let spec = concrete();
        let mut store = Store::new();
        install(&spec, &mut store, InstallOptions::default());
        let report = install(
            &spec,
            &mut store,
            InstallOptions {
                rebuild_root: false,
                ..InstallOptions::default()
            },
        );
        assert_eq!(report.n_built(), 0);
    }

    #[test]
    fn externals_take_no_time_and_keep_provenance() {
        let repo = Repo::builtin();
        let ctx = SystemContext::new("archer2", Target::cpu("amd", "x86_64"))
            .with_external("python", "3.10.12")
            .with_external("cray-mpich", "8.1.23")
            .with_compiler("gcc", "11.2.0");
        let spec = concretize(&Spec::parse("hpgmg%gcc").unwrap(), &repo, &ctx).unwrap();
        let mut store = Store::new();
        let report = install(&spec, &mut store, InstallOptions::default());
        let py = report.record_for("python").unwrap();
        assert_eq!(py.action, BuildAction::External);
        assert_eq!(py.build_time_s, 0.0);
        assert!(py.steps[0].contains("use system python@3.10.12"));
    }

    #[test]
    fn shared_store_reuses_across_lock_scopes() {
        let spec = concrete();
        let shared = Store::new().into_shared();
        let first = install(&spec, &mut shared.lock(), InstallOptions::default());
        assert_eq!(first.n_cached(), 0);
        // A clone refers to the same underlying store: deps now cache.
        let alias = shared.clone();
        let second = install(&spec, &mut alias.lock(), InstallOptions::default());
        assert_eq!(second.n_built(), 1, "root rebuilt, deps reused");
        assert_eq!(second.n_cached(), spec.nodes().len() - 1);
    }

    #[test]
    fn build_steps_mention_compiler() {
        let spec = concrete();
        let mut store = Store::new();
        let report = install(&spec, &mut store, InstallOptions::default());
        let root = report.record_for("hpgmg").unwrap();
        assert!(
            root.steps.iter().any(|s| s.contains("CC=gcc@12.1.0")),
            "{:?}",
            root.steps
        );
    }
}
