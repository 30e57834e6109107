//! Package recipes: the "wisdom of the crowd" (§2.2, Principle 2).
//!
//! A recipe teaches the package manager how a package is built: which
//! versions exist, which variants it exposes, what it depends on (possibly
//! conditionally on variants), and which combinations conflict.

use crate::spec::VariantSetting;
use crate::version::{Version, VersionReq};

/// Kind of dependency edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepKind {
    /// Needed to build (compilers, cmake, python-for-configure).
    Build,
    /// Linked into the result (MPI, BLAS).
    Link,
    /// Needed at run time only.
    Run,
}

/// A declared variant with its default.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VariantDecl {
    pub name: String,
    pub default: VariantSetting,
    pub description: String,
    /// Allowed values for value-variants (empty = free-form or boolean).
    pub allowed: Vec<String>,
}

impl VariantDecl {
    pub(crate) fn boolean(name: &str, default: bool, description: &str) -> VariantDecl {
        VariantDecl {
            name: name.to_string(),
            default: if default {
                VariantSetting::On
            } else {
                VariantSetting::Off
            },
            description: description.to_string(),
            allowed: Vec::new(),
        }
    }

    pub fn choice(name: &str, default: &str, allowed: &[&str], description: &str) -> VariantDecl {
        VariantDecl {
            name: name.to_string(),
            default: VariantSetting::Value(default.to_string()),
            description: description.to_string(),
            allowed: allowed.iter().map(|s| s.to_string()).collect(),
        }
    }
}

/// A condition on the package's own resolved variants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum When {
    Always,
    /// Variant is on (boolean) or equals the value.
    VariantIs(String, VariantSetting),
}

impl When {
    /// Evaluate against a resolved variant assignment.
    pub fn holds(&self, variants: &[(String, VariantSetting)]) -> bool {
        match self {
            When::Always => true,
            When::VariantIs(name, want) => variants
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, have)| have == want)
                .unwrap_or(false),
        }
    }
}

/// A dependency declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepDecl {
    /// Package (or virtual) name.
    pub name: String,
    pub req: VersionReq,
    pub kind: DepKind,
    pub when: When,
}

/// A conflict declaration: the package cannot be built when `when` holds
/// on a platform matching `platform_kind` (if given).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conflict {
    pub when: When,
    /// "cpu" / "gpu" — the processor kind this combination cannot target.
    pub on_processor: Option<String>,
    pub reason: String,
}

/// A package recipe.
#[derive(Debug, Clone, PartialEq)]
pub struct Recipe {
    pub name: String,
    /// Known versions, preferred first after sorting (we pick the highest).
    pub versions: Vec<Version>,
    pub variants: Vec<VariantDecl>,
    pub dependencies: Vec<DepDecl>,
    pub conflicts: Vec<Conflict>,
    /// Virtual packages this recipe provides (e.g. openmpi provides "mpi").
    pub provides: Vec<String>,
    /// Relative cost of building this package (drives the build simulator).
    pub build_cost: f64,
}

impl Recipe {
    pub fn new(name: &str, versions: &[&str]) -> Recipe {
        let mut versions: Vec<Version> = versions.iter().map(|v| Version::new(v)).collect();
        versions.sort();
        Recipe {
            name: name.to_string(),
            versions,
            variants: Vec::new(),
            dependencies: Vec::new(),
            conflicts: Vec::new(),
            provides: Vec::new(),
            build_cost: 1.0,
        }
    }

    pub fn with_variant(mut self, v: VariantDecl) -> Recipe {
        self.variants.push(v);
        self
    }

    pub(crate) fn with_dep(mut self, name: &str, req: &str, kind: DepKind) -> Recipe {
        self.dependencies.push(DepDecl {
            name: name.to_string(),
            req: VersionReq::parse(req),
            kind,
            when: When::Always,
        });
        self
    }

    pub(crate) fn with_dep_when(
        mut self,
        name: &str,
        req: &str,
        kind: DepKind,
        when: When,
    ) -> Recipe {
        self.dependencies.push(DepDecl {
            name: name.to_string(),
            req: VersionReq::parse(req),
            kind,
            when,
        });
        self
    }

    pub(crate) fn with_conflict(mut self, c: Conflict) -> Recipe {
        self.conflicts.push(c);
        self
    }

    pub fn providing(mut self, virtual_name: &str) -> Recipe {
        self.provides.push(virtual_name.to_string());
        self
    }

    pub(crate) fn with_build_cost(mut self, cost: f64) -> Recipe {
        self.build_cost = cost;
        self
    }

    /// Highest known version satisfying `req`.
    pub(crate) fn best_version(&self, req: &VersionReq) -> Option<&Version> {
        self.versions.iter().rev().find(|v| req.matches(v))
    }

    /// Declared variant by name.
    pub(crate) fn variant_decl(&self, name: &str) -> Option<&VariantDecl> {
        self.variants.iter().find(|v| v.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_version_picks_highest_matching() {
        let r = Recipe::new("gcc", &["9.2.0", "10.3.0", "11.2.0", "12.1.0"]);
        assert_eq!(r.best_version(&VersionReq::Any).unwrap().as_str(), "12.1.0");
        assert_eq!(
            r.best_version(&VersionReq::parse("10")).unwrap().as_str(),
            "10.3.0"
        );
        assert!(r.best_version(&VersionReq::parse("13")).is_none());
    }

    #[test]
    fn when_conditions() {
        let vars = vec![
            ("mpi".to_string(), VariantSetting::On),
            ("model".to_string(), VariantSetting::Value("cuda".into())),
        ];
        assert!(When::Always.holds(&vars));
        assert!(When::VariantIs("mpi".into(), VariantSetting::On).holds(&vars));
        assert!(!When::VariantIs("mpi".into(), VariantSetting::Off).holds(&vars));
        assert!(When::VariantIs("model".into(), VariantSetting::Value("cuda".into())).holds(&vars));
        assert!(!When::VariantIs("missing".into(), VariantSetting::On).holds(&vars));
    }
}
