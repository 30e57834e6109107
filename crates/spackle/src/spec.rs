//! The spec grammar: `name@ver %compiler@cver +variant ~variant opt=val ^dep...`
//!
//! This is the syntax the paper's appendix passes on the ReFrame command
//! line, e.g. `babelstream%gcc@9.2.0 +omp` and `hpgmg%gcc`.

use crate::version::VersionReq;
use std::fmt;

/// A variant setting in a spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VariantSetting {
    /// `+name`
    On,
    /// `~name` or `-name`
    Off,
    /// `name=value`
    Value(String),
}

impl VariantSetting {
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            VariantSetting::On => Some(true),
            VariantSetting::Off => Some(false),
            VariantSetting::Value(v) => match v.as_str() {
                "true" => Some(true),
                "false" => Some(false),
                _ => None,
            },
        }
    }
}

/// A compiler constraint (`%gcc@9.2.0`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompilerReq {
    pub name: String,
    pub version: VersionReq,
}

impl fmt::Display for CompilerReq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}{}", self.name, self.version)
    }
}

/// An abstract (possibly under-constrained) spec.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Spec {
    pub name: String,
    pub version: VersionReq,
    pub compiler: Option<CompilerReq>,
    pub variants: Vec<(String, VariantSetting)>,
    /// `^dep` constraints on (transitive) dependencies.
    pub deps: Vec<Spec>,
}

/// Error from spec parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecParseError {
    pub message: String,
}

impl fmt::Display for SpecParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "spec parse error: {}", self.message)
    }
}

impl std::error::Error for SpecParseError {}

impl Spec {
    /// A bare spec with just a package name.
    pub fn named(name: &str) -> Spec {
        Spec {
            name: name.to_string(),
            ..Spec::default()
        }
    }

    /// Parse the full spec grammar.
    pub fn parse(text: &str) -> Result<Spec, SpecParseError> {
        let mut tokens = tokenize(text)?;
        if tokens.is_empty() {
            return Err(SpecParseError {
                message: "empty spec".into(),
            });
        }
        // Split the token stream into root + ^dep segments.
        let mut segments: Vec<Vec<Token>> = vec![Vec::new()];
        for t in tokens.drain(..) {
            if matches!(t, Token::Caret) {
                segments.push(Vec::new());
            } else {
                segments.last_mut().expect("at least one segment").push(t);
            }
        }
        let mut root = parse_segment(&segments[0])?;
        for seg in &segments[1..] {
            if seg.is_empty() {
                return Err(SpecParseError {
                    message: "dangling `^`".into(),
                });
            }
            root.deps.push(parse_segment(seg)?);
        }
        Ok(root)
    }

    /// The variant setting for `name`, if given.
    pub fn variant(&self, name: &str) -> Option<&VariantSetting> {
        self.variants
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }

    /// Set (or replace) a variant.
    pub fn with_variant(mut self, name: &str, setting: VariantSetting) -> Spec {
        self.variants.retain(|(n, _)| n != name);
        self.variants.push((name.to_string(), setting));
        self
    }

    /// Constrain the version.
    pub fn with_version(mut self, req: VersionReq) -> Spec {
        self.version = req;
        self
    }

    /// Constrain the compiler.
    pub fn with_compiler(mut self, name: &str, version: VersionReq) -> Spec {
        self.compiler = Some(CompilerReq {
            name: name.to_string(),
            version,
        });
        self
    }
}

impl fmt::Display for Spec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.name, self.version)?;
        if let Some(c) = &self.compiler {
            write!(f, " {c}")?;
        }
        for (name, setting) in &self.variants {
            match setting {
                VariantSetting::On => write!(f, " +{name}")?,
                VariantSetting::Off => write!(f, " ~{name}")?,
                VariantSetting::Value(v) => write!(f, " {name}={v}")?,
            }
        }
        for d in &self.deps {
            write!(f, " ^{d}")?;
        }
        Ok(())
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Token {
    Name(String),
    At(String),
    Percent(String),
    Plus(String),
    Tilde(String),
    KeyVal(String, String),
    Caret,
}

fn tokenize(text: &str) -> Result<Vec<Token>, SpecParseError> {
    let mut out = Vec::new();
    let err = |m: String| SpecParseError { message: m };
    // `^` may be glued to the following name; split it off first.
    let mut words: Vec<String> = Vec::new();
    for raw in text.split_whitespace() {
        let mut rest = raw;
        while let Some(stripped) = rest.strip_prefix('^') {
            words.push("^".to_string());
            rest = stripped;
        }
        if !rest.is_empty() {
            // `name@1.2%gcc@9+x` can be glued; split on meta chars but keep
            // them attached to their argument.
            let mut cur = String::new();
            let mut chars = rest.chars().peekable();
            while let Some(c) = chars.next() {
                if matches!(c, '@' | '%' | '+' | '~') && !cur.is_empty() {
                    words.push(std::mem::take(&mut cur));
                }
                cur.push(c);
                if matches!(c, '@' | '%' | '+' | '~') {
                    // Collect the argument.
                    while let Some(&n) = chars.peek() {
                        if matches!(n, '@' | '%' | '+' | '~') {
                            break;
                        }
                        cur.push(n);
                        chars.next();
                    }
                    words.push(std::mem::take(&mut cur));
                }
            }
            if !cur.is_empty() {
                words.push(cur);
            }
        }
    }
    for w in words {
        if w == "^" {
            out.push(Token::Caret);
        } else if let Some(v) = w.strip_prefix('@') {
            if v.is_empty() {
                return Err(err("`@` needs a version".into()));
            }
            out.push(Token::At(v.to_string()));
        } else if let Some(c) = w.strip_prefix('%') {
            if c.is_empty() {
                return Err(err("`%` needs a compiler".into()));
            }
            out.push(Token::Percent(c.to_string()));
        } else if let Some(v) = w.strip_prefix('+') {
            if v.is_empty() {
                return Err(err("`+` needs a variant name".into()));
            }
            out.push(Token::Plus(v.to_string()));
        } else if let Some(v) = w.strip_prefix('~') {
            if v.is_empty() {
                return Err(err("`~` needs a variant name".into()));
            }
            out.push(Token::Tilde(v.to_string()));
        } else if let Some((k, v)) = w.split_once('=') {
            if k.is_empty() || v.is_empty() {
                return Err(err(format!("malformed key=value `{w}`")));
            }
            out.push(Token::KeyVal(k.to_string(), v.to_string()));
        } else {
            out.push(Token::Name(w));
        }
    }
    Ok(out)
}

fn parse_segment(tokens: &[Token]) -> Result<Spec, SpecParseError> {
    let mut spec = Spec::default();
    let mut compiler: Option<CompilerReq> = None;
    let mut after_percent = false;
    for t in tokens {
        match t {
            Token::Name(n) => {
                if !spec.name.is_empty() {
                    return Err(SpecParseError {
                        message: format!("unexpected second package name `{n}`"),
                    });
                }
                spec.name = n.clone();
            }
            Token::At(v) => {
                if after_percent {
                    let c = compiler.as_mut().expect("after_percent implies compiler");
                    c.version = VersionReq::parse(v);
                    after_percent = false;
                } else {
                    spec.version = VersionReq::parse(v);
                }
            }
            Token::Percent(c) => {
                // `%gcc@9.2.0` may arrive glued: split the version off.
                if let Some((name, ver)) = c.split_once('@') {
                    compiler = Some(CompilerReq {
                        name: name.to_string(),
                        version: VersionReq::parse(ver),
                    });
                    after_percent = false;
                } else {
                    compiler = Some(CompilerReq {
                        name: c.clone(),
                        version: VersionReq::Any,
                    });
                    after_percent = true;
                }
            }
            Token::Plus(v) => {
                spec.variants.push((v.clone(), VariantSetting::On));
                after_percent = false;
            }
            Token::Tilde(v) => {
                spec.variants.push((v.clone(), VariantSetting::Off));
                after_percent = false;
            }
            Token::KeyVal(k, v) => {
                spec.variants
                    .push((k.clone(), VariantSetting::Value(v.clone())));
                after_percent = false;
            }
            Token::Caret => unreachable!("segments split on Caret"),
        }
    }
    if spec.name.is_empty() {
        return Err(SpecParseError {
            message: "spec has no package name".into(),
        });
    }
    spec.compiler = compiler;
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::version::Version;

    #[test]
    fn parse_paper_specs() {
        // From the paper's appendix.
        let s = Spec::parse("babelstream%gcc@9.2.0 +omp").unwrap();
        assert_eq!(s.name, "babelstream");
        let c = s.compiler.as_ref().unwrap();
        assert_eq!(c.name, "gcc");
        assert!(c.version.matches(&Version::new("9.2.0")));
        assert_eq!(s.variant("omp"), Some(&VariantSetting::On));

        let s = Spec::parse("hpgmg%gcc").unwrap();
        assert_eq!(s.name, "hpgmg");
        assert_eq!(s.compiler.as_ref().unwrap().name, "gcc");
        assert_eq!(s.compiler.as_ref().unwrap().version, VersionReq::Any);
    }

    #[test]
    fn parse_glued_spec() {
        let s = Spec::parse("hpcg@3.1%gcc@11.2+mpi~avx2").unwrap();
        assert_eq!(s.name, "hpcg");
        assert!(s.version.matches(&Version::new("3.1")));
        assert_eq!(s.compiler.as_ref().unwrap().name, "gcc");
        assert_eq!(s.variant("mpi"), Some(&VariantSetting::On));
        assert_eq!(s.variant("avx2"), Some(&VariantSetting::Off));
    }

    #[test]
    fn parse_dependencies() {
        let s = Spec::parse("hpgmg +fv ^openmpi@4.0.4 ^python@3.8").unwrap();
        assert_eq!(s.deps.len(), 2);
        assert_eq!(s.deps[0].name, "openmpi");
        assert!(s.deps[0].version.matches(&Version::new("4.0.4")));
        assert_eq!(s.deps[1].name, "python");
    }

    #[test]
    fn parse_key_value_variant() {
        let s = Spec::parse("babelstream model=cuda").unwrap();
        assert_eq!(
            s.variant("model"),
            Some(&VariantSetting::Value("cuda".into()))
        );
    }

    #[test]
    fn display_roundtrip() {
        for text in [
            "babelstream%gcc@9.2.0 +omp",
            "hpgmg%gcc",
            "hpcg@3.1 +mpi ~avx2 ^openmpi@4.0.4",
            "stream model=omp",
        ] {
            let s = Spec::parse(text).unwrap();
            let re = Spec::parse(&s.to_string()).unwrap();
            assert_eq!(s, re, "round-trip failed for `{text}`");
        }
    }

    #[test]
    fn errors() {
        assert!(Spec::parse("").is_err());
        assert!(Spec::parse("@1.2").is_err());
        assert!(Spec::parse("a b").is_err());
        assert!(Spec::parse("pkg ^").is_err());
        assert!(Spec::parse("pkg +").is_err());
    }

    #[test]
    fn builder() {
        let s = Spec::named("hpcg")
            .with_version(VersionReq::parse("3.1"))
            .with_compiler("gcc", VersionReq::Any)
            .with_variant("mpi", VariantSetting::On);
        assert_eq!(s.to_string(), "hpcg@3.1 %gcc +mpi");
    }
}
