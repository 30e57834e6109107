//! YAML and JSON emitters.

use crate::value::{format_float, Map, Value};

impl Value {
    /// Emit as YAML (block style, 2-space indentation).
    pub fn to_yaml(&self) -> String {
        let mut out = String::new();
        emit_yaml(self, 0, &mut out);
        out
    }

    /// Emit as compact single-line JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        emit_json(self, &mut out);
        out
    }
}

fn indent_str(n: usize) -> String {
    " ".repeat(n * 2)
}

fn emit_yaml(v: &Value, depth: usize, out: &mut String) {
    match v {
        Value::Map(m) if !m.is_empty() => emit_yaml_map(m, depth, out),
        Value::List(l) if !l.is_empty() => emit_yaml_list(l, depth, out),
        other => {
            out.push_str(&yaml_scalar(other));
            out.push('\n');
        }
    }
}

fn emit_yaml_map(m: &Map, depth: usize, out: &mut String) {
    for (k, v) in m.iter() {
        out.push_str(&indent_str(depth));
        out.push_str(&yaml_key(k));
        out.push(':');
        match v {
            Value::Map(inner) if !inner.is_empty() => {
                out.push('\n');
                emit_yaml_map(inner, depth + 1, out);
            }
            Value::List(inner) if !inner.is_empty() => {
                out.push('\n');
                emit_yaml_list(inner, depth + 1, out);
            }
            other => {
                out.push(' ');
                out.push_str(&yaml_scalar(other));
                out.push('\n');
            }
        }
    }
}

fn emit_yaml_list(l: &[Value], depth: usize, out: &mut String) {
    for item in l {
        out.push_str(&indent_str(depth));
        out.push('-');
        match item {
            Value::Map(m) if !m.is_empty() => {
                // Inline the first key on the dash line, like idiomatic YAML.
                let mut first = true;
                for (k, v) in m.iter() {
                    if first {
                        out.push(' ');
                        first = false;
                    } else {
                        out.push_str(&indent_str(depth + 1));
                    }
                    out.push_str(&yaml_key(k));
                    out.push(':');
                    match v {
                        Value::Map(inner) if !inner.is_empty() => {
                            out.push('\n');
                            emit_yaml_map(inner, depth + 2, out);
                        }
                        Value::List(inner) if !inner.is_empty() => {
                            out.push('\n');
                            emit_yaml_list(inner, depth + 2, out);
                        }
                        other => {
                            out.push(' ');
                            out.push_str(&yaml_scalar(other));
                            out.push('\n');
                        }
                    }
                }
            }
            Value::List(inner) if !inner.is_empty() => {
                out.push(' ');
                // Nested sequence: flow style keeps the emitter simple and
                // still reparses identically.
                out.push_str(&flow_yaml(item));
                out.push('\n');
                let _ = inner;
            }
            other => {
                out.push(' ');
                out.push_str(&yaml_scalar(other));
                out.push('\n');
            }
        }
    }
}

fn flow_yaml(v: &Value) -> String {
    match v {
        Value::List(l) => {
            let inner: Vec<String> = l.iter().map(flow_yaml).collect();
            format!("[{}]", inner.join(", "))
        }
        Value::Map(m) => {
            let inner: Vec<String> = m
                .iter()
                .map(|(k, v)| format!("{}: {}", yaml_key(k), flow_yaml(v)))
                .collect();
            format!("{{{}}}", inner.join(", "))
        }
        // Inside flow context, the flow metacharacters also force quoting.
        Value::Str(s) if s.contains(['[', ']', '{', '}', ',', ':']) => {
            format!("\"{}\"", escape_double(s))
        }
        other => yaml_scalar(other),
    }
}

fn yaml_key(k: &str) -> String {
    if needs_quoting(k) {
        format!("\"{}\"", escape_double(k))
    } else {
        k.to_string()
    }
}

fn yaml_scalar(v: &Value) -> String {
    match v {
        Value::Null => "null".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => format_float(*f),
        Value::Str(s) => {
            if needs_quoting(s) || looks_typed(s) {
                format!("\"{}\"", escape_double(s))
            } else {
                s.clone()
            }
        }
        Value::Map(m) if m.is_empty() => "{}".to_string(),
        Value::List(l) if l.is_empty() => "[]".to_string(),
        other => flow_yaml(other),
    }
}

/// Would this string be misparsed if left bare?
fn needs_quoting(s: &str) -> bool {
    s.is_empty()
        || s.starts_with(|c: char| c.is_whitespace())
        || s.ends_with(|c: char| c.is_whitespace())
        || s.contains(": ")
        || s.ends_with(':')
        || s.starts_with("- ")
        || s == "-"
        || s.starts_with([
            '#', '[', ']', '{', '}', '"', '\'', '&', '*', '!', '|', '>', '%', '@',
        ])
        || s.contains(" #")
        || s.contains('\n')
        || s.contains('\t')
}

/// Would type inference turn this bare string into a non-string?
fn looks_typed(s: &str) -> bool {
    matches!(
        s,
        "~" | "null" | "Null" | "NULL" | "true" | "True" | "yes" | "false" | "False" | "no"
    ) || s.parse::<i64>().is_ok()
        || (s.chars().any(|c| c.is_ascii_digit()) && s.parse::<f64>().is_ok())
}

fn escape_double(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

fn emit_json(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => {
            if f.is_finite() {
                out.push_str(&format_float(*f));
            } else {
                out.push_str("null"); // JSON has no Inf/NaN
            }
        }
        Value::Str(s) => {
            out.push('"');
            out.push_str(&escape_double(s));
            out.push('"');
        }
        Value::List(l) => {
            out.push('[');
            for (i, item) in l.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                emit_json(item, out);
            }
            out.push(']');
        }
        Value::Map(m) => {
            out.push('{');
            for (i, (k, val)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(&escape_double(k));
                out.push_str("\":");
                emit_json(val, out);
            }
            out.push('}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn quoting_protects_typed_strings() {
        let mut m = Map::new();
        m.insert("v", Value::Str("123".into()));
        m.insert("b", Value::Str("true".into()));
        let v = Value::Map(m);
        let reparsed = parse(&v.to_yaml()).unwrap();
        assert_eq!(reparsed.get_path("v").unwrap().as_str(), Some("123"));
        assert_eq!(reparsed.get_path("b").unwrap().as_str(), Some("true"));
    }

    #[test]
    fn float_formatting_keeps_type() {
        let v = Value::Float(2.0);
        let s = yaml_scalar(&v);
        assert_eq!(s, "2.0");
        assert!(matches!(
            super::super::parse::parse_scalar(&s, 1).unwrap(),
            Value::Float(_)
        ));
    }

    #[test]
    fn empty_containers() {
        let mut m = Map::new();
        m.insert("a", Value::List(vec![]));
        m.insert("b", Value::Map(Map::new()));
        let v = Value::Map(m);
        let reparsed = parse(&v.to_yaml()).unwrap();
        assert_eq!(reparsed.get_path("a").unwrap().as_list().unwrap().len(), 0);
        assert!(reparsed.get_path("b").unwrap().as_map().unwrap().is_empty());
    }
}
