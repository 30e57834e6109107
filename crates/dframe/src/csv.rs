//! CSV reading and writing (RFC 4180 quoting).

use crate::cell::Cell;
use crate::frame::DataFrame;
use std::fmt;

/// Error from CSV parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvError {
    /// 1-based record number (header is record 1).
    pub record: usize,
    pub message: String,
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CSV error in record {}: {}", self.record, self.message)
    }
}

impl std::error::Error for CsvError {}

impl DataFrame {
    /// Serialize to CSV with a header row.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let names: Vec<String> = self.column_names().iter().map(|n| quote_field(n)).collect();
        out.push_str(&names.join(","));
        out.push('\n');
        for i in 0..self.n_rows() {
            let cells: Vec<String> = self
                .columns()
                .iter()
                .map(|c| render_cell(c.get(i)))
                .collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }
}

/// Render one cell as a CSV field. String cells whose text would re-infer
/// as another type (`"42"`, `"true"`, `""`, `"1e3"`, ...) are quoted so the
/// reader can tell them apart from genuine numerics/bools/nulls.
fn render_cell(cell: &Cell) -> String {
    match cell {
        Cell::Str(s) => {
            if !matches!(Cell::infer(s), Cell::Str(_)) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                quote_field(s)
            }
        }
        other => quote_field(&other.to_string()),
    }
}

fn quote_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// One parsed CSV field, remembering whether any part of it was quoted.
/// Quotedness is the writer's type marker: a quoted `"42"` is the string
/// `42`, an unquoted `42` is the integer.
struct Field {
    text: String,
    quoted: bool,
}

impl Field {
    fn cell(&self) -> Cell {
        if self.quoted {
            Cell::Str(self.text.clone())
        } else {
            Cell::infer(&self.text)
        }
    }
}

/// Parse CSV text (with header) into a frame, inferring cell types.
/// Quoted fields always parse as strings.
pub fn from_csv(text: &str) -> Result<DataFrame, CsvError> {
    let records = parse_records(text)?;
    let mut iter = records.into_iter();
    let header = match iter.next() {
        Some(h) => h,
        None => return Ok(DataFrame::default()),
    };
    let header: Vec<String> = header.into_iter().map(|f| f.text).collect();
    let mut df = DataFrame::new(header.clone());
    for (i, record) in iter.enumerate() {
        if record.len() != header.len() {
            return Err(CsvError {
                record: i + 2,
                message: format!("expected {} fields, got {}", header.len(), record.len()),
            });
        }
        let cells = record.iter().map(Field::cell).collect();
        df.push_row(cells).expect("arity checked");
    }
    Ok(df)
}

/// Split text into records of fields, honouring quotes (fields may contain
/// embedded newlines).
fn parse_records(text: &str) -> Result<Vec<Vec<Field>>, CsvError> {
    let mut records = Vec::new();
    let mut record: Vec<Field> = Vec::new();
    let mut field = String::new();
    let mut quoted = false;
    let mut chars = text.chars().peekable();
    let mut in_quotes = false;
    let mut any = false;

    let take = |field: &mut String, quoted: &mut bool| Field {
        text: std::mem::take(field),
        quoted: std::mem::take(quoted),
    };
    while let Some(c) = chars.next() {
        any = true;
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                c => field.push(c),
            }
        } else {
            match c {
                '"' => {
                    in_quotes = true;
                    quoted = true;
                }
                ',' => {
                    record.push(take(&mut field, &mut quoted));
                }
                '\r' => {} // swallow CR of CRLF
                '\n' => {
                    record.push(take(&mut field, &mut quoted));
                    records.push(std::mem::take(&mut record));
                }
                c => field.push(c),
            }
        }
    }
    if in_quotes {
        return Err(CsvError {
            record: records.len() + 1,
            message: "unterminated quote".into(),
        });
    }
    if any && (!field.is_empty() || quoted || !record.is_empty()) {
        record.push(take(&mut field, &mut quoted));
        records.push(record);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_parse() {
        let df = from_csv("a,b\n1,x\n2,y\n").unwrap();
        assert_eq!(df.n_rows(), 2);
        assert_eq!(df.column("a").unwrap().get(1).as_int(), Some(2));
    }

    #[test]
    fn quoted_fields_with_commas_and_newlines() {
        let df = from_csv("a,b\n\"1,5\",\"line1\nline2\"\n").unwrap();
        assert_eq!(df.column("a").unwrap().get(0).as_str(), Some("1,5"));
        assert_eq!(
            df.column("b").unwrap().get(0).as_str(),
            Some("line1\nline2")
        );
    }

    #[test]
    fn doubled_quotes() {
        let df = from_csv("a\n\"he said \"\"hi\"\"\"\n").unwrap();
        assert_eq!(
            df.column("a").unwrap().get(0).as_str(),
            Some("he said \"hi\"")
        );
    }

    #[test]
    fn ragged_record_rejected() {
        assert!(from_csv("a,b\n1\n").is_err());
    }

    #[test]
    fn unterminated_quote_rejected() {
        assert!(from_csv("a\n\"oops\n").is_err());
    }

    #[test]
    fn missing_trailing_newline_ok() {
        let df = from_csv("a\n42").unwrap();
        assert_eq!(df.n_rows(), 1);
    }

    #[test]
    fn empty_input_is_empty_frame() {
        let df = from_csv("").unwrap();
        assert_eq!(df.n_rows(), 0);
        assert_eq!(df.n_cols(), 0);
    }

    #[test]
    fn numeric_looking_strings_survive_roundtrip() {
        // The bug: Str("42") serialized unquoted and re-read as Int(42).
        let mut df = DataFrame::new(vec!["a", "b", "c", "d"]);
        df.push_row(vec![
            Cell::Str("42".into()),
            Cell::Str("true".into()),
            Cell::Str("1e3".into()),
            Cell::Int(42),
        ])
        .unwrap();
        let text = df.to_csv();
        assert_eq!(text, "a,b,c,d\n\"42\",\"true\",\"1e3\",42\n");
        let back = from_csv(&text).unwrap();
        assert_eq!(back.column("a").unwrap().get(0), &Cell::Str("42".into()));
        assert_eq!(back.column("b").unwrap().get(0), &Cell::Str("true".into()));
        assert_eq!(back.column("c").unwrap().get(0), &Cell::Str("1e3".into()));
        assert_eq!(back.column("d").unwrap().get(0), &Cell::Int(42));
    }

    #[test]
    fn empty_string_vs_null_roundtrip() {
        let mut df = DataFrame::new(vec!["a", "b"]);
        df.push_row(vec![Cell::Str(String::new()), Cell::Null])
            .unwrap();
        let back = from_csv(&df.to_csv()).unwrap();
        assert_eq!(back.column("a").unwrap().get(0), &Cell::Str(String::new()));
        assert_eq!(back.column("b").unwrap().get(0), &Cell::Null);
    }

    #[test]
    fn quoted_numeric_field_reads_as_string() {
        let df = from_csv("a,b\n\"7\",7\n").unwrap();
        assert_eq!(df.column("a").unwrap().get(0), &Cell::Str("7".into()));
        assert_eq!(df.column("b").unwrap().get(0), &Cell::Int(7));
    }
}
