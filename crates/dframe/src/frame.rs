//! The data frame itself.
//!
//! A frame's `Display` is a plain-text table: every column as wide as its
//! longest header or cell in bytes, cells left-aligned and padded with
//! spaces up to that width counted in chars (as `{:<w$}` pads), columns
//! separated by two spaces, a dash rule under the header, one line per row.

use crate::cell::Cell;
use crate::group::GroupBy;
use std::fmt;

/// Error from a frame operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// A referenced column does not exist.
    NoSuchColumn(String),
    /// A pushed row had the wrong number of cells.
    ArityMismatch { expected: usize, got: usize },
    /// Pivot would write two values into the same (row, column) position.
    DuplicatePivotEntry { row: String, col: String },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::NoSuchColumn(c) => write!(f, "no such column: `{c}`"),
            FrameError::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "row arity mismatch: expected {expected} cells, got {got}"
                )
            }
            FrameError::DuplicatePivotEntry { row, col } => {
                write!(f, "duplicate pivot entry at ({row}, {col})")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// A named column of cells.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    name: String,
    cells: Vec<Cell>,
}

impl Column {
    pub fn new(name: impl Into<String>) -> Column {
        Column {
            name: name.into(),
            cells: Vec::new(),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn len(&self) -> usize {
        self.cells.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Cell at row `i`; out-of-range reads as Null (simplifies ragged joins).
    pub fn get(&self, i: usize) -> &Cell {
        static NULL: Cell = Cell::Null;
        self.cells.get(i).unwrap_or(&NULL)
    }

    pub fn push(&mut self, c: Cell) {
        self.cells.push(c);
    }

    pub fn iter(&self) -> impl Iterator<Item = &Cell> {
        self.cells.iter()
    }

    /// All finite numeric values in this column.
    pub fn floats(&self) -> Vec<f64> {
        self.cells
            .iter()
            .filter_map(Cell::as_float)
            .filter(|f| f.is_finite())
            .collect()
    }
}

/// A read-only view of one row, addressed by column name.
pub struct Row<'f> {
    frame: &'f DataFrame,
    index: usize,
}

impl Row<'_> {
    pub fn get(&self, column: &str) -> Option<&Cell> {
        self.frame.column(column).map(|c| c.get(self.index))
    }

    pub fn index(&self) -> usize {
        self.index
    }

    /// The row as owned cells, in column order.
    pub(crate) fn to_cells(&self) -> Vec<Cell> {
        self.frame
            .columns
            .iter()
            .map(|c| c.get(self.index).clone())
            .collect()
    }
}

/// A column-oriented table of typed cells.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DataFrame {
    columns: Vec<Column>,
    n_rows: usize,
}

impl DataFrame {
    /// A frame with the given column names and no rows.
    pub fn new<S: Into<String>>(names: Vec<S>) -> DataFrame {
        DataFrame {
            columns: names.into_iter().map(|n| Column::new(n.into())).collect(),
            n_rows: 0,
        }
    }

    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    pub fn column_names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name()).collect()
    }

    pub fn column(&self, name: &str) -> Option<&Column> {
        self.columns.iter().find(|c| c.name() == name)
    }

    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Append a row; cell count must match the column count.
    pub fn push_row(&mut self, cells: Vec<Cell>) -> Result<(), FrameError> {
        if cells.len() != self.columns.len() {
            return Err(FrameError::ArityMismatch {
                expected: self.columns.len(),
                got: cells.len(),
            });
        }
        for (col, cell) in self.columns.iter_mut().zip(cells) {
            col.push(cell);
        }
        self.n_rows += 1;
        Ok(())
    }

    /// View of row `i`.
    pub fn row(&self, i: usize) -> Row<'_> {
        Row {
            frame: self,
            index: i,
        }
    }

    /// Iterate over row views.
    pub fn rows(&self) -> impl Iterator<Item = Row<'_>> {
        (0..self.n_rows).map(move |i| self.row(i))
    }

    /// Keep rows for which `pred` returns true.
    pub fn filter<F: FnMut(&Row<'_>) -> bool>(&self, mut pred: F) -> Result<DataFrame, FrameError> {
        let mut out = DataFrame::new(self.column_names());
        for i in 0..self.n_rows {
            let row = self.row(i);
            if pred(&row) {
                out.push_row(row.to_cells())?;
            }
        }
        Ok(out)
    }

    /// Keep rows where `column` equals `value` (numeric-coercing equality).
    pub fn filter_eq(&self, column: &str, value: &Cell) -> Result<DataFrame, FrameError> {
        if self.column(column).is_none() {
            return Err(FrameError::NoSuchColumn(column.to_string()));
        }
        self.filter(|row| row.get(column).is_some_and(|c| c.key_eq(value)))
    }

    /// Project the given columns, in the given order.
    pub fn select(&self, names: &[&str]) -> Result<DataFrame, FrameError> {
        let mut cols = Vec::with_capacity(names.len());
        for &n in names {
            let col = self
                .column(n)
                .ok_or_else(|| FrameError::NoSuchColumn(n.to_string()))?;
            cols.push(col.clone());
        }
        Ok(DataFrame {
            columns: cols,
            n_rows: self.n_rows,
        })
    }

    /// Stable sort by `column`, ascending or descending.
    ///
    /// Float cells are ordered by [`f64::total_cmp`], which places
    /// non-finite values at the *extremes*: ascending order is
    /// `-NaN < -inf < finite < +inf < +NaN`. A single NaN FOM therefore
    /// floats to the top of a descending sort — callers ranking by a
    /// value column must partition non-finite rows out first (see
    /// [`DataFrame::partition`]) unless they want corrupt measurements
    /// to win the ranking.
    pub fn sort_by(&self, column: &str, ascending: bool) -> Result<DataFrame, FrameError> {
        let col = self
            .column(column)
            .ok_or_else(|| FrameError::NoSuchColumn(column.to_string()))?;
        let mut order: Vec<usize> = (0..self.n_rows).collect();
        order.sort_by(|&a, &b| {
            let ord = col.get(a).total_cmp(col.get(b));
            if ascending {
                ord
            } else {
                ord.reverse()
            }
        });
        Ok(self.take(&order))
    }

    /// Split rows by a predicate, preserving order: (rows where `pred`
    /// held, rows where it did not). The canonical use is quarantining
    /// non-finite values before a ranking sort:
    ///
    /// ```
    /// # use dframe::{Cell, DataFrame};
    /// # let mut df = DataFrame::new(vec!["value"]);
    /// # df.push_row(vec![Cell::from(1.0)]).unwrap();
    /// # df.push_row(vec![Cell::from(f64::NAN)]).unwrap();
    /// let (finite, rest) = df.partition(|row| {
    ///     row.get("value").and_then(Cell::as_float).is_some_and(f64::is_finite)
    /// });
    /// assert_eq!((finite.n_rows(), rest.n_rows()), (1, 1));
    /// ```
    pub fn partition<F: FnMut(&Row<'_>) -> bool>(&self, mut pred: F) -> (DataFrame, DataFrame) {
        let mut yes = Vec::new();
        let mut no = Vec::new();
        for i in 0..self.n_rows {
            if pred(&self.row(i)) {
                yes.push(i);
            } else {
                no.push(i);
            }
        }
        (self.take(&yes), self.take(&no))
    }

    /// New frame with rows in the given index order.
    pub fn take(&self, indices: &[usize]) -> DataFrame {
        let mut out = DataFrame::new(self.column_names());
        for &i in indices {
            out.push_row(self.row(i).to_cells()).expect("same schema");
        }
        out
    }

    /// Group rows by the given key columns.
    pub fn group_by(&self, keys: &[&str]) -> GroupBy<'_> {
        GroupBy::new(self, keys)
    }

    /// Concatenate frames, aligning columns by name (union of schemas);
    /// cells absent in a source frame become nulls. This is the operation
    /// that assimilates perflogs generated on isolated systems (§2.4).
    /// The cells move out of `frames`; none is copied.
    pub fn concat(frames: Vec<DataFrame>) -> DataFrame {
        let mut names: Vec<String> = Vec::new();
        for f in &frames {
            for c in &f.columns {
                if !names.iter().any(|n| n == c.name()) {
                    names.push(c.name().to_string());
                }
            }
        }
        let mut out = DataFrame::new(names);
        let rows = frames.iter().map(|f| f.n_rows).sum();
        for col in &mut out.columns {
            col.cells.reserve_exact(rows);
        }
        for f in frames {
            // Each output column's source in `f`; the first of a repeated
            // name wins, as `column` finds it.
            let mut sources: Vec<Option<Vec<Cell>>> = vec![None; out.columns.len()];
            for c in f.columns {
                let at = out.columns.iter().position(|o| o.name == c.name);
                let slot = &mut sources[at.expect("schema is the union")];
                if slot.is_none() {
                    *slot = Some(c.cells);
                }
            }
            for (col, src) in out.columns.iter_mut().zip(sources) {
                match src {
                    Some(cells) => col.cells.extend(cells),
                    None => col.cells.resize(col.cells.len() + f.n_rows, Cell::Null),
                }
            }
            out.n_rows += f.n_rows;
        }
        out
    }

    /// Distinct values of `column`, in first-seen order.
    pub fn unique(&self, column: &str) -> Result<Vec<Cell>, FrameError> {
        let col = self
            .column(column)
            .ok_or_else(|| FrameError::NoSuchColumn(column.to_string()))?;
        let mut seen: Vec<Cell> = Vec::new();
        for c in col.iter() {
            if !seen.iter().any(|s| s.key_eq(c)) {
                seen.push(c.clone());
            }
        }
        Ok(seen)
    }

    /// Spread `value_col` into a matrix with one row per distinct
    /// `row_col` value and one column per distinct `col_col` value —
    /// the layout of the paper's Figure 2 heat map.
    pub fn pivot(
        &self,
        row_col: &str,
        col_col: &str,
        value_col: &str,
    ) -> Result<DataFrame, FrameError> {
        let rows = self.unique(row_col)?;
        let cols = self.unique(col_col)?;
        let _ = self
            .column(value_col)
            .ok_or_else(|| FrameError::NoSuchColumn(value_col.to_string()))?;

        let mut names = vec![row_col.to_string()];
        names.extend(cols.iter().map(|c| c.to_string()));
        let mut out = DataFrame::new(names);

        for r in &rows {
            let mut cells = vec![r.clone()];
            for c in &cols {
                let mut hit: Option<Cell> = None;
                for i in 0..self.n_rows {
                    let row = self.row(i);
                    if row.get(row_col).is_some_and(|v| v.key_eq(r))
                        && row.get(col_col).is_some_and(|v| v.key_eq(c))
                    {
                        if hit.is_some() {
                            return Err(FrameError::DuplicatePivotEntry {
                                row: r.to_string(),
                                col: c.to_string(),
                            });
                        }
                        hit = Some(row.get(value_col).expect("checked").clone());
                    }
                }
                cells.push(hit.unwrap_or(Cell::Null));
            }
            out.push_row(cells).expect("schema fixed");
        }
        Ok(out)
    }

    /// Append a computed column.
    pub fn with_column<F: FnMut(&Row<'_>) -> Cell>(
        &self,
        name: &str,
        mut f: F,
    ) -> Result<DataFrame, FrameError> {
        let mut out = self.clone();
        let mut col = Column::new(name);
        for i in 0..self.n_rows {
            col.push(f(&self.row(i)));
        }
        out.columns.push(col);
        Ok(out)
    }

    /// First `n` rows.
    pub fn head(&self, n: usize) -> DataFrame {
        let idx: Vec<usize> = (0..self.n_rows.min(n)).collect();
        self.take(&idx)
    }

    /// Render as a GitHub-flavoured Markdown table (used by report
    /// generation and EXPERIMENTS.md regeneration).
    pub fn to_markdown(&self) -> String {
        let escape = |s: &str| s.replace('|', "\\|");
        let mut out = String::from("|");
        for c in &self.columns {
            out.push_str(&format!(" {} |", escape(c.name())));
        }
        out.push_str("\n|");
        for _ in &self.columns {
            out.push_str("---|");
        }
        out.push('\n');
        for i in 0..self.n_rows {
            out.push('|');
            for c in &self.columns {
                out.push_str(&format!(" {} |", escape(&c.get(i).to_string())));
            }
            out.push('\n');
        }
        out
    }
}

/// The table the module docs describe. Each cell is rendered once, the
/// lines are built in one buffer and written with one `write_str`.
impl fmt::Display for DataFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use fmt::Write as _;
        // Every cell's text, row by row, in one buffer; `ends` closes each.
        let mut text = String::new();
        let mut ends = Vec::with_capacity(self.n_rows * self.columns.len());
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.name().len()).collect();
        for i in 0..self.n_rows {
            for (w, c) in widths.iter_mut().zip(&self.columns) {
                let start = text.len();
                match c.get(i) {
                    Cell::Str(s) => text.push_str(s),
                    cell => write!(text, "{cell}")?,
                }
                *w = (*w).max(text.len() - start);
                ends.push(text.len());
            }
        }
        let line_len = widths.iter().map(|w| w + 2).sum::<usize>() + 1;
        let mut out = String::with_capacity(line_len * (self.n_rows + 2));
        push_line(&mut out, &widths, self.columns.iter().map(Column::name));
        let rules: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        push_line(&mut out, &widths, rules.iter().map(String::as_str));
        let (mut ends, mut start) = (ends.into_iter(), 0);
        for _ in 0..self.n_rows {
            let row = ends.by_ref().take(self.columns.len()).map(|end| {
                let cell = &text[start..end];
                start = end;
                cell
            });
            push_line(&mut out, &widths, row);
        }
        f.write_str(&out)
    }
}

/// One table line: `cells` left-aligned in `widths` (padded by chars),
/// two spaces apart.
fn push_line<'a>(out: &mut String, widths: &[usize], cells: impl Iterator<Item = &'a str>) {
    for (i, (cell, w)) in cells.zip(widths).enumerate() {
        if i > 0 {
            out.push_str("  ");
        }
        out.push_str(cell);
        let pad = w.saturating_sub(cell.chars().count());
        out.extend(std::iter::repeat_n(' ', pad));
    }
    out.push('\n');
}

/// `concat` and `Display` against verbatim copies of the per-cell versions
/// they replaced, compared byte for byte.
#[cfg(test)]
mod reference {
    use super::{Cell, DataFrame};
    use std::fmt;

    // The reference: the per-cell code, copied verbatim. `Old` derefs to
    // the frame, so the bodies read its fields unchanged.

    struct Old<'a>(&'a DataFrame);

    impl std::ops::Deref for Old<'_> {
        type Target = DataFrame;
        fn deref(&self) -> &DataFrame {
            self.0
        }
    }

    fn concat(frames: &[DataFrame]) -> DataFrame {
        let mut names: Vec<String> = Vec::new();
        for f in frames {
            for c in &f.columns {
                if !names.iter().any(|n| n == c.name()) {
                    names.push(c.name().to_string());
                }
            }
        }
        let mut out = DataFrame::new(names.clone());
        for f in frames {
            for i in 0..f.n_rows {
                let cells = names
                    .iter()
                    .map(|n| f.column(n).map(|c| c.get(i).clone()).unwrap_or(Cell::Null))
                    .collect();
                out.push_row(cells).expect("schema is the union");
            }
        }
        out
    }

    impl fmt::Display for Old<'_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            // Compute column widths over header + all cells.
            let mut widths: Vec<usize> = self.columns.iter().map(|c| c.name().len()).collect();
            let rendered: Vec<Vec<String>> = (0..self.n_rows)
                .map(|i| self.columns.iter().map(|c| c.get(i).to_string()).collect())
                .collect();
            for row in &rendered {
                for (w, cell) in widths.iter_mut().zip(row) {
                    *w = (*w).max(cell.len());
                }
            }
            for (i, c) in self.columns.iter().enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{:<width$}", c.name(), width = widths[i])?;
            }
            writeln!(f)?;
            for (i, w) in widths.iter().enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{}", "-".repeat(*w))?;
            }
            writeln!(f)?;
            for row in &rendered {
                for (i, cell) in row.iter().enumerate() {
                    if i > 0 {
                        write!(f, "  ")?;
                    }
                    write!(f, "{:<width$}", cell, width = widths[i])?;
                }
                writeln!(f)?;
            }
            Ok(())
        }
    }

    fn frame(names: &[&str], rows: Vec<Vec<Cell>>) -> DataFrame {
        let mut df = DataFrame::new(names.to_vec());
        for row in rows {
            df.push_row(row).unwrap();
        }
        df
    }

    /// Frames covering every cell kind and the rendering corners: nulls,
    /// integral and non-integral floats, non-finite values, multi-byte
    /// text wider in bytes than in chars, no rows, no columns, a repeated
    /// column name, and schemas that only partly overlap.
    fn frames() -> Vec<DataFrame> {
        use Cell::*;
        let runs = frame(
            &["sequence", "system", "ok", "value", "unit"],
            vec![
                vec![
                    Int(0),
                    Str("archer2".into()),
                    Bool(true),
                    Float(95.0),
                    Str("µs".into()),
                ],
                vec![Int(-12), Str("csd3".into()), Bool(false), Float(0.1), Null],
                vec![
                    Null,
                    Str("≥ 2 nodes".into()),
                    Null,
                    Float(f64::INFINITY),
                    Str("GB/s".into()),
                ],
                vec![
                    Int(7),
                    Str("".into()),
                    Bool(true),
                    Float(f64::NAN),
                    Str("µµµµµµµµµµ".into()),
                ],
                vec![
                    Int(i64::MIN),
                    Str("x".into()),
                    Bool(false),
                    Float(-0.0),
                    Str("s".into()),
                ],
                vec![Int(3), Null, Null, Float(1e20), Str("≥".into())],
                vec![
                    Int(4),
                    Str("cosma8".into()),
                    Bool(true),
                    Float(-2.5e-9),
                    Null,
                ],
                vec![
                    Int(5),
                    Str("a|b".into()),
                    Bool(true),
                    Float(f64::NEG_INFINITY),
                    Null,
                ],
            ],
        );
        let other = frame(
            &["system", "fom", "value", "µ-note"],
            vec![
                vec![
                    Str("isambard".into()),
                    Str("l0".into()),
                    Int(31),
                    Str("≥≥".into()),
                ],
                vec![Null, Str("Triad".into()), Float(1234.5), Null],
            ],
        );
        let no_rows = frame(&["fom", "extra"], vec![]);
        let no_columns = frame(&[], vec![vec![], vec![]]);
        let repeated = frame(&["unit", "unit"], vec![vec![Str("ms".into()), Int(1)]]);
        vec![
            runs,
            other,
            no_rows,
            no_columns,
            repeated,
            DataFrame::default(),
        ]
    }

    #[test]
    fn concat_and_display_match_the_per_cell_code() {
        let frames = frames();
        let mut joins: Vec<Vec<DataFrame>> = vec![vec![], frames.clone()];
        joins.extend(frames.iter().map(|f| vec![f.clone()]));
        joins.push(vec![
            frames[1].clone(),
            frames[0].clone(),
            frames[1].clone(),
        ]);
        for join in &joins {
            let (got, want) = (DataFrame::concat(join.clone()), concat(join));
            // Debug, not `==`: a NaN cell is unequal to itself.
            assert_eq!(format!("{got:?}"), format!("{want:?}"));
            assert_eq!(got.to_string(), Old(&want).to_string());
        }
        for df in &frames {
            assert_eq!(df.to_string(), Old(df).to_string());
        }
        let shown = DataFrame::concat(frames).to_string();
        assert!(shown.contains("µµµµµµµµµµ  ") && shown.contains("NaN") && shown.contains("inf"));
    }
}
