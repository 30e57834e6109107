//! Group-by and aggregation.

use crate::cell::Cell;
use crate::frame::{DataFrame, FrameError};

/// The result of [`DataFrame::group_by`]: key columns plus the member row
/// indices of each group, in first-seen key order.
pub struct GroupBy<'f> {
    frame: &'f DataFrame,
    keys: Vec<String>,
    /// (key tuple, member row indices)
    groups: Vec<(Vec<Cell>, Vec<usize>)>,
}

impl<'f> GroupBy<'f> {
    pub(crate) fn new(frame: &'f DataFrame, keys: &[&str]) -> GroupBy<'f> {
        let mut groups: Vec<(Vec<Cell>, Vec<usize>)> = Vec::new();
        for i in 0..frame.n_rows() {
            let row = frame.row(i);
            let key: Vec<Cell> = keys
                .iter()
                .map(|k| row.get(k).cloned().unwrap_or(Cell::Null))
                .collect();
            match groups
                .iter_mut()
                .find(|(k, _)| k.len() == key.len() && k.iter().zip(&key).all(|(a, b)| a.key_eq(b)))
            {
                Some((_, members)) => members.push(i),
                None => groups.push((key, vec![i])),
            }
        }
        GroupBy {
            frame,
            keys: keys.iter().map(|s| s.to_string()).collect(),
            groups,
        }
    }

    /// Number of distinct groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// One row per group with a `count` column.
    pub fn count(&self) -> DataFrame {
        self.aggregate("count", None, |members, _| Cell::Int(members.len() as i64))
            .expect("count needs no value column")
    }

    /// Mean of `column` per group (nulls and non-numerics skipped).
    pub fn mean(&self, column: &str) -> Result<DataFrame, FrameError> {
        self.numeric_agg("mean", column, |vals| {
            if vals.is_empty() {
                Cell::Null
            } else {
                Cell::Float(vals.iter().sum::<f64>() / vals.len() as f64)
            }
        })
    }

    /// Sum of `column` per group.
    pub fn sum(&self, column: &str) -> Result<DataFrame, FrameError> {
        self.numeric_agg("sum", column, |vals| Cell::Float(vals.iter().sum::<f64>()))
    }

    /// Minimum of `column` per group.
    pub fn min(&self, column: &str) -> Result<DataFrame, FrameError> {
        self.numeric_agg("min", column, |vals| {
            vals.iter()
                .copied()
                .reduce(f64::min)
                .map(Cell::Float)
                .unwrap_or(Cell::Null)
        })
    }

    /// Maximum of `column` per group.
    pub fn max(&self, column: &str) -> Result<DataFrame, FrameError> {
        self.numeric_agg("max", column, |vals| {
            vals.iter()
                .copied()
                .reduce(f64::max)
                .map(Cell::Float)
                .unwrap_or(Cell::Null)
        })
    }

    /// Median of `column` per group.
    pub fn median(&self, column: &str) -> Result<DataFrame, FrameError> {
        self.percentile(column, 50.0)
    }

    /// Linear-interpolated percentile (0–100) of `column` per group.
    pub fn percentile(&self, column: &str, p: f64) -> Result<DataFrame, FrameError> {
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
        let op = if (p - 50.0).abs() < 1e-12 {
            "median".to_string()
        } else {
            format!("p{p:.0}")
        };
        self.numeric_agg(&op, column, move |vals| {
            if vals.is_empty() {
                return Cell::Null;
            }
            let mut sorted = vals.to_vec();
            sorted.sort_by(f64::total_cmp);
            let rank = p / 100.0 * (sorted.len() - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            let frac = rank - lo as f64;
            Cell::Float(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
        })
    }

    /// Sample standard deviation (n−1) of `column` per group.
    pub fn std(&self, column: &str) -> Result<DataFrame, FrameError> {
        self.numeric_agg("std", column, |vals| {
            if vals.len() < 2 {
                return Cell::Null;
            }
            let n = vals.len() as f64;
            let mean = vals.iter().sum::<f64>() / n;
            let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
            Cell::Float(var.sqrt())
        })
    }

    fn numeric_agg<F: Fn(&[f64]) -> Cell>(
        &self,
        op: &str,
        column: &str,
        f: F,
    ) -> Result<DataFrame, FrameError> {
        if self.frame.column(column).is_none() {
            return Err(FrameError::NoSuchColumn(column.to_string()));
        }
        self.aggregate(&format!("{op}_{column}"), Some(column), |members, frame| {
            let vals: Vec<f64> = members
                .iter()
                .filter_map(|&i| frame.column(column).and_then(|c| c.get(i).as_float()))
                .filter(|v| v.is_finite())
                .collect();
            f(&vals)
        })
    }

    /// Generic aggregation: one output row per group, key columns plus one
    /// aggregate column named `out_name`.
    pub fn aggregate<F>(
        &self,
        out_name: &str,
        _value_column: Option<&str>,
        f: F,
    ) -> Result<DataFrame, FrameError>
    where
        F: Fn(&[usize], &DataFrame) -> Cell,
    {
        let mut names: Vec<String> = self.keys.clone();
        names.push(out_name.to_string());
        let mut out = DataFrame::new(names);
        for (key, members) in &self.groups {
            let mut cells = key.clone();
            cells.push(f(members, self.frame));
            out.push_row(cells)?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_in_first_seen_order() {
        let mut df = DataFrame::new(vec!["k"]);
        for k in ["b", "a", "b", "c", "a"] {
            df.push_row(vec![Cell::from(k)]).unwrap();
        }
        let g = df.group_by(&["k"]);
        let counts = g.count();
        let keys: Vec<String> = counts
            .column("k")
            .unwrap()
            .iter()
            .map(|c| c.to_string())
            .collect();
        assert_eq!(keys, vec!["b", "a", "c"]);
    }

    #[test]
    fn missing_agg_column_is_error() {
        let df = DataFrame::new(vec!["k"]);
        assert!(df.group_by(&["k"]).mean("nope").is_err());
    }

    #[test]
    fn median_and_percentiles() {
        let mut df = DataFrame::new(vec!["k", "v"]);
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            df.push_row(vec![Cell::from("a"), Cell::from(v)]).unwrap();
        }
        let med = df.group_by(&["k"]).median("v").unwrap();
        assert_eq!(med.column("median_v").unwrap().get(0).as_float(), Some(3.0));
        let p25 = df.group_by(&["k"]).percentile("v", 25.0).unwrap();
        assert_eq!(p25.column("p25_v").unwrap().get(0).as_float(), Some(2.0));
        let p0 = df.group_by(&["k"]).percentile("v", 0.0).unwrap();
        assert_eq!(p0.column("p0_v").unwrap().get(0).as_float(), Some(1.0));
        let p100 = df.group_by(&["k"]).percentile("v", 100.0).unwrap();
        assert_eq!(p100.column("p100_v").unwrap().get(0).as_float(), Some(5.0));
        // Interpolation between ranks: p50 of [1,2,3,4] = 2.5.
        let mut df2 = DataFrame::new(vec!["k", "v"]);
        for v in [1.0, 2.0, 3.0, 4.0] {
            df2.push_row(vec![Cell::from("a"), Cell::from(v)]).unwrap();
        }
        let med2 = df2.group_by(&["k"]).median("v").unwrap();
        assert_eq!(
            med2.column("median_v").unwrap().get(0).as_float(),
            Some(2.5)
        );
    }

    #[test]
    fn median_empty_group_is_null() {
        let mut df = DataFrame::new(vec!["k", "v"]);
        df.push_row(vec![Cell::from("a"), Cell::Null]).unwrap();
        let med = df.group_by(&["k"]).median("v").unwrap();
        assert!(med.column("median_v").unwrap().get(0).is_null());
    }
}
