//! `dframe` — a column-oriented data frame for benchmark analytics.
//!
//! The paper (§2.4, Principle 6) post-processes ReFrame perflogs with pandas:
//! perflogs from isolated systems are parsed, *concatenated into a single
//! DataFrame*, filtered, grouped, and plotted. This crate is that substrate:
//! a small, typed, order-preserving data frame with exactly the operations
//! the analysis pipeline needs — row filters, column selection, group-by with
//! aggregation, sorting, concatenation with schema alignment, pivoting for
//! heat-map style figures, and CSV I/O.
//!
//! # Example
//!
//! ```
//! use dframe::{Cell, DataFrame};
//!
//! let mut df = DataFrame::new(vec!["system", "fom"]);
//! df.push_row(vec![Cell::from("archer2"), Cell::from(95.4)]).unwrap();
//! df.push_row(vec![Cell::from("archer2"), Cell::from(83.4)]).unwrap();
//! df.push_row(vec![Cell::from("csd3"), Cell::from(126.1)]).unwrap();
//!
//! let means = df.group_by(&["system"]).mean("fom").unwrap();
//! assert_eq!(means.n_rows(), 2);
//! let archer = means.filter_eq("system", &Cell::from("archer2")).unwrap();
//! let m = archer.column("mean_fom").unwrap().get(0).as_float().unwrap();
//! assert!((m - 89.4).abs() < 1e-9);
//! ```

mod cell;
mod csv;
mod frame;
mod group;

pub use cell::Cell;
pub use csv::{from_csv, CsvError};
pub use frame::{Column, DataFrame, FrameError};
pub use group::GroupBy;

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DataFrame {
        let mut df = DataFrame::new(vec!["system", "bench", "fom"]);
        for (s, b, f) in [
            ("archer2", "hpgmg", 95.36),
            ("archer2", "hpgmg", 83.43),
            ("cosma8", "hpgmg", 81.67),
            ("csd3", "hpgmg", 126.10),
            ("csd3", "babelstream", 244.6),
            ("isambard", "hpgmg", 30.59),
        ] {
            df.push_row(vec![Cell::from(s), Cell::from(b), Cell::from(f)])
                .unwrap();
        }
        df
    }

    #[test]
    fn shape_and_access() {
        let df = sample();
        assert_eq!(df.n_rows(), 6);
        assert_eq!(df.n_cols(), 3);
        assert_eq!(df.column_names(), vec!["system", "bench", "fom"]);
        assert_eq!(df.column("system").unwrap().get(3).as_str(), Some("csd3"));
        assert!(df.column("missing").is_none());
    }

    #[test]
    fn push_row_arity_checked() {
        let mut df = DataFrame::new(vec!["a", "b"]);
        assert!(df.push_row(vec![Cell::from(1i64)]).is_err());
        assert!(df
            .push_row(vec![Cell::from(1i64), Cell::from(2i64)])
            .is_ok());
    }

    #[test]
    fn filter_eq_and_predicate() {
        let df = sample();
        let archer = df.filter_eq("system", &Cell::from("archer2")).unwrap();
        assert_eq!(archer.n_rows(), 2);
        let big = df
            .filter(|row| {
                row.get("fom")
                    .and_then(Cell::as_float)
                    .is_some_and(|f| f > 90.0)
            })
            .unwrap();
        assert_eq!(big.n_rows(), 3);
    }

    #[test]
    fn select_projects_columns() {
        let df = sample();
        let sel = df.select(&["fom", "system"]).unwrap();
        assert_eq!(sel.column_names(), vec!["fom", "system"]);
        assert_eq!(sel.n_rows(), 6);
        assert!(df.select(&["nope"]).is_err());
    }

    #[test]
    fn sort_by_float_descending() {
        let df = sample();
        let sorted = df.sort_by("fom", false).unwrap();
        let first = sorted.column("fom").unwrap().get(0).as_float().unwrap();
        assert_eq!(first, 244.6);
        let last = sorted.column("fom").unwrap().get(5).as_float().unwrap();
        assert_eq!(last, 30.59);
    }

    #[test]
    fn sort_is_stable() {
        let mut df = DataFrame::new(vec!["k", "ord"]);
        for (k, o) in [("a", 0i64), ("b", 1), ("a", 2), ("b", 3)] {
            df.push_row(vec![Cell::from(k), Cell::from(o)]).unwrap();
        }
        let sorted = df.sort_by("k", true).unwrap();
        let ords: Vec<i64> = (0..4)
            .map(|i| sorted.column("ord").unwrap().get(i).as_int().unwrap())
            .collect();
        assert_eq!(ords, vec![0, 2, 1, 3]);
    }

    #[test]
    fn sort_by_places_nan_at_the_extremes() {
        // Pin the total_cmp ordering contract for non-finite floats: in a
        // descending sort a positive NaN outranks every finite value, so a
        // single corrupt FOM would "win" any ranking that sorts raw values.
        let mut df = DataFrame::new(vec!["system", "value"]);
        for (s, v) in [
            ("fine", 100.0),
            ("corrupt", f64::NAN),
            ("best", 250.0),
            ("overflow", f64::INFINITY),
        ] {
            df.push_row(vec![Cell::from(s), Cell::from(v)]).unwrap();
        }
        let desc = df.sort_by("value", false).unwrap();
        let order: Vec<&str> = (0..4)
            .filter_map(|i| desc.column("system").unwrap().get(i).as_str())
            .collect();
        assert_eq!(
            order,
            vec!["corrupt", "overflow", "best", "fine"],
            "NaN above +inf above all finite values in descending order"
        );
        // Ascending puts them at the bottom instead.
        let asc = df.sort_by("value", true).unwrap();
        assert_eq!(
            asc.column("system").unwrap().get(3).as_str(),
            Some("corrupt")
        );
    }

    #[test]
    fn partition_splits_finite_from_nonfinite() {
        let mut df = DataFrame::new(vec!["system", "value"]);
        for (s, v) in [
            ("fine", 100.0),
            ("corrupt", f64::NAN),
            ("best", 250.0),
            ("overflow", f64::INFINITY),
        ] {
            df.push_row(vec![Cell::from(s), Cell::from(v)]).unwrap();
        }
        let (finite, rest) = df.partition(|row| {
            row.get("value")
                .and_then(Cell::as_float)
                .is_some_and(f64::is_finite)
        });
        assert_eq!(finite.n_rows(), 2);
        assert_eq!(rest.n_rows(), 2);
        // Order is preserved on both sides, so downstream sorts stay stable.
        assert_eq!(
            finite.column("system").unwrap().get(0).as_str(),
            Some("fine")
        );
        assert_eq!(
            finite.column("system").unwrap().get(1).as_str(),
            Some("best")
        );
        assert_eq!(
            rest.column("system").unwrap().get(0).as_str(),
            Some("corrupt")
        );
        // Sorting the finite half is now safe for ranking.
        let ranked = finite.sort_by("value", false).unwrap();
        assert_eq!(
            ranked.column("system").unwrap().get(0).as_str(),
            Some("best")
        );
    }

    #[test]
    fn group_by_aggregations() {
        let df = sample();
        let g = df.group_by(&["system"]);
        let counts = g.count();
        assert_eq!(counts.n_rows(), 4);
        let csd3 = counts.filter_eq("system", &Cell::from("csd3")).unwrap();
        assert_eq!(csd3.column("count").unwrap().get(0).as_int(), Some(2));

        let maxes = df.group_by(&["system"]).max("fom").unwrap();
        let a = maxes.filter_eq("system", &Cell::from("archer2")).unwrap();
        assert_eq!(a.column("max_fom").unwrap().get(0).as_float(), Some(95.36));
    }

    #[test]
    fn group_by_multiple_keys() {
        let df = sample();
        let g = df.group_by(&["system", "bench"]).count();
        assert_eq!(g.n_rows(), 5);
    }

    #[test]
    fn concat_aligns_schemas() {
        let mut a = DataFrame::new(vec!["system", "fom"]);
        a.push_row(vec![Cell::from("archer2"), Cell::from(1.0)])
            .unwrap();
        let mut b = DataFrame::new(vec!["fom", "compiler"]);
        b.push_row(vec![Cell::from(2.0), Cell::from("gcc")])
            .unwrap();
        let c = DataFrame::concat(vec![a, b]);
        assert_eq!(c.n_rows(), 2);
        assert_eq!(c.column_names(), vec!["system", "fom", "compiler"]);
        // Missing cells become nulls.
        assert!(c.column("compiler").unwrap().get(0).is_null());
        assert!(c.column("system").unwrap().get(1).is_null());
        assert_eq!(c.column("fom").unwrap().get(1).as_float(), Some(2.0));
    }

    #[test]
    fn unique_preserves_first_seen_order() {
        let df = sample();
        let u = df.unique("system").unwrap();
        let names: Vec<&str> = u.iter().filter_map(Cell::as_str).collect();
        assert_eq!(names, vec!["archer2", "cosma8", "csd3", "isambard"]);
    }

    #[test]
    fn pivot_builds_matrix() {
        let mut df = DataFrame::new(vec!["model", "platform", "eff"]);
        for (m, p, e) in [
            ("omp", "milan", 0.81),
            ("omp", "v100", 0.72),
            ("cuda", "v100", 0.93),
        ] {
            df.push_row(vec![Cell::from(m), Cell::from(p), Cell::from(e)])
                .unwrap();
        }
        let piv = df.pivot("model", "platform", "eff").unwrap();
        assert_eq!(piv.column_names(), vec!["model", "milan", "v100"]);
        assert_eq!(piv.n_rows(), 2);
        let cuda = piv.filter_eq("model", &Cell::from("cuda")).unwrap();
        assert!(cuda.column("milan").unwrap().get(0).is_null());
        assert_eq!(cuda.column("v100").unwrap().get(0).as_float(), Some(0.93));
    }

    #[test]
    fn with_column_computed() {
        let df = sample();
        let df = df
            .with_column("fom_tb", |row| {
                Cell::from(row.get("fom").and_then(Cell::as_float).unwrap_or(0.0) / 1000.0)
            })
            .unwrap();
        assert!(df.column("fom_tb").unwrap().get(3).as_float().unwrap() > 0.126 - 1e-9);
    }

    #[test]
    fn csv_roundtrip() {
        let df = sample();
        let text = df.to_csv();
        let back = from_csv(&text).unwrap();
        assert_eq!(back.n_rows(), df.n_rows());
        assert_eq!(back.column_names(), df.column_names());
        assert_eq!(back.column("fom").unwrap().get(0).as_float(), Some(95.36));
    }

    #[test]
    fn csv_quoting() {
        let mut df = DataFrame::new(vec!["name", "note"]);
        df.push_row(vec![Cell::from("a,b"), Cell::from("say \"hi\"\nnewline")])
            .unwrap();
        let text = df.to_csv();
        let back = from_csv(&text).unwrap();
        assert_eq!(back.column("name").unwrap().get(0).as_str(), Some("a,b"));
        assert_eq!(
            back.column("note").unwrap().get(0).as_str(),
            Some("say \"hi\"\nnewline")
        );
    }

    #[test]
    fn display_renders_table() {
        let df = sample();
        let shown = df.to_string();
        assert!(shown.contains("system"));
        assert!(shown.contains("archer2"));
        assert!(shown.lines().count() >= 7);
    }

    #[test]
    fn markdown_rendering() {
        let mut df = DataFrame::new(vec!["sys", "v"]);
        df.push_row(vec![Cell::from("a|b"), Cell::from(1.5)])
            .unwrap();
        let md = df.to_markdown();
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines[0], "| sys | v |");
        assert_eq!(lines[1], "|---|---|");
        assert!(lines[2].contains("a\\|b"), "pipe escaped: {}", lines[2]);
        assert!(lines[2].contains("1.5"));
    }

    #[test]
    fn mean_skips_nulls() {
        let mut df = DataFrame::new(vec!["k", "v"]);
        df.push_row(vec![Cell::from("a"), Cell::from(2.0)]).unwrap();
        df.push_row(vec![Cell::from("a"), Cell::Null]).unwrap();
        df.push_row(vec![Cell::from("a"), Cell::from(4.0)]).unwrap();
        let m = df.group_by(&["k"]).mean("v").unwrap();
        assert_eq!(m.column("mean_v").unwrap().get(0).as_float(), Some(3.0));
    }

    #[test]
    fn empty_frame_operations() {
        let df = DataFrame::new(vec!["a"]);
        assert_eq!(df.n_rows(), 0);
        assert_eq!(df.filter(|_| true).unwrap().n_rows(), 0);
        assert_eq!(df.sort_by("a", true).unwrap().n_rows(), 0);
        assert_eq!(df.group_by(&["a"]).count().n_rows(), 0);
    }

    #[test]
    fn std_dev() {
        let mut df = DataFrame::new(vec!["k", "v"]);
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            df.push_row(vec![Cell::from("a"), Cell::from(v)]).unwrap();
        }
        let s = df.group_by(&["k"]).std("v").unwrap();
        let val = s.column("std_v").unwrap().get(0).as_float().unwrap();
        assert!((val - 2.138089935).abs() < 1e-6); // sample std (n-1)
    }
}
