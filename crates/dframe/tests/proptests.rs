//! Property tests for data-frame invariants.

use dframe::{Cell, DataFrame};
use proptest::prelude::*;

fn cell() -> impl Strategy<Value = Cell> {
    prop_oneof![
        Just(Cell::Null),
        any::<i64>().prop_map(Cell::Int),
        (-1e9f64..1e9).prop_map(Cell::Float),
        "[a-z]{0,8}".prop_map(Cell::Str),
        // Adversarial strings that would re-infer as other types if the
        // writer failed to quote them: digits, floats, bools, empty.
        "-?[0-9]{1,6}(\\.[0-9]{1,3})?".prop_map(Cell::Str),
        prop_oneof![Just("true"), Just("false"), Just(""), Just("1e3")]
            .prop_map(|s| Cell::Str(s.to_string())),
        any::<bool>().prop_map(Cell::Bool),
    ]
}

fn frame(max_rows: usize) -> impl Strategy<Value = DataFrame> {
    (1usize..5).prop_flat_map(move |n_cols| {
        prop::collection::vec(prop::collection::vec(cell(), n_cols..=n_cols), 0..max_rows).prop_map(
            move |rows| {
                let names: Vec<String> = (0..n_cols).map(|i| format!("c{i}")).collect();
                let mut df = DataFrame::new(names);
                for r in rows {
                    df.push_row(r).unwrap();
                }
                df
            },
        )
    })
}

proptest! {
    /// CSV round-trip preserves shape AND every cell's type and value:
    /// quoted fields come back as strings, so Str("42") never collapses
    /// into Int(42) (the PR-2 quotedness bugfix).
    #[test]
    fn csv_roundtrip_preserves_cells(df in frame(20)) {
        let text = df.to_csv();
        let back = dframe::from_csv(&text).unwrap();
        prop_assert_eq!(back.n_rows(), df.n_rows());
        prop_assert_eq!(back.n_cols(), df.n_cols());
        for (ca, cb) in df.columns().iter().zip(back.columns()) {
            for i in 0..df.n_rows() {
                prop_assert_eq!(ca.get(i), cb.get(i), "row {}", i);
            }
        }
    }

    /// Sorting yields a non-decreasing column and preserves the multiset
    /// of rows (checked via row count and column sums).
    #[test]
    fn sort_orders_and_preserves(df in frame(20)) {
        let sorted = df.sort_by("c0", true).unwrap();
        prop_assert_eq!(sorted.n_rows(), df.n_rows());
        let col = sorted.column("c0").unwrap();
        for i in 1..sorted.n_rows() {
            prop_assert_ne!(
                col.get(i - 1).total_cmp(col.get(i)),
                std::cmp::Ordering::Greater
            );
        }
        // Multiset preserved: total of float-view sums match per column.
        for name in df.column_names() {
            let a: f64 = df.column(name).unwrap().floats().iter().sum();
            let b: f64 = sorted.column(name).unwrap().floats().iter().sum();
            prop_assert!((a - b).abs() <= 1e-6 * (1.0 + a.abs()));
        }
    }

    /// Group counts sum to the number of rows.
    #[test]
    fn group_counts_partition_rows(df in frame(30)) {
        let counts = df.group_by(&["c0"]).count();
        let total: i64 = counts
            .column("count").unwrap()
            .iter()
            .filter_map(Cell::as_int)
            .sum();
        prop_assert_eq!(total as usize, df.n_rows());
    }

    /// Filter + complement partition the frame.
    #[test]
    fn filter_partitions(df in frame(30), threshold in -1e9f64..1e9) {
        let pred = |row: &dframe::DataFrame, i: usize| {
            row.column("c0").unwrap().get(i).as_float().is_some_and(|f| f < threshold)
        };
        let yes = df.filter(|r| pred(&df, r.index())).unwrap();
        let no = df.filter(|r| !pred(&df, r.index())).unwrap();
        prop_assert_eq!(yes.n_rows() + no.n_rows(), df.n_rows());
    }

    /// Concat of a frame with itself doubles rows and keeps schema.
    #[test]
    fn concat_self_doubles(df in frame(15)) {
        let c = DataFrame::concat(vec![df.clone(), df.clone()]);
        prop_assert_eq!(c.n_rows(), 2 * df.n_rows());
        prop_assert_eq!(c.n_cols(), df.n_cols());
    }

    /// Pivot output has one row per unique row-key and one column per
    /// unique col-key (+1 for the key column), when entries are unique.
    #[test]
    fn pivot_shape(n in 1usize..5, m in 1usize..5) {
        let mut df = DataFrame::new(vec!["r", "c", "v"]);
        for i in 0..n {
            for j in 0..m {
                df.push_row(vec![
                    Cell::from(format!("r{i}")),
                    Cell::from(format!("c{j}")),
                    Cell::from((i * m + j) as f64),
                ]).unwrap();
            }
        }
        let piv = df.pivot("r", "c", "v").unwrap();
        prop_assert_eq!(piv.n_rows(), n);
        prop_assert_eq!(piv.n_cols(), m + 1);
    }

    /// unique() returns no duplicates and covers every value.
    #[test]
    fn unique_is_exact_cover(df in frame(30)) {
        let u = df.unique("c0").unwrap();
        for (i, a) in u.iter().enumerate() {
            for b in &u[i + 1..] {
                prop_assert!(!a.key_eq(b), "duplicates in unique()");
            }
        }
        for cell in df.column("c0").unwrap().iter() {
            prop_assert!(u.iter().any(|x| x.key_eq(cell)));
        }
    }
}
