//! Property tests for the ranking/comparison layer: the ranking must be a
//! pure function of the *set* of measurements — invariant under row order
//! — even when the values include the full menagerie of numeric edge cases
//! (NaN, ±inf, zero, negatives).

use dframe::{Cell, DataFrame};
use postproc::{cmp_frames, rank_frame, CmpPolicy, RankPolicy};
use proptest::prelude::*;

/// A FOM value drawn from both the happy path and the pathological one.
fn fom() -> impl Strategy<Value = f64> {
    prop_oneof![
        (1.0f64..1e6).prop_map(|v| v),
        Just(0.0),
        (-1e3f64..-1.0).prop_map(|v| v),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
    ]
}

/// (benchmark, fom-name, system, value) rows over small label pools so
/// collisions (repeats, shared cells, missing cells) actually happen.
fn rows() -> impl Strategy<Value = Vec<(usize, usize, usize, f64)>> {
    prop::collection::vec((0usize..3, 0usize..2, 0usize..4, fom()), 1..24)
}

fn frame_of(rows: &[(usize, usize, usize, f64)]) -> DataFrame {
    let mut df = DataFrame::new(vec!["benchmark", "fom", "system", "partition", "value"]);
    for &(b, f, s, v) in rows {
        df.push_row(vec![
            Cell::from(format!("bench{b}")),
            Cell::from(format!("fom{f}")),
            Cell::from(format!("sys{s}")),
            Cell::Null,
            Cell::from(v),
        ])
        .unwrap();
    }
    df
}

/// Deterministic permutation of `0..n` keyed by `seed` (splitmix64 step).
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut keyed: Vec<(u64, usize)> = (0..n)
        .map(|i| {
            let mut z = seed.wrapping_add((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31), i)
        })
        .collect();
    keyed.sort();
    keyed.into_iter().map(|(_, i)| i).collect()
}

proptest! {
    /// Rank output (structure *and* rendered bytes) is invariant under any
    /// permutation of the input rows.
    #[test]
    fn rank_invariant_under_row_order(rows in rows(), seed in any::<u64>()) {
        let df = frame_of(&rows);
        let baseline = rank_frame(&df, &RankPolicy::default()).unwrap();

        let perm = permutation(rows.len(), seed);
        let shuffled: Vec<_> = perm.iter().map(|&i| rows[i]).collect();
        let r = rank_frame(&frame_of(&shuffled), &RankPolicy::default()).unwrap();
        prop_assert_eq!(&baseline, &r);
        prop_assert_eq!(baseline.render_text(), r.render_text());
        prop_assert_eq!(baseline.render_markdown(), r.render_markdown());
    }

    /// Every (cell, system) pair in the input is accounted for in the
    /// ranking: either it contributed to a geomean or it is reported as
    /// skipped/degenerate. Nothing silently vanishes.
    #[test]
    fn rank_accounts_for_every_cell(rows in rows()) {
        let df = frame_of(&rows);
        let r = rank_frame(&df, &RankPolicy::default()).unwrap();
        let n_cells = r.cells.len() + r.degenerate_cells.len();
        for e in &r.entries {
            prop_assert_eq!(
                e.cells_used + e.skipped.len(),
                r.cells.len(),
                "entity {} must address every usable cell",
                e.entity
            );
        }
        // Every distinct (benchmark, fom) pair in the input appears.
        let mut labels: Vec<String> = rows
            .iter()
            .map(|&(b, f, _, _)| format!("bench{b}/fom{f}"))
            .collect();
        labels.sort();
        labels.dedup();
        prop_assert_eq!(n_cells, labels.len());
        // Geomeans are always finite and in (0, 1].
        for e in &r.entries {
            if let Some(g) = e.geomean {
                prop_assert!(g.is_finite() && g > 0.0 && g <= 1.0 + 1e-12, "{}", g);
            }
        }
    }

    /// cmp classifies the full union of cells, is order invariant, and
    /// never produces a non-finite percentage.
    #[test]
    fn cmp_invariant_and_total(a in rows(), b in rows(), seed in any::<u64>()) {
        let (fa, fb) = (frame_of(&a), frame_of(&b));
        let baseline = cmp_frames(&fa, &fb, &CmpPolicy::default()).unwrap();
        prop_assert_eq!(
            baseline.n_improved() + baseline.n_regressed() + baseline.n_unchanged()
                + baseline.n_missing() + baseline.n_incomparable(),
            baseline.cells.len(),
            "every cell classified exactly once"
        );
        for c in &baseline.cells {
            use postproc::Delta::*;
            if let Improved { pct, .. } | Regressed { pct, .. } | Unchanged { pct, .. } = c.delta {
                prop_assert!(pct.is_finite(), "{:?}", c);
            }
        }
        let perm = permutation(a.len(), seed);
        let shuffled: Vec<_> = perm.iter().map(|&i| a[i]).collect();
        let c = cmp_frames(&frame_of(&shuffled), &fb, &CmpPolicy::default()).unwrap();
        prop_assert_eq!(&baseline, &c);
        prop_assert_eq!(baseline.render_text(), c.render_text());
    }
}
