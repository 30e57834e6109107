//! Differential tests for the ranking layer: `rank_frame` and
//! `cmp_frames` against a deliberately naive reference that re-derives
//! every aggregate by scanning the whole frame once per row (O(n²)), with
//! none of the production code's grouping, partitioning or indexing.
//!
//! Both sides are rendered through the same `Ranking` / `Comparison`
//! renderers and compared byte for byte, in both directions. The random
//! frames carry repeats, nulls, NaN,
//! ±inf, ±0, negatives, integer cells, empty and non-empty partitions, a
//! missing partition column and empty frames. Their labels never collide
//! (no `/` or `:` in a name, and every partition cell is a string), so a
//! label stands for exactly one (benchmark, fom, system, partition) key.

use dframe::{Cell, DataFrame};
use postproc::rank::CmpCell;
use postproc::{
    cmp_frames, rank_frame, CmpPolicy, Comparison, Delta, Direction, RankEntry, RankPolicy,
    Ranking, Skip,
};
use proptest::prelude::*;

/// One generated row: pool indices for the four keys plus a value cell.
/// `partition` 0 is the empty string.
#[derive(Debug, Clone)]
struct Row {
    benchmark: usize,
    fom: usize,
    system: usize,
    partition: usize,
    value: Cell,
}

fn value() -> impl Strategy<Value = Cell> {
    (0usize..12, 1.0f64..1e6, -1e3f64..-1e-3, 0i64..50).prop_map(|(kind, pos, neg, int)| match kind
    {
        0 => Cell::Null,
        1 => Cell::Float(f64::NAN),
        2 => Cell::Float(f64::INFINITY),
        3 => Cell::Float(f64::NEG_INFINITY),
        4 => Cell::Float(0.0),
        5 => Cell::Float(-0.0),
        6 => Cell::Float(neg),
        7 => Cell::Int(int),
        _ => Cell::Float(pos),
    })
}

fn rows() -> impl Strategy<Value = Vec<Row>> {
    prop::collection::vec((0usize..3, 0usize..2, 0usize..4, 0usize..3, value()), 0..40).prop_map(
        |rows| {
            rows.into_iter()
                .map(|(benchmark, fom, system, partition, value)| Row {
                    benchmark,
                    fom,
                    system,
                    partition,
                    value,
                })
                .collect()
        },
    )
}

/// The frame of `rows`; without a partition column when `with_partition`
/// is false (every entity is then the bare system name).
fn frame_of(rows: &[Row], with_partition: bool) -> DataFrame {
    let mut names = vec!["value", "system", "fom", "benchmark"];
    if with_partition {
        names.insert(2, "partition");
    }
    let mut df = DataFrame::new(names);
    for r in rows {
        let mut cells = vec![
            r.value.clone(),
            Cell::from(format!("sys{}", r.system)),
            Cell::from(format!("fom{}", r.fom)),
            Cell::from(format!("bench{}", r.benchmark)),
        ];
        if with_partition {
            let partition = match r.partition {
                0 => String::new(),
                p => format!("part{p}"),
            };
            cells.insert(2, Cell::from(partition));
        }
        df.push_row(cells).unwrap();
    }
    df
}

/// `(cell label, entity label, value)` of every frame row, in row order.
fn labelled(df: &DataFrame) -> Vec<(String, String, Option<f64>)> {
    let text = |name: &str, i: usize| {
        df.column(name)
            .map(|c| c.get(i).to_string())
            .unwrap_or_default()
    };
    (0..df.n_rows())
        .map(|i| {
            let (system, partition) = (text("system", i), text("partition", i));
            let entity = if partition.is_empty() {
                system
            } else {
                format!("{system}:{partition}")
            };
            let cell = format!("{}/{}", text("benchmark", i), text("fom", i));
            let value = df.column("value").unwrap().get(i).as_float();
            (cell, entity, value)
        })
        .collect()
}

/// The sum of `values` rounded once: each non-zero value is `m·2^e` for
/// an integer `m`, and aligned to the smallest `e` they add exactly in an
/// `i128` (the generated values span about 30 binary orders of magnitude).
fn exact_sum(values: &[f64]) -> f64 {
    let parts: Vec<(i128, i32)> = values
        .iter()
        .filter(|&&v| v != 0.0)
        .map(|&v| {
            let bits = v.to_bits();
            let exp = ((bits >> 52) & 0x7ff) as i32;
            let frac = (bits & ((1 << 52) - 1)) as i128;
            let (m, e) = match exp {
                0 => (frac, -1074),
                _ => (frac | 1 << 52, exp - 1075),
            };
            (if v < 0.0 { -m } else { m }, e)
        })
        .collect();
    let Some(e0) = parts.iter().map(|&(_, e)| e).min() else {
        return 0.0;
    };
    let total: i128 = parts.iter().map(|&(m, e)| m << (e - e0)).sum();
    // `i128 as f64` rounds to nearest, ties to even; the power of two
    // scales exactly.
    total as f64 * 2f64.powi(e0)
}

/// The aggregate of every (cell, entity) key, each found by rescanning the
/// whole frame from the key's first row: the mean of the finite samples
/// (their exactly rounded sum over their count), unless a non-finite
/// sample poisons it (NaN over everything, otherwise the
/// `total_cmp`-least), and `None` when every sample is null.
fn naive_aggregate(df: &DataFrame) -> Vec<(String, String, Option<f64>)> {
    let rows = labelled(df);
    let mut out = Vec::new();
    for (i, (cell, entity, _)) in rows.iter().enumerate() {
        if rows[..i].iter().any(|(c, e, _)| c == cell && e == entity) {
            continue;
        }
        let mut finite = Vec::new();
        let mut poison: Option<f64> = None;
        for (c, e, v) in &rows {
            if c != cell || e != entity {
                continue;
            }
            match *v {
                Some(v) if v.is_finite() => finite.push(v),
                Some(v) => {
                    poison = Some(match poison {
                        None => v,
                        Some(p) if p.is_nan() || v.is_nan() => f64::NAN,
                        Some(p) => {
                            if v.total_cmp(&p).is_lt() {
                                v
                            } else {
                                p
                            }
                        }
                    });
                }
                None => {}
            }
        }
        let value = match poison {
            Some(p) => Some(p),
            None if finite.is_empty() => None,
            None => Some(exact_sum(&finite) / finite.len() as f64),
        };
        out.push((cell.clone(), entity.clone(), value));
    }
    out
}

fn lookup(agg: &[(String, String, Option<f64>)], cell: &str, entity: &str) -> Option<Option<f64>> {
    agg.iter()
        .find(|(c, e, _)| c == cell && e == entity)
        .map(|(_, _, v)| *v)
}

fn sorted_unique(items: impl Iterator<Item = String>) -> Vec<String> {
    let mut v: Vec<String> = items.collect();
    v.sort();
    v.dedup();
    v
}

fn usable(v: Option<f64>) -> Option<f64> {
    v.filter(|v| v.is_finite() && *v > 0.0)
}

fn naive_rank(df: &DataFrame, direction: Direction) -> Ranking {
    let agg = naive_aggregate(df);
    let cells = sorted_unique(agg.iter().map(|(c, _, _)| c.clone()));
    let entities = sorted_unique(agg.iter().map(|(_, e, _)| e.clone()));
    let mut usable_cells = Vec::new();
    let mut degenerate_cells = Vec::new();
    for cell in &cells {
        let mut best: Option<f64> = None;
        for entity in &entities {
            if let Some(v) = lookup(&agg, cell, entity).and_then(usable) {
                let better = match (best, direction) {
                    (None, _) => true,
                    (Some(b), Direction::HigherIsBetter) => v > b,
                    (Some(b), Direction::LowerIsBetter) => v < b,
                };
                if better {
                    best = Some(v);
                }
            }
        }
        match best {
            Some(b) => usable_cells.push((cell.clone(), b)),
            None => degenerate_cells.push(cell.clone()),
        }
    }
    let mut scored = Vec::new();
    let mut unscored = Vec::new();
    for entity in &entities {
        let mut log_sum = 0.0;
        let mut used = 0usize;
        let mut skipped = Vec::new();
        for (cell, best) in &usable_cells {
            let reason = match lookup(&agg, cell, entity) {
                None | Some(None) => Some(Skip::Missing),
                Some(Some(v)) if !v.is_finite() => Some(Skip::NonFinite(v)),
                Some(Some(v)) if v <= 0.0 => Some(Skip::NonPositive(v)),
                Some(Some(v)) => {
                    let speedup = match direction {
                        Direction::HigherIsBetter => v / best,
                        Direction::LowerIsBetter => best / v,
                    };
                    log_sum += speedup.ln();
                    used += 1;
                    None
                }
            };
            if let Some(reason) = reason {
                skipped.push((cell.clone(), reason));
            }
        }
        let entry = RankEntry {
            entity: entity.clone(),
            geomean: (used > 0).then(|| (log_sum / used as f64).exp()),
            cells_used: used,
            skipped,
        };
        if entry.geomean.is_some() {
            scored.push(entry);
        } else {
            unscored.push(entry);
        }
    }
    // Selection order: highest geomean first, the smaller name on a tie
    // (`entities` is sorted, so the first maximum found wins); systems
    // without a usable cell follow in name order.
    let mut entries = Vec::new();
    while !scored.is_empty() {
        let mut pick = 0;
        for (i, e) in scored.iter().enumerate() {
            if e.geomean.unwrap() > scored[pick].geomean.unwrap() {
                pick = i;
            }
        }
        entries.push(scored.remove(pick));
    }
    entries.extend(unscored);
    Ranking {
        entries,
        cells: usable_cells.into_iter().map(|(c, _)| c).collect(),
        degenerate_cells,
        direction,
    }
}

fn naive_cmp(a: &DataFrame, b: &DataFrame, policy: &CmpPolicy) -> Comparison {
    let (agg_a, agg_b) = (naive_aggregate(a), naive_aggregate(b));
    let keys = sorted_unique(
        agg_a
            .iter()
            .chain(&agg_b)
            .map(|(c, e, _)| format!("{c}\u{0}{e}")),
    );
    let cells = keys
        .iter()
        .map(|key| {
            let (cell, entity) = key.split_once('\u{0}').unwrap();
            let va = lookup(&agg_a, cell, entity).flatten();
            let vb = lookup(&agg_b, cell, entity).flatten();
            let delta = match (va, vb) {
                (None, None) => Delta::Incomparable { a: None, b: None },
                (None, Some(b)) => Delta::MissingInA { b },
                (Some(a), None) => Delta::MissingInB { a },
                (Some(a), Some(b)) if !a.is_finite() || !b.is_finite() || a <= 0.0 => {
                    Delta::Incomparable {
                        a: Some(a),
                        b: Some(b),
                    }
                }
                (Some(a), Some(b)) => {
                    let pct = (b - a) / a * 100.0;
                    let good = match policy.direction {
                        Direction::HigherIsBetter => pct,
                        Direction::LowerIsBetter => -pct,
                    };
                    if good > policy.threshold_pct {
                        Delta::Improved { a, b, pct }
                    } else if good < -policy.threshold_pct {
                        Delta::Regressed { a, b, pct }
                    } else {
                        Delta::Unchanged { a, b, pct }
                    }
                }
            };
            CmpCell {
                cell: cell.to_string(),
                entity: entity.to_string(),
                delta,
            }
        })
        .collect();
    Comparison {
        cells,
        threshold_pct: policy.threshold_pct,
        direction: policy.direction,
    }
}

const DIRECTIONS: [Direction; 2] = [Direction::HigherIsBetter, Direction::LowerIsBetter];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `rank_frame` renders exactly the reference ranking's bytes.
    #[test]
    fn rank_matches_naive_reference(rows in rows(), with_partition in 0usize..4) {
        let df = frame_of(&rows, with_partition != 0);
        for direction in DIRECTIONS {
            let want = naive_rank(&df, direction);
            let got = rank_frame(&df, &RankPolicy { direction }).unwrap();
            prop_assert_eq!(want.render_text(), got.render_text());
            prop_assert_eq!(want.render_markdown(), got.render_markdown());
        }
    }

    /// `cmp_frames` renders exactly the reference comparison's bytes.
    #[test]
    fn cmp_matches_naive_reference(
        a in rows(),
        b in rows(),
        with_partition in 0usize..4,
        threshold in 0.0f64..20.0,
    ) {
        let (fa, fb) = (frame_of(&a, with_partition != 0), frame_of(&b, with_partition != 0));
        for direction in DIRECTIONS {
            let policy = CmpPolicy { threshold_pct: threshold, direction };
            let want = naive_cmp(&fa, &fb, &policy);
            let got = cmp_frames(&fa, &fb, &policy).unwrap();
            prop_assert_eq!(want.render_text(), got.render_text());
            prop_assert_eq!(want.render_markdown(), got.render_markdown());
        }
    }
}
