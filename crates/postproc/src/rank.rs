//! Cross-system ranking and comparison — the paper's P6 (programmatic
//! assimilation of results) pushed to `rebar rank` / `rebar cmp` polish.
//!
//! [`rank_frame`] reduces an assimilated FOM frame to a geometric-mean
//! speedup ranking of systems: every (benchmark, fom) pair is a *cell*,
//! each system's cell value is compared against the best value for that
//! cell, and a system's score is the geometric mean of its per-cell
//! speedups. [`cmp_frames`] compares the same cells across two studies and
//! classifies each as improved / regressed / unchanged / missing under a
//! configurable noise threshold, so CI flags real movement instead of
//! every wobble.
//!
//! Both reduce a frame through one fold, [`RankAggregate`]: per cell label
//! (`benchmark/fom`) and entity label (`system` or `system:partition`) it
//! keeps the exact running sum and count of the finite samples and the
//! canonical poison of the non-finite ones. Samples merge by label, so row
//! order cannot decide which key wins — keys that render alike (benchmark
//! `a/b` with fom `c`, benchmark `a` with fom `b/c`) share one aggregate —
//! and cannot move a mean either: the sum is exact until its one final
//! rounding. The fold is incremental: the results daemon
//! pushes each acknowledged record into one and ranks it on every verdict
//! read, the same path [`rank_frame`] takes over a whole frame.
//!
//! Numeric policy, stated once and enforced everywhere:
//!
//! * **Missing cells are reported, never silently dropped.** A system
//!   absent from a cell gets an explicit skip entry; a cell with no usable
//!   value on *any* system is listed as degenerate.
//! * **Non-finite FOMs never enter a mean.** The fold keeps NaN/±inf as the
//!   aggregate's poison, which surfaces loudly as a skip entry instead of
//!   being discarded the way `f64::min`-style reductions would, and never
//!   reaches a best-value reduction or a sort — `total_cmp` would
//!   otherwise float a single NaN to the top of a descending sort.
//! * **Zero and negative FOMs are skips, not zeros.** A geometric mean
//!   over a non-positive factor is undefined; the cell is excluded from
//!   the mean and reported.

use crate::regression::Direction;
use dframe::{Cell, DataFrame, FrameError};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

/// How to rank: which direction is good.
#[derive(Debug, Clone)]
pub struct RankPolicy {
    pub direction: Direction,
}

impl Default for RankPolicy {
    fn default() -> RankPolicy {
        RankPolicy {
            direction: Direction::HigherIsBetter,
        }
    }
}

/// Why a (system, cell) pair did not contribute to the geometric mean.
#[derive(Debug, Clone)]
pub enum Skip {
    /// The system has no measurement for this cell.
    Missing,
    /// The measurement is NaN or ±inf.
    NonFinite(f64),
    /// The measurement is zero or negative; a geometric mean over it is
    /// undefined.
    NonPositive(f64),
}

/// Payload equality uses `total_cmp`, so `NonFinite(NaN) == NonFinite(NaN)`
/// holds — skip reports must be comparable in tests and digests even when
/// the offending value is NaN.
impl PartialEq for Skip {
    fn eq(&self, other: &Skip) -> bool {
        match (self, other) {
            (Skip::Missing, Skip::Missing) => true,
            (Skip::NonFinite(a), Skip::NonFinite(b))
            | (Skip::NonPositive(a), Skip::NonPositive(b)) => a.total_cmp(b).is_eq(),
            _ => false,
        }
    }
}

impl std::fmt::Display for Skip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Skip::Missing => write!(f, "missing"),
            Skip::NonFinite(v) => write!(f, "non-finite value {v}"),
            Skip::NonPositive(v) => write!(f, "non-positive value {v}"),
        }
    }
}

/// One ranked system.
#[derive(Debug, Clone, PartialEq)]
pub struct RankEntry {
    /// `system` or `system:partition`.
    pub entity: String,
    /// Geometric mean of per-cell speedups vs the best system, in (0, 1];
    /// `None` when no cell was usable.
    pub geomean: Option<f64>,
    /// Cells that contributed to the mean.
    pub cells_used: usize,
    /// (cell label, reason) for every cell that did not contribute.
    pub skipped: Vec<(String, Skip)>,
}

/// The ranking of every system in a frame, best first.
#[derive(Debug, Clone, PartialEq)]
pub struct Ranking {
    pub entries: Vec<RankEntry>,
    /// Usable cell labels (`benchmark/fom`), canonical order.
    pub cells: Vec<String>,
    /// Cells with no usable value on any system — excluded for everyone,
    /// but reported so a survey-wide outage cannot hide.
    pub degenerate_cells: Vec<String>,
    pub direction: Direction,
}

impl Ranking {
    /// Entity names in rank order (ties and no-data systems by name).
    pub fn order(&self) -> Vec<String> {
        self.entries.iter().map(|e| e.entity.clone()).collect()
    }

    fn table(&self) -> DataFrame {
        let mut df = DataFrame::new(vec!["rank", "system", "geomean-speedup", "cells"]);
        for (i, e) in self.entries.iter().enumerate() {
            let (rank, score) = match e.geomean {
                Some(g) => (format!("{}", i + 1), format!("{g:.4}")),
                None => ("-".to_string(), "-".to_string()),
            };
            df.push_row(vec![
                Cell::from(rank),
                Cell::from(e.entity.as_str()),
                Cell::from(score),
                Cell::from(format!("{}/{}", e.cells_used, self.cells.len())),
            ])
            .expect("fixed schema");
        }
        df
    }

    fn notes(&self) -> Vec<String> {
        let mut notes = Vec::new();
        for e in &self.entries {
            for (cell, reason) in &e.skipped {
                notes.push(format!("skipped: {} lacks {cell} ({reason})", e.entity));
            }
        }
        if !self.degenerate_cells.is_empty() {
            notes.push(format!(
                "degenerate cells (no usable value on any system): {}",
                self.degenerate_cells.join(", ")
            ));
        }
        notes
    }

    /// Aligned-text report.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "ranking {} systems over {} cells ({}, geometric mean of per-cell speedup vs best)\n",
            self.entries.len(),
            self.cells.len(),
            direction_label(self.direction),
        );
        out.push_str(&self.table().to_string());
        for note in self.notes() {
            out.push_str(&note);
            out.push('\n');
        }
        out
    }

    /// GitHub-flavoured-Markdown report.
    pub fn render_markdown(&self) -> String {
        let mut out = format!(
            "## Ranking\n\n{} systems, {} cells, {}; score = geometric mean of per-cell speedup vs best.\n\n",
            self.entries.len(),
            self.cells.len(),
            direction_label(self.direction),
        );
        out.push_str(&self.table().to_markdown());
        let notes = self.notes();
        if !notes.is_empty() {
            out.push('\n');
            for note in notes {
                out.push_str(&format!("- {note}\n"));
            }
        }
        out
    }
}

fn direction_label(d: Direction) -> &'static str {
    match d {
        Direction::HigherIsBetter => "higher is better",
        Direction::LowerIsBetter => "lower is better",
    }
}

/// The running aggregate of one (cell, entity) pair: the exact sum and
/// the count of its finite samples, and the canonical poison of its
/// non-finite ones.
#[derive(Debug, Clone, Default)]
struct Sample {
    /// The finite samples' sum, exactly: non-overlapping partials in
    /// ascending magnitude (Shewchuk's expansion, as in Python's
    /// `math.fsum`), so the mean depends only on the set of samples.
    partials: Vec<f64>,
    n: usize,
    poison: Option<f64>,
}

impl Sample {
    fn push(&mut self, value: Option<f64>) {
        match value {
            Some(v) if v.is_finite() => {
                // A zero leaves the exact sum alone; skipping it keeps an
                // all-zero sum at `+0.0`.
                if v != 0.0 {
                    grow_exact(&mut self.partials, v);
                }
                self.n += 1;
            }
            // A non-finite sample must not vanish into the mean; it
            // poisons the aggregate. Chosen canonically (NaN dominates,
            // then `total_cmp`-least) so the result cannot depend on the
            // order samples arrive in.
            Some(v) => {
                self.poison = Some(match self.poison {
                    None => v,
                    Some(p) if p.is_nan() || v.is_nan() => f64::NAN,
                    Some(p) if v.total_cmp(&p).is_lt() => v,
                    Some(p) => p,
                });
            }
            None => {}
        }
    }

    /// The poison if any, else the mean; `None` when every sample was null.
    fn value(&self) -> Option<f64> {
        match self.poison {
            Some(p) => Some(p),
            None if self.n == 0 => None,
            None => Some(round_exact(&self.partials) / self.n as f64),
        }
    }
}

/// Add `x` to the exact sum held in `partials`. Each two-sum splits a
/// partial plus `x` into its rounded sum and the exact error, so no bit is
/// lost. A sum past `f64::MAX` saturates at ±inf (as a running sum would).
fn grow_exact(partials: &mut Vec<f64>, mut x: f64) {
    let mut kept = 0;
    for j in 0..partials.len() {
        let mut y = partials[j];
        if x.abs() < y.abs() {
            std::mem::swap(&mut x, &mut y);
        }
        let hi = x + y;
        let lo = y - (hi - x);
        if lo != 0.0 {
            partials[kept] = lo;
            kept += 1;
        }
        x = hi;
    }
    if x.is_infinite() {
        kept = 0;
    }
    partials.truncate(kept);
    partials.push(x);
}

/// The sum `partials` hold, rounded once to nearest, ties to even.
fn round_exact(partials: &[f64]) -> f64 {
    let Some((&top, mut rest)) = partials.split_last() else {
        return 0.0;
    };
    // Add partials from the top down until a sum turns inexact.
    let (mut hi, mut lo) = (top, 0.0);
    while let Some((&y, below)) = rest.split_last() {
        rest = below;
        let x = hi;
        hi = x + y;
        lo = y - (hi - x);
        if lo != 0.0 {
            break;
        }
    }
    // A tie (`hi + 2·lo` exact, so `lo` is half an ulp) with partials
    // below pushing the same way: the true sum lies past the tie, so round
    // away from `hi`.
    if let Some(&next) = rest.last() {
        if (lo < 0.0 && next < 0.0) || (lo > 0.0 && next > 0.0) {
            let y = lo * 2.0;
            let x = hi + y;
            if y == x - hi {
                hi = x;
            }
        }
    }
    hi
}

/// A study's FOM samples folded to one aggregate per (cell, entity) label
/// pair — the one input of [`rank`](RankAggregate::rank) and
/// [`cmp_frames`]. A cell is labelled `benchmark/fom`, an entity `system`
/// or `system:partition`, and samples whose labels render the same merge,
/// whatever order they arrive in. Repeats reduce to the mean of their
/// finite samples, the same in any arrival order; any non-finite sample
/// poisons the aggregate instead (see [`Skip::NonFinite`]); all-null is
/// missing.
///
/// The fold is incremental: pushing the rows of a frame one by one, in
/// row order, gives the aggregate [`from_frame`](RankAggregate::from_frame)
/// builds, so a daemon can keep it up to date record by record.
#[derive(Debug, Clone, Default)]
pub struct RankAggregate {
    cells: BTreeMap<String, BTreeMap<String, Sample>>,
}

/// `head`, `sep`, `tail` as one label. Built without `format!`, which
/// would cost about twice as much again per folded sample.
fn join(head: &str, sep: char, tail: &str) -> String {
    let mut label = String::with_capacity(head.len() + 1 + tail.len());
    label.push_str(head);
    label.push(sep);
    label.push_str(tail);
    label
}

/// A key cell as label text; strings are borrowed, not re-rendered.
fn label_text(cell: &Cell) -> Cow<'_, str> {
    match cell {
        Cell::Str(s) => Cow::Borrowed(s),
        other => Cow::Owned(other.to_string()),
    }
}

impl RankAggregate {
    /// Fold one sample; `None` is a null measurement (the entity still
    /// appears, as missing this cell).
    pub fn push(
        &mut self,
        benchmark: &str,
        fom: &str,
        system: &str,
        partition: &str,
        value: Option<f64>,
    ) {
        let entity = if partition.is_empty() {
            system.to_string()
        } else {
            join(system, ':', partition)
        };
        self.cells
            .entry(join(benchmark, '/', fom))
            .or_default()
            .entry(entity)
            .or_default()
            .push(value);
    }

    /// Fold every row of an assimilated FOM frame, in row order. The
    /// `benchmark`, `fom`, `system` and `value` columns are required; a
    /// missing `partition` column means every partition is empty.
    pub fn from_frame(df: &DataFrame) -> Result<RankAggregate, FrameError> {
        let column = |name: &str| {
            df.column(name)
                .ok_or_else(|| FrameError::NoSuchColumn(name.to_string()))
        };
        let (benchmark, fom, system, value) = (
            column("benchmark")?,
            column("fom")?,
            column("system")?,
            column("value")?,
        );
        let partition = df.column("partition");
        let mut agg = RankAggregate::default();
        for i in 0..df.n_rows() {
            let partition = partition.map_or(Cow::Borrowed(""), |c| label_text(c.get(i)));
            agg.push(
                &label_text(benchmark.get(i)),
                &label_text(fom.get(i)),
                &label_text(system.get(i)),
                &partition,
                value.get(i).as_float(),
            );
        }
        Ok(agg)
    }

    /// The aggregate of `entity` in `cell`; `None` when the entity has no
    /// sample there or only null ones.
    fn get(&self, cell: &str, entity: &str) -> Option<f64> {
        self.cells.get(cell)?.get(entity)?.value()
    }

    /// Rank the folded systems (see module docs for the skip policy).
    pub fn rank(&self, policy: &RankPolicy) -> Ranking {
        let entities: Vec<&String> = self
            .cells
            .values()
            .flat_map(BTreeMap::keys)
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();

        // Per cell: the best usable value, or None for a degenerate cell.
        let mut usable_cells: Vec<(&String, f64)> = Vec::new();
        let mut degenerate_cells: Vec<String> = Vec::new();
        for (cell, by_entity) in &self.cells {
            let best = by_entity
                .values()
                .filter_map(|s| usable(s.value()))
                .reduce(|a, b| match policy.direction {
                    Direction::HigherIsBetter => a.max(b),
                    Direction::LowerIsBetter => a.min(b),
                });
            match best {
                Some(best) => usable_cells.push((cell, best)),
                None => degenerate_cells.push(cell.clone()),
            }
        }

        let score = |entity: &&String| -> RankEntry {
            let mut log_sum = 0.0;
            let mut used = 0usize;
            let mut skipped = Vec::new();
            for &(cell, best) in &usable_cells {
                let reason = match self.get(cell, entity) {
                    None => Skip::Missing,
                    Some(v) if !v.is_finite() => Skip::NonFinite(v),
                    Some(v) if v <= 0.0 => Skip::NonPositive(v),
                    Some(v) => {
                        let speedup = match policy.direction {
                            Direction::HigherIsBetter => v / best,
                            Direction::LowerIsBetter => best / v,
                        };
                        log_sum += speedup.ln();
                        used += 1;
                        continue;
                    }
                };
                skipped.push((cell.clone(), reason));
            }
            RankEntry {
                entity: entity.to_string(),
                geomean: (used > 0).then(|| (log_sum / used as f64).exp()),
                cells_used: used,
                skipped,
            }
        };
        let mut entries: Vec<RankEntry> = entities.iter().map(score).collect();

        // All geomeans are finite and positive by construction (the fold
        // keeps non-finite samples out of every mean), so this sort cannot
        // meet a NaN; no-data systems go last, ties break by name.
        entries.sort_by(|a, b| match (a.geomean, b.geomean) {
            (Some(x), Some(y)) => y
                .partial_cmp(&x)
                .expect("geomeans are finite")
                .then_with(|| a.entity.cmp(&b.entity)),
            (Some(_), None) => std::cmp::Ordering::Less,
            (None, Some(_)) => std::cmp::Ordering::Greater,
            (None, None) => a.entity.cmp(&b.entity),
        });
        Ranking {
            entries,
            cells: usable_cells.into_iter().map(|(c, _)| c.clone()).collect(),
            degenerate_cells,
            direction: policy.direction,
        }
    }
}

fn usable(v: Option<f64>) -> Option<f64> {
    v.filter(|v| v.is_finite() && *v > 0.0)
}

/// Rank the systems of an assimilated FOM frame (see module docs for the
/// aggregation rule and the skip policy).
pub fn rank_frame(df: &DataFrame, policy: &RankPolicy) -> Result<Ranking, FrameError> {
    Ok(RankAggregate::from_frame(df)?.rank(policy))
}

/// How to compare two studies: the noise threshold (percent change below
/// which a cell is "unchanged") and the good direction.
#[derive(Debug, Clone)]
pub struct CmpPolicy {
    pub threshold_pct: f64,
    pub direction: Direction,
}

impl Default for CmpPolicy {
    fn default() -> CmpPolicy {
        CmpPolicy {
            threshold_pct: 2.0,
            direction: Direction::HigherIsBetter,
        }
    }
}

/// The classified change of one (cell, system) pair between two studies.
/// `pct` is the raw percent change `(b - a) / a * 100`.
#[derive(Debug, Clone)]
pub enum Delta {
    Improved {
        a: f64,
        b: f64,
        pct: f64,
    },
    Regressed {
        a: f64,
        b: f64,
        pct: f64,
    },
    Unchanged {
        a: f64,
        b: f64,
        pct: f64,
    },
    /// Present only in study B.
    MissingInA {
        b: f64,
    },
    /// Present only in study A.
    MissingInB {
        a: f64,
    },
    /// Present in both, but a relative change is undefined (non-finite
    /// value, or a non-positive baseline).
    Incomparable {
        a: Option<f64>,
        b: Option<f64>,
    },
}

/// Payload equality uses `total_cmp` (see [`Skip`]): two deltas carrying
/// the same NaN measurement compare equal.
impl PartialEq for Delta {
    fn eq(&self, other: &Delta) -> bool {
        fn eq(a: f64, b: f64) -> bool {
            a.total_cmp(&b).is_eq()
        }
        fn eq_opt(a: Option<f64>, b: Option<f64>) -> bool {
            match (a, b) {
                (None, None) => true,
                (Some(a), Some(b)) => eq(a, b),
                _ => false,
            }
        }
        use Delta::*;
        match (self, other) {
            (
                Improved { a, b, pct },
                Improved {
                    a: a2,
                    b: b2,
                    pct: p2,
                },
            )
            | (
                Regressed { a, b, pct },
                Regressed {
                    a: a2,
                    b: b2,
                    pct: p2,
                },
            )
            | (
                Unchanged { a, b, pct },
                Unchanged {
                    a: a2,
                    b: b2,
                    pct: p2,
                },
            ) => eq(*a, *a2) && eq(*b, *b2) && eq(*pct, *p2),
            (MissingInA { b }, MissingInA { b: b2 }) => eq(*b, *b2),
            (MissingInB { a }, MissingInB { a: a2 }) => eq(*a, *a2),
            (Incomparable { a, b }, Incomparable { a: a2, b: b2 }) => {
                eq_opt(*a, *a2) && eq_opt(*b, *b2)
            }
            _ => false,
        }
    }
}

/// One compared cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CmpCell {
    /// `benchmark/fom`.
    pub cell: String,
    pub entity: String,
    pub delta: Delta,
}

/// Cell-by-cell deltas between two studies.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Canonical (cell, entity) order.
    pub cells: Vec<CmpCell>,
    pub threshold_pct: f64,
    pub direction: Direction,
}

impl Comparison {
    fn count(&self, f: impl Fn(&Delta) -> bool) -> usize {
        self.cells.iter().filter(|c| f(&c.delta)).count()
    }

    pub fn n_improved(&self) -> usize {
        self.count(|d| matches!(d, Delta::Improved { .. }))
    }

    pub fn n_regressed(&self) -> usize {
        self.count(|d| matches!(d, Delta::Regressed { .. }))
    }

    pub fn n_unchanged(&self) -> usize {
        self.count(|d| matches!(d, Delta::Unchanged { .. }))
    }

    pub fn n_missing(&self) -> usize {
        self.count(|d| matches!(d, Delta::MissingInA { .. } | Delta::MissingInB { .. }))
    }

    pub fn n_incomparable(&self) -> usize {
        self.count(|d| matches!(d, Delta::Incomparable { .. }))
    }

    fn table(&self) -> DataFrame {
        let fmt = |v: f64| format!("{v:.4}");
        let opt = |v: Option<f64>| v.map(fmt).unwrap_or_else(|| "-".to_string());
        let mut df = DataFrame::new(vec!["cell", "system", "A", "B", "delta", "verdict"]);
        for c in &self.cells {
            let (a, b, delta, verdict) = match &c.delta {
                Delta::Improved { a, b, pct } => {
                    (fmt(*a), fmt(*b), format!("{pct:+.2}%"), "improved")
                }
                Delta::Regressed { a, b, pct } => {
                    (fmt(*a), fmt(*b), format!("{pct:+.2}%"), "REGRESSED")
                }
                Delta::Unchanged { a, b, pct } => {
                    (fmt(*a), fmt(*b), format!("{pct:+.2}%"), "unchanged")
                }
                Delta::MissingInA { b } => ("-".into(), fmt(*b), "-".into(), "missing in A"),
                Delta::MissingInB { a } => (fmt(*a), "-".into(), "-".into(), "missing in B"),
                Delta::Incomparable { a, b } => (opt(*a), opt(*b), "-".into(), "incomparable"),
            };
            df.push_row(vec![
                Cell::from(c.cell.as_str()),
                Cell::from(c.entity.as_str()),
                Cell::from(a),
                Cell::from(b),
                Cell::from(delta),
                Cell::from(verdict),
            ])
            .expect("fixed schema");
        }
        df
    }

    fn summary(&self) -> String {
        format!(
            "summary: {} improved, {} regressed, {} unchanged, {} missing, {} incomparable (threshold {}%, {})",
            self.n_improved(),
            self.n_regressed(),
            self.n_unchanged(),
            self.n_missing(),
            self.n_incomparable(),
            self.threshold_pct,
            direction_label(self.direction),
        )
    }

    /// Aligned-text report.
    pub fn render_text(&self) -> String {
        let mut out = self.table().to_string();
        out.push_str(&self.summary());
        out.push('\n');
        out
    }

    /// GitHub-flavoured-Markdown report.
    pub fn render_markdown(&self) -> String {
        let mut out = String::from("## Comparison\n\n");
        out.push_str(&self.table().to_markdown());
        out.push('\n');
        out.push_str(&self.summary());
        out.push('\n');
        out
    }
}

/// Compare two assimilated FOM frames cell by cell (see module docs). The
/// union of (cell, entity) pairs is classified; nothing is dropped.
pub fn cmp_frames(
    a: &DataFrame,
    b: &DataFrame,
    policy: &CmpPolicy,
) -> Result<Comparison, FrameError> {
    assert!(
        policy.threshold_pct >= 0.0 && policy.threshold_pct.is_finite(),
        "threshold must be a finite non-negative percentage"
    );
    let (agg_a, agg_b) = (RankAggregate::from_frame(a)?, RankAggregate::from_frame(b)?);
    let keys: Vec<(&String, &String)> = [&agg_a, &agg_b]
        .into_iter()
        .flat_map(|agg| {
            agg.cells
                .iter()
                .flat_map(|(cell, by_entity)| by_entity.keys().map(move |entity| (cell, entity)))
        })
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();

    let classify = |&(cell, entity): &(&String, &String)| -> CmpCell {
        let (va, vb) = (agg_a.get(cell, entity), agg_b.get(cell, entity));
        let delta = match (va, vb) {
            (None, None) => Delta::Incomparable { a: None, b: None },
            (None, Some(b)) => Delta::MissingInA { b },
            (Some(a), None) => Delta::MissingInB { a },
            (Some(a), Some(b)) => {
                if !a.is_finite() || !b.is_finite() || a <= 0.0 {
                    Delta::Incomparable {
                        a: Some(a),
                        b: Some(b),
                    }
                } else {
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
            }
        };
        CmpCell {
            cell: cell.clone(),
            entity: entity.clone(),
            delta,
        }
    };
    Ok(Comparison {
        cells: keys.iter().map(classify).collect(),
        threshold_pct: policy.threshold_pct,
        direction: policy.direction,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// rows: (benchmark, fom, system, value)
    fn frame(rows: &[(&str, &str, &str, f64)]) -> DataFrame {
        let mut df = DataFrame::new(vec!["benchmark", "fom", "system", "partition", "value"]);
        for (b, f, s, v) in rows {
            df.push_row(vec![
                Cell::from(*b),
                Cell::from(*f),
                Cell::from(*s),
                Cell::Null,
                Cell::from(*v),
            ])
            .unwrap();
        }
        df
    }

    #[test]
    fn rank_orders_by_geomean_speedup() {
        // Two cells; a is best at both, b at half speed on each →
        // geomean(0.5, 0.5) = 0.5; c at 1.0 and 0.25 → geomean 0.5 too,
        // tie broken by name.
        let df = frame(&[
            ("s1", "Triad", "a", 200.0),
            ("s1", "Triad", "b", 100.0),
            ("s1", "Triad", "c", 200.0),
            ("s2", "Triad", "a", 400.0),
            ("s2", "Triad", "b", 200.0),
            ("s2", "Triad", "c", 100.0),
        ]);
        let r = rank_frame(&df, &RankPolicy::default()).unwrap();
        assert_eq!(r.order(), vec!["a", "b", "c"]);
        assert_eq!(r.entries[0].geomean, Some(1.0));
        let b = &r.entries[1];
        assert!((b.geomean.unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(b.cells_used, 2);
        assert!(b.skipped.is_empty());
        let c = &r.entries[2];
        assert!((c.geomean.unwrap() - 0.5).abs() < 1e-12);
        // Rendering is deterministic and carries the rank table.
        let text = r.render_text();
        assert!(text.contains("ranking 3 systems over 2 cells"), "{text}");
        assert!(text.contains("1.0000"), "{text}");
        let md = r.render_markdown();
        assert!(md.contains("| rank | system |"), "{md}");
    }

    #[test]
    fn rank_lower_is_better_inverts_speedup() {
        // Runtimes: smaller wins. a twice as fast as b.
        let df = frame(&[("s", "time", "a", 5.0), ("s", "time", "b", 10.0)]);
        let policy = RankPolicy {
            direction: Direction::LowerIsBetter,
        };
        let r = rank_frame(&df, &policy).unwrap();
        assert_eq!(r.order(), vec!["a", "b"]);
        assert!((r.entries[1].geomean.unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rank_reports_missing_cells_instead_of_dropping() {
        // b lacks the second cell: its geomean uses one cell and the gap
        // is reported explicitly.
        let df = frame(&[
            ("s1", "Triad", "a", 100.0),
            ("s1", "Triad", "b", 50.0),
            ("s2", "Triad", "a", 100.0),
        ]);
        let r = rank_frame(&df, &RankPolicy::default()).unwrap();
        let b = r.entries.iter().find(|e| e.entity == "b").unwrap();
        assert_eq!(b.cells_used, 1);
        assert_eq!(b.skipped, vec![("s2/Triad".to_string(), Skip::Missing)]);
        assert!(r
            .render_text()
            .contains("skipped: b lacks s2/Triad (missing)"));
    }

    #[test]
    fn rank_empty_intersection_of_cells() {
        // Disjoint cells: each system is trivially best at its own cell
        // and reported missing from the other's. No cell is shared, yet
        // nothing is silently dropped.
        let df = frame(&[("s1", "Triad", "a", 100.0), ("s2", "Triad", "b", 50.0)]);
        let r = rank_frame(&df, &RankPolicy::default()).unwrap();
        assert_eq!(r.cells.len(), 2);
        for e in &r.entries {
            assert_eq!(e.geomean, Some(1.0), "{e:?}");
            assert_eq!(e.cells_used, 1);
            assert_eq!(e.skipped.len(), 1, "the other cell is reported missing");
        }
        assert_eq!(r.order(), vec!["a", "b"], "tie broken by name");
    }

    #[test]
    fn rank_zero_and_negative_foms_are_skips() {
        let df = frame(&[
            ("s1", "Triad", "a", 100.0),
            ("s1", "Triad", "b", 0.0),
            ("s1", "Triad", "c", -3.0),
        ]);
        let r = rank_frame(&df, &RankPolicy::default()).unwrap();
        assert_eq!(r.order()[0], "a");
        let b = r.entries.iter().find(|e| e.entity == "b").unwrap();
        assert_eq!(b.geomean, None, "no usable cell");
        assert_eq!(
            b.skipped,
            vec![("s1/Triad".to_string(), Skip::NonPositive(0.0))]
        );
        let c = r.entries.iter().find(|e| e.entity == "c").unwrap();
        assert_eq!(
            c.skipped,
            vec![("s1/Triad".to_string(), Skip::NonPositive(-3.0))]
        );
        // No-data systems rank last, by name, with a `-` score.
        assert_eq!(r.order(), vec!["a", "b", "c"]);
        assert!(r.render_text().contains("non-positive value -3"));
    }

    #[test]
    fn rank_single_system_study() {
        let df = frame(&[("s1", "Triad", "a", 100.0), ("s2", "Triad", "a", 5.0)]);
        let r = rank_frame(&df, &RankPolicy::default()).unwrap();
        assert_eq!(r.entries.len(), 1);
        assert_eq!(r.entries[0].geomean, Some(1.0), "alone ⇒ best everywhere");
        assert_eq!(r.entries[0].cells_used, 2);
    }

    #[test]
    fn rank_nonfinite_foms_are_partitioned_out_not_sorted_in() {
        // The dframe satellite in action: a NaN FOM would win a naive
        // descending sort (total_cmp puts NaN above +inf). Rank must
        // instead report it as a skip and rank the finite systems.
        let df = frame(&[
            ("s1", "Triad", "a", 100.0),
            ("s1", "Triad", "b", f64::NAN),
            ("s1", "Triad", "c", f64::INFINITY),
            ("s1", "Triad", "d", 200.0),
        ]);
        let r = rank_frame(&df, &RankPolicy::default()).unwrap();
        assert_eq!(r.order(), vec!["d", "a", "b", "c"], "finite systems first");
        let b = r.entries.iter().find(|e| e.entity == "b").unwrap();
        assert!(matches!(b.skipped[0].1, Skip::NonFinite(v) if v.is_nan()));
        let c = r.entries.iter().find(|e| e.entity == "c").unwrap();
        assert_eq!(c.skipped[0].1, Skip::NonFinite(f64::INFINITY));
        // A NaN among repeats poisons that cell's aggregate rather than
        // being averaged away.
        let mut df = frame(&[("s1", "Triad", "a", 100.0), ("s1", "Triad", "b", 90.0)]);
        df.push_row(vec![
            Cell::from("s1"),
            Cell::from("Triad"),
            Cell::from("b"),
            Cell::Null,
            Cell::from(f64::NAN),
        ])
        .unwrap();
        let r = rank_frame(&df, &RankPolicy::default()).unwrap();
        let b = r.entries.iter().find(|e| e.entity == "b").unwrap();
        assert_eq!(b.cells_used, 0, "poisoned aggregate must not contribute");
        assert!(matches!(b.skipped[0].1, Skip::NonFinite(v) if v.is_nan()));
    }

    #[test]
    fn rank_degenerate_cell_is_reported() {
        let df = frame(&[
            ("s1", "Triad", "a", 100.0),
            ("s2", "Triad", "a", f64::NAN),
            ("s2", "Triad", "b", 0.0),
        ]);
        let r = rank_frame(&df, &RankPolicy::default()).unwrap();
        assert_eq!(r.cells, vec!["s1/Triad"]);
        assert_eq!(r.degenerate_cells, vec!["s2/Triad"]);
        assert!(
            r.render_text().contains("degenerate cells"),
            "{}",
            r.render_text()
        );
    }

    #[test]
    fn rank_entities_split_by_partition() {
        let mut df = DataFrame::new(vec!["benchmark", "fom", "system", "partition", "value"]);
        for (p, v) in [("cascadelake", 100.0), ("icelake", 150.0)] {
            df.push_row(vec![
                Cell::from("s"),
                Cell::from("Triad"),
                Cell::from("csd3"),
                Cell::from(p),
                Cell::from(v),
            ])
            .unwrap();
        }
        let r = rank_frame(&df, &RankPolicy::default()).unwrap();
        assert_eq!(r.order(), vec!["csd3:icelake", "csd3:cascadelake"]);
    }

    #[test]
    fn rank_missing_column_is_an_error() {
        let df = DataFrame::new(vec!["benchmark", "fom", "system"]);
        assert_eq!(
            rank_frame(&df, &RankPolicy::default()).unwrap_err(),
            FrameError::NoSuchColumn("value".to_string())
        );
    }

    #[test]
    fn cmp_classifies_with_threshold() {
        let a = frame(&[
            ("s1", "Triad", "x", 100.0),
            ("s2", "Triad", "x", 100.0),
            ("s3", "Triad", "x", 100.0),
            ("s4", "Triad", "x", 100.0),
        ]);
        let b = frame(&[
            ("s1", "Triad", "x", 110.0), // +10% improved
            ("s2", "Triad", "x", 95.0),  // -5% regressed
            ("s3", "Triad", "x", 101.0), // +1% within noise
            ("s5", "Triad", "x", 50.0),  // new cell
        ]);
        let c = cmp_frames(&a, &b, &CmpPolicy::default()).unwrap();
        assert_eq!(
            (
                c.n_improved(),
                c.n_regressed(),
                c.n_unchanged(),
                c.n_missing()
            ),
            (1, 1, 1, 2),
            "{c:?}"
        );
        let by_cell = |cell: &str| {
            c.cells
                .iter()
                .find(|x| x.cell == cell)
                .map(|x| x.delta.clone())
                .unwrap()
        };
        assert!(
            matches!(by_cell("s1/Triad"), Delta::Improved { pct, .. } if (pct - 10.0).abs() < 1e-9)
        );
        assert!(
            matches!(by_cell("s2/Triad"), Delta::Regressed { pct, .. } if (pct + 5.0).abs() < 1e-9)
        );
        assert!(matches!(by_cell("s3/Triad"), Delta::Unchanged { .. }));
        assert!(matches!(by_cell("s4/Triad"), Delta::MissingInB { a } if a == 100.0));
        assert!(matches!(by_cell("s5/Triad"), Delta::MissingInA { b } if b == 50.0));
        // A wider threshold absorbs the 5% drop.
        let wide = CmpPolicy {
            threshold_pct: 10.0,
            ..CmpPolicy::default()
        };
        let c = cmp_frames(&a, &b, &wide).unwrap();
        assert_eq!(
            (c.n_improved(), c.n_regressed(), c.n_unchanged()),
            (0, 0, 3)
        );
        // Lower-is-better flips the verdicts.
        let lower = CmpPolicy {
            direction: Direction::LowerIsBetter,
            ..CmpPolicy::default()
        };
        let c = cmp_frames(&a, &b, &lower).unwrap();
        assert!(matches!(
            by_cell_of(&c, "s1/Triad"),
            Delta::Regressed { .. }
        ));
        assert!(matches!(by_cell_of(&c, "s2/Triad"), Delta::Improved { .. }));
    }

    fn by_cell_of(c: &Comparison, cell: &str) -> Delta {
        c.cells
            .iter()
            .find(|x| x.cell == cell)
            .map(|x| x.delta.clone())
            .unwrap()
    }

    #[test]
    fn cmp_nonfinite_and_nonpositive_are_incomparable() {
        let a = frame(&[
            ("s1", "Triad", "x", f64::NAN),
            ("s2", "Triad", "x", 0.0),
            ("s3", "Triad", "x", 100.0),
        ]);
        let b = frame(&[
            ("s1", "Triad", "x", 100.0),
            ("s2", "Triad", "x", 100.0),
            ("s3", "Triad", "x", f64::INFINITY),
        ]);
        let c = cmp_frames(&a, &b, &CmpPolicy::default()).unwrap();
        assert_eq!(c.n_incomparable(), 3, "{c:?}");
        let text = c.render_text();
        assert!(text.contains("incomparable"), "{text}");
        assert!(
            text.contains(
                "summary: 0 improved, 0 regressed, 0 unchanged, 0 missing, 3 incomparable"
            ),
            "{text}"
        );
    }

    #[test]
    fn cmp_renders_table_and_markdown() {
        let a = frame(&[("s1", "Triad", "x", 100.0)]);
        let b = frame(&[("s1", "Triad", "x", 120.0)]);
        let c = cmp_frames(&a, &b, &CmpPolicy::default()).unwrap();
        let text = c.render_text();
        assert!(text.contains("+20.00%"), "{text}");
        assert!(text.contains("improved"), "{text}");
        assert!(text.contains("threshold 2%"), "{text}");
        let md = c.render_markdown();
        assert!(md.contains("| cell | system |"), "{md}");
    }

    /// Keys that differ but render the same labels — benchmark `a/b` with
    /// fom `c` and benchmark `a` with fom `b/c` are both cell `a/b/c`;
    /// system `x:y` with no partition and system `x` on partition `y` are
    /// both entity `x:y` — merge their samples, so rank and cmp cannot
    /// depend on which key's rows come first.
    #[test]
    fn colliding_labels_merge_in_any_row_order() {
        let rows: [(&str, &str, &str, &str, f64); 5] = [
            ("a/b", "c", "x:y", "", 100.0),
            ("a", "b/c", "x", "y", 300.0),
            ("a/b", "c", "z", "", 100.0),
            ("a", "b/c", "z", "", 300.0),
            ("a/b", "c", "x", "y", 200.0),
        ];
        let frame_in = |order: &[usize]| {
            let mut df = DataFrame::new(vec!["benchmark", "fom", "system", "partition", "value"]);
            for &i in order {
                let (b, f, s, p, v) = rows[i];
                df.push_row(vec![
                    Cell::from(b),
                    Cell::from(f),
                    Cell::from(s),
                    Cell::from(p),
                    Cell::from(v),
                ])
                .unwrap();
            }
            df
        };
        let base = frame_in(&[0, 1, 2, 3, 4]);
        let ranked = rank_frame(&base, &RankPolicy::default()).unwrap();
        // x:y averages 100, 300 and 200; z averages 100 and 300: a tie.
        assert_eq!(ranked.cells, vec!["a/b/c"]);
        assert_eq!(ranked.order(), vec!["x:y", "z"]);
        assert_eq!(ranked.entries[0].geomean, Some(1.0));
        assert_eq!(ranked.entries[1].geomean, Some(1.0));
        let compared = cmp_frames(&base, &base, &CmpPolicy::default()).unwrap();
        assert_eq!(compared.cells.len(), 2);
        for order in [[4, 3, 2, 1, 0], [1, 0, 3, 2, 4], [2, 4, 1, 3, 0]] {
            let shuffled = frame_in(&order);
            let r = rank_frame(&shuffled, &RankPolicy::default()).unwrap();
            assert_eq!(ranked.render_text(), r.render_text(), "{order:?}");
            let c = cmp_frames(&base, &shuffled, &CmpPolicy::default()).unwrap();
            assert_eq!(c.n_unchanged(), 2, "{order:?}: {c:?}");
            assert_eq!(
                c.cells[0].delta,
                Delta::Unchanged {
                    a: 200.0,
                    b: 200.0,
                    pct: 0.0
                }
            );
        }
    }

    /// Pushing rows one by one gives the aggregate `from_frame` builds.
    #[test]
    fn pushes_fold_like_the_frame() {
        let df = frame(&[
            ("s1", "Triad", "a", 100.0),
            ("s1", "Triad", "b", 0.0),
            ("s2", "Triad", "a", f64::NAN),
            ("s1", "Triad", "a", 300.0),
        ]);
        let mut agg = RankAggregate::default();
        for (b, f, s, v) in [
            ("s1", "Triad", "a", 100.0),
            ("s1", "Triad", "b", 0.0),
            ("s2", "Triad", "a", f64::NAN),
            ("s1", "Triad", "a", 300.0),
        ] {
            agg.push(b, f, s, "", Some(v));
        }
        agg.push("s3", "Triad", "b", "", None);
        let mut df = df;
        df.push_row(vec![
            Cell::from("s3"),
            Cell::from("Triad"),
            Cell::from("b"),
            Cell::Null,
            Cell::Null,
        ])
        .unwrap();
        for direction in [Direction::HigherIsBetter, Direction::LowerIsBetter] {
            let policy = RankPolicy { direction };
            assert_eq!(agg.rank(&policy), rank_frame(&df, &policy).unwrap());
        }
    }

    #[test]
    fn repeats_reduce_to_their_mean() {
        // Two repeats for system a: mean 150 beats b's 120.
        let df = frame(&[
            ("s1", "Triad", "a", 100.0),
            ("s1", "Triad", "a", 200.0),
            ("s1", "Triad", "b", 120.0),
        ]);
        let r = rank_frame(&df, &RankPolicy::default()).unwrap();
        assert_eq!(r.order(), vec!["a", "b"]);
        assert!((r.entries[1].geomean.unwrap() - 0.8).abs() < 1e-12);
    }

    /// Summed left to right, these repeats give 987652.8209999999 in one
    /// order and 987652.821 in another; the exact sum makes both means the
    /// correctly rounded 246913.20525.
    #[test]
    fn repeat_means_do_not_depend_on_arrival_order() {
        let (a, b) = (
            frame(&[
                ("s1", "Triad", "x", 987654.321),
                ("s1", "Triad", "x", 1.1),
                ("s1", "Triad", "x", -3.3),
                ("s1", "Triad", "x", 0.7),
            ]),
            frame(&[
                ("s1", "Triad", "x", 1.1),
                ("s1", "Triad", "x", -3.3),
                ("s1", "Triad", "x", 987654.321),
                ("s1", "Triad", "x", 0.7),
            ]),
        );
        let c = cmp_frames(&a, &b, &CmpPolicy::default()).unwrap();
        let Delta::Unchanged { a, b, .. } = c.cells[0].delta else {
            panic!("{c:?}");
        };
        assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        assert_eq!(a, 246913.20525);
    }

    /// Python's `math.fsum` examples: one rounding of the exact sum,
    /// ties to even across partials.
    #[test]
    fn exact_sum_rounds_once() {
        for (values, want) in [
            (&[1e-16, 1.0, 1e16][..], 1.0000000000000002e16),
            (&[0.1; 10][..], 1.0),
            (&[1e100, 1.0, -1e100, 1e-100, 1e50, -1.0, -1e50][..], 1e-100),
            (&[-0.0, -0.0][..], 0.0),
        ] {
            let mut sample = Sample::default();
            for &v in values {
                sample.push(Some(v));
            }
            let sum = round_exact(&sample.partials);
            assert_eq!(sum.to_bits(), f64::to_bits(want), "{values:?}: {sum}");
        }
    }
}
