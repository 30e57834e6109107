//! Chart rendering: aligned-text output for terminals and logs, and
//! standalone SVG for reports (the Bokeh substitute).

/// A grouped bar chart: categories on the x-axis, one or more series.
#[derive(Debug, Clone)]
pub struct BarChart {
    title: String,
    unit: String,
    categories: Vec<String>,
    /// (series label, values parallel to `categories`; NaN = missing).
    series: Vec<(String, Vec<f64>)>,
}

impl BarChart {
    pub fn new(title: &str, unit: &str) -> BarChart {
        BarChart {
            title: title.to_string(),
            unit: unit.to_string(),
            categories: Vec::new(),
            series: Vec::new(),
        }
    }

    pub(crate) fn with_categories<S: Into<String>>(mut self, cats: Vec<S>) -> BarChart {
        self.categories = cats.into_iter().map(Into::into).collect();
        self
    }

    /// Add a series; `values` must parallel the categories (NaN = missing).
    pub fn add_series(&mut self, label: &str, values: Vec<f64>) {
        assert_eq!(
            values.len(),
            self.categories.len(),
            "series length must match category count"
        );
        self.series.push((label.to_string(), values));
    }

    pub fn categories(&self) -> &[String] {
        &self.categories
    }

    pub fn series(&self) -> &[(String, Vec<f64>)] {
        &self.series
    }

    fn max_value(&self) -> f64 {
        self.series
            .iter()
            .flat_map(|(_, v)| v.iter())
            .copied()
            .filter(|v| v.is_finite())
            .fold(0.0, f64::max)
    }

    /// Horizontal bars in plain text, scaled to 50 columns.
    pub fn render_text(&self) -> String {
        const WIDTH: usize = 50;
        let max = self.max_value().max(f64::MIN_POSITIVE);
        let label_w = self
            .categories
            .iter()
            .flat_map(|c| self.series.iter().map(move |(s, _)| c.len() + s.len() + 1))
            .max()
            .unwrap_or(8)
            .max(8);
        let mut out = format!("{} [{}]\n", self.title, self.unit);
        for (ci, cat) in self.categories.iter().enumerate() {
            for (label, values) in &self.series {
                let v = values[ci];
                let name = if self.series.len() == 1 {
                    cat.clone()
                } else {
                    format!("{cat}/{label}")
                };
                if v.is_finite() {
                    let bar = "#".repeat(((v / max) * WIDTH as f64).round() as usize);
                    out.push_str(&format!("{name:<label_w$} |{bar:<WIDTH$}| {v:.3}\n"));
                } else {
                    out.push_str(&format!("{name:<label_w$} |{:<WIDTH$}| n/a\n", ""));
                }
            }
        }
        out
    }

    /// A standalone SVG document.
    pub fn render_svg(&self) -> String {
        let n_cats = self.categories.len().max(1);
        let n_series = self.series.len().max(1);
        let bar_h = 18;
        let group_h = bar_h * n_series + 10;
        let margin_left = 160;
        let plot_w = 600;
        let height = 50 + group_h * n_cats;
        let width = margin_left + plot_w + 120;
        let max = self.max_value().max(f64::MIN_POSITIVE);
        let palette = [
            "#4878d0", "#ee854a", "#6acc64", "#d65f5f", "#956cb4", "#8c613c",
        ];

        let mut svg = format!(
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" font-family="sans-serif" font-size="12">"#
        );
        svg.push_str(&format!(
            r#"<text x="{}" y="20" font-size="15" font-weight="bold">{} [{}]</text>"#,
            margin_left,
            escape(&self.title),
            escape(&self.unit)
        ));
        for (ci, cat) in self.categories.iter().enumerate() {
            let y0 = 40 + ci * group_h;
            svg.push_str(&format!(
                r#"<text x="{}" y="{}" text-anchor="end">{}</text>"#,
                margin_left - 8,
                y0 + group_h / 2,
                escape(cat)
            ));
            for (si, (label, values)) in self.series.iter().enumerate() {
                let v = values[ci];
                let y = y0 + si * bar_h;
                if v.is_finite() {
                    let w = ((v / max) * plot_w as f64).max(1.0);
                    svg.push_str(&format!(
                        r#"<rect x="{margin_left}" y="{y}" width="{w:.1}" height="{}" fill="{}"><title>{}: {v}</title></rect>"#,
                        bar_h - 4,
                        palette[si % palette.len()],
                        escape(label),
                    ));
                    svg.push_str(&format!(
                        r#"<text x="{:.1}" y="{}" font-size="10">{v:.3}</text>"#,
                        margin_left as f64 + w + 4.0,
                        y + bar_h - 8,
                    ));
                } else {
                    svg.push_str(&format!(
                        r##"<text x="{margin_left}" y="{}" font-size="10" fill="#999">n/a</text>"##,
                        y + bar_h - 8,
                    ));
                }
            }
        }
        svg.push_str("</svg>");
        svg
    }
}

/// A matrix heat map: rows × columns of optional values — the layout of the
/// paper's Figure 2 (programming models × platforms, starred gaps).
#[derive(Debug, Clone)]
pub struct Heatmap {
    title: String,
    rows: Vec<String>,
    cols: Vec<String>,
    /// cells[r][c]; None renders as the paper's `*` box.
    cells: Vec<Vec<Option<f64>>>,
}

impl Heatmap {
    pub fn new<S: Into<String>>(title: &str, rows: Vec<S>, cols: Vec<S>) -> Heatmap {
        let rows: Vec<String> = rows.into_iter().map(Into::into).collect();
        let cols: Vec<String> = cols.into_iter().map(Into::into).collect();
        let cells = vec![vec![None; cols.len()]; rows.len()];
        Heatmap {
            title: title.to_string(),
            rows,
            cols,
            cells,
        }
    }

    pub fn set(&mut self, row: &str, col: &str, value: f64) {
        let r = self
            .rows
            .iter()
            .position(|x| x == row)
            .expect("unknown heatmap row");
        let c = self
            .cols
            .iter()
            .position(|x| x == col)
            .expect("unknown heatmap column");
        self.cells[r][c] = Some(value);
    }

    pub fn get(&self, row: &str, col: &str) -> Option<f64> {
        let r = self.rows.iter().position(|x| x == row)?;
        let c = self.cols.iter().position(|x| x == col)?;
        self.cells[r][c]
    }

    /// Aligned text matrix; missing cells print `*` like Figure 2.
    pub fn render_text(&self) -> String {
        let row_w = self.rows.iter().map(String::len).max().unwrap_or(4).max(4);
        let col_w = self.cols.iter().map(|c| c.len().max(6)).collect::<Vec<_>>();
        let mut out = format!("{}\n", self.title);
        out.push_str(&format!("{:<row_w$}", ""));
        for (c, w) in self.cols.iter().zip(&col_w) {
            out.push_str(&format!("  {c:>w$}"));
        }
        out.push('\n');
        for (r, row) in self.rows.iter().enumerate() {
            out.push_str(&format!("{row:<row_w$}"));
            for (ci, w) in col_w.iter().enumerate() {
                match self.cells[r][ci] {
                    Some(v) => out.push_str(&format!("  {v:>w$.3}")),
                    None => out.push_str(&format!("  {:>w$}", "*")),
                }
            }
            out.push('\n');
        }
        out
    }

    /// SVG with a blue-to-red ramp; missing cells are white with a `*`.
    pub fn render_svg(&self) -> String {
        let cell = 64;
        let left = 140;
        let top = 60;
        let width = left + cell * self.cols.len() + 40;
        let height = top + cell * self.rows.len() + 20;
        let max = self
            .cells
            .iter()
            .flatten()
            .filter_map(|v| *v)
            .fold(0.0f64, f64::max)
            .max(f64::MIN_POSITIVE);
        let mut svg = format!(
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" font-family="sans-serif" font-size="11">"#
        );
        svg.push_str(&format!(
            r#"<text x="{left}" y="20" font-size="15" font-weight="bold">{}</text>"#,
            escape(&self.title)
        ));
        for (ci, col) in self.cols.iter().enumerate() {
            svg.push_str(&format!(
                r#"<text x="{}" y="{}" text-anchor="middle">{}</text>"#,
                left + ci * cell + cell / 2,
                top - 8,
                escape(col)
            ));
        }
        for (ri, row) in self.rows.iter().enumerate() {
            svg.push_str(&format!(
                r#"<text x="{}" y="{}" text-anchor="end">{}</text>"#,
                left - 8,
                top + ri * cell + cell / 2 + 4,
                escape(row)
            ));
            for ci in 0..self.cols.len() {
                let x = left + ci * cell;
                let y = top + ri * cell;
                match self.cells[ri][ci] {
                    Some(v) => {
                        let frac = (v / max).clamp(0.0, 1.0);
                        let r = (255.0 * frac) as u8;
                        let b = (255.0 * (1.0 - frac)) as u8;
                        svg.push_str(&format!(
                            r##"<rect x="{x}" y="{y}" width="{cell}" height="{cell}" fill="rgb({r},80,{b})" stroke="#fff"/>"##
                        ));
                        svg.push_str(&format!(
                            r##"<text x="{}" y="{}" text-anchor="middle" fill="#fff">{v:.2}</text>"##,
                            x + cell / 2,
                            y + cell / 2 + 4,
                        ));
                    }
                    None => {
                        svg.push_str(&format!(
                            r##"<rect x="{x}" y="{y}" width="{cell}" height="{cell}" fill="#fff" stroke="#ccc"/>"##
                        ));
                        svg.push_str(&format!(
                            r##"<text x="{}" y="{}" text-anchor="middle" fill="#888">*</text>"##,
                            x + cell / 2,
                            y + cell / 2 + 4,
                        ));
                    }
                }
            }
        }
        svg.push_str("</svg>");
        svg
    }
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_chart_text_scales_to_max() {
        let mut c = BarChart::new("t", "GB/s").with_categories(vec!["a", "b"]);
        c.add_series("s", vec![100.0, 50.0]);
        let text = c.render_text();
        let bars: Vec<usize> = text
            .lines()
            .skip(1)
            .map(|l| l.matches('#').count())
            .collect();
        assert_eq!(bars[0], 50, "max bar fills the width");
        assert_eq!(bars[1], 25);
    }

    #[test]
    fn bar_chart_missing_values() {
        let mut c = BarChart::new("t", "u").with_categories(vec!["a", "b"]);
        c.add_series("s", vec![1.0, f64::NAN]);
        assert!(c.render_text().contains("n/a"));
        assert!(c.render_svg().contains("n/a"));
    }

    #[test]
    #[should_panic(expected = "series length")]
    fn mismatched_series_rejected() {
        let mut c = BarChart::new("t", "u").with_categories(vec!["a", "b"]);
        c.add_series("s", vec![1.0]);
    }

    #[test]
    fn heatmap_stars_missing_cells() {
        let mut h = Heatmap::new("fig2", vec!["omp", "cuda"], vec!["cl", "v100"]);
        h.set("omp", "cl", 0.75);
        h.set("cuda", "v100", 0.93);
        let text = h.render_text();
        assert!(text.contains('*'), "unset cells are starred: {text}");
        assert!(text.contains("0.750"));
        assert_eq!(h.get("omp", "cl"), Some(0.75));
        assert_eq!(h.get("omp", "v100"), None);
        let svg = h.render_svg();
        assert!(svg.contains("</svg>"));
        assert!(svg.contains("0.93"));
    }

    #[test]
    fn svg_escapes_markup() {
        let c = BarChart::new("<b>&", "u").with_categories(vec!["x"]);
        let svg = c.render_svg();
        assert!(svg.contains("&lt;b&gt;&amp;"));
    }
}
