//! The metric tables `BENCHMARK.json` lists, and the result line.

use crate::Outcome;

pub const WORKLOADS: [&str; 2] = ["survey_sweep", "serve_mixed"];

/// End-to-end metrics, measured with tracing off; every workload reports
/// each of them for its own kind of operation (see `NOTES.md`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("items_per_s", "1/s"),
    ("cpu_ms_per_item", "ms"),
    ("rss_mb", "MiB"),
];

/// Per-layer metrics from the traced replay.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("spackle.concretize_us", "us"),
    ("spackle.install_us", "us"),
    ("spackle.skip_ratio", "ratio"),
    ("spackle.store_open_ms", "ms"),
    ("spackle.persist_ms", "ms"),
    ("spackle.persists", "count"),
    ("spackle.hit_ratio", "ratio"),
    ("spackle.gc_ms", "ms"),
    ("spackle.ref_segments", "count"),
    ("benchapps.run_ms", "ms"),
    ("benchapps.hpgmg_ms", "ms"),
    ("benchapps.hpcg_ms", "ms"),
    ("benchapps.babelstream_ms", "ms"),
    ("benchapps.stream_ms", "ms"),
    ("parkern.triad_gbs", "GB/s"),
    ("parkern.spmv_gbs", "GB/s"),
    ("batchsim.schedule_us", "us"),
    ("rexpr.extract_us", "us"),
    ("perflogs.encode_us", "us"),
    ("perflogs.parse_us", "us"),
    ("harness.parallel_efficiency", "ratio"),
    ("harness.journal_append_ms", "ms"),
    ("postproc.rank_ms", "ms"),
    ("postproc.verdict_base_ms", "ms"),
    ("postproc.verdict_ms", "ms"),
    ("servd.wal_append_ms", "ms"),
    ("servd.ingest_solo_p50_ms", "ms"),
    ("servd.ingest_overlap_p50_ms", "ms"),
    ("servd.verdict_p50_ms", "ms"),
    ("servd.duplicates", "count"),
    ("servd.rejected", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.overhead_ratio.survey_sweep", "ratio"),
    ("trace.overhead_ratio.nightly_store", "ratio"),
    ("trace.overhead_ratio.serve_mixed", "ratio"),
    ("trace.coverage_ratio.survey_sweep", "ratio"),
    ("trace.coverage_ratio.nightly_store", "ratio"),
    ("trace.coverage_ratio.serve_mixed", "ratio"),
];

/// The result object: exactly the metrics of `table`, each finite.
pub fn render(table: &[(&str, &str)], o: &Outcome) -> Result<String, String> {
    let mut fields = Vec::with_capacity(table.len());
    for (name, unit) in table {
        let v = o
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite ({v})"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    if let Some(extra) = o
        .metrics
        .keys()
        .find(|k| !table.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("metric {extra} is not in the table"));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0 && o.attempted > 0,
        o.attempted,
        o.failed,
        fields.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists these tables exactly.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = tinycfg::parse(&text.replace('\n', " ")).expect("BENCHMARK.json parses");
        let map = doc.as_map().expect("object");
        let names = |key: &str| -> Vec<(String, String)> {
            map.get(key)
                .and_then(|v| v.as_list())
                .expect("list")
                .iter()
                .map(|m| {
                    let m = m.as_map().expect("metric object");
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let want = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), want(END_TO_END));
        assert_eq!(names("per_layer"), want(PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn render_requires_every_metric() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metrics.insert("setup_s", 1.5);
        let table = &[("setup_s", "s")];
        assert_eq!(
            render(table, &o).unwrap(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
        assert!(render(&[("setup_s", "s"), ("x", "s")], &o).is_err());
        o.metrics.insert("y", 2.0);
        assert!(render(table, &o).is_err());
        o.metrics.remove("y");
        o.metrics.insert("setup_s", f64::NAN);
        assert!(render(table, &o).is_err());
    }
}
