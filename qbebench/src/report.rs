//! Metric names, units and the result line.

/// `(name, unit, better)` of the end-to-end metrics, printed with
/// `--trace 0`.  The order matches `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str, &str); 4] = [
    ("throughput_rps", "1/s", "higher"),
    ("fit_p50_us", "us", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// `(name, unit, better)` of the per-layer metrics, printed with
/// `--trace 1`.  The order matches `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str, &str); 38] = [
    ("server.self_p50_us", "us", "lower"),
    ("server.self_p99_us", "us", "lower"),
    ("server.share_p50", "ratio", "lower"),
    ("client.retries", "count", "lower"),
    ("client.reconnects", "count", "lower"),
    ("engine.handle_p50_us", "us", "lower"),
    ("engine.handle_p99_us", "us", "lower"),
    ("engine.question_busy_s", "s", "lower"),
    ("engine.mutation_busy_s", "s", "lower"),
    ("fit.busy_s", "s", "lower"),
    ("fit.product_extend_busy_s", "s", "lower"),
    ("product.busy_s", "s", "lower"),
    ("product.values_p50", "count", "lower"),
    ("product.values_max", "count", "lower"),
    ("product.facts_max", "count", "lower"),
    ("core.busy_s", "s", "lower"),
    ("core.calls", "count", "lower"),
    ("core.values_before_sum", "count", "lower"),
    ("core.values_after_sum", "count", "lower"),
    ("hom.busy_s", "s", "lower"),
    ("hom.checks", "count", "lower"),
    ("hom.nodes", "count", "lower"),
    ("hom.backtracks", "count", "lower"),
    ("cache.hom_hit_ratio", "ratio", "higher"),
    ("cache.core_hit_ratio", "ratio", "higher"),
    ("cache.hom_misses", "count", "lower"),
    ("cache.core_misses", "count", "lower"),
    ("store.append_p50_us", "us", "lower"),
    ("store.append_p99_us", "us", "lower"),
    ("store.busy_s", "s", "lower"),
    ("store.fsyncs", "count", "lower"),
    ("store.appends_per_fsync", "ratio", "higher"),
    ("store.bytes_per_record", "B", "lower"),
    ("workload.mutation_share", "ratio", "higher"),
    ("workload.memo_served_share", "ratio", "higher"),
    ("workload.product_values_p50", "count", "lower"),
    ("workload.sample_count", "count", "higher"),
    ("workload.error_rate", "ratio", "lower"),
];

/// The result line: `correct`, `attempted`, `failed`, and each listed
/// metric with its unit, in list order.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    list: &[(&str, &str, &str)],
    value: impl Fn(&str) -> Option<f64>,
) -> Result<String, String> {
    let metrics = list
        .iter()
        .map(|(name, unit, _)| {
            let v = value(name).ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
            Ok(format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_json_with_every_metric() {
        let line = result_line(true, 10, 0, &END_TO_END, |_| Some(1.5)).unwrap();
        let v = serde::json::Value::parse(&line).unwrap();
        let metrics = v.get("metrics").unwrap();
        for (name, unit, _) in END_TO_END {
            let m = metrics.get(name).unwrap();
            assert_eq!(m.get("unit").unwrap().as_str(), Some(unit));
        }
        assert!(result_line(true, 1, 0, &END_TO_END, |_| None).is_err());
    }

    /// `BENCHMARK.json` names exactly the metrics this program prints.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let v = serde::json::Value::parse(&text).unwrap();
        for (key, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let entries = v.get(key).and_then(|e| e.as_arr()).unwrap();
            assert_eq!(entries.len(), list.len(), "{key}");
            for (entry, (name, unit, better)) in entries.iter().zip(list) {
                assert_eq!(entry.get("name").unwrap().as_str(), Some(*name));
                assert_eq!(entry.get("unit").unwrap().as_str(), Some(*unit));
                assert_eq!(entry.get("better").unwrap().as_str(), Some(*better));
            }
        }
        // Every listed workload exists; `pipelined_ingest` runs on
        // demand but is not listed (see the README).
        let workloads = v.get("workloads").and_then(|w| w.as_arr()).unwrap();
        for w in workloads {
            let name = w.get("name").unwrap().as_str().unwrap();
            assert!(crate::workload::Workload::parse(name).is_some(), "{name}");
        }
    }
}
