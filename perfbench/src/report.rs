//! The metric catalogue and the result line.
//!
//! `END_TO_END` and `PER_LAYER` list every metric with its unit, in the
//! order `BENCHMARK.json` declares them; a test pins the two together. A
//! run must set every metric of its mode exactly once — printing a
//! partial result is a bug in the harness, not a measurement.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Metrics printed with `--trace 0`: what a user of the system sees.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("infer_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("slo_attain", "fraction"),
    ("sim_cycles_per_inf", "cycles"),
    ("sim_speedup_vs_dense", "x"),
    ("resident_mb", "MB"),
    ("peak_rss_mb", "MB"),
];

/// Metrics printed with `--trace 1`: the per-layer breakdown.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("models.build_ms", "ms"),
    ("compiler.prepare_ms", "ms"),
    ("compiler.plan_ms", "ms"),
    ("compiler.run_ms_p50", "ms"),
    ("compiler.run_ms_t1_p50", "ms"),
    ("compiler.exec_self_ms", "ms"),
    ("compiler.run_batch_ms_per_req.b1", "ms"),
    ("compiler.run_batch_ms_per_req.b8", "ms"),
    ("compiler.plan_cycle_err", "cycles"),
    ("kernels.conv_ms", "ms"),
    ("kernels.fc_ms", "ms"),
    ("kernels.conv_sim_cycles", "cycles"),
    ("kernels.fc_sim_cycles", "cycles"),
    ("kernels.ns_per_sim_cycle", "ns/cycle"),
    ("kernels.dense_gmac_per_s", "GMAC/s"),
    ("kernels.native_speedup", "x"),
    ("nn.host_ms", "ms"),
    ("nn.attention_share", "fraction"),
    ("nn.gelu_share", "fraction"),
    ("nn.layernorm_share", "fraction"),
    ("nn.execute_ms", "ms"),
    ("platform.compute_cycles", "cycles"),
    ("platform.dma_cycles", "cycles"),
    ("platform.weight_dma_txns", "count"),
    ("platform.l2_weight_kb", "KiB"),
    ("platform.plan_total_cycles", "cycles"),
    ("serve.submit_us_p50", "us"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.latency_p50_ms", "ms"),
    ("serve.latency_p99_ms", "ms"),
    ("serve.batch_mean", "count"),
    ("serve.batches", "count"),
    ("serve.queue_depth_max", "count"),
    ("serve.shared_frac", "fraction"),
    ("serve.cache_misses", "count"),
    ("gen.lag_ms_p99", "ms"),
    ("gen.sent", "count"),
    ("trace.overhead_frac", "fraction"),
];

/// One run's outcome.
#[derive(Debug, Default)]
pub struct Report {
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that failed, were refused or returned a wrong output.
    pub failed: u64,
    /// Failed checks other than per-request outputs (reconciliation,
    /// cycle invariance, walk parity).
    pub problems: Vec<String>,
    /// Run-record lines: what the numbers were measured on.
    pub record: Vec<(String, String)>,
    metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Sets a catalogued metric.
    ///
    /// # Panics
    /// Panics on a name missing from the catalogue, a repeated name or
    /// a non-finite value: each is a harness bug.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the catalogue"
        );
        assert!(value.is_finite(), "metric {name} = {value} is not finite");
        // `+ 0.0` prints an empty sum's -0 as 0.
        assert!(
            self.metrics.insert(name, value + 0.0).is_none(),
            "metric {name} set twice"
        );
    }

    /// Adds a run-record line.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.record.push((key.to_string(), value.to_string()));
    }

    /// Whether every output and every check was correct.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and the metrics of the mode.
    ///
    /// # Panics
    /// Panics if a metric of the mode was never set.
    pub fn json(&self, trace: bool) -> String {
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        let mut metrics = String::new();
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let value = self
                .metrics
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            let sep = if i == 0 { "" } else { ", " };
            write!(
                metrics,
                r#"{sep}"{name}": {{"value": {value}, "unit": "{unit}"}}"#
            )
            .expect("writing to a String cannot fail");
        }
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{metrics}}}}}"#,
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogue and `BENCHMARK.json` declare the same metrics with
    /// the same units, in the same order.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let declared: Vec<(String, String)> = json
            .lines()
            .filter_map(|l| {
                let name = l.split(r#""name": ""#).nth(1)?.split('"').next()?;
                let unit = l.split(r#""unit": ""#).nth(1)?.split('"').next()?;
                Some((name.to_string(), unit.to_string()))
            })
            .collect();
        let ours: Vec<(String, String)> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared, ours);
    }

    #[test]
    fn result_line_lists_every_metric_of_the_mode() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            r.set(name, i as f64 + 0.5);
        }
        let line = r.json(false);
        assert!(line.starts_with(r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}"#));
        assert!(line.ends_with(r#""peak_rss_mb": {"value": 8.5, "unit": "MB"}}}"#));
        r.failed = 1;
        assert!(!r.correct());
    }

    #[test]
    #[should_panic(expected = "not measured")]
    fn a_missing_metric_is_a_harness_bug() {
        Report::default().json(true);
    }
}
