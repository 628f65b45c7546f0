//! The metrics the benchmark declares, and how a run's result is printed.
//! `BENCHMARK.json` lists the same names and units; `perf --check` fails when
//! the two disagree.

use serde::Value;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may worsen.
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the engine sees; every workload reports all of them from an
/// untraced run.
pub const END_TO_END: [MetricDef; 5] = [
    gated("setup_s", "s", Lower, 0.25),
    gated("latency_ms", "ms", Lower, 0.20),
    gated("throughput_ops_s", "1/s", Higher, 0.20),
    gated("cpu_ms_per_op", "ms", Lower, 0.20),
    gated("peak_rss_mib", "MiB", Lower, 0.20),
];

/// One layer each, named after the crate measured; every workload reports all
/// of them from a traced run.
pub const PER_LAYER: [MetricDef; 44] = [
    layer("converter.load_ms", "ms", Lower),
    layer("converter.model_mib", "MiB", Lower),
    layer("converter.quantize_ms", "ms", Lower),
    layer("core.interpreter_ms", "ms", Lower),
    layer("core.prepare_ms", "ms", Lower),
    layer("core.prepare_tuned_ms", "ms", Lower),
    layer("core.prepare_warm_ms", "ms", Lower),
    layer("core.first_run_ms", "ms", Lower),
    layer("core.run_ms", "ms", Lower),
    layer("core.run_allocs_per_op", "count", Lower),
    layer("core.run_alloc_kib_per_op", "KiB", Lower),
    layer("core.planned_arena_mib", "MiB", Lower),
    layer("core.resize_cold_ms", "ms", Lower),
    layer("core.resize_cached_us", "us", Lower),
    layer("core.run_t2_ms", "ms", Lower),
    layer("tune.pass_ms", "ms", Lower),
    layer("tune.measured_candidates", "count", Lower),
    layer("tune.tuned_nodes", "count", Higher),
    layer("tune.plans_distinct", "count", Lower),
    layer("tune.speedup", "ratio", Higher),
    layer("kernels.conv3x3_gflops", "GFLOP/s", Higher),
    layer("kernels.conv1x1_gflops", "GFLOP/s", Higher),
    layer("kernels.depthwise3x3_gflops", "GFLOP/s", Higher),
    layer("kernels.int8_conv1x1_gops", "GOP/s", Higher),
    layer("kernels.eltwise_gbs", "GB/s", Higher),
    layer("serve.build_ms", "ms", Lower),
    layer("serve.infer_ms", "ms", Lower),
    layer("serve.overhead_ms", "ms", Lower),
    layer("serve.window8_ops_s", "1/s", Higher),
    layer("serve.mean_batch", "count", Higher),
    layer("serve.queue_wait_p50_ms", "ms", Lower),
    layer("serve.batch_assembly_p50_ms", "ms", Lower),
    layer("http.roundtrip_ms", "ms", Lower),
    layer("http.wire_overhead_ms", "ms", Lower),
    layer("http.healthz_ms", "ms", Lower),
    layer("http.request_kib", "KiB", Lower),
    layer("http.response_kib", "KiB", Lower),
    layer("http.non200", "count", Lower),
    layer("obs.metrics_render_ms", "ms", Lower),
    layer("client.latency_p50_ms", "ms", Lower),
    layer("client.latency_p99_ms", "ms", Lower),
    layer("client.latency_max_ms", "ms", Lower),
    layer("client.slow_blocks", "count", Lower),
    layer("client.trace_overhead_ratio", "ratio", Lower),
];

/// The metrics one run measured, in the order measured.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    /// Check that the run measured every metric of `declared` once, nothing
    /// else, and only finite values; returns them in declaration order.
    pub fn in_order(&self, declared: &[MetricDef]) -> Result<Vec<(MetricDef, f64)>, String> {
        for (name, value) in &self.0 {
            if !declared.iter().any(|d| d.name == *name) {
                return Err(format!("metric {name} was measured but is not declared"));
            }
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
        }
        declared
            .iter()
            .map(|def| {
                let mut values = self.0.iter().filter(|(n, _)| *n == def.name);
                match (values.next(), values.next()) {
                    (Some((_, value)), None) => Ok((*def, *value)),
                    (None, _) => Err(format!("metric {} was not measured", def.name)),
                    _ => Err(format!("metric {} was measured twice", def.name)),
                }
            })
            .collect()
    }
}

/// What one run of one workload found.
#[derive(Debug)]
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(MetricDef, f64)>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Every metric by name with its unit, one per line.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (def, value) in &self.metrics {
            let _ = writeln!(out, "{:<34} {:>14.4} {}", def.name, value, def.unit);
        }
        out
    }

    /// The result object the driver reads off the last line of output. Values
    /// print with every digit measured.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(def, value)| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    def.name, value, def.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The result with the run's identity, as `--record` appends it to a file
    /// for `--compare`.
    pub fn record(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"result\": {}}}",
            self.workload,
            self.seed,
            u8::from(self.traced),
            self.json()
        )
    }
}

/// Any JSON document, for reading `BENCHMARK.json` and recorded results.
pub struct Json(pub Value);

impl serde::Deserialize for Json {
    fn from_value(v: &Value) -> Result<Self, serde::DeError> {
        Ok(Json(v.clone()))
    }
}

pub fn as_f64(value: &Value) -> Option<f64> {
    match value {
        Value::F64(v) => Some(*v),
        Value::U64(v) => Some(*v as f64),
        Value::I64(v) => Some(*v as f64),
        _ => None,
    }
}

pub fn as_str(value: &Value) -> Option<&str> {
    match value {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_run_must_measure_every_declared_metric_once() {
        let mut metrics = Metrics::default();
        for def in &END_TO_END {
            metrics.set(def.name, 1.5);
        }
        assert_eq!(metrics.in_order(&END_TO_END).unwrap().len(), 5);

        metrics.set("latency_ms", 2.0);
        assert!(metrics.in_order(&END_TO_END).unwrap_err().contains("twice"));

        let mut metrics = Metrics::default();
        metrics.set("latency_ms", 2.0);
        assert!(metrics
            .in_order(&END_TO_END)
            .unwrap_err()
            .contains("not measured"));
        metrics.set("bogus", 2.0);
        assert!(metrics
            .in_order(&END_TO_END)
            .unwrap_err()
            .contains("not declared"));

        let mut metrics = Metrics::default();
        metrics.set("latency_ms", f64::NAN);
        assert!(metrics.in_order(&END_TO_END).unwrap_err().contains("NaN"));
    }

    #[test]
    fn declared_names_are_unique_and_the_result_line_parses() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());

        let result = RunResult {
            workload: "w",
            seed: 9,
            traced: false,
            attempted: 10,
            failed: 0,
            metrics: vec![(END_TO_END[1], 1.0 / 3.0)],
        };
        let parsed: Json = serde_json::from_str(&result.record()).unwrap();
        let value = parsed
            .0
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(|m| m.get("latency_ms"))
            .and_then(|m| m.get("value"))
            .and_then(as_f64);
        assert_eq!(value, Some(1.0 / 3.0));
    }
}
