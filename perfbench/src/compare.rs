//! `perf --compare A B`: two sets of recorded runs of the same benchmark, set
//! against each other metric by metric.

use crate::report::{as_f64, as_str, Better, Json, MetricDef, END_TO_END, PER_LAYER};
use crate::stats::median;
use std::collections::BTreeMap;

/// (workload, metric) -> the values of every run recorded.
type Values = BTreeMap<(String, String), Vec<f64>>;

/// Read a file `--record` wrote: one run per line.
fn read(path: &str) -> Result<Values, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut values = Values::new();
    for (number, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = || format!("{path}:{}", number + 1);
        let Json(run) = serde_json::from_str(line).map_err(|e| format!("{}: {e}", at()))?;
        let workload = run
            .get("workload")
            .and_then(as_str)
            .ok_or_else(|| format!("{}: no workload", at()))?;
        let result = run
            .get("result")
            .ok_or_else(|| format!("{}: no result", at()))?;
        if result.get("correct") != Some(&serde::Value::Bool(true)) {
            return Err(format!("{}: the run's outputs were not correct", at()));
        }
        let Some(serde::Value::Map(metrics)) = result.get("metrics") else {
            return Err(format!("{}: no metrics", at()));
        };
        for (name, metric) in metrics {
            let value = metric
                .get("value")
                .and_then(as_f64)
                .ok_or_else(|| format!("{}: metric {name} has no value", at()))?;
            values
                .entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(values)
}

/// By how much of `a` the median `b` is worse; negative when it is better.
fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    match def.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Print the table; `Ok(true)` when every gated metric of B is within its
/// bound of A.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, mut b) = (read(path_a)?, read(path_b)?);
    let mut all_within = true;
    println!(
        "{:<13} {:<32} {:>5} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "runs", "median A", "median B", "B worse"
    );
    for ((workload, metric), mut values_a) in a {
        let Some(mut values_b) = b.remove(&(workload.clone(), metric.clone())) else {
            return Err(format!("{path_b} has no {workload}/{metric}"));
        };
        let def = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|d| d.name == metric)
            .ok_or_else(|| format!("{metric} is not a declared metric"))?;
        let runs = format!("{}/{}", values_a.len(), values_b.len());
        let (median_a, median_b) = (median(&mut values_a), median(&mut values_b));
        let worse = worsening(def, median_a, median_b);
        let verdict = match def.bound {
            Some(bound) if worse > bound => {
                all_within = false;
                format!("BEYOND bound {:.0} %", bound * 100.0)
            }
            Some(bound) => format!("within bound {:.0} %", bound * 100.0),
            None => "no bound".to_string(),
        };
        println!(
            "{workload:<13} {metric:<32} {runs:>5} {median_a:>14.4} {median_b:>14.4} {:>8.2}%  {verdict}",
            worse * 100.0
        );
    }
    if let Some((workload, metric)) = b.keys().next() {
        return Err(format!("{path_a} has no {workload}/{metric}"));
    }
    Ok(all_within)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_is_signed_by_the_metric_s_direction() {
        let latency = END_TO_END.iter().find(|d| d.name == "latency_ms").unwrap();
        let rate = END_TO_END
            .iter()
            .find(|d| d.name == "throughput_ops_s")
            .unwrap();
        assert!((worsening(latency, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(latency, 10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((worsening(rate, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((worsening(rate, 100.0, 110.0) + 0.1).abs() < 1e-12);
    }

    #[test]
    fn recorded_runs_compare_by_their_medians() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("compare-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let record = |latency: f64| {
            format!(
                "{{\"workload\": \"w\", \"seed\": 1, \"trace\": 0, \"result\": {{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": {{\"latency_ms\": {{\"value\": {latency:?}, \"unit\": \"ms\"}}}}}}}}\n"
            )
        };
        let write = |name: &str, latencies: &[f64]| {
            let path = dir.join(name);
            std::fs::write(
                &path,
                latencies.iter().map(|l| record(*l)).collect::<String>(),
            )
            .unwrap();
            path.to_str().unwrap().to_string()
        };
        let a = write("a.json", &[10.0, 10.2, 30.0]);
        let near = write("near.json", &[10.9, 11.0, 11.1]);
        let far = write("far.json", &[13.0, 13.1, 5.0]);
        assert_eq!(compare(&a, &near), Ok(true));
        assert_eq!(compare(&a, &far), Ok(false));
        assert_eq!(compare(&far, &a), Ok(true));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
