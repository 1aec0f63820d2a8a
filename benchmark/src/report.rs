//! Result lines, result files, and the comparison that applies each
//! metric's bound from `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use xfm_telemetry::json::{parse, JsonValue};

use crate::spec::{is_exact, Metric};
use crate::stats::{median, quartiles, spread};

/// One run of one workload: what the result line carries.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Seed the inputs were generated from.
    pub seed: u64,
    /// Every output checked out.
    pub correct: bool,
    /// Operations attempted (timed ops plus the final sweep).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// `(name, value, unit)` in declaration order.
    pub metrics: Vec<(String, f64, String)>,
}

impl Run {
    /// Pairs declared metrics with their measured values.
    #[must_use]
    pub fn new(
        workload: &str,
        seed: u64,
        attempted: u64,
        failed: u64,
        declared: &[Metric],
        values: &[f64],
    ) -> Self {
        assert_eq!(declared.len(), values.len(), "one value per metric");
        Self {
            workload: workload.to_owned(),
            seed,
            correct: failed == 0 && values.iter().all(|v| v.is_finite()),
            attempted: attempted.max(1),
            failed,
            metrics: declared
                .iter()
                .zip(values)
                .map(|(m, &v)| (m.name.to_owned(), v, m.unit.to_owned()))
                .collect(),
        }
    }

    /// The contract's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, on one line.
    #[must_use]
    pub fn result_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // A missing measurement is null, never a made-up number.
            let value = if value.is_finite() {
                format!("{value}")
            } else {
                "null".to_owned()
            };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }

    /// The result line plus the keys a results file adds.
    fn file_entry(&self) -> String {
        let line = self.result_line();
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, {}",
            self.workload,
            self.seed,
            &line[1..]
        )
    }

    /// Parses a [`Run::result_line`] of `workload` run with `seed`.
    ///
    /// # Errors
    ///
    /// A message naming what is malformed.
    pub fn from_result_line(workload: &str, seed: u64, line: &str) -> Result<Self, String> {
        let doc = parse(line).map_err(|e| format!("result line is not JSON: {}", e.message))?;
        Self::from_json(&doc, workload, seed).ok_or_else(|| "malformed result line".to_owned())
    }

    fn from_json(v: &JsonValue, workload: &str, seed: u64) -> Option<Self> {
        let metrics = v
            .get("metrics")?
            .as_object()?
            .iter()
            .map(|(name, m)| {
                (
                    name.clone(),
                    m.get("value")
                        .and_then(JsonValue::as_f64)
                        .unwrap_or(f64::NAN),
                    m.get("unit")
                        .and_then(JsonValue::as_str)
                        .unwrap_or("")
                        .to_owned(),
                )
            })
            .collect();
        Some(Self {
            workload: workload.to_owned(),
            seed,
            correct: matches!(v.get("correct"), Some(JsonValue::Bool(true))),
            attempted: v.get("attempted")?.as_f64()? as u64,
            failed: v.get("failed")?.as_f64()? as u64,
            metrics,
        })
    }
}

/// A results file: the host line and any number of runs.
#[must_use]
pub fn results_file(host_json: &str, runs: &[Run]) -> String {
    let mut s = format!("{{\"host\": {host_json},\n \"runs\": [\n");
    for (i, run) in runs.iter().enumerate() {
        let sep = if i + 1 == runs.len() { "" } else { "," };
        let _ = writeln!(s, "  {}{sep}", run.file_entry());
    }
    s.push_str(" ]}\n");
    s
}

/// Parses a results file written by [`results_file`].
///
/// # Errors
///
/// A message naming what is malformed.
pub fn parse_results(text: &str) -> Result<Vec<Run>, String> {
    let doc = parse(text).map_err(|e| format!("not JSON: {}", e.message))?;
    doc.get("runs")
        .and_then(JsonValue::as_array)
        .ok_or("no \"runs\" array")?
        .iter()
        .map(|r| {
            let workload = r.get("workload").and_then(JsonValue::as_str)?;
            let seed = r.get("seed").and_then(JsonValue::as_f64)? as u64;
            Run::from_json(r, workload, seed)
        })
        .map(|r| r.ok_or_else(|| "malformed run entry".to_owned()))
        .collect()
}

/// Bounds and directions declared in `BENCHMARK.json`.
#[derive(Debug, Default)]
pub struct Bounds {
    /// name → (higher is better, bound); per-layer metrics have none.
    by_name: BTreeMap<String, (bool, Option<f64>)>,
}

impl Bounds {
    /// Reads the `end_to_end` and `per_layer` declarations.
    ///
    /// # Errors
    ///
    /// A message naming what is malformed.
    pub fn parse(benchmark_json: &str) -> Result<Self, String> {
        let doc = parse(benchmark_json).map_err(|e| format!("not JSON: {}", e.message))?;
        let mut by_name = BTreeMap::new();
        for key in ["end_to_end", "per_layer"] {
            for m in doc
                .get(key)
                .and_then(JsonValue::as_array)
                .ok_or(format!("no \"{key}\" array"))?
            {
                let name = m
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or("unnamed metric")?;
                let higher = m.get("better").and_then(JsonValue::as_str) == Some("higher");
                let bound = m.get("bound").and_then(JsonValue::as_f64);
                by_name.insert(name.to_owned(), (higher, bound));
            }
        }
        Ok(Self { by_name })
    }
}

/// What a comparison concluded about one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better than the base by more than the bound.
    Improved,
    /// Within the bound either way.
    Unchanged,
    /// Worse than the base by more than the bound (or an exact metric
    /// that moved at all).
    Regressed,
    /// A same-commit spread exceeds the bound: the bound cannot be
    /// resolved from these runs.
    Unresolved,
    /// A per-layer metric: reported, not judged.
    Info,
}

impl Verdict {
    /// Lowercase label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "info",
        }
    }
}

/// Judges `new` against `base` for one metric.
#[must_use]
pub fn judge(base: &[f64], new: &[f64], higher: bool, bound: Option<f64>, exact: bool) -> Verdict {
    let (Some(mb), Some(mn)) = (median(base), median(new)) else {
        return Verdict::Unresolved;
    };
    if exact {
        let same = base.iter().chain(new).all(|&v| v == mb);
        return if same {
            Verdict::Unchanged
        } else {
            Verdict::Regressed
        };
    }
    let Some(bound) = bound else {
        return Verdict::Info;
    };
    let widest = spread(base)
        .into_iter()
        .chain(spread(new))
        .fold(0.0, f64::max);
    if widest > bound {
        return Verdict::Unresolved;
    }
    let worsening = if higher { mb - mn } else { mn - mb } / mb.abs().max(f64::MIN_POSITIVE);
    if worsening > bound {
        Verdict::Regressed
    } else if worsening < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn by_workload_metric(runs: &[Run]) -> BTreeMap<(String, String), (Vec<f64>, String)> {
    let mut out: BTreeMap<(String, String), (Vec<f64>, String)> = BTreeMap::new();
    for run in runs {
        for (name, value, unit) in &run.metrics {
            let slot = out
                .entry((run.workload.clone(), name.clone()))
                .or_insert_with(|| (Vec::new(), unit.clone()));
            slot.0.push(*value);
        }
    }
    out
}

fn quartile_text(values: &[f64]) -> String {
    match (median(values), quartiles(values)) {
        (Some(m), Some((q1, q3))) => format!("{m:.6} [{q1:.6} .. {q3:.6}] n={}", values.len()),
        (Some(m), None) => format!("{m:.6} n=1"),
        _ => "-".to_owned(),
    }
}

/// Compares two sets of runs; returns the printed table and how many
/// `(workload, metric)` pairs regressed and stayed unresolved.
#[must_use]
pub fn compare(base: &[Run], new: &[Run], bounds: &Bounds) -> (String, usize, usize) {
    let (a, b) = (by_workload_metric(base), by_workload_metric(new));
    let mut table = String::new();
    let (mut regressed, mut unresolved) = (0, 0);
    let _ = writeln!(
        table,
        "{:<14} {:<34} {:<10} {:>9}  base median [q1 .. q3] -> new median [q1 .. q3]",
        "workload", "metric", "verdict", "new/base"
    );
    for ((workload, metric), (base_values, unit)) in &a {
        let Some((new_values, _)) = b.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let (higher, bound) = bounds.by_name.get(metric).copied().unwrap_or((false, None));
        let single_client = matches!(workload.as_str(), "tier-prefetch" | "xfm-offload");
        let exact = single_client && is_exact(metric);
        let verdict = judge(base_values, new_values, higher, bound, exact);
        regressed += usize::from(verdict == Verdict::Regressed);
        unresolved += usize::from(verdict == Verdict::Unresolved);
        let (mb, mn) = (
            median(base_values).unwrap_or(f64::NAN),
            median(new_values).unwrap_or(f64::NAN),
        );
        let _ = writeln!(
            table,
            "{workload:<14} {metric:<34} {:<10} {:>9.4}  {} -> {} {unit}{}",
            verdict.label(),
            mn / mb,
            quartile_text(base_values),
            quartile_text(new_values),
            bound.map_or(String::new(), |b| format!(" (bound {b})")),
        );
    }
    (table, regressed, unresolved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::END_TO_END;

    fn run(workload: &str, ops: f64) -> Run {
        let values = [0.5, ops, 20.0, 90.0, 30.0, 0.4, 100.0];
        Run::new(workload, 7, 1000, 0, &END_TO_END, &values)
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = run("kv-hot", 1234.5).result_line();
        assert!(!line.contains('\n'));
        let doc = parse(&line).unwrap();
        let keys: Vec<&String> = doc.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let metrics = doc.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        for m in END_TO_END {
            let entry = metrics.get(m.name).unwrap().as_object().unwrap();
            assert_eq!(entry.keys().collect::<Vec<_>>(), ["unit", "value"]);
        }
        assert_eq!(
            doc.path("metrics.ops_per_s.value").unwrap().as_f64(),
            Some(1234.5)
        );
    }

    #[test]
    fn a_missing_measurement_is_null_and_incorrect() {
        let values = [0.5, f64::NAN, 20.0, 90.0, 30.0, 0.4, 100.0];
        let r = Run::new("kv-hot", 7, 10, 0, &END_TO_END, &values);
        assert!(!r.correct);
        assert!(r.result_line().contains("\"ops_per_s\": {\"value\": null"));
    }

    #[test]
    fn results_file_round_trips() {
        let runs = vec![run("kv-hot", 10.0), run("kv-churn", 20.0)];
        let text = results_file("{\"host_cores\": 2}", &runs);
        let back = parse_results(&text).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[1].workload, "kv-churn");
        assert_eq!(back[1].seed, 7);
        let ops = back[1].metrics.iter().find(|m| m.0 == "ops_per_s").unwrap();
        assert_eq!(ops.1, 20.0);
    }

    #[test]
    fn judge_applies_bound_direction_and_spread() {
        let steady = |m: f64| vec![m * 0.99, m, m, m * 1.01, m];
        // Throughput (higher is better), bound 10 %.
        let b = Some(0.10);
        assert_eq!(
            judge(&steady(100.0), &steady(105.0), true, b, false),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&steady(100.0), &steady(85.0), true, b, false),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&steady(100.0), &steady(115.0), true, b, false),
            Verdict::Improved
        );
        // Latency (lower is better): the same move is the other verdict.
        assert_eq!(
            judge(&steady(100.0), &steady(115.0), false, b, false),
            Verdict::Regressed
        );
        // A set that does not repeat within the bound resolves nothing.
        let noisy = vec![60.0, 80.0, 100.0, 120.0, 140.0];
        assert_eq!(
            judge(&noisy, &steady(85.0), true, b, false),
            Verdict::Unresolved
        );
        // Exact metrics may not move at all; per-layer ones are info.
        assert_eq!(
            judge(&[3.0, 3.0], &[3.0, 3.0], false, None, true),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&[3.0, 3.0], &[3.0, 4.0], false, None, true),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&steady(1.0), &steady(2.0), false, None, false),
            Verdict::Info
        );
    }

    #[test]
    fn compare_counts_regressions_per_workload_and_metric() {
        let bounds = Bounds::parse(
            "{\"end_to_end\": [{\"name\": \"ops_per_s\", \"better\": \"higher\", \"bound\": 0.1}], \"per_layer\": []}",
        )
        .unwrap();
        let base: Vec<Run> = (0..5).map(|_| run("kv-hot", 100.0)).collect();
        let new: Vec<Run> = (0..5).map(|_| run("kv-hot", 80.0)).collect();
        let (table, regressed, unresolved) = compare(&base, &new, &bounds);
        assert_eq!((regressed, unresolved), (1, 0));
        assert!(table.contains("regressed"));
        assert!(table.contains("0.8000"));
    }
}
