//! The bench-regression sentinel: diffs freshly generated
//! `BENCH_codec.json` / `BENCH_swap.json` / `BENCH_event.json` /
//! `BENCH_faults.json` / `BENCH_prefetch.json` / `BENCH_tier.json`
//! exports against their
//! committed baselines with tolerance bands, so a perf regression fails
//! CI with a named metric instead of rotting silently in a JSON nobody
//! re-reads.
//!
//! Throughput metrics (`*_pages_per_sec`, `events_per_sec`) may drop by
//! at most [`Tolerance::throughput_drop`] relative to the baseline
//! (machines differ; the band absorbs noise while still catching
//! order-of-magnitude cliffs). Compression ratios may drop by at most
//! [`Tolerance::ratio_drop`] — ratio is machine-independent, so the band
//! is tight. Chaos-harness survival fields (`lost_pages`, fired faults)
//! are structural: no band, they are simply required.
//!
//! The comparison is row-keyed, not index-keyed: a baseline row missing
//! from the current export is itself a failure (coverage must not
//! silently shrink), while extra current rows are fine (new codecs or
//! shard counts extend the matrix).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use xfm_telemetry::json::{parse, JsonValue};

/// Allowed relative drops before a metric fails.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Max relative drop for throughput metrics (0.5 = may halve).
    pub throughput_drop: f64,
    /// Max relative drop for compression ratios.
    pub ratio_drop: f64,
}

impl Default for Tolerance {
    fn default() -> Self {
        Self {
            throughput_drop: 0.5,
            ratio_drop: 0.10,
        }
    }
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// Which metric, e.g. `codec[auto/json].compress_pages_per_sec`.
    pub metric: String,
    /// Committed baseline value.
    pub baseline: f64,
    /// Freshly measured value.
    pub current: f64,
    /// The floor `current` had to clear.
    pub floor: f64,
    /// Whether the metric cleared its floor.
    pub pass: bool,
}

/// The outcome of one sentinel run.
#[derive(Debug, Clone, Default)]
pub struct SentinelReport {
    /// Every compared metric, in comparison order.
    pub checks: Vec<Check>,
    /// Structural problems (missing rows, malformed values); any entry
    /// fails the report.
    pub errors: Vec<String>,
}

impl SentinelReport {
    /// Whether every check passed and no structural error occurred.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.errors.is_empty() && self.checks.iter().all(|c| c.pass)
    }

    /// Failed checks only.
    #[must_use]
    pub fn failures(&self) -> Vec<&Check> {
        self.checks.iter().filter(|c| !c.pass).collect()
    }

    /// Human-readable summary (one line per failure, plus a tally).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.errors {
            let _ = writeln!(out, "ERROR: {e}");
        }
        for c in self.checks.iter().filter(|c| !c.pass) {
            let _ = writeln!(
                out,
                "FAIL: {} = {:.3} (baseline {:.3}, floor {:.3})",
                c.metric, c.current, c.baseline, c.floor
            );
        }
        let _ = writeln!(
            out,
            "{}: {} checks, {} failures, {} errors",
            if self.passed() { "PASS" } else { "FAIL" },
            self.checks.len(),
            self.failures().len(),
            self.errors.len()
        );
        out
    }

    /// Records a floor check: `current >= baseline * (1 - max_drop)`.
    fn floor_check(&mut self, metric: String, baseline: f64, current: f64, max_drop: f64) {
        let floor = baseline * (1.0 - max_drop);
        self.checks.push(Check {
            metric,
            baseline,
            current,
            floor,
            pass: current >= floor,
        });
    }

    /// Records an exact-equality check (deterministic seeded fields).
    fn exact_check(&mut self, metric: String, baseline: f64, current: f64) {
        self.checks.push(Check {
            metric,
            baseline,
            current,
            floor: baseline,
            pass: (current - baseline).abs() < f64::EPSILON.max(baseline.abs() * 1e-12),
        });
    }
}

/// Parses a JSON document, mapping parse failures into a one-error
/// report message.
fn parse_doc(label: &str, text: &str, report: &mut SentinelReport) -> Option<JsonValue> {
    match parse(text) {
        Ok(v) => Some(v),
        Err(e) => {
            report.errors.push(format!("{label}: {e}"));
            None
        }
    }
}

fn num(v: &JsonValue, key: &str) -> Option<f64> {
    v.get(key).and_then(JsonValue::as_f64)
}

/// Compares a `BENCH_codec.json` export against its baseline.
///
/// Every (codec, corpus) row of the baseline's `current` array must
/// reappear in the fresh export with `compress_pages_per_sec` /
/// `decompress_pages_per_sec` above the throughput floor and `ratio`
/// above the ratio floor.
#[must_use]
pub fn check_codec(baseline: &str, current: &str, tol: Tolerance) -> SentinelReport {
    let mut report = SentinelReport::default();
    let (Some(base), Some(cur)) = (
        parse_doc("baseline BENCH_codec.json", baseline, &mut report),
        parse_doc("current BENCH_codec.json", current, &mut report),
    ) else {
        return report;
    };
    let rows = |doc: &JsonValue| -> BTreeMap<(String, String), BTreeMap<String, f64>> {
        let mut m = BTreeMap::new();
        for row in doc
            .get("current")
            .and_then(JsonValue::as_array)
            .unwrap_or(&[])
        {
            let (Some(codec), Some(corpus)) = (
                row.get("codec").and_then(JsonValue::as_str),
                row.get("corpus").and_then(JsonValue::as_str),
            ) else {
                continue;
            };
            let mut vals = BTreeMap::new();
            for k in [
                "compress_pages_per_sec",
                "decompress_pages_per_sec",
                "ratio",
            ] {
                if let Some(v) = num(row, k) {
                    vals.insert(k.to_string(), v);
                }
            }
            m.insert((codec.to_string(), corpus.to_string()), vals);
        }
        m
    };
    let base_rows = rows(&base);
    if base_rows.is_empty() {
        report
            .errors
            .push("baseline BENCH_codec.json has no 'current' rows".into());
        return report;
    }
    let cur_rows = rows(&cur);
    for ((codec, corpus), bvals) in &base_rows {
        let Some(cvals) = cur_rows.get(&(codec.clone(), corpus.clone())) else {
            report.errors.push(format!(
                "codec row ({codec}, {corpus}) missing from current export"
            ));
            continue;
        };
        for (k, &bv) in bvals {
            let Some(&cv) = cvals.get(k) else {
                report.errors.push(format!(
                    "codec[{codec}/{corpus}].{k} missing from current export"
                ));
                continue;
            };
            let drop = if k == "ratio" {
                tol.ratio_drop
            } else {
                tol.throughput_drop
            };
            report.floor_check(format!("codec[{codec}/{corpus}].{k}"), bv, cv, drop);
        }
    }
    report
}

/// Compares a `BENCH_swap.json` export against its baseline:
/// per-shard-count critical-path throughput and scaling speedups (the
/// 1-shard row is the Baseline-CPU figure).
#[must_use]
pub fn check_swap(baseline: &str, current: &str, tol: Tolerance) -> SentinelReport {
    let mut report = SentinelReport::default();
    let (Some(base), Some(cur)) = (
        parse_doc("baseline BENCH_swap.json", baseline, &mut report),
        parse_doc("current BENCH_swap.json", current, &mut report),
    ) else {
        return report;
    };
    let rows = |doc: &JsonValue| -> BTreeMap<u64, (f64, f64)> {
        let mut m = BTreeMap::new();
        for row in doc
            .get("scaling")
            .and_then(JsonValue::as_array)
            .unwrap_or(&[])
        {
            if let (Some(shards), Some(pps), Some(speedup)) = (
                num(row, "shards"),
                num(row, "pages_per_sec"),
                num(row, "speedup_vs_1_shard"),
            ) {
                m.insert(shards as u64, (pps, speedup));
            }
        }
        m
    };
    let base_rows = rows(&base);
    if base_rows.is_empty() {
        report
            .errors
            .push("baseline BENCH_swap.json has no 'scaling' rows".into());
        return report;
    }
    let cur_rows = rows(&cur);
    for (shards, (bpps, bspeed)) in &base_rows {
        let Some((cpps, cspeed)) = cur_rows.get(shards) else {
            report
                .errors
                .push(format!("swap scaling row for {shards} shards missing"));
            continue;
        };
        report.floor_check(
            format!("swap.scaling[{shards}].pages_per_sec"),
            *bpps,
            *cpps,
            tol.throughput_drop,
        );
        report.floor_check(
            format!("swap.scaling[{shards}].speedup_vs_1_shard"),
            *bspeed,
            *cspeed,
            tol.throughput_drop,
        );
    }
    report
}

/// Compares a `BENCH_event.json` export against its baseline: the event
/// throughput floor and the wall-time ceiling the export itself carries.
#[must_use]
pub fn check_event(baseline: &str, current: &str, tol: Tolerance) -> SentinelReport {
    let mut report = SentinelReport::default();
    let (Some(base), Some(cur)) = (
        parse_doc("baseline BENCH_event.json", baseline, &mut report),
        parse_doc("current BENCH_event.json", current, &mut report),
    ) else {
        return report;
    };
    match (num(&base, "events_per_sec"), num(&cur, "events_per_sec")) {
        (Some(b), Some(c)) => {
            report.floor_check("event.events_per_sec".into(), b, c, tol.throughput_drop);
        }
        _ => report.errors.push("event.events_per_sec missing".into()),
    }
    if let (Some(wall), Some(ceiling)) =
        (num(&cur, "sim_wall_ms"), num(&cur, "sim_wall_ceiling_ms"))
    {
        report.checks.push(Check {
            metric: "event.sim_wall_ms (ceiling)".into(),
            baseline: ceiling,
            current: wall,
            floor: ceiling,
            pass: wall <= ceiling,
        });
    }
    report
}

/// Compares a `BENCH_faults.json` export against its baseline.
///
/// The chaos harness is seeded and clocked virtually, so with the same
/// plan its injection counts are deterministic: configuration and
/// survival fields must match exactly, and `lost_pages` must be zero in
/// both (the harness's own invariant, re-checked here so a tampered
/// export cannot pass).
#[must_use]
pub fn check_faults(baseline: &str, current: &str, _tol: Tolerance) -> SentinelReport {
    let mut report = SentinelReport::default();
    let (Some(base), Some(cur)) = (
        parse_doc("baseline BENCH_faults.json", baseline, &mut report),
        parse_doc("current BENCH_faults.json", current, &mut report),
    ) else {
        return report;
    };
    for k in [
        "pages",
        "rounds",
        "seed",
        "total_injected",
        "store_retries",
        "corrupt_retries",
        "degrade_transitions",
        "lost_pages",
    ] {
        match (num(&base, k), num(&cur, k)) {
            (Some(b), Some(c)) => report.exact_check(format!("faults.{k}"), b, c),
            _ => report.errors.push(format!("faults.{k} missing")),
        }
    }
    for (label, doc) in [("baseline", &base), ("current", &cur)] {
        if let Some(l) = num(doc, "lost_pages") {
            if l != 0.0 {
                report
                    .errors
                    .push(format!("{label} BENCH_faults.json reports {l} lost pages"));
            }
        }
        if num(doc, "total_injected") == Some(0.0) {
            report
                .errors
                .push(format!("{label} BENCH_faults.json injected no faults"));
        }
    }
    report
}

/// Acceptance floors for the prefetch pipeline: p99 demand-fault
/// latency must drop by at least this fraction on the predictable
/// traces…
const PREFETCH_MIN_P99_REDUCTION: f64 = 0.30;
/// …at at least this speculation precision…
const PREFETCH_MIN_PRECISION: f64 = 0.60;
/// …and the autotuner must land within this factor of the best fixed
/// knob setting.
const PREFETCH_MAX_TUNE_RATIO: f64 = 1.10;

/// Compares a `BENCH_prefetch.json` export against its baseline.
///
/// The predictable traces (`scan`, `stride`, `zipf-objects`) carry
/// *absolute* acceptance floors — ≥30% p99 reduction at ≥60% precision
/// — rather than baseline-relative bands, because the claim the file
/// exists to defend is absolute. The adversarial `pointer-chase` row
/// must be present (coverage must not shrink) but has no latency floor:
/// its job is to show the engine declining to speculate. The autotuner
/// ratio is a ceiling: within 10% of the best fixed arm.
#[must_use]
pub fn check_prefetch(baseline: &str, current: &str, _tol: Tolerance) -> SentinelReport {
    let mut report = SentinelReport::default();
    let (Some(base), Some(cur)) = (
        parse_doc("baseline BENCH_prefetch.json", baseline, &mut report),
        parse_doc("current BENCH_prefetch.json", current, &mut report),
    ) else {
        return report;
    };
    let rows = |doc: &JsonValue| -> BTreeMap<String, BTreeMap<String, f64>> {
        let mut m = BTreeMap::new();
        for row in doc
            .get("traces")
            .and_then(JsonValue::as_array)
            .unwrap_or(&[])
        {
            let Some(name) = row.get("name").and_then(JsonValue::as_str) else {
                continue;
            };
            let mut vals = BTreeMap::new();
            for k in ["p99_reduction", "precision", "hit_rate"] {
                if let Some(v) = num(row, k) {
                    vals.insert(k.to_string(), v);
                }
            }
            m.insert(name.to_string(), vals);
        }
        m
    };
    let base_rows = rows(&base);
    if base_rows.is_empty() {
        report
            .errors
            .push("baseline BENCH_prefetch.json has no 'traces' rows".into());
        return report;
    }
    let cur_rows = rows(&cur);
    for name in base_rows.keys() {
        let Some(cvals) = cur_rows.get(name) else {
            report.errors.push(format!(
                "prefetch trace row '{name}' missing from current export"
            ));
            continue;
        };
        if !["scan", "stride", "zipf-objects"].contains(&name.as_str()) {
            continue;
        }
        for (k, floor) in [
            ("p99_reduction", PREFETCH_MIN_P99_REDUCTION),
            ("precision", PREFETCH_MIN_PRECISION),
        ] {
            let Some(&cv) = cvals.get(k) else {
                report
                    .errors
                    .push(format!("prefetch[{name}].{k} missing from current export"));
                continue;
            };
            report.checks.push(Check {
                metric: format!("prefetch[{name}].{k}"),
                baseline: base_rows[name].get(k).copied().unwrap_or(floor),
                current: cv,
                floor,
                pass: cv >= floor,
            });
        }
    }
    match cur
        .get("autotune")
        .map(|t| num(t, "ratio_vs_best_fixed"))
        .unwrap_or(None)
    {
        Some(ratio) => report.checks.push(Check {
            metric: "prefetch.autotune.ratio_vs_best_fixed (ceiling)".into(),
            baseline: PREFETCH_MAX_TUNE_RATIO,
            current: ratio,
            floor: PREFETCH_MAX_TUNE_RATIO,
            pass: ratio <= PREFETCH_MAX_TUNE_RATIO,
        }),
        None => report
            .errors
            .push("prefetch.autotune.ratio_vs_best_fixed missing".into()),
    }
    report
}

/// Wall-clock fault latencies may rise by at most this factor before
/// the tier gate fails: the modeled media charge *virtual* time, so the
/// wall rows measure decompress/memcpy cost, which is machine-dependent
/// and noisy at the nanosecond scale — the band only catches
/// order-of-magnitude cliffs (an accidental sleep or sync in the fault
/// path).
const TIER_MAX_LATENCY_RISE: f64 = 4.0;

/// Compares a `BENCH_tier.json` export against its baseline.
///
/// The tier harness is seeded and virtually clocked, so demotion and
/// promotion counts, per-tier residency after the fill, and the modeled
/// (`virtual.*`) media latencies are deterministic: they must match
/// exactly. Wall-clock per-tier fault latencies carry a generous
/// ceiling ([`TIER_MAX_LATENCY_RISE`]); degraded-replica read-back
/// throughput is floor-banded like any other throughput metric. The
/// replica section's `lost_pages` must be zero in both documents, and a
/// degraded read count of zero means the fail-over path was never
/// exercised — both are structural errors, not banded checks.
#[must_use]
pub fn check_tier(baseline: &str, current: &str, tol: Tolerance) -> SentinelReport {
    let mut report = SentinelReport::default();
    let (Some(base), Some(cur)) = (
        parse_doc("baseline BENCH_tier.json", baseline, &mut report),
        parse_doc("current BENCH_tier.json", current, &mut report),
    ) else {
        return report;
    };
    for k in ["pages", "seed"] {
        match (num(&base, k), num(&cur, k)) {
            (Some(b), Some(c)) => report.exact_check(format!("tier.{k}"), b, c),
            _ => report.errors.push(format!("tier.{k} missing")),
        }
    }
    let rows = |doc: &JsonValue| -> BTreeMap<String, BTreeMap<String, f64>> {
        let mut m = BTreeMap::new();
        for row in doc
            .get("tiers")
            .and_then(JsonValue::as_array)
            .unwrap_or(&[])
        {
            let Some(class) = row.get("class").and_then(JsonValue::as_str) else {
                continue;
            };
            let mut vals = BTreeMap::new();
            for k in [
                "resident_after_fill",
                "budget_pages",
                "demoted_in",
                "demoted_out",
                "promoted",
                "faults",
                "fault_p50_ns",
                "fault_p99_ns",
            ] {
                if let Some(v) = num(row, k) {
                    vals.insert(k.to_string(), v);
                }
            }
            m.insert(class.to_string(), vals);
        }
        m
    };
    let base_rows = rows(&base);
    if base_rows.is_empty() {
        report
            .errors
            .push("baseline BENCH_tier.json has no 'tiers' rows".into());
        return report;
    }
    let cur_rows = rows(&cur);
    for (class, bvals) in &base_rows {
        let Some(cvals) = cur_rows.get(class) else {
            report
                .errors
                .push(format!("tier row '{class}' missing from current export"));
            continue;
        };
        for (k, &bv) in bvals {
            let Some(&cv) = cvals.get(k) else {
                report
                    .errors
                    .push(format!("tier[{class}].{k} missing from current export"));
                continue;
            };
            if k.starts_with("fault_p") {
                // Wall-clock: ceiling only.
                let ceiling = bv * TIER_MAX_LATENCY_RISE;
                report.checks.push(Check {
                    metric: format!("tier[{class}].{k} (ceiling)"),
                    baseline: bv,
                    current: cv,
                    floor: ceiling,
                    pass: cv <= ceiling,
                });
            } else {
                report.exact_check(format!("tier[{class}].{k}"), bv, cv);
            }
        }
    }
    for (section, keys) in [
        (
            "rates",
            &["swap_outs", "demotions", "faults", "promotions"][..],
        ),
        (
            "virtual",
            &[
                "ssd_read_p50_ns",
                "ssd_read_p99_ns",
                "ssd_write_p50_ns",
                "ssd_write_p99_ns",
                "remote_read_p50_ns",
                "remote_write_p50_ns",
            ][..],
        ),
    ] {
        for k in keys {
            match (
                base.get(section).and_then(|s| num(s, k)),
                cur.get(section).and_then(|s| num(s, k)),
            ) {
                (Some(b), Some(c)) => report.exact_check(format!("tier.{section}.{k}"), b, c),
                _ => report.errors.push(format!("tier.{section}.{k} missing")),
            }
        }
    }
    match (
        base.get("replica")
            .and_then(|r| num(r, "degraded_pages_per_sec")),
        cur.get("replica")
            .and_then(|r| num(r, "degraded_pages_per_sec")),
    ) {
        (Some(b), Some(c)) => report.floor_check(
            "tier.replica.degraded_pages_per_sec".into(),
            b,
            c,
            tol.throughput_drop,
        ),
        _ => report
            .errors
            .push("tier.replica.degraded_pages_per_sec missing".into()),
    }
    for (label, doc) in [("baseline", &base), ("current", &cur)] {
        let Some(rep) = doc.get("replica") else {
            report
                .errors
                .push(format!("{label} BENCH_tier.json has no 'replica' section"));
            continue;
        };
        if let Some(l) = num(rep, "lost_pages") {
            if l != 0.0 {
                report
                    .errors
                    .push(format!("{label} BENCH_tier.json reports {l} lost pages"));
            }
        } else {
            report
                .errors
                .push(format!("{label} tier.replica.lost_pages missing"));
        }
        if num(rep, "degraded_reads") == Some(0.0) {
            report.errors.push(format!(
                "{label} BENCH_tier.json never exercised the degraded read path"
            ));
        }
    }
    report
}

/// Wall-clock per-tenant fault latencies in the serve gate may rise by
/// at most this factor: the serving path is dominated by decompression
/// plus cache bookkeeping under thread contention, which is noisy, so
/// like the tier band it only catches order-of-magnitude cliffs.
const SERVE_MAX_LATENCY_RISE: f64 = 4.0;

/// Compares a `BENCH_serve.json` export against its baseline.
///
/// The serve harness is wall-clock driven and multi-threaded, so
/// per-tenant op counts are not deterministic; the gate therefore
/// checks *invariants* and *bands* rather than exact replay:
///
/// - structural, on both documents: `lost_pages == 0`, `errors == 0`,
///   `accounting.balanced == true` — a lost page or a ledger/plane
///   disagreement fails regardless of tolerance;
/// - structural, on the current document: every baseline tenant row is
///   present with the same class, `guaranteed` tenants shed nothing,
///   and at least one `best_effort` row reports admission sheds (the
///   quota machinery must be demonstrably exercised);
/// - banded: per-tenant `fault_p50_ns`/`fault_p99_ns` carry the
///   [`SERVE_MAX_LATENCY_RISE`] ceiling, and `total_ops` is
///   floor-banded by the shared throughput tolerance.
#[must_use]
pub fn check_serve(baseline: &str, current: &str, tol: Tolerance) -> SentinelReport {
    let mut report = SentinelReport::default();
    let (Some(base), Some(cur)) = (
        parse_doc("baseline BENCH_serve.json", baseline, &mut report),
        parse_doc("current BENCH_serve.json", current, &mut report),
    ) else {
        return report;
    };
    for k in ["workers", "keys_per_tenant", "seed", "page_size"] {
        match (num(&base, k), num(&cur, k)) {
            (Some(b), Some(c)) => report.exact_check(format!("serve.{k}"), b, c),
            _ => report.errors.push(format!("serve.{k} missing")),
        }
    }
    match (num(&base, "total_ops"), num(&cur, "total_ops")) {
        (Some(b), Some(c)) => {
            report.floor_check("serve.total_ops".into(), b, c, tol.throughput_drop);
        }
        _ => report.errors.push("serve.total_ops missing".into()),
    }
    let rows = |doc: &JsonValue| -> BTreeMap<String, (String, BTreeMap<String, f64>)> {
        let mut m = BTreeMap::new();
        for row in doc
            .get("tenants")
            .and_then(JsonValue::as_array)
            .unwrap_or(&[])
        {
            let (Some(id), Some(class)) = (
                num(row, "tenant"),
                row.get("class").and_then(JsonValue::as_str),
            ) else {
                continue;
            };
            let mut vals = BTreeMap::new();
            for k in [
                "puts",
                "gets",
                "faults",
                "sheds",
                "fault_p50_ns",
                "fault_p99_ns",
            ] {
                if let Some(v) = num(row, k) {
                    vals.insert(k.to_string(), v);
                }
            }
            m.insert(format!("{id}"), (class.to_string(), vals));
        }
        m
    };
    let base_rows = rows(&base);
    if base_rows.is_empty() {
        report
            .errors
            .push("baseline BENCH_serve.json has no 'tenants' rows".into());
        return report;
    }
    let cur_rows = rows(&cur);
    let mut best_effort_sheds = 0.0f64;
    for (id, (bclass, bvals)) in &base_rows {
        let Some((cclass, cvals)) = cur_rows.get(id) else {
            report
                .errors
                .push(format!("serve tenant {id} missing from current export"));
            continue;
        };
        if bclass != cclass {
            report.errors.push(format!(
                "serve tenant {id} changed class: {bclass} -> {cclass}"
            ));
        }
        for k in ["fault_p50_ns", "fault_p99_ns"] {
            match (bvals.get(k), cvals.get(k)) {
                (Some(&bv), Some(&cv)) => {
                    let ceiling = bv * SERVE_MAX_LATENCY_RISE;
                    report.checks.push(Check {
                        metric: format!("serve[tenant{id}/{cclass}].{k} (ceiling)"),
                        baseline: bv,
                        current: cv,
                        floor: ceiling,
                        pass: cv <= ceiling,
                    });
                }
                _ => report.errors.push(format!("serve[tenant{id}].{k} missing")),
            }
        }
        let sheds = cvals.get("sheds").copied();
        match (cclass.as_str(), sheds) {
            ("guaranteed", Some(s)) if s != 0.0 => report.errors.push(format!(
                "serve tenant {id} is guaranteed but shed {s} writes"
            )),
            ("best_effort", Some(s)) => best_effort_sheds += s,
            (_, None) => report
                .errors
                .push(format!("serve[tenant{id}].sheds missing")),
            _ => {}
        }
        if cvals.get("faults").copied() == Some(0.0) {
            report.errors.push(format!(
                "serve tenant {id} never exercised the demand-fault path"
            ));
        }
    }
    if base_rows.values().any(|(c, _)| c == "best_effort") && best_effort_sheds == 0.0 {
        report
            .errors
            .push("serve: no best-effort admission sheds; quota machinery not exercised".into());
    }
    for (label, doc) in [("baseline", &base), ("current", &cur)] {
        match doc.get("accounting").and_then(|a| a.get("balanced")) {
            Some(JsonValue::Bool(true)) => {}
            Some(_) => report.errors.push(format!(
                "{label} BENCH_serve.json reports an accounting imbalance"
            )),
            None => report
                .errors
                .push(format!("{label} serve.accounting.balanced missing")),
        }
        let Some(integ) = doc.get("integrity") else {
            report.errors.push(format!(
                "{label} BENCH_serve.json has no 'integrity' section"
            ));
            continue;
        };
        for k in ["lost_pages", "errors"] {
            match num(integ, k) {
                Some(0.0) => {}
                Some(v) => report
                    .errors
                    .push(format!("{label} BENCH_serve.json reports {v} {k}")),
                None => report
                    .errors
                    .push(format!("{label} serve.integrity.{k} missing")),
            }
        }
        if num(integ, "checked") == Some(0.0) {
            report.errors.push(format!(
                "{label} BENCH_serve.json verified zero keys in the integrity sweep"
            ));
        }
    }
    report
}

/// Merges reports (used by the binary to fold per-file results).
#[must_use]
pub fn merge(reports: Vec<SentinelReport>) -> SentinelReport {
    let mut all = SentinelReport::default();
    for r in reports {
        all.checks.extend(r.checks);
        all.errors.extend(r.errors);
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_file(name: &str) -> String {
        let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
    }

    #[test]
    fn committed_codec_baseline_passes_against_itself() {
        let text = repo_file("BENCH_codec.json");
        let r = check_codec(&text, &text, Tolerance::default());
        assert!(r.passed(), "{}", r.render());
        assert!(r.checks.len() >= 20, "expected a full codec matrix");
    }

    #[test]
    fn committed_swap_and_event_baselines_pass_against_themselves() {
        let swap = repo_file("BENCH_swap.json");
        let r = check_swap(&swap, &swap, Tolerance::default());
        assert!(r.passed(), "{}", r.render());
        let event = repo_file("BENCH_event.json");
        let r = check_event(&event, &event, Tolerance::default());
        assert!(r.passed(), "{}", r.render());
    }

    #[test]
    fn synthetic_throughput_regression_fails() {
        let base = r#"{"current": [
            {"codec": "xlz", "corpus": "json", "compress_pages_per_sec": 40000,
             "decompress_pages_per_sec": 280000, "ratio": 2.8}
        ]}"#;
        let regressed = r#"{"current": [
            {"codec": "xlz", "corpus": "json", "compress_pages_per_sec": 4000,
             "decompress_pages_per_sec": 280000, "ratio": 2.8}
        ]}"#;
        let r = check_codec(base, regressed, Tolerance::default());
        assert!(!r.passed());
        let fails = r.failures();
        assert_eq!(fails.len(), 1);
        assert_eq!(fails[0].metric, "codec[xlz/json].compress_pages_per_sec");
        // A 10x drop lands far under the 50% floor.
        assert!(fails[0].current < fails[0].floor);
    }

    #[test]
    fn synthetic_ratio_regression_fails_inside_throughput_band() {
        // 20% ratio drop: within the 50% throughput band but outside
        // the 10% ratio band.
        let base = r#"{"current": [
            {"codec": "auto", "corpus": "json", "compress_pages_per_sec": 36000,
             "decompress_pages_per_sec": 56000, "ratio": 3.77}
        ]}"#;
        let regressed = r#"{"current": [
            {"codec": "auto", "corpus": "json", "compress_pages_per_sec": 36000,
             "decompress_pages_per_sec": 56000, "ratio": 3.0}
        ]}"#;
        let r = check_codec(base, regressed, Tolerance::default());
        assert!(!r.passed());
        assert_eq!(r.failures()[0].metric, "codec[auto/json].ratio");
    }

    #[test]
    fn missing_row_is_a_structural_error() {
        let base = r#"{"current": [
            {"codec": "xlz", "corpus": "json", "compress_pages_per_sec": 1.0,
             "decompress_pages_per_sec": 1.0, "ratio": 1.0},
            {"codec": "auto", "corpus": "json", "compress_pages_per_sec": 1.0,
             "decompress_pages_per_sec": 1.0, "ratio": 1.0}
        ]}"#;
        let shrunk = r#"{"current": [
            {"codec": "xlz", "corpus": "json", "compress_pages_per_sec": 1.0,
             "decompress_pages_per_sec": 1.0, "ratio": 1.0}
        ]}"#;
        let r = check_codec(base, shrunk, Tolerance::default());
        assert!(!r.passed());
        assert!(r.errors[0].contains("(auto, json)"));
        // Extra current rows are NOT an error (matrix may grow).
        let r = check_codec(shrunk, base, Tolerance::default());
        assert!(r.passed(), "{}", r.render());
    }

    #[test]
    fn malformed_json_is_reported_not_panicked() {
        let r = check_swap("{not json", "{}", Tolerance::default());
        assert!(!r.passed());
        assert!(r.errors[0].contains("baseline BENCH_swap.json"));
    }

    #[test]
    fn event_wall_ceiling_is_enforced() {
        let base =
            r#"{"events_per_sec": 1000000, "sim_wall_ms": 50, "sim_wall_ceiling_ms": 30000}"#;
        let slow =
            r#"{"events_per_sec": 900000, "sim_wall_ms": 60000, "sim_wall_ceiling_ms": 30000}"#;
        let r = check_event(base, slow, Tolerance::default());
        assert!(!r.passed());
        assert!(r
            .failures()
            .iter()
            .any(|c| c.metric.contains("sim_wall_ms")));
    }

    #[test]
    fn faults_fields_must_match_exactly_and_survive() {
        let base = r#"{"pages": 512, "rounds": 4, "seed": 12648430, "total_injected": 900,
            "store_retries": 10, "corrupt_retries": 12, "degrade_transitions": 3,
            "lost_pages": 0}"#;
        let r = check_faults(base, base, Tolerance::default());
        assert!(r.passed(), "{}", r.render());
        let drifted = base.replace("\"corrupt_retries\": 12", "\"corrupt_retries\": 13");
        let r = check_faults(base, &drifted, Tolerance::default());
        assert!(!r.passed());
        let lossy = base.replace("\"lost_pages\": 0", "\"lost_pages\": 2");
        let r = check_faults(&lossy, &lossy, Tolerance::default());
        assert!(!r.passed());
        assert!(r.errors.iter().any(|e| e.contains("lost pages")));
    }

    #[test]
    fn committed_prefetch_baseline_passes_against_itself() {
        let text = repo_file("BENCH_prefetch.json");
        let r = check_prefetch(&text, &text, Tolerance::default());
        assert!(r.passed(), "{}", r.render());
        // Three gated traces x two floors, plus the autotune ceiling.
        assert_eq!(r.checks.len(), 7);
    }

    #[test]
    fn prefetch_acceptance_floors_are_absolute() {
        let good = r#"{"traces": [
            {"name": "scan", "p99_reduction": 0.95, "precision": 0.99, "hit_rate": 0.99},
            {"name": "stride", "p99_reduction": 0.90, "precision": 0.98, "hit_rate": 0.99},
            {"name": "zipf-objects", "p99_reduction": 0.80, "precision": 0.97, "hit_rate": 0.99},
            {"name": "pointer-chase", "p99_reduction": 0.01, "precision": 0.1, "hit_rate": 0.0}
        ], "autotune": {"ratio_vs_best_fixed": 1.02}}"#;
        let r = check_prefetch(good, good, Tolerance::default());
        assert!(r.passed(), "{}", r.render());
        // The adversarial trace has no floor — its terrible numbers
        // must not fail the gate…
        assert!(!r.checks.iter().any(|c| c.metric.contains("pointer-chase")));
        // …but dropping the row entirely is a coverage error.
        let shrunk = good.replace(
            r#"{"name": "pointer-chase", "p99_reduction": 0.01, "precision": 0.1, "hit_rate": 0.0}"#,
            r#"{"name": "pointer-chase2", "p99_reduction": 0.01, "precision": 0.1, "hit_rate": 0.0}"#,
        );
        let r = check_prefetch(good, &shrunk, Tolerance::default());
        assert!(!r.passed());
        assert!(r.errors.iter().any(|e| e.contains("pointer-chase")));
        // A p99 reduction under 30% fails even if it matches baseline.
        let weak = good.replace(
            r#""name": "stride", "p99_reduction": 0.90"#,
            r#""name": "stride", "p99_reduction": 0.20"#,
        );
        let r = check_prefetch(&weak, &weak, Tolerance::default());
        assert!(!r.passed());
        assert_eq!(r.failures()[0].metric, "prefetch[stride].p99_reduction");
        // A diverged autotuner fails the ceiling.
        let wandering = good.replace("1.02", "1.35");
        let r = check_prefetch(good, &wandering, Tolerance::default());
        assert!(!r.passed());
        assert!(r.failures()[0].metric.contains("autotune"));
    }

    #[test]
    fn committed_tier_baseline_passes_against_itself() {
        let text = repo_file("BENCH_tier.json");
        let r = check_tier(&text, &text, Tolerance::default());
        assert!(r.passed(), "{}", r.render());
        // Three tier rows x eight fields, pages + seed, four rates, six
        // virtual latencies, one replica throughput floor.
        assert_eq!(r.checks.len(), 3 * 8 + 2 + 4 + 6 + 1);
    }

    #[test]
    fn committed_serve_baseline_passes_against_itself() {
        let text = repo_file("BENCH_serve.json");
        let r = check_serve(&text, &text, Tolerance::default());
        assert!(r.passed(), "{}", r.render());
        // Four config fields, the total_ops floor, and three tenant
        // rows x two latency ceilings.
        assert_eq!(r.checks.len(), 4 + 1 + 3 * 2);
    }

    #[test]
    fn serve_invariants_are_structural() {
        let good = repo_file("BENCH_serve.json");
        // A lost page must fail regardless of tolerance bands.
        let lost = good.replace("\"lost_pages\": 0", "\"lost_pages\": 3");
        let r = check_serve(&good, &lost, Tolerance::default());
        assert!(!r.passed());
        assert!(r.errors.iter().any(|e| e.contains("lost_pages")), "{r:?}");
        // So must an accounting imbalance...
        let imbalanced = good.replace("\"balanced\": true", "\"balanced\": false");
        let r = check_serve(&good, &imbalanced, Tolerance::default());
        assert!(!r.passed());
        assert!(r.errors.iter().any(|e| e.contains("imbalance")), "{r:?}");
        // ...and a guaranteed tenant shedding writes.
        let shed = good.replace(
            "\"class\": \"guaranteed\", \"puts\": 87012, \"gets\": 255646, \
             \"hits\": 170988, \"faults\": 52367, \"sheds\": 0",
            "\"class\": \"guaranteed\", \"puts\": 87012, \"gets\": 255646, \
             \"hits\": 170988, \"faults\": 52367, \"sheds\": 9",
        );
        assert_ne!(shed, good, "replacement must hit the tenant 1 row");
        let r = check_serve(&good, &shed, Tolerance::default());
        assert!(!r.passed());
        assert!(r.errors.iter().any(|e| e.contains("guaranteed")), "{r:?}");
    }

    #[test]
    fn tier_deterministic_fields_must_match_exactly() {
        let base = repo_file("BENCH_tier.json");
        let drifted = base.replace("\"demoted_in\": 640", "\"demoted_in\": 639");
        let r = check_tier(&base, &drifted, Tolerance::default());
        assert!(!r.passed());
        assert!(r.failures().iter().any(|c| c.metric.contains("demoted_in")));
        // Virtual media latencies are deterministic too: any drift fails.
        let drifted = base.replace("\"ssd_read_p50_ns\": 20480", "\"ssd_read_p50_ns\": 20481");
        let r = check_tier(&base, &drifted, Tolerance::default());
        assert!(!r.passed());
        assert!(r.failures()[0].metric.contains("ssd_read_p50_ns"));
    }

    #[test]
    fn tier_wall_latency_band_absorbs_noise_but_not_cliffs() {
        let base = repo_file("BENCH_tier.json");
        // Doubling a wall latency stays inside the 4x ceiling…
        let parsed = parse(&base).unwrap();
        let tiers = parsed.get("tiers").and_then(JsonValue::as_array).unwrap();
        let p50 = num(&tiers[0], "fault_p50_ns").unwrap();
        let noisy = base.replace(
            &format!("\"fault_p50_ns\": {p50}"),
            &format!("\"fault_p50_ns\": {}", p50 * 2.0),
        );
        let r = check_tier(&base, &noisy, Tolerance::default());
        assert!(r.passed(), "{}", r.render());
        // …but a 10x cliff fails the gate.
        let cliff = base.replace(
            &format!("\"fault_p50_ns\": {p50}"),
            &format!("\"fault_p50_ns\": {}", p50 * 10.0),
        );
        let r = check_tier(&base, &cliff, Tolerance::default());
        assert!(!r.passed());
        assert!(r.failures()[0].metric.contains("fault_p50_ns"));
    }

    #[test]
    fn tier_replica_invariants_are_structural() {
        let base = repo_file("BENCH_tier.json");
        let lossy = base.replace("\"lost_pages\": 0", "\"lost_pages\": 3");
        let r = check_tier(&lossy, &lossy, Tolerance::default());
        assert!(!r.passed());
        assert!(r.errors.iter().any(|e| e.contains("lost pages")));
        // A missing tier row shrinks coverage: structural error.
        let shrunk = base.replace("\"class\": \"ssd\"", "\"class\": \"tape\"");
        let r = check_tier(&base, &shrunk, Tolerance::default());
        assert!(!r.passed());
        assert!(r.errors.iter().any(|e| e.contains("'ssd'")));
    }

    #[test]
    fn merge_folds_checks_and_errors() {
        let a = check_swap("{not json", "{}", Tolerance::default());
        let text = repo_file("BENCH_event.json");
        let b = check_event(&text, &text, Tolerance::default());
        let m = merge(vec![a, b.clone()]);
        assert!(!m.passed());
        assert_eq!(m.checks.len(), b.checks.len());
        assert!(!m.errors.is_empty());
    }
}
