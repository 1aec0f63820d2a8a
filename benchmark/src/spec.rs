//! The metrics this benchmark emits, by name. `BENCHMARK.json` at the
//! repository root declares the same names with their bounds; a test
//! keeps the two from drifting apart.

/// A metric's name, unit, and whether a higher value is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Name as emitted and as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// `true` when higher is better.
    pub higher: bool,
}

const fn up(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher: true,
    }
}

const fn down(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher: false,
    }
}

/// End-to-end metrics: every workload reports every one (`--trace 0`).
pub const END_TO_END: [Metric; 7] = [
    down("setup_s", "s"),
    up("ops_per_s", "1/s"),
    down("fault_p50_us", "us"),
    down("fault_p99_us", "us"),
    down("cpu_us_per_op", "us"),
    down("mem_bytes_per_user_byte", "ratio"),
    down("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`). A layer a workload bypasses
/// reports 0 there — which is the bypass prediction, made checkable.
pub const PER_LAYER: [Metric; 99] = [
    // serve (xfm-serve::service)
    up("serve.get_hit.count", "count"),
    down("serve.get_fault.count", "count"),
    up("serve.put.count", "count"),
    down("serve.demotions.count", "count"),
    down("serve.sheds.count", "count"),
    down("serve.overflows.count", "count"),
    up("serve.hit_ratio", "ratio"),
    down("serve.demotions_per_fault", "ratio"),
    down("serve.get_hit.p50_ns", "ns"),
    down("serve.get_fault.self_p50_us", "us"),
    down("serve.put.self_p50_us", "us"),
    down("serve.busy_s", "s"),
    up("serve.scaling_2c", "ratio"),
    // sharded (xfm-sfm::sharded)
    up("sharded.swap_in.count", "count"),
    down("sharded.swap_in.p50_us", "us"),
    down("sharded.swap_in.self_p50_us", "us"),
    up("sharded.swap_out.count", "count"),
    down("sharded.swap_out.p50_us", "us"),
    down("sharded.swap_out.self_p50_us", "us"),
    up("sharded.swap_out_batch.pages_per_s", "1/s"),
    up("sharded.swap_in_batch.pages_per_s", "1/s"),
    down("sharded.busy_s", "s"),
    down("sharded.stored_raw_share", "ratio"),
    down("sharded.rejected_full.count", "count"),
    down("sharded.shard_imbalance", "ratio"),
    up("sharded.scaling_2c", "ratio"),
    // zpool (xfm-sfm::zpool)
    down("zpool.stored_bytes", "B"),
    down("zpool.slot_overhead_bytes", "B"),
    down("zpool.host_pages", "count"),
    up("zpool.utilization", "ratio"),
    down("zpool.alloc_probe_ns", "ns"),
    down("zpool.get_probe_ns", "ns"),
    down("zpool.free_probe_ns", "ns"),
    down("zpool.compact_s", "s"),
    down("zpool.compact_moved_bytes", "B"),
    // codec (xfm-compress)
    down("codec.compress.count", "count"),
    down("codec.compress.p50_us", "us"),
    down("codec.compress.p99_us", "us"),
    down("codec.compress.busy_s", "s"),
    down("codec.decompress.count", "count"),
    down("codec.decompress.p50_us", "us"),
    down("codec.decompress.p99_us", "us"),
    down("codec.decompress.busy_s", "s"),
    up("codec.bytes_in", "B"),
    down("codec.bytes_out", "B"),
    up("codec.ratio", "ratio"),
    // checksum (xfm-faults::checksum)
    down("checksum.probe_ns_per_block", "ns"),
    up("checksum.gb_per_s", "GB/s"),
    // tier (xfm-sfm::tier)
    down("tier.demotions.count", "count"),
    down("tier.promotions.count", "count"),
    up("tier.t0.faults", "count"),
    down("tier.t1.faults", "count"),
    down("tier.t2.faults", "count"),
    down("tier.t0.swap_in.p50_us", "us"),
    down("tier.t1.swap_in.p50_us", "us"),
    down("tier.t2.swap_in.p50_us", "us"),
    down("tier.self_p50_us", "us"),
    down("tier.busy_s", "s"),
    // modeled (xfm-sfm::modeled): simulated, exact
    down("modeled.ssd.read_virtual_p50_ns", "ns"),
    down("modeled.ssd.write_virtual_p50_ns", "ns"),
    down("modeled.remote.read_virtual_p50_ns", "ns"),
    down("modeled.replicated.degraded_reads", "count"),
    down("modeled.replicated.repairs", "count"),
    down("modeled.replicated.dropped_writes", "count"),
    // prefetch (xfm-sfm::prefetch)
    up("prefetch.hit_ratio", "ratio"),
    up("prefetch.precision", "ratio"),
    up("prefetch.issued.count", "count"),
    down("prefetch.throttled.count", "count"),
    down("prefetch.writebacks.count", "count"),
    down("prefetch.hit.p50_ns", "ns"),
    down("prefetch.miss.p50_us", "us"),
    down("prefetch.pump.busy_s", "s"),
    down("prefetch.seg.scan.fault_p50_us", "us"),
    down("prefetch.seg.stride.fault_p50_us", "us"),
    down("prefetch.seg.zipf.fault_p50_us", "us"),
    down("prefetch.seg.chase.fault_p50_us", "us"),
    // xfm (xfm-core backend + NMA, xfm-dram / xfm-event under it)
    up("xfm.nma.submitted", "count"),
    up("xfm.nma.completed", "count"),
    down("xfm.nma.fallbacks", "count"),
    down("xfm.nma.rejected", "count"),
    down("xfm.cpu_fallback_share", "ratio"),
    down("xfm.late_fallbacks", "count"),
    down("xfm.spm_high_water_bytes", "B"),
    up("xfm.sched.conditional", "count"),
    down("xfm.sched.random", "count"),
    down("xfm.nma.mean_latency_virtual_ns", "ns"),
    down("xfm.sim_ns_per_page", "ns"),
    down("xfm.degrade_transitions", "count"),
    down("xfm.swap_out.host_p50_us", "us"),
    down("xfm.swap_in.host_p50_us", "us"),
    down("xfm.model_self_host_us_per_page", "us"),
    up("xfm.sim_offload_share", "ratio"),
    down("xfm.sim_ddr_bytes_per_page", "B"),
    up("xfm.swap_out.pages_per_s", "1/s"),
    up("xfm.swap_in.pages_per_s", "1/s"),
    // telemetry (xfm-telemetry)
    down("telemetry.attach_overhead_share", "ratio"),
    // loadgen (the benchmark itself)
    down("loadgen.self_share", "ratio"),
    down("trace.overhead_share", "ratio"),
    up("trace.spans.count", "count"),
];

/// Per-layer metrics that are simulated values or counts of seeded,
/// single-client work: identical on every run of `tier-prefetch` and
/// `xfm-offload`, whatever the host.
#[must_use]
pub fn is_exact(name: &str) -> bool {
    name.starts_with("modeled.")
        || name.starts_with("xfm.nma.")
        || name.starts_with("xfm.sched.")
        || name.starts_with("xfm.sim_")
        || matches!(
            name,
            "xfm.cpu_fallback_share"
                | "xfm.late_fallbacks"
                | "xfm.spm_high_water_bytes"
                | "xfm.degrade_transitions"
                | "prefetch.hit_ratio"
                | "prefetch.precision"
        )
        || ((name.starts_with("prefetch.") || name.starts_with("tier."))
            && (name.ends_with(".count") || name.ends_with(".faults")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::NAMES;
    use xfm_telemetry::json::{parse, JsonValue};

    fn declared(doc: &JsonValue, key: &str) -> Vec<(String, String, bool)> {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(JsonValue::as_str).unwrap().to_owned();
                (s("name"), s("unit"), s("better") == "higher")
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_is_emitted() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        for (key, emitted) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let want: Vec<(String, String, bool)> = emitted
                .iter()
                .map(|m| (m.name.to_owned(), m.unit.to_owned(), m.higher))
                .collect();
            assert_eq!(declared(&doc, key), want, "{key}: none missing, none extra");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap())
            .collect();
        assert_eq!(workloads, NAMES);
        for m in doc.get("end_to_end").and_then(JsonValue::as_array).unwrap() {
            let bound = m.get("bound").and_then(JsonValue::as_f64).unwrap();
            assert!((0.0..=0.25).contains(&bound));
        }
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(ok(m.name, "_.-", 64), "name {}", m.name);
            assert!(m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(ok(m.unit, "_/%.-", 16), "unit {}", m.unit);
            assert!(seen.insert(m.name), "{} declared twice", m.name);
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && !m.higher));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn exact_metrics_are_the_simulated_ones() {
        assert!(is_exact("xfm.sim_offload_share"));
        assert!(is_exact("modeled.ssd.read_virtual_p50_ns"));
        assert!(is_exact("prefetch.issued.count"));
        assert!(is_exact("tier.t1.faults"));
        assert!(!is_exact("xfm.swap_in.host_p50_us"));
        assert!(!is_exact("codec.compress.p50_us"));
        assert!(!is_exact("serve.get_hit.count"));
    }
}
