//! Property tests for `xfm-telemetry`: histogram merge is associative
//! and order-independent, quantiles stay within the documented bucket
//! error on random inputs, and the JSON writer round-trips through the
//! parser.

use proptest::prelude::*;
use xfm_telemetry::json::{parse, JsonValue};
use xfm_telemetry::Histogram;

fn hist_of(values: &[u64]) -> Histogram {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

fn same_distribution(a: &Histogram, b: &Histogram) -> Result<(), String> {
    if a.count() != b.count() {
        return Err(format!("count {} != {}", a.count(), b.count()));
    }
    if a.sum() != b.sum() {
        return Err(format!("sum {} != {}", a.sum(), b.sum()));
    }
    if a.min() != b.min() || a.max() != b.max() {
        return Err(format!(
            "extrema ({}, {}) != ({}, {})",
            a.min(),
            a.max(),
            b.min(),
            b.max()
        ));
    }
    for q in [0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
        if a.quantile(q) != b.quantile(q) {
            return Err(format!("q{q}: {} != {}", a.quantile(q), b.quantile(q)));
        }
    }
    Ok(())
}

// Latency-like magnitudes: spread values across several octaves so
// merges exercise many distinct buckets.
fn values() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec((0u32..40).prop_map(|shift| 1u64 << shift), 0..60)
}

/// A document grown from `words`: each word picks the next value's
/// kind, containers nest while `depth` lasts.
fn json_from(words: &mut impl Iterator<Item = u64>, depth: u32) -> JsonValue {
    let w = words.next().unwrap_or(0);
    let text = |w: u64| format!("k{}\"\\\n\u{1}é{}", w % 7, w >> 40);
    match w % if depth == 0 { 5 } else { 7 } {
        0 => JsonValue::Null,
        1 => (w & 8 == 0).into(),
        2 => (w >> 11).into(),
        3 => ((w >> 11) as f64 / -4096.0).into(),
        4 => text(w).as_str().into(),
        5 => (0..w >> 61).map(|_| json_from(words, depth - 1)).collect(),
        _ => JsonValue::Object(
            (0..w >> 61)
                .map(|i| (text(w ^ i), json_from(words, depth - 1)))
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever the writer emits, the parser reads back as the same
    /// value — the sentinel compares documents that took this trip.
    #[test]
    fn json_write_then_parse_is_identity(words in prop::collection::vec(any::<u64>(), 1..200)) {
        let v = json_from(&mut words.into_iter(), 4);
        prop_assert_eq!(parse(&v.to_json()), Ok(v));
    }

    /// (a ⊕ b) ⊕ c and a ⊕ (b ⊕ c) describe the same distribution.
    #[test]
    fn merge_is_associative(xs in values(), ys in values(), zs in values()) {
        let left = hist_of(&xs);
        left.merge(&hist_of(&ys));
        left.merge(&hist_of(&zs));

        let bc = hist_of(&ys);
        bc.merge(&hist_of(&zs));
        let right = hist_of(&xs);
        right.merge(&bc);

        if let Err(msg) = same_distribution(&left, &right) {
            prop_assert!(false, "associativity broken: {}", msg);
        }
    }

    /// a ⊕ b equals b ⊕ a, and both equal recording everything into one
    /// histogram — merge order cannot matter when aggregating workers.
    #[test]
    fn merge_is_order_independent(xs in values(), ys in values()) {
        let ab = hist_of(&xs);
        ab.merge(&hist_of(&ys));

        let ba = hist_of(&ys);
        ba.merge(&hist_of(&xs));

        let mut all = xs.clone();
        all.extend_from_slice(&ys);
        let combined = hist_of(&all);

        if let Err(msg) = same_distribution(&ab, &ba) {
            prop_assert!(false, "commutativity broken: {}", msg);
        }
        if let Err(msg) = same_distribution(&ab, &combined) {
            prop_assert!(false, "merge != combined recording: {}", msg);
        }
    }

    /// Quantiles of arbitrary data stay within one bucket (12.5%) of the
    /// exact order statistic.
    #[test]
    fn quantiles_track_order_statistics(xs in prop::collection::vec(1u64..1_000_000, 1..80)) {
        let h = hist_of(&xs);
        let mut xs = xs;
        xs.sort_unstable();
        for q in [0.5f64, 0.9, 0.99] {
            let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
            let exact = xs[rank - 1] as f64;
            let got = h.quantile(q) as f64;
            prop_assert!(
                got <= exact && got >= exact * (1.0 - 0.125) - 1.0,
                "q{} reported {} for exact {}", q, got, exact
            );
        }
        prop_assert_eq!(h.quantile(1.0), *xs.last().unwrap());
    }
}
