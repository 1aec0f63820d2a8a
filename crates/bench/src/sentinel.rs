//! The bench-regression sentinel: one rule, no per-bench knowledge.
//!
//! [`check`] deep-compares a freshly generated `BENCH_*.json` with its
//! committed baseline. Every value must be equal and every object must
//! have the same keys on both sides, so coverage can neither shrink nor
//! grow without the baseline being regenerated on purpose. The one
//! exception is any subtree under a key named `wall`, where the bins
//! put what the host decides (see [`crate::report`]): there the shape —
//! key sets and array lengths — must still match, the values are not
//! looked at. Absolute invariants (`lost_pages == 0`, the prefetch
//! floors, …) are asserted by the bin that measures them, not here.

use xfm_telemetry::json::{parse, JsonValue};

/// Compares the text of a fresh report with its committed baseline.
///
/// # Errors
///
/// Returns the parse failure, or the path of the first difference.
pub fn check(committed: &str, fresh: &str) -> Result<(), String> {
    let committed = parse(committed).map_err(|e| format!("committed: {e}"))?;
    let fresh = parse(fresh).map_err(|e| format!("fresh: {e}"))?;
    diff(&committed, &fresh, false).map_err(|e| format!("${e}"))
}

fn kind(v: &JsonValue) -> &'static str {
    match v {
        JsonValue::Object(_) => "an object",
        JsonValue::Array(_) => "an array",
        _ => "a scalar",
    }
}

/// The error is the path below this node, then `: what differs`; each
/// level prepends its own segment on the way out.
fn diff(committed: &JsonValue, fresh: &JsonValue, wall: bool) -> Result<(), String> {
    match (committed, fresh) {
        (JsonValue::Object(c), JsonValue::Object(f)) => {
            if let Some(k) = c.keys().find(|k| !f.contains_key(*k)) {
                return Err(format!(".{k}: missing from the fresh run"));
            }
            if let Some(k) = f.keys().find(|k| !c.contains_key(*k)) {
                return Err(format!(".{k}: not in the committed baseline"));
            }
            c.iter().try_for_each(|(k, cv)| {
                diff(cv, &f[k], wall || k == "wall").map_err(|e| format!(".{k}{e}"))
            })
        }
        (JsonValue::Array(c), JsonValue::Array(f)) if c.len() != f.len() => Err(format!(
            ": {} elements committed, {} fresh",
            c.len(),
            f.len()
        )),
        (JsonValue::Array(c), JsonValue::Array(f)) => c
            .iter()
            .zip(f)
            .enumerate()
            .try_for_each(|(i, (cv, fv))| diff(cv, fv, wall).map_err(|e| format!("[{i}]{e}"))),
        (c, f) if kind(c) != kind(f) => Err(format!(": {} committed, {} fresh", kind(c), kind(f))),
        (c, f) if wall || c == f => Ok(()),
        (c, f) => Err(format!(
            ": committed {}, fresh {}",
            c.to_json().trim_end(),
            f.to_json().trim_end()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{"pages": 768, "final_mode": "cpu_only",
        "rows": [{"corpus": "json", "ratio": 4.111}, {"corpus": "english-text", "ratio": 3.122}],
        "wall": {"host_cores": 2, "rows": [{"pages_per_sec": 62019}, {"pages_per_sec": 51257}]}}"#;

    #[test]
    fn equal_documents_pass_and_wall_values_are_not_compared() {
        assert_eq!(check(DOC, DOC), Ok(()));
        let other_host = DOC
            .replace("62019", "620190")
            .replace("\"host_cores\": 2", "\"host_cores\": 64");
        assert_eq!(check(DOC, &other_host), Ok(()));
    }

    #[test]
    fn a_changed_value_names_its_path() {
        let drifted = DOC.replace("3.122", "3.121");
        assert_eq!(
            check(DOC, &drifted),
            Err("$.rows[1].ratio: committed 3.122, fresh 3.121".into())
        );
        let renamed = DOC.replace("cpu_only", "mixed");
        assert!(check(DOC, &renamed)
            .unwrap_err()
            .starts_with("$.final_mode"));
    }

    #[test]
    fn missing_row_is_a_structural_error() {
        let shrunk = DOC.replace(r#", {"corpus": "english-text", "ratio": 3.122}"#, "");
        assert_eq!(
            check(DOC, &shrunk),
            Err("$.rows: 2 elements committed, 1 fresh".into())
        );
        // The matrix may not grow silently either.
        assert!(check(&shrunk, DOC).is_err());
    }

    #[test]
    fn key_sets_must_match_on_both_sides_and_under_wall() {
        let extra = DOC.replace("\"pages\": 768", "\"pages\": 768, \"seed\": 7");
        assert_eq!(
            check(DOC, &extra),
            Err("$.seed: not in the committed baseline".into())
        );
        assert_eq!(
            check(&extra, DOC),
            Err("$.seed: missing from the fresh run".into())
        );
        let no_cores = DOC.replace("\"host_cores\": 2, ", "");
        assert_eq!(
            check(DOC, &no_cores),
            Err("$.wall.host_cores: missing from the fresh run".into())
        );
        let reshaped = DOC.replace(r#"{"pages_per_sec": 51257}"#, "51257");
        assert_eq!(
            check(DOC, &reshaped),
            Err("$.wall.rows[1]: an object committed, a scalar fresh".into())
        );
    }

    #[test]
    fn malformed_json_is_reported_not_panicked() {
        assert!(check("{not json", "{}")
            .unwrap_err()
            .starts_with("committed: "));
        assert!(check("{}", "[1,").unwrap_err().starts_with("fresh: "));
    }

    /// Every committed baseline parses, passes against itself, and keeps
    /// its host-dependent numbers in one top-level `wall` object.
    #[test]
    fn committed_baselines_parse_and_carry_a_wall_section() {
        let root = format!("{}/../..", env!("CARGO_MANIFEST_DIR"));
        let mut seen = 0;
        for entry in std::fs::read_dir(&root).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_str().unwrap().to_string();
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            assert_eq!(check(&text, &text), Ok(()), "{name}");
            let doc = parse(&text).unwrap();
            assert!(
                doc.path("wall.host_cores").is_some(),
                "{name}: no wall.host_cores"
            );
            seen += 1;
        }
        assert_eq!(seen, 4, "one baseline per xfm-*-bench bin");
    }
}
