//! The regression gate must be able to fail: drives the `xfm-sentinel`
//! binary on a copy of the committed baselines and a tampered "fresh"
//! directory beside it.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use xfm_telemetry::json::{parse, JsonValue};

const TIER: &str = "BENCH_tier.json";

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// A directory under cargo's test tmpdir holding a copy of every
/// committed `BENCH_*.json`.
fn baselines_in(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for entry in std::fs::read_dir(repo_root()).unwrap() {
        let path = entry.unwrap().path();
        let file = path.file_name().unwrap().to_str().unwrap();
        if file.starts_with("BENCH_") && file.ends_with(".json") {
            std::fs::copy(&path, dir.join(file)).unwrap();
        }
    }
    dir
}

/// Exit status and stdout of `xfm-sentinel check` on the two dirs.
fn sentinel(baseline: &Path, fresh: &Path) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_xfm-sentinel"))
        .arg("check")
        .arg("--baseline-dir")
        .arg(baseline)
        .arg("--current-dir")
        .arg(fresh)
        .output()
        .expect("run xfm-sentinel");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn members(v: &mut JsonValue) -> &mut BTreeMap<String, JsonValue> {
    match v {
        JsonValue::Object(m) => m,
        other => panic!("not an object: {other:?}"),
    }
}

/// Runs the gate with the committed `BENCH_tier.json` as baseline and
/// `tamper` applied to the fresh copy.
fn gate_with(name: &str, tamper: impl FnOnce(&mut JsonValue)) -> (bool, String) {
    let base = baselines_in(&format!("{name}-base"));
    let fresh = baselines_in(&format!("{name}-fresh"));
    let mut doc = parse(&std::fs::read_to_string(fresh.join(TIER)).unwrap()).unwrap();
    tamper(&mut doc);
    std::fs::write(fresh.join(TIER), doc.to_json()).unwrap();
    sentinel(&base, &fresh)
}

#[test]
fn identical_directories_pass() {
    let (ok, out) = gate_with("same", |_| {});
    assert!(ok, "{out}");
    assert!(out.contains("PASS: 4 baselines"), "{out}");
}

#[test]
fn a_changed_count_fails_and_names_its_path() {
    let (ok, out) = gate_with("count", |doc| {
        let tiers = members(doc).get_mut("tiers").unwrap();
        let JsonValue::Array(rows) = tiers else {
            panic!("tiers is not an array")
        };
        let old = members(&mut rows[1]).insert("demoted_in".into(), 639u64.into());
        assert_eq!(old, Some(640u64.into()));
    });
    assert!(!ok, "{out}");
    assert!(
        out.contains("BENCH_tier.json: FAIL $.tiers[1].demoted_in: committed 640, fresh 639"),
        "{out}"
    );
}

#[test]
fn wall_numbers_may_move_but_wall_keys_may_not() {
    let (ok, out) = gate_with("wall-x10", |doc| {
        let wall = members(members(doc).get_mut("wall").unwrap());
        let pps = wall["degraded_pages_per_sec"].as_f64().unwrap();
        wall.insert("degraded_pages_per_sec".into(), (pps * 10.0).into());
    });
    assert!(ok, "{out}");
    let (ok, out) = gate_with("wall-key", |doc| {
        let wall = members(members(doc).get_mut("wall").unwrap());
        wall.remove("degraded_pages_per_sec").unwrap();
    });
    assert!(!ok, "{out}");
    assert!(out.contains("$.wall.degraded_pages_per_sec"), "{out}");
}

#[test]
fn an_added_top_level_key_fails() {
    let (ok, out) = gate_with("extra", |doc| {
        members(doc).insert("shards".into(), 8u64.into());
    });
    assert!(!ok, "{out}");
    assert!(
        out.contains("$.shards: not in the committed baseline"),
        "{out}"
    );
}

#[test]
fn a_missing_or_malformed_fresh_file_fails() {
    let base = baselines_in("absent-base");
    let fresh = baselines_in("absent-fresh");
    std::fs::remove_file(fresh.join(TIER)).unwrap();
    let (ok, out) = sentinel(&base, &fresh);
    assert!(!ok, "{out}");
    assert!(out.contains("BENCH_tier.json: FAIL read"), "{out}");

    std::fs::write(fresh.join(TIER), "{\"pages\": 768,").unwrap();
    let (ok, out) = sentinel(&base, &fresh);
    assert!(!ok, "{out}");
    assert!(
        out.contains("BENCH_tier.json: FAIL fresh: JSON parse error"),
        "{out}"
    );

    // A baseline dir holding no baselines compares nothing: that is a
    // failure, not a pass.
    let empty = Path::new(env!("CARGO_TARGET_TMPDIR")).join("absent-empty");
    std::fs::create_dir_all(&empty).unwrap();
    let (ok, out) = sentinel(&empty, &fresh);
    assert!(!ok, "{out}");
}
