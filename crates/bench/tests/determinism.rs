//! Acceptance: two same-seed full-stack simulated runs produce
//! byte-identical telemetry exports.

use xfm_bench::replay::replay;

#[test]
fn same_seed_full_stack_exports_are_byte_identical() {
    let first = replay(0xDEAD_BEEF).to_json();
    let second = replay(0xDEAD_BEEF).to_json();
    assert_eq!(first, second, "same-seed exports diverged");
    // Sanity: the export actually carries data from every layer.
    for key in ["\"fallback\"", "\"nma\"", "\"telemetry\""] {
        assert!(first.contains(key), "export missing {key} section");
    }
}

#[test]
fn different_seeds_change_the_export() {
    let a = replay(1).to_json();
    let b = replay(2).to_json();
    assert_ne!(a, b, "seed does not influence the export");
}
