//! `xfm-repro` is how every table and figure of the paper is
//! regenerated: each experiment name it documents must print the thing
//! it is named after, and a name it does not know must fail instead of
//! printing the banner and exiting 0.

use std::process::{Command, Output};

/// Each experiment name and the heading its output must carry.
const EXPERIMENTS: [(&str, &str); 13] = [
    ("fig1", "Figure 1:"),
    ("fig3", "Figure 3:"),
    ("fig8", "Figure 8:"),
    ("fig11", "Figure 11:"),
    ("fig12", "Figure 12:"),
    ("energy", "Section 8 energy"),
    ("table1", "Table 1:"),
    ("table2", "Table 2:"),
    ("table3", "Table 3:"),
    ("timing", "Section 5 timing"),
    ("antagonist", "Section 3.2 antagonist study"),
    ("ablation", "Ablation A:"),
    ("latency", "Figure 10 latency check"),
];

fn repro(experiment: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xfm-repro"))
        .arg(experiment)
        .output()
        .expect("run xfm-repro")
}

#[test]
fn every_documented_experiment_prints_what_it_is_named_after() {
    for (name, heading) in EXPERIMENTS {
        let out = repro(name);
        assert!(out.status.success(), "{name}: {:?}", out.status);
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(
            stdout.contains(heading),
            "{name} did not print {heading:?}:\n{stdout}"
        );
    }
}

#[test]
fn replay_out_writes_a_parseable_export_of_every_layer() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro_cli_replay.json");
    let out = Command::new(env!("CARGO_BIN_EXE_xfm-repro"))
        .arg("--replay-out")
        .arg(&path)
        .output()
        .expect("run xfm-repro");
    assert!(out.status.success(), "{:?}", out.status);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        !stdout.contains("Figure"),
        "the replay pass runs alone:\n{stdout}"
    );
    let text = std::fs::read_to_string(&path).unwrap();
    let doc = xfm_telemetry::json::parse(&text).expect("the export parses");
    let sections: Vec<&str> = doc
        .as_object()
        .expect("the export is an object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(sections, ["fallback", "nma", "seed", "telemetry"]);
    assert_eq!(
        doc.path("fallback.completed").and_then(|v| v.as_f64()),
        Some(23_735.0)
    );
}

#[test]
fn an_unknown_experiment_fails_and_lists_the_valid_names() {
    let out = repro("fig99");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing may run before the check");
    let stderr = String::from_utf8(out.stderr).unwrap();
    let listed: Vec<&str> = stderr
        .rsplit(": ")
        .next()
        .unwrap()
        .split_whitespace()
        .collect();
    let known: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    assert_eq!(listed, known, "{stderr}");
}
