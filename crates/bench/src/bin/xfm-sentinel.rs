//! `xfm-sentinel`: the bench-regression gate.
//!
//! Subcommands:
//!
//! - `check --baseline-dir <dir> --current-dir <dir>` — deep-compare
//!   every `BENCH_*.json` in the baseline dir with the file of the same
//!   name in the current dir (see [`xfm_bench::sentinel`]: equal values,
//!   equal key sets, shape only under `wall`); exit 1 on any difference,
//!   on a file the current dir lacks, or on a baseline dir holding none.
//! - `validate-trace <file.json>` — structurally validate a Chrome
//!   `trace_event` export produced by `xfm-repro --trace-out`.
//! - `validate-dump <file.json>` — structurally validate a flight
//!   recorder post-mortem dump.

use std::path::Path;
use std::process::ExitCode;

use xfm_bench::report::Args;
use xfm_bench::sentinel;
use xfm_telemetry::{chrome, flight};

fn usage() -> ExitCode {
    eprintln!(
        "usage: xfm-sentinel check --baseline-dir <dir> --current-dir <dir>\n       \
         xfm-sentinel validate-trace <file.json>\n       \
         xfm-sentinel validate-dump <file.json>"
    );
    ExitCode::from(2)
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))
}

fn check(baseline_dir: &Path, current_dir: &Path) -> ExitCode {
    let mut names: Vec<String> = match std::fs::read_dir(baseline_dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            .collect(),
        Err(e) => {
            eprintln!("read {}: {e}", baseline_dir.display());
            return ExitCode::FAILURE;
        }
    };
    names.sort();
    if names.is_empty() {
        println!("FAIL: no BENCH_*.json in {}", baseline_dir.display());
        return ExitCode::FAILURE;
    }
    let mut failures = 0;
    for name in &names {
        let verdict = read(&baseline_dir.join(name))
            .and_then(|b| Ok((b, read(&current_dir.join(name))?)))
            .and_then(|(b, c)| sentinel::check(&b, &c));
        match verdict {
            Ok(()) => println!("sentinel: {name}: equal outside wall"),
            Err(e) => {
                failures += 1;
                println!("sentinel: {name}: FAIL {e}");
            }
        }
    }
    println!(
        "{}: {} baselines in {} against {}, {failures} failures",
        if failures == 0 { "PASS" } else { "FAIL" },
        names.len(),
        baseline_dir.display(),
        current_dir.display()
    );
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn validate_trace(path: &Path) -> ExitCode {
    match read(path).and_then(|text| chrome::validate_chrome_trace(&text)) {
        Ok(events) => {
            println!("trace OK: {} events ({})", events, path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("trace INVALID: {e}");
            ExitCode::FAILURE
        }
    }
}

fn validate_dump(path: &Path) -> ExitCode {
    match read(path).and_then(|text| flight::validate_dump(&text)) {
        Ok(summary) => {
            println!(
                "dump OK: reason={} events={} page={:?} path_steps={:?} ({})",
                summary.reason,
                summary.events,
                summary.page,
                summary.path_steps,
                path.display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dump INVALID: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let mut args = Args::from_env();
    let dirs = (args.value("--baseline-dir"), args.value("--current-dir"));
    let rest = args.rest();
    match (rest.as_slice(), dirs) {
        ([cmd], (Some(base), Some(cur))) if cmd == "check" => {
            check(Path::new(&base), Path::new(&cur))
        }
        ([cmd, file], (None, None)) if cmd == "validate-trace" => validate_trace(Path::new(file)),
        ([cmd, file], (None, None)) if cmd == "validate-dump" => validate_dump(Path::new(file)),
        _ => usage(),
    }
}
