//! End-to-end benchmark of the far-memory stack, untraced.
//!
//! ```text
//! xfm-benchmark --workload <name> [--seed N] [--seconds S] [--smoke]   one workload, this process
//! xfm-benchmark run --all [--seed N] [--seconds S] [--smoke] [--out F] each workload in a child process
//! xfm-benchmark repeat --sets N [--runs R] [run flags]                 N sets of R runs, compared
//! xfm-benchmark compare <base.json> <new.json> [--spec BENCHMARK.json] apply the declared bounds
//! ```
//!
//! The last line of a one-workload run is the result object the
//! acceptance driver reads. Exit status is nonzero on any failed
//! operation, regression, or unresolved comparison.

use std::process::{Command, ExitCode};

use xfm_benchmark::cli::{config, flag, require_release, switch, OUT_DIR};
use xfm_benchmark::harness::Untraced;
use xfm_benchmark::host::{peak_rss_mb, Host};
use xfm_benchmark::report::{compare, parse_results, results_file, Bounds, Run};
use xfm_benchmark::spec::END_TO_END;
use xfm_benchmark::stats::median;
use xfm_benchmark::workloads::{self, NAMES};

fn one_workload(name: &str, args: &[String]) -> Result<bool, String> {
    require_release()?;
    let cfg = config(args)?;
    if flag(args, "--trace").is_some_and(|t| t != "0") {
        return Err("per-layer runs are xfm-benchmark-trace's (see benchmark/run.sh)".into());
    }
    println!("host {}", Host::probe().json());
    println!(
        "workload {name} seed {} seconds {} smoke {}",
        cfg.seed, cfg.seconds, cfg.smoke
    );
    let r = workloads::run(name, &cfg, &Untraced)
        .ok_or_else(|| format!("unknown workload {name}; one of {NAMES:?}"))?;
    let fault = &r.fault;
    let us = |ns: Option<f64>| ns.map_or(f64::NAN, |v| v / 1e3);
    let values = [
        r.setup_s,
        r.pass.ops_per_s(),
        us(fault.p50_ns()),
        us(fault.p99_ns()),
        r.pass.cpu_us_per_op(),
        r.mem_bytes_per_user_byte,
        peak_rss_mb(),
    ];
    let run = Run::new(name, cfg.seed, r.attempted, r.failed, &END_TO_END, &values);
    println!(
        "epochs {} timed_ops {} fault_samples {}",
        r.pass.epochs, r.pass.ops, fault.samples
    );
    println!(
        "host speed {:.4} of reference (median epoch); raw wall-clock ops/s {:.1}; {} set-ups, raw wall-clock median {:.4} s",
        r.pass.host_speed(),
        median(&r.pass.raw_ops_per_s).unwrap_or(f64::NAN),
        r.setups.0,
        r.setups.1
    );
    if switch(args, "--epochs") {
        // The per-epoch series the figures below are reduced from.
        println!(
            "epochs {{\"raw_ops_per_s\": {:?}, \"speed\": {:?}, \"p50_ns\": {:?}, \"p99_ns\": {:?}}}",
            r.pass.raw_ops_per_s, r.pass.speed, fault.p50, fault.p99
        );
    }
    for (name, value, unit) in &run.metrics {
        println!("  {name:<26} {value:>16.4} {unit}");
    }
    println!("{}", run.result_line());
    Ok(run.correct)
}

/// Runs every workload, each in its own child process so that peak
/// RSS and CPU time are per workload.
fn run_all(args: &[String]) -> Result<Vec<Run>, String> {
    let cfg = config(args)?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    for name in NAMES {
        let mut child = Command::new(&exe);
        child
            .args(["--workload", name])
            .args(["--seed", &cfg.seed.to_string()])
            .args(["--seconds", &cfg.seconds.to_string()]);
        if cfg.smoke {
            child.arg("--smoke");
        }
        let out = child.output().map_err(|e| format!("{name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout.lines().last().unwrap_or("");
        let run = Run::from_result_line(name, cfg.seed, line).map_err(|e| {
            format!(
                "{name}: {e}\n{stdout}{}",
                String::from_utf8_lossy(&out.stderr)
            )
        })?;
        println!(
            "{name:<14} {} attempted {} failed {}",
            if run.correct { "ok    " } else { "FAILED" },
            run.attempted,
            run.failed
        );
        for (metric, value, unit) in &run.metrics {
            println!("  {metric:<26} {value:>16.4} {unit}");
        }
        runs.push(run);
    }
    Ok(runs)
}

fn write_results(path: &str, host: &Host, runs: &[Run]) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(path, results_file(&host.json(), runs)).map_err(|e| format!("{path}: {e}"))
}

fn load_bounds(args: &[String]) -> Result<Bounds, String> {
    let path = flag(args, "--spec").unwrap_or("BENCHMARK.json");
    Bounds::parse(&std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("run") if switch(args, "--all") => {
            let host = Host::probe();
            println!("host {}", host.json());
            let runs = run_all(args)?;
            let default = format!("{OUT_DIR}/run.json");
            let out = flag(args, "--out").unwrap_or(&default);
            write_results(out, &host, &runs)?;
            println!("wrote {out}");
            Ok(runs.iter().all(|r| r.correct))
        }
        Some("repeat") => {
            let count = |name, default: usize| {
                flag(args, name).map_or(Ok(default), |v| {
                    v.parse::<usize>()
                        .map_err(|_| format!("{name} {v}: not a count"))
                })
            };
            let (sets, per_set) = (count("--sets", 2)?.max(2), count("--runs", 5)?.max(1));
            let bounds = load_bounds(args)?;
            let host = Host::probe();
            println!("host {}", host.json());
            let mut all_sets = Vec::new();
            for set in 0..sets {
                let mut runs = Vec::new();
                for run in 0..per_set {
                    println!("--- set {} run {}", set + 1, run + 1);
                    runs.extend(run_all(args)?);
                }
                write_results(&format!("{OUT_DIR}/set-{}.json", set + 1), &host, &runs)?;
                all_sets.push(runs);
            }
            let mut ok = all_sets.iter().flatten().all(|r| r.correct);
            for (i, later) in all_sets.iter().enumerate().skip(1) {
                let (table, regressed, unresolved) = compare(&all_sets[0], later, &bounds);
                println!(
                    "=== set 1 vs set {}\n{table}regressed {regressed} unresolved {unresolved}",
                    i + 1
                );
                ok &= regressed + unresolved == 0;
            }
            Ok(ok)
        }
        Some("compare") => {
            let [base, new] = [1, 2].map(|i| args.get(i).filter(|a| !a.starts_with("--")));
            let (Some(base), Some(new)) = (base, new) else {
                return Err("usage: compare <base.json> <new.json> [--spec BENCHMARK.json]".into());
            };
            let read = |p: &String| {
                parse_results(&std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?)
                    .map_err(|e| format!("{p}: {e}"))
            };
            let (table, regressed, unresolved) =
                compare(&read(base)?, &read(new)?, &load_bounds(args)?);
            println!("{table}regressed {regressed} unresolved {unresolved}");
            Ok(regressed + unresolved == 0)
        }
        _ => match flag(args, "--workload") {
            Some(name) => one_workload(name, args),
            None => {
                Err("usage: --workload <name> | run --all | repeat --sets N | compare A B".into())
            }
        },
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("xfm-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
