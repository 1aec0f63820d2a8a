//! Minimal flag parsing shared by the two binaries.

use crate::workloads::{Config, DEFAULT_SEED};

/// Where result and trace files go: `out/` beside this package's
/// manifest, in the checkout the binary was built from.
pub const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// Value of `--name <value>` in `args`, if present.
#[must_use]
pub fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Whether the bare switch `name` is present.
#[must_use]
pub fn switch(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// `--seed`, `--seconds` and `--smoke`, with the recorded defaults
/// (seed [`DEFAULT_SEED`]; 12 s, or 1 s in a smoke run).
///
/// # Errors
///
/// A message naming the flag whose value does not parse.
pub fn config(args: &[String]) -> Result<Config, String> {
    let smoke = switch(args, "--smoke");
    let seed = match flag(args, "--seed") {
        Some(s) => s
            .parse()
            .map_err(|_| format!("--seed {s}: not a whole number"))?,
        None => DEFAULT_SEED,
    };
    let seconds = match flag(args, "--seconds") {
        Some(s) => s
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v > 0.0)
            .ok_or(format!("--seconds {s}: not a positive number"))?,
        None if smoke => 1.0,
        None => 12.0,
    };
    Ok(Config {
        seed,
        seconds,
        smoke,
    })
}

/// Refuses to measure a build without optimisations.
///
/// # Errors
///
/// The refusal message.
pub fn require_release() -> Result<(), String> {
    if cfg!(debug_assertions) {
        Err("refusing to measure a debug build: run with --release".to_owned())
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn flags_parse_with_defaults() {
        let a = args("--workload kv-hot --seed 9 --seconds 2.5 --trace 0");
        assert_eq!(flag(&a, "--workload"), Some("kv-hot"));
        let c = config(&a).unwrap();
        assert_eq!((c.seed, c.seconds, c.smoke), (9, 2.5, false));
        let d = config(&args("run --all --smoke")).unwrap();
        assert_eq!((d.seed, d.seconds, d.smoke), (DEFAULT_SEED, 1.0, true));
        assert!(config(&args("--seed x")).is_err());
        assert!(config(&args("--seconds 0")).is_err());
    }
}
