//! The one report path of the `xfm-*-bench` bins: flag parsing, the
//! exact quantile, and the `BENCH_*.json` writer.
//!
//! A report is a [`JsonValue`] whose top level holds the fields that
//! are a function of the seed — counts, ratios, virtual
//! latencies — and whose one `"wall"` object holds everything the host
//! decides (throughputs, wall percentiles, and what is derived from
//! them). `xfm-sentinel check` compares the first kind exactly and the
//! second by key set only.

use std::path::{Path, PathBuf};

use xfm_telemetry::json::JsonValue;

/// The command line of one bin, consumed flag by flag.
pub struct Args(Vec<String>);

impl Args {
    /// The process arguments after the program name.
    #[must_use]
    pub fn from_env() -> Self {
        Args(std::env::args().skip(1).collect())
    }

    /// Removes `flag <value>` and returns the value.
    ///
    /// Exits with status 2 when the flag is last on the line.
    pub fn value(&mut self, flag: &str) -> Option<String> {
        let i = self.0.iter().position(|a| a == flag)?;
        if i + 1 >= self.0.len() {
            eprintln!("{flag} requires a value");
            std::process::exit(2);
        }
        self.0.remove(i);
        Some(self.0.remove(i))
    }

    /// `--out-dir <dir>`: where the bin writes its report. Without the
    /// flag that is the working directory, so a run from the repo root
    /// regenerates the committed baseline.
    pub fn out_dir(&mut self) -> PathBuf {
        self.value("--out-dir")
            .map_or_else(|| ".".into(), PathBuf::from)
    }

    /// What no `value` call consumed.
    #[must_use]
    pub fn rest(self) -> Vec<String> {
        self.0
    }

    /// Exits with status 2 if any argument is left: a recipe carrying a
    /// flag the bin no longer has must fail, not run something else.
    pub fn done(self) {
        if !self.0.is_empty() {
            eprintln!("unrecognised arguments: {}", self.0.join(" "));
            std::process::exit(2);
        }
    }
}

/// Exact quantile of a sorted sample set (0 when empty).
#[must_use]
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// `v` rounded to `places` decimals, the precision a report carries a
/// ratio at.
#[must_use]
pub fn rounded(v: f64, places: i32) -> JsonValue {
    let scale = 10f64.powi(places);
    ((v * scale).round() / scale).into()
}

/// The `"wall"` section: `host_cores` plus the bin's host-dependent
/// `members`.
#[must_use]
pub fn wall<const N: usize>(members: [(&str, JsonValue); N]) -> JsonValue {
    let mut wall = JsonValue::object(members);
    if let JsonValue::Object(m) = &mut wall {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        m.insert("host_cores".into(), cores.into());
    }
    wall
}

/// Writes `doc` to `<dir>/<name>`, creating `dir`.
///
/// # Panics
///
/// Panics when the directory or the file cannot be written.
pub fn write(dir: &Path, name: &str, doc: &JsonValue) {
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    let path = dir.join(name);
    std::fs::write(&path, doc.to_json())
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_exact_on_samples() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.0), 1);
        assert_eq!(quantile(&v, 0.50), 51);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&[], 0.5), 0);
    }

    #[test]
    fn args_consume_flags_and_leave_the_rest() {
        let mut args = Args(
            [
                "fig8",
                "--out-dir",
                "/tmp/x",
                "--replay-out",
                "r.json",
                "fig12",
            ]
            .map(String::from)
            .to_vec(),
        );
        assert_eq!(args.out_dir(), PathBuf::from("/tmp/x"));
        assert_eq!(args.out_dir(), PathBuf::from("."));
        assert_eq!(args.value("--replay-out").as_deref(), Some("r.json"));
        assert_eq!(args.value("--replay-out"), None);
        assert_eq!(args.rest(), ["fig8", "fig12"]);
    }

    #[test]
    fn wall_section_carries_the_host() {
        let w = wall([("pages_per_sec", 3.0.into())]);
        assert!(w.get("host_cores").and_then(JsonValue::as_f64).unwrap() >= 1.0);
        assert_eq!(rounded(2.0 / 3.0, 3), JsonValue::Number(0.667));
    }
}
