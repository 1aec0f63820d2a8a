//! What the numbers were taken on, and the process's own CPU and
//! memory use, read from `/proc` (no libc dependency).

use std::process::Command;

/// Kernel clock ticks per second for `/proc/self/stat` (`USER_HZ`,
/// fixed at 100 on every Linux ABI this runs on).
const CLK_TCK: f64 = 100.0;

/// Closed-loop client threads of the multi-client workloads.
pub const CLIENTS: usize = 2;

/// User + system CPU seconds this process has consumed, all threads.
#[must_use]
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th overall, so the 12th and 13th after ") ".
    let rest = stat.rsplit_once(") ").map_or("", |(_, r)| r);
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let ticks: f64 = fields
        .by_ref()
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / CLK_TCK
}

/// Peak resident set (`VmHWM`) of this process in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The host a run was taken on.
#[derive(Debug, Clone)]
pub struct Host {
    /// Logical cores available to this process.
    pub cores: usize,
    /// `rustc -V` of the toolchain on the path.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a repository.
    pub commit: String,
    /// Fewer cores than client threads: throughput and tail figures
    /// are then not comparable with the reference host's.
    pub oversubscribed: bool,
}

impl Host {
    /// Probes the current host.
    #[must_use]
    pub fn probe() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        Self {
            cores,
            rustc: first_line_of("rustc", &["-V"]),
            commit: first_line_of("git", &["rev-parse", "HEAD"]),
            oversubscribed: cores < CLIENTS,
        }
    }

    /// One JSON object, for the head of every report.
    #[must_use]
    pub fn json(&self) -> String {
        format!(
            "{{\"host_cores\": {}, \"rustc\": \"{}\", \"commit\": \"{}\", \"clients\": {CLIENTS}, \"oversubscribed\": {}}}",
            self.cores, self.rustc, self.commit, self.oversubscribed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        let before = cpu_seconds();
        let mut x = 0u64;
        while cpu_seconds() - before < 0.03 {
            for i in 0..1_000_000u64 {
                x = x.wrapping_add(i * i);
            }
            std::hint::black_box(x);
        }
        assert!(cpu_seconds() > before);
        assert!(peak_rss_mb() > 0.5);
        assert!(Host::probe().cores >= 1);
    }
}
