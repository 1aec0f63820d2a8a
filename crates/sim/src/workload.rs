//! Synthetic memory-intensive application kernels.
//!
//! SPEC CPU 2017 is licensed and cannot ship with this reproduction, so
//! the co-run experiments use analytic workload models whose
//! LLC-sensitivity and bandwidth profiles span the same range as the
//! paper's "memory-intensive SPEC benchmarks". A workload is described
//! by a base CPI, an LLC miss curve (misses per kilo-instruction as a
//! function of allotted cache), and the resulting bandwidth demand.

use xfm_types::{Bandwidth, ByteSize};

/// The kernel families used in job mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum WorkloadKind {
    /// Sequential streaming over a large array (`lbm`-like).
    Stream,
    /// Pointer chasing with a big working set (`mcf`-like).
    PointerChase,
    /// Structured-grid stencil (`fotonik3d`-like).
    Stencil,
    /// Scattered random access (`omnetpp`-like).
    RandomAccess,
    /// Cache-resident compute with bursts (`xalancbmk`-like).
    CacheFriendly,
    /// Graph analytics (`gcc_s`-like mixed behavior).
    Graph,
    /// In-memory analytics scan-join (`roms`-like).
    Analytics,
    /// Sparse linear algebra (`cactuBSSN`-like).
    Sparse,
}

impl WorkloadKind {
    /// The eight memory-sensitive kernels used by the §3.2/§8 co-runs.
    #[must_use]
    pub fn all() -> [WorkloadKind; 8] {
        [
            WorkloadKind::Stream,
            WorkloadKind::PointerChase,
            WorkloadKind::Stencil,
            WorkloadKind::RandomAccess,
            WorkloadKind::CacheFriendly,
            WorkloadKind::Graph,
            WorkloadKind::Analytics,
            WorkloadKind::Sparse,
        ]
    }

    /// Display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadKind::Stream => "stream",
            WorkloadKind::PointerChase => "ptr-chase",
            WorkloadKind::Stencil => "stencil",
            WorkloadKind::RandomAccess => "rand-access",
            WorkloadKind::CacheFriendly => "cache-friendly",
            WorkloadKind::Graph => "graph",
            WorkloadKind::Analytics => "analytics",
            WorkloadKind::Sparse => "sparse",
        }
    }
}

/// An analytic application model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Kernel family.
    pub kind: WorkloadKind,
    /// Cycles per instruction with a perfect memory system.
    pub cpi_base: f64,
    /// LLC misses per kilo-instruction with the *full* LLC.
    pub mpki_full_cache: f64,
    /// Additional MPKI when the workload gets (asymptotically) no cache.
    pub mpki_cache_pressure: f64,
    /// Fraction of misses that are writes (write-back traffic).
    pub write_fraction: f64,
}

impl Workload {
    /// The reference model for a kernel family. Values are chosen to
    /// span the memory-sensitivity range of the paper's SPEC subset.
    #[must_use]
    pub fn reference(kind: WorkloadKind) -> Self {
        match kind {
            WorkloadKind::Stream => Self {
                kind,
                cpi_base: 0.6,
                mpki_full_cache: 48.0,
                mpki_cache_pressure: 5.0,
                write_fraction: 0.35,
            },
            WorkloadKind::PointerChase => Self {
                kind,
                cpi_base: 1.1,
                mpki_full_cache: 58.0,
                mpki_cache_pressure: 22.0,
                write_fraction: 0.15,
            },
            WorkloadKind::Stencil => Self {
                kind,
                cpi_base: 0.7,
                mpki_full_cache: 34.0,
                mpki_cache_pressure: 14.0,
                write_fraction: 0.30,
            },
            WorkloadKind::RandomAccess => Self {
                kind,
                cpi_base: 0.9,
                mpki_full_cache: 24.0,
                mpki_cache_pressure: 24.0,
                write_fraction: 0.20,
            },
            WorkloadKind::CacheFriendly => Self {
                kind,
                cpi_base: 0.8,
                mpki_full_cache: 5.0,
                mpki_cache_pressure: 18.0,
                write_fraction: 0.25,
            },
            WorkloadKind::Graph => Self {
                kind,
                cpi_base: 1.0,
                mpki_full_cache: 27.0,
                mpki_cache_pressure: 16.0,
                write_fraction: 0.20,
            },
            WorkloadKind::Analytics => Self {
                kind,
                cpi_base: 0.7,
                mpki_full_cache: 40.0,
                mpki_cache_pressure: 10.0,
                write_fraction: 0.30,
            },
            WorkloadKind::Sparse => Self {
                kind,
                cpi_base: 0.9,
                mpki_full_cache: 30.0,
                mpki_cache_pressure: 17.0,
                write_fraction: 0.25,
            },
        }
    }

    /// MPKI when the workload effectively owns `cache_share` of the LLC.
    ///
    /// The curve interpolates linearly between `mpki_full_cache` (full
    /// LLC) and `mpki_full_cache + mpki_cache_pressure` (no cache) in
    /// the share of the full LLC.
    #[must_use]
    pub fn mpki(&self, cache_share: ByteSize, full_llc: ByteSize) -> f64 {
        let full = full_llc.as_bytes().max(1) as f64;
        let share = cache_share.as_bytes() as f64;
        // 1.0 when the share equals the full LLC, -> 0 as the share
        // vanishes.
        let fit = (share / full).clamp(0.0, 1.0);
        self.mpki_full_cache + self.mpki_cache_pressure * (1.0 - fit)
    }

    /// Cycles per instruction given the effective memory access latency
    /// (in cycles) and its cache share.
    #[must_use]
    pub fn cpi(&self, cache_share: ByteSize, full_llc: ByteSize, mem_latency_cycles: f64) -> f64 {
        // A fraction of miss latency is hidden by MLP/prefetching.
        const EXPOSED: f64 = 0.35;
        self.cpi_base + self.mpki(cache_share, full_llc) / 1000.0 * mem_latency_cycles * EXPOSED
    }

    /// DRAM bandwidth demand at a given CPI and core clock: one 64 B
    /// line per miss (plus write-backs).
    #[must_use]
    pub fn bandwidth_demand(
        &self,
        cache_share: ByteSize,
        full_llc: ByteSize,
        cpi: f64,
        core_hz: f64,
    ) -> Bandwidth {
        let instr_per_sec = core_hz / cpi;
        let misses_per_sec = instr_per_sec * self.mpki(cache_share, full_llc) / 1000.0;
        Bandwidth::from_bytes_per_sec(misses_per_sec * 64.0 * (1.0 + self.write_fraction))
    }
}

/// A set of co-running workloads pinned to disjoint cores.
#[derive(Debug, Clone, PartialEq)]
pub struct JobMix {
    /// Human-readable mix name (Fig. 11's x-axis labels).
    pub name: String,
    /// Member workloads.
    pub workloads: Vec<Workload>,
}

impl JobMix {
    /// The paper's setup: eight memory-sensitive kernels co-running.
    #[must_use]
    pub fn memory_sensitive_eight() -> Self {
        Self {
            name: "mix-all8".to_string(),
            workloads: WorkloadKind::all()
                .iter()
                .map(|&k| Workload::reference(k))
                .collect(),
        }
    }

    /// The Fig. 11 job mixes: several distinct co-run groups.
    #[must_use]
    pub fn figure11_mixes() -> Vec<JobMix> {
        let w = |k| Workload::reference(k);
        vec![
            JobMix {
                name: "mix-stream".into(),
                workloads: vec![
                    w(WorkloadKind::Stream),
                    w(WorkloadKind::Stencil),
                    w(WorkloadKind::Analytics),
                    w(WorkloadKind::Stream),
                ],
            },
            JobMix {
                name: "mix-latency".into(),
                workloads: vec![
                    w(WorkloadKind::PointerChase),
                    w(WorkloadKind::RandomAccess),
                    w(WorkloadKind::Graph),
                    w(WorkloadKind::Sparse),
                ],
            },
            JobMix {
                name: "mix-cache".into(),
                workloads: vec![
                    w(WorkloadKind::CacheFriendly),
                    w(WorkloadKind::CacheFriendly),
                    w(WorkloadKind::RandomAccess),
                    w(WorkloadKind::Stencil),
                ],
            },
            JobMix::memory_sensitive_eight(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LLC: ByteSize = ByteSize::from_mib(32);

    #[test]
    fn mpki_increases_under_cache_pressure() {
        for kind in WorkloadKind::all() {
            let w = Workload::reference(kind);
            let full = w.mpki(LLC, LLC);
            let squeezed = w.mpki(ByteSize::from_mib(2), LLC);
            assert!(squeezed > full, "{}", kind.name());
            assert!((full - w.mpki_full_cache).abs() < 1e-9);
        }
    }

    #[test]
    fn cpi_increases_with_latency_and_pressure() {
        let w = Workload::reference(WorkloadKind::PointerChase);
        let fast = w.cpi(LLC, LLC, 100.0);
        let slow = w.cpi(LLC, LLC, 300.0);
        assert!(slow > fast);
        let squeezed = w.cpi(ByteSize::from_mib(1), LLC, 100.0);
        assert!(squeezed > fast);
    }

    #[test]
    fn stream_demands_most_bandwidth() {
        let stream = Workload::reference(WorkloadKind::Stream);
        let friendly = Workload::reference(WorkloadKind::CacheFriendly);
        let cpi_s = stream.cpi(LLC, LLC, 200.0);
        let cpi_f = friendly.cpi(LLC, LLC, 200.0);
        let bw_s = stream.bandwidth_demand(LLC, LLC, cpi_s, 2.2e9);
        let bw_f = friendly.bandwidth_demand(LLC, LLC, cpi_f, 2.2e9);
        assert!(bw_s.as_gbps() > bw_f.as_gbps());
        // Sanity: single-core streaming demand in the GB/s range.
        assert!(bw_s.as_gbps() > 1.0 && bw_s.as_gbps() < 20.0, "{bw_s}");
    }

    #[test]
    fn job_mixes_are_well_formed() {
        let mixes = JobMix::figure11_mixes();
        assert_eq!(mixes.len(), 4);
        for m in &mixes {
            assert!(!m.workloads.is_empty());
            assert!(!m.name.is_empty());
        }
        assert_eq!(JobMix::memory_sensitive_eight().workloads.len(), 8);
    }

    #[test]
    fn kernel_names_unique() {
        let mut names: Vec<_> = WorkloadKind::all().iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8);
    }
}
