//! Shared last-level-cache occupancy model.
//!
//! Co-running agents compete for LLC space roughly in proportion to
//! their miss (insertion) rates — the classic fixed-point occupancy
//! model. SFM's page-granular compression streams insert at enormous
//! rates and evict co-runners' lines (overhead **O4**); the model
//! captures that as a pollution agent with a configurable insertion
//! rate and zero reuse.

use xfm_types::ByteSize;

use crate::workload::Workload;

/// A shared LLC of a given capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedLlc {
    /// Total capacity (the paper's Xeon Gold 6242: ~22 MiB; we default
    /// to 32 MiB for an 8-core mix).
    pub capacity: ByteSize,
}

impl SharedLlc {
    /// Creates the LLC model.
    #[must_use]
    pub fn new(capacity: ByteSize) -> Self {
        Self { capacity }
    }

    /// Computes a fixed point of per-workload cache shares when
    /// `workloads` co-run alongside a pollution stream inserting
    /// `pollution_rate` (lines/s, any consistent unit relative to the
    /// workloads' miss rates).
    ///
    /// Returns (shares, pollution share). Shares sum to the capacity.
    #[must_use]
    pub fn shares(
        &self,
        workloads: &[Workload],
        mem_latency_cycles: f64,
        core_hz: f64,
        pollution_rate: f64,
    ) -> (Vec<ByteSize>, ByteSize) {
        let n = workloads.len();
        let cap = self.capacity.as_bytes() as f64;
        // Start from an equal split, iterate insertion-proportional
        // occupancy to a fixed point.
        let mut shares: Vec<f64> = vec![cap / (n.max(1)) as f64; n];
        for _ in 0..32 {
            let rates: Vec<f64> = workloads
                .iter()
                .zip(&shares)
                .map(|(w, &s)| {
                    let share = ByteSize::from_bytes(s as u64);
                    let cpi = w.cpi(share, self.capacity, mem_latency_cycles);
                    // Insertion rate = miss rate (lines/s).
                    (core_hz / cpi) * w.mpki(share, self.capacity) / 1000.0
                })
                .collect();
            // Reuse-weighted occupancy: a workload's lines live longer
            // than the pollution stream's (which are dead on arrival),
            // modeled by discounting pollution's effective rate.
            const POLLUTION_REUSE_DISCOUNT: f64 = 0.5;
            let total: f64 = rates.iter().sum::<f64>() + pollution_rate * POLLUTION_REUSE_DISCOUNT;
            if total <= 0.0 {
                break;
            }
            for (s, r) in shares.iter_mut().zip(&rates) {
                *s = cap * r / total;
            }
        }
        let woccupied: f64 = shares.iter().sum();
        let pollution = (cap - woccupied).max(0.0);
        (
            shares
                .into_iter()
                .map(|s| ByteSize::from_bytes(s as u64))
                .collect(),
            ByteSize::from_bytes(pollution as u64),
        )
    }
}

impl Default for SharedLlc {
    fn default() -> Self {
        Self::new(ByteSize::from_mib(32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadKind;

    fn eight() -> Vec<Workload> {
        WorkloadKind::all()
            .iter()
            .map(|&k| Workload::reference(k))
            .collect()
    }

    #[test]
    fn shares_sum_to_capacity_without_pollution() {
        let llc = SharedLlc::default();
        let (shares, pollution) = llc.shares(&eight(), 200.0, 2.2e9, 0.0);
        let total: u64 = shares.iter().map(|s| s.as_bytes()).sum::<u64>() + pollution.as_bytes();
        let cap = llc.capacity.as_bytes();
        assert!(total.abs_diff(cap) < cap / 100, "total {total} cap {cap}");
        assert!(pollution.as_bytes() < cap / 50);
    }

    #[test]
    fn pollution_steals_cache_from_everyone() {
        let llc = SharedLlc::default();
        let (clean, _) = llc.shares(&eight(), 200.0, 2.2e9, 0.0);
        // Pollution rate comparable to the total workload miss rate.
        let (polluted, ppart) = llc.shares(&eight(), 200.0, 2.2e9, 4.0e8);
        for (c, p) in clean.iter().zip(&polluted) {
            assert!(p.as_bytes() < c.as_bytes());
        }
        assert!(ppart.as_bytes() > llc.capacity.as_bytes() / 10);
    }

    #[test]
    fn hungrier_workloads_get_more_cache() {
        let llc = SharedLlc::default();
        let ws = vec![
            Workload::reference(WorkloadKind::PointerChase),
            Workload::reference(WorkloadKind::CacheFriendly),
        ];
        let (shares, _) = llc.shares(&ws, 200.0, 2.2e9, 0.0);
        assert!(shares[0] > shares[1]);
    }

    #[test]
    fn empty_workload_list_is_fine() {
        let llc = SharedLlc::default();
        let (shares, pollution) = llc.shares(&[], 200.0, 2.2e9, 1e8);
        assert!(shares.is_empty());
        assert_eq!(pollution, llc.capacity);
    }
}
