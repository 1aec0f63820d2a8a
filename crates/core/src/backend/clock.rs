//! The virtual clock: the one walk that drains refresh windows on
//! every DIMM and books the offloads the scheduler spilled after
//! accepting them (late, structural-hazard fallbacks — the CPU redoes
//! that work, billed to the page's owner while the store still holds
//! the page and to the system tenant once the entry is gone).

use xfm_telemetry::lifecycle::NO_SHARD;
use xfm_telemetry::swap_metrics::Stopwatch;
use xfm_telemetry::{Cause, LifecycleStage};
use xfm_types::{ByteSize, Nanos, TenantId, PAGE_SIZE};

use super::XfmInner;
use crate::nma::NmaEvent;
use crate::regs::OffloadKind;

impl XfmInner {
    /// Starts a swap operation: polls the devices at the current time,
    /// then starts the operation's wall-clock stopwatch when telemetry
    /// is attached.
    pub(super) fn begin_op(&mut self) -> Option<Stopwatch> {
        self.advance_clock(self.now);
        self.telemetry.as_ref().map(|_| Stopwatch::start())
    }

    /// Advances simulated time to `now` (never backwards). Its callers
    /// are [`XfmBackend::advance_to`](super::XfmBackend::advance_to),
    /// the start of every swap operation and a retry's backoff.
    pub(super) fn advance_clock(&mut self, now: Nanos) {
        self.now = self.now.max(now);
        if let Some(t) = &self.telemetry {
            t.mirror.publish(self.now);
        }
        for d in &mut self.drivers {
            for event in d.poll(now) {
                if let NmaEvent::Fallback {
                    kind,
                    bytes,
                    page,
                    at,
                    ..
                } = event
                {
                    // The CPU redoes the spilled work.
                    self.late_fallbacks += 1;
                    let len = u64::from(bytes);
                    let (stage, cycles, ddr) = match kind {
                        OffloadKind::Compress => (
                            LifecycleStage::Compress,
                            self.cost.compress_cycles(len),
                            len * 2,
                        ),
                        OffloadKind::Decompress => (
                            LifecycleStage::Decompress,
                            self.cost.decompress_cycles(PAGE_SIZE as u64),
                            len + PAGE_SIZE as u64,
                        ),
                    };
                    self.store.charge(cycles, ByteSize::from_bytes(ddr));
                    if let Some(t) = &self.telemetry {
                        t.metrics.refresh_window_misses.inc();
                        let owner = self.store.tenant_of(page).unwrap_or(TenantId::SYSTEM);
                        t.metrics.lifecycle().record(
                            stage,
                            Cause::RefreshWindowMiss,
                            owner,
                            page.index(),
                            NO_SHARD,
                            at.as_ns(),
                            0,
                        );
                    }
                }
            }
        }
        if let Some(t) = &self.telemetry {
            for (i, d) in self.drivers.iter().enumerate() {
                let nma = d.device();
                t.rank_util[i].set(nma.window_utilization());
                t.rank_windows[i].set(nma.stats().sched.windows as f64);
            }
        }
    }
}
