//! The virtual clock: the one walk that drains refresh windows on
//! every DIMM and charges the device with the offloads the scheduler
//! spilled after accepting them (late, structural-hazard fallbacks: the
//! CPU redoes that work); `Device::with` puts each on the trail, billed
//! to the page's owner while the store holds it, else to the system.

use xfm_telemetry::LifecycleStage;
use xfm_types::{ByteSize, Nanos, PAGE_SIZE};

use super::XfmInner;
use crate::nma::NmaEvent;
use crate::regs::OffloadKind;

impl XfmInner {
    /// Advances simulated time to `now` (never backwards). Its callers
    /// are [`XfmBackend::advance_to`](super::XfmBackend::advance_to),
    /// the start of every plane operation and a retry's backoff.
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
                    self.charges.cpu_cycles += cycles;
                    self.charges.ddr_bytes += ByteSize::from_bytes(ddr);
                    if let Some(t) = &self.telemetry {
                        t.metrics.refresh_window_misses.inc();
                        self.late.push((stage, page, at));
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
