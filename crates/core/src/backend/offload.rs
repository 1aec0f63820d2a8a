//! The offload attempt: whether a page the store already holds (or
//! just gave up) is also handed to the near-memory accelerators. Gated
//! by the sticky degraded-mode controller, retried with backoff on
//! transient device rejects, and explained on the lifecycle trail and
//! the flight recorder — every event billed to the tenant that owns the
//! page being offloaded.

use xfm_faults::DegradedMode;
use xfm_telemetry::lifecycle::NO_SHARD;
use xfm_telemetry::{Cause, LifecycleStage};
use xfm_types::{PageNumber, RowId, SwapError, TenantId};

use super::XfmInner;
use crate::multichannel::Shares;
use crate::regs::OffloadKind;

impl XfmInner {
    /// Offers `tenant`'s `page` to the NMA, one share per DIMM, if the
    /// degrade controller allows an attempt at all; either way the
    /// controller hears how the operation went. Returns whether every
    /// share was accepted.
    pub(super) fn try_offload(
        &mut self,
        tenant: TenantId,
        page: PageNumber,
        kind: OffloadKind,
        shares: impl FnOnce() -> Shares,
    ) -> bool {
        let attempt = self.degrade.decide_offload();
        let offloaded = attempt && self.attempt_offload(tenant, page, kind, shares);
        let change = if attempt {
            self.degrade.record_offload(offloaded)
        } else {
            self.degrade.record_cpu_op()
        };
        if let Some(mode) = change {
            self.note_mode_change(tenant, page, mode);
        }
        offloaded
    }

    /// Submits `shares()` to the drivers, retrying transient rejects per
    /// the retry policy. Each backoff advances the clock, letting
    /// refresh windows drain the queue and free SPM slots before the
    /// re-submission. A device reject is not an error: the CPU path
    /// takes over.
    fn attempt_offload(
        &mut self,
        tenant: TenantId,
        page: PageNumber,
        kind: OffloadKind,
        shares: impl FnOnce() -> Shares,
    ) -> bool {
        let rows = u64::from(self.config.nma.geometry.rows_per_bank);
        let row = RowId::new((page.index() % rows) as u32);
        let mut attempt = 0u32;
        let shares = shares();
        loop {
            let now = self.now;
            let reject = self
                .drivers
                .iter_mut()
                .zip(shares.iter())
                .find_map(|(d, &share)| d.offload(kind, page, share, row, now, true).err());
            let Some(e) = reject else { return true };
            if !SwapError::from(e).retryable || attempt >= self.retry.max_retries {
                if attempt > 0 {
                    let retries = u64::from(attempt);
                    let (stage, cause) = (LifecycleStage::Retry, Cause::RetryExhausted);
                    self.lifecycle(stage, cause, tenant, page, retries, 0);
                    self.gave_up = Some((kind, page, attempt));
                }
                return false;
            }
            attempt += 1;
            let (nth, backoff) = (u64::from(attempt), self.retry.backoff_for(attempt));
            self.lifecycle(LifecycleStage::Retry, Cause::Retry, tenant, page, nth, 0);
            self.lifecycle(
                LifecycleStage::Backoff,
                Cause::Retry,
                tenant,
                page,
                nth,
                backoff.as_ns(),
            );
            self.advance_clock(self.now + backoff);
        }
    }

    /// Fires the flight-recorder incident of the offload that gave up
    /// during the operation under way; a swap-in calls it once its
    /// fault event is on the trail, so the dump carries that fault's
    /// critical path.
    pub(super) fn report_give_up(&mut self) {
        if let Some((kind, page, attempt)) = self.gave_up.take() {
            let reason = match kind {
                OffloadKind::Compress => "retry-exhausted-compress",
                OffloadKind::Decompress => "retry-exhausted-decompress",
            };
            self.incident(reason, page, || {
                format!("page {page} gave up after {attempt} retries")
            });
        }
    }

    /// Records a degraded-mode transition: gauge + lifecycle event, then
    /// fires a flight-recorder incident so the events leading up to the
    /// transition are preserved post-mortem.
    fn note_mode_change(&mut self, tenant: TenantId, page: PageNumber, mode: DegradedMode) {
        if let Some(t) = &self.telemetry {
            t.degraded_mode.set(f64::from(mode.level()));
        }
        let level = u64::from(mode.level());
        let (stage, cause) = (LifecycleStage::ModeChange, Cause::Degraded);
        self.lifecycle(stage, cause, tenant, page, level, 0);
        self.incident("degraded-mode-transition", page, || {
            format!("mode changed to {mode:?} (level {})", mode.level())
        });
    }

    /// Records a lifecycle event billed to `tenant` on the attached
    /// trail (no-op when untraced). The core plane is unsharded, so
    /// events carry [`NO_SHARD`].
    fn lifecycle(
        &self,
        stage: LifecycleStage,
        cause: Cause,
        tenant: TenantId,
        page: PageNumber,
        aux: u64,
        dur_ns: u64,
    ) {
        if let Some(t) = &self.telemetry {
            let trail = t.metrics.lifecycle();
            trail.record(stage, cause, tenant, page.index(), NO_SHARD, aux, dur_ns);
        }
    }

    /// Fires a flight-recorder incident about `page` (no-op when
    /// unattached). The detail string is built lazily so an unattached
    /// recorder costs nothing — not even the formatting allocation.
    fn incident(&self, reason: &str, page: PageNumber, detail: impl FnOnce() -> String) {
        if let Some(f) = &self.flight {
            f.incident(reason, &detail(), Some(page.index()));
        }
    }
}
