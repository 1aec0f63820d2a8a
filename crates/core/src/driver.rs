//! The `XFM_Driver`: the host-side, MMIO-level interface to one XFM DIMM.
//!
//! In a Linux deployment these functions sit behind `ioctl()` calls on a
//! character device (paper §6). The driver's defining behavior is its
//! *lazy* resource tracking: it maintains a host-side upper bound of SPM
//! occupancy (incremented by each offload's worst-case output at submit
//! — the device itself reserves the actual output later, when the read
//! is served — and decremented by the same amount as its completion or
//! fallback is polled) and only issues a real `SP_Capacity_Register`
//! MMIO read when the inferred occupancy says the SPM might be full.
//! The read resets the estimate to the device's occupancy at that
//! moment. "In the common
//! case, spare capacity will be found since SPM data is written back to
//! DRAM at regular intervals."

use xfm_types::{ByteSize, Error, Nanos, PageNumber, PhysAddr, Result, RowId};

use crate::nma::{NearMemoryAccelerator, NmaEvent, NmaStats, OffloadShare};
use crate::regs::{OffloadKind, Reg};

/// The driver for one XFM DIMM.
///
/// # Examples
///
/// ```
/// use xfm_core::{XfmDriver, nma::{NearMemoryAccelerator, NmaConfig, OffloadShare}};
/// use xfm_types::{ByteSize, Nanos, PageNumber, PhysAddr, RowId};
///
/// let mut drv = XfmDriver::new(NearMemoryAccelerator::new(NmaConfig::default()));
/// drv.xfm_paramset(PhysAddr::new(0x1000_0000), ByteSize::from_gib(1))?;
/// let share = OffloadShare { input: 4096, output: 1200 };
/// drv.xfm_compress(PageNumber::new(1), share, RowId::new(1), Nanos::ZERO, true)?;
/// let events = drv.poll(Nanos::from_ms(64));
/// assert_eq!(events.len(), 1);
/// # Ok::<(), xfm_types::Error>(())
/// ```
#[derive(Debug)]
pub struct XfmDriver {
    nma: NearMemoryAccelerator,
    /// Host-side upper bound of SPM bytes in use (lazy inference).
    inferred_used: u64,
    paramset: bool,
    /// Times the lazy path had to fall through to a real MMIO read.
    capacity_syncs: u64,
}

impl XfmDriver {
    /// Wraps an accelerator device.
    #[must_use]
    pub fn new(nma: NearMemoryAccelerator) -> Self {
        Self {
            nma,
            inferred_used: 0,
            paramset: false,
            capacity_syncs: 0,
        }
    }

    /// `xfm_paramset()`: configures the SFM region geometry via MMIO
    /// writes to the device's configuration registers.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for a zero-sized region.
    pub fn xfm_paramset(&mut self, base: PhysAddr, size: ByteSize) -> Result<()> {
        if size.is_zero() {
            return Err(Error::InvalidConfig("SFM region must be non-empty".into()));
        }
        let regs = self.nma.regs_mut();
        regs.write(Reg::SfmRegionBase, base.as_u64())?;
        regs.write(Reg::SfmRegionSize, size.as_bytes())?;
        regs.write(Reg::Ctrl, 1)?;
        self.paramset = true;
        Ok(())
    }

    /// Arms fault-injection hooks on the underlying device (admission,
    /// engine, and window-scheduler sites).
    pub fn attach_faults(&mut self, faults: std::sync::Arc<xfm_faults::FaultInjector>) {
        self.nma.attach_faults(faults);
    }

    fn ensure_capacity(&mut self, needed: u64) -> Result<()> {
        let cap = self.nma.config().spm_capacity.as_bytes();
        if self.inferred_used + needed <= cap {
            return Ok(()); // common case: no MMIO
        }
        // Inferred full: synchronize with the real SP_Capacity_Register.
        self.capacity_syncs += 1;
        let free = self.nma.regs_mut().read(Reg::SpCapacity);
        self.inferred_used = cap - free;
        if self.inferred_used + needed <= cap {
            Ok(())
        } else {
            Err(Error::SpmFull {
                requested: needed,
                available: free,
            })
        }
    }

    /// Pushes one share of an offload: the body of `xfm_compress()` and
    /// `xfm_decompress()`, and what the `XFM_Backend` calls.
    ///
    /// # Errors
    ///
    /// - [`Error::Device`] if `xfm_paramset` has not run;
    /// - [`Error::SpmFull`] / [`Error::QueueFull`] when the device cannot
    ///   accept the offload — the caller runs `CPU_Fallback`.
    pub fn offload(
        &mut self,
        kind: OffloadKind,
        page: PageNumber,
        share: OffloadShare,
        row: RowId,
        now: Nanos,
        flexible: bool,
    ) -> Result<()> {
        if !self.paramset {
            return Err(Error::Device("xfm_paramset has not run".into()));
        }
        let needed = Self::reservation(kind, share);
        self.ensure_capacity(needed)?;
        self.nma.submit(kind, page, share, row, now, flexible)?;
        self.inferred_used += needed;
        Ok(())
    }

    /// `xfm_compress()`: pushes a compression offload.
    ///
    /// # Errors
    ///
    /// As [`XfmDriver::offload`].
    pub fn xfm_compress(
        &mut self,
        page: PageNumber,
        share: OffloadShare,
        row: RowId,
        now: Nanos,
        flexible: bool,
    ) -> Result<()> {
        self.offload(OffloadKind::Compress, page, share, row, now, flexible)
    }

    /// `xfm_decompress()`: pushes a decompression offload (the
    /// `do_offload` path).
    ///
    /// # Errors
    ///
    /// As [`XfmDriver::offload`].
    pub fn xfm_decompress(
        &mut self,
        page: PageNumber,
        share: OffloadShare,
        row: RowId,
        now: Nanos,
        flexible: bool,
    ) -> Result<()> {
        self.offload(OffloadKind::Decompress, page, share, row, now, flexible)
    }

    /// Polls the device: advances it to `now` and returns finished
    /// offloads, releasing each one's inferred reservation.
    pub fn poll(&mut self, now: Nanos) -> Vec<NmaEvent> {
        let events = self.nma.advance_to(now);
        for e in &events {
            let (NmaEvent::Completed { kind, share, .. } | NmaEvent::Fallback { kind, share, .. }) =
                *e;
            let reserved = Self::reservation(kind, share);
            self.inferred_used = self.inferred_used.saturating_sub(reserved);
        }
        events
    }

    /// The SPM bytes the device reserves for `share`, and so what the
    /// inferred occupancy books for it.
    fn reservation(kind: OffloadKind, share: OffloadShare) -> u64 {
        NearMemoryAccelerator::reservation_for(kind, share.input as usize) as u64
    }

    /// The host's current occupancy estimate (always ≥ the true value
    /// between polls).
    #[must_use]
    pub fn inferred_used(&self) -> ByteSize {
        ByteSize::from_bytes(self.inferred_used)
    }

    /// Times the lazy check had to issue a real capacity read.
    #[must_use]
    pub fn capacity_syncs(&self) -> u64 {
        self.capacity_syncs
    }

    /// MMIO (reads, writes) performed so far.
    #[must_use]
    pub fn mmio_counts(&mut self) -> (u64, u64) {
        let regs = self.nma.regs_mut();
        (regs.mmio_reads(), regs.mmio_writes())
    }

    /// Device statistics.
    #[must_use]
    pub fn stats(&self) -> NmaStats {
        self.nma.stats()
    }

    /// The underlying device (for tests and advanced callers).
    #[must_use]
    pub fn device(&self) -> &NearMemoryAccelerator {
        &self.nma
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nma::NmaConfig;

    /// A 4 KiB page that compresses to 1 100 bytes.
    const PAGE: OffloadShare = OffloadShare {
        input: 4096,
        output: 1100,
    };

    fn driver() -> XfmDriver {
        let mut d = XfmDriver::new(NearMemoryAccelerator::new(NmaConfig::default()));
        d.xfm_paramset(PhysAddr::new(0), ByteSize::from_gib(1))
            .unwrap();
        d
    }

    #[test]
    fn paramset_required_before_offloads() {
        let mut d = XfmDriver::new(NearMemoryAccelerator::new(NmaConfig::default()));
        assert!(matches!(
            d.xfm_compress(PageNumber::new(1), PAGE, RowId::new(1), Nanos::ZERO, true),
            Err(Error::Device(_))
        ));
        d.xfm_paramset(PhysAddr::new(0), ByteSize::from_gib(1))
            .unwrap();
        assert!(d
            .xfm_compress(PageNumber::new(1), PAGE, RowId::new(1), Nanos::ZERO, true)
            .is_ok());
    }

    #[test]
    fn paramset_rejects_empty_region() {
        let mut d = XfmDriver::new(NearMemoryAccelerator::new(NmaConfig::default()));
        assert!(d.xfm_paramset(PhysAddr::new(0), ByteSize::ZERO).is_err());
    }

    #[test]
    fn lazy_tracking_avoids_mmio_in_common_case() {
        let mut d = driver();
        let (reads_before, _) = d.mmio_counts();
        for p in 0..10 {
            d.xfm_compress(
                PageNumber::new(p),
                PAGE,
                RowId::new(p as u32),
                Nanos::ZERO,
                true,
            )
            .unwrap();
        }
        let (reads_after, _) = d.mmio_counts();
        assert_eq!(reads_after, reads_before, "no capacity reads while roomy");
        assert_eq!(d.capacity_syncs(), 0);
    }

    #[test]
    fn inferred_full_triggers_sync_then_fallback_error() {
        let mut d = XfmDriver::new(NearMemoryAccelerator::new(NmaConfig {
            spm_capacity: ByteSize::from_bytes(3 * 4160),
            ..NmaConfig::default()
        }));
        d.xfm_paramset(PhysAddr::new(0), ByteSize::from_gib(1))
            .unwrap();
        // Three incompressible pages, all read in window 0, fill the SPM
        // with their stored outputs.
        let raw = OffloadShare {
            input: 4096,
            output: 4160,
        };
        for p in 0..3 {
            let row = RowId::new(p as u32 * 8192);
            d.xfm_compress(PageNumber::new(p), raw, row, Nanos::ZERO, true)
                .unwrap();
        }
        let t_refi = d.device().config().timings.t_refi;
        assert!(d.poll(t_refi).is_empty());
        assert_eq!(d.device().spm_free(), ByteSize::ZERO);
        // Fourth submit: inferred full -> MMIO sync -> still full -> error.
        let err = d
            .xfm_compress(PageNumber::new(3), PAGE, RowId::new(3), t_refi, true)
            .unwrap_err();
        assert!(matches!(err, Error::SpmFull { .. }));
        assert_eq!(d.capacity_syncs(), 1);
    }

    #[test]
    fn poll_releases_inferred_reservations() {
        let mut d = driver();
        d.xfm_compress(PageNumber::new(5), PAGE, RowId::new(5), Nanos::ZERO, true)
            .unwrap();
        assert!(d.inferred_used().as_bytes() > 0);
        let events = d.poll(Nanos::from_ms(64));
        assert_eq!(events.len(), 1);
        assert_eq!(d.inferred_used().as_bytes(), 0);
    }

    #[test]
    fn two_offloads_of_one_page_release_both_reservations() {
        let mut d = driver();
        for row in [7, 8] {
            d.xfm_compress(PageNumber::new(7), PAGE, RowId::new(row), Nanos::ZERO, true)
                .unwrap();
        }
        assert_eq!(d.inferred_used().as_bytes(), 2 * 4160);
        let events = d.poll(Nanos::from_ms(200));
        assert_eq!(events.len(), 2);
        assert_eq!(d.device().spm_free(), d.device().config().spm_capacity);
        assert_eq!(d.inferred_used().as_bytes(), 0, "a reservation leaked");
    }

    #[test]
    fn inferred_is_upper_bound_of_truth() {
        let mut d = driver();
        for p in 0..4 {
            d.xfm_compress(
                PageNumber::new(p),
                PAGE,
                RowId::new(p as u32),
                Nanos::ZERO,
                true,
            )
            .unwrap();
        }
        let truth = d.device().config().spm_capacity.as_bytes() - d.device().spm_free().as_bytes();
        assert!(d.inferred_used().as_bytes() >= truth);
    }
}
