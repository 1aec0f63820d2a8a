//! The MMIO register file and the offload direction.
//!
//! The `XFM_Driver` communicates with the DIMM through memory-mapped
//! registers (paper §6): `SP_Capacity_Register` exposes free SPM bytes,
//! configuration registers carry the SFM region geometry set by
//! `xfm_paramset()`, and offload requests are pushed into the
//! `Compress_Request_Queue` with an MMIO doorbell write (the queue's
//! depth is [`crate::nma::NmaConfig::queue_capacity`], the device's
//! in-flight limit). Every MMIO operation is counted — the backend's
//! *lazy* occupancy inference exists precisely to keep these counts low
//! in the common case.

use xfm_types::{Error, Result};

/// Register addresses in the XFM MMIO window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reg {
    /// Free SPM bytes (read-only).
    SpCapacity,
    /// SFM region base physical address.
    SfmRegionBase,
    /// SFM region size in bytes.
    SfmRegionSize,
    /// Control bits (bit 0: enable).
    Ctrl,
    /// Status bits (bit 0: queue non-empty, bit 1: SPM full).
    Status,
}

/// Direction of an offloaded operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OffloadKind {
    /// Compress a cold page into the SFM region.
    Compress,
    /// Decompress a page out of the SFM region (prefetch path).
    Decompress,
}

/// The MMIO register file with operation counting.
///
/// # Examples
///
/// ```
/// use xfm_core::{Reg, RegisterFile};
///
/// let mut regs = RegisterFile::new();
/// regs.write(Reg::SfmRegionSize, 1 << 30)?;
/// assert_eq!(regs.read(Reg::SfmRegionSize), 1 << 30);
/// assert_eq!(regs.mmio_reads(), 1);
/// assert_eq!(regs.mmio_writes(), 1);
/// # Ok::<(), xfm_types::Error>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct RegisterFile {
    sp_capacity: u64,
    sfm_region_base: u64,
    sfm_region_size: u64,
    ctrl: u64,
    status: u64,
    reads: u64,
    writes: u64,
}

impl RegisterFile {
    /// Creates a zeroed register file.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// MMIO read (counted).
    pub fn read(&mut self, reg: Reg) -> u64 {
        self.reads += 1;
        match reg {
            Reg::SpCapacity => self.sp_capacity,
            Reg::SfmRegionBase => self.sfm_region_base,
            Reg::SfmRegionSize => self.sfm_region_size,
            Reg::Ctrl => self.ctrl,
            Reg::Status => self.status,
        }
    }

    /// MMIO write (counted).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Device`] when writing a read-only register.
    pub fn write(&mut self, reg: Reg, value: u64) -> Result<()> {
        self.writes += 1;
        match reg {
            Reg::SpCapacity | Reg::Status => {
                return Err(Error::Device(format!("register {reg:?} is read-only")))
            }
            Reg::SfmRegionBase => self.sfm_region_base = value,
            Reg::SfmRegionSize => self.sfm_region_size = value,
            Reg::Ctrl => self.ctrl = value,
        }
        Ok(())
    }

    /// Device-side update of `SP_Capacity` (not an MMIO op).
    pub fn set_sp_capacity(&mut self, free_bytes: u64) {
        self.sp_capacity = free_bytes;
    }

    /// Device-side update of `Status` (not an MMIO op).
    pub fn set_status(&mut self, queue_nonempty: bool, spm_full: bool) {
        self.status = u64::from(queue_nonempty) | (u64::from(spm_full) << 1);
    }

    /// Total MMIO reads performed.
    #[must_use]
    pub fn mmio_reads(&self) -> u64 {
        self.reads
    }

    /// Total MMIO writes performed.
    #[must_use]
    pub fn mmio_writes(&self) -> u64 {
        self.writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_round_trip_and_counting() {
        let mut r = RegisterFile::new();
        r.write(Reg::SfmRegionBase, 0x4000).unwrap();
        r.write(Reg::SfmRegionSize, 0x1000).unwrap();
        assert_eq!(r.read(Reg::SfmRegionBase), 0x4000);
        assert_eq!(r.read(Reg::SfmRegionSize), 0x1000);
        assert_eq!(r.mmio_writes(), 2);
        assert_eq!(r.mmio_reads(), 2);
    }

    #[test]
    fn read_only_registers_reject_writes() {
        let mut r = RegisterFile::new();
        assert!(r.write(Reg::SpCapacity, 1).is_err());
        assert!(r.write(Reg::Status, 1).is_err());
    }

    #[test]
    fn device_side_updates_are_not_mmio() {
        let mut r = RegisterFile::new();
        r.set_sp_capacity(12345);
        r.set_status(true, false);
        assert_eq!(r.mmio_reads() + r.mmio_writes(), 0);
        assert_eq!(r.read(Reg::SpCapacity), 12345);
        assert_eq!(r.read(Reg::Status), 0b01);
    }
}
