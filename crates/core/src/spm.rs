//! The ScratchPad Memory (SPM): XFM's on-accelerator staging buffer.
//!
//! Pages read from DRAM during a refresh window are compressed (or
//! decompressed) into the SPM with a *PENDING* tag; once the engine
//! finishes, the slot becomes *COMPLETED* and waits for a later refresh
//! window to be written back to DRAM (paper Fig. 10). The FPGA prototype
//! carries 2 MiB; the Fig. 12 sweep shows 8 MiB eliminates CPU fallbacks
//! at 3 accesses per `tRFC`.

use xfm_types::{ByteSize, Error, Result};

/// Lifecycle tag of one SPM slot (paper Fig. 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpmSlotState {
    /// Operation underway: space reserved, engine output not final yet.
    Pending,
    /// Engine output ready; waiting for a write-back window.
    Completed,
}

/// Identifier of a reserved SPM slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SlotId(u64);

#[derive(Debug, Clone)]
struct Slot {
    state: SpmSlotState,
    /// Bytes held: the reservation while PENDING, the engine's output
    /// once COMPLETED.
    reserved: usize,
}

/// The scratchpad memory.
///
/// # Examples
///
/// ```
/// use xfm_core::{Spm, SpmSlotState};
/// use xfm_types::ByteSize;
///
/// let mut spm = Spm::new(ByteSize::from_kib(8));
/// let slot = spm.reserve(4096)?;
/// spm.complete(slot, 3)?;
/// assert_eq!(spm.state(slot), Some(SpmSlotState::Completed));
/// assert_eq!(spm.release(slot)?, 3);
/// # Ok::<(), xfm_types::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct Spm {
    capacity: ByteSize,
    used: u64,
    high_water: u64,
    next_id: u64,
    /// Live slots by id, only ever looked up by key; the map keeps its
    /// largest size, so a warm scratchpad reserves without allocating.
    slots: crate::KeyedMap<u64, Slot>,
}

impl Spm {
    /// Creates an SPM of the given capacity.
    #[must_use]
    pub fn new(capacity: ByteSize) -> Self {
        Self {
            capacity,
            used: 0,
            high_water: 0,
            next_id: 0,
            slots: crate::KeyedMap::default(),
        }
    }

    /// Configured capacity.
    #[must_use]
    pub fn capacity(&self) -> ByteSize {
        self.capacity
    }

    /// Bytes currently reserved.
    #[must_use]
    pub fn used(&self) -> ByteSize {
        ByteSize::from_bytes(self.used)
    }

    /// Bytes currently free — the value the `SP_Capacity_Register`
    /// exposes over MMIO.
    #[must_use]
    pub fn free(&self) -> ByteSize {
        self.capacity.saturating_sub(self.used())
    }

    /// Highest occupancy ever observed.
    #[must_use]
    pub fn high_water(&self) -> ByteSize {
        ByteSize::from_bytes(self.high_water)
    }

    /// Reserves `bytes` for an in-flight operation (PENDING).
    ///
    /// # Errors
    ///
    /// Returns [`Error::SpmFull`] when the reservation does not fit; the
    /// caller must back-pressure the request queue (and ultimately fall
    /// back to the CPU).
    pub fn reserve(&mut self, bytes: usize) -> Result<SlotId> {
        if self.used + bytes as u64 > self.capacity.as_bytes() {
            return Err(Error::SpmFull {
                requested: bytes as u64,
                available: self.capacity.as_bytes() - self.used,
            });
        }
        self.used += bytes as u64;
        self.high_water = self.high_water.max(self.used);
        let id = self.next_id;
        self.next_id += 1;
        self.slots.insert(
            id,
            Slot {
                state: SpmSlotState::Pending,
                reserved: bytes,
            },
        );
        Ok(SlotId(id))
    }

    /// Marks a slot COMPLETED with the engine's `output` bytes. If the
    /// output is smaller than the reservation (compression!), the
    /// surplus is returned to the free pool immediately.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Device`] if the slot does not exist, is already
    /// completed, or the output exceeds the reservation.
    pub fn complete(&mut self, slot: SlotId, output: usize) -> Result<()> {
        let s = self
            .slots
            .get_mut(&slot.0)
            .ok_or_else(|| Error::Device(format!("no SPM slot {}", slot.0)))?;
        if s.state == SpmSlotState::Completed {
            return Err(Error::Device(format!(
                "SPM slot {} already completed",
                slot.0
            )));
        }
        if output > s.reserved {
            return Err(Error::Device(format!(
                "engine output {output} exceeds reservation {}",
                s.reserved
            )));
        }
        let surplus = (s.reserved - output) as u64;
        s.reserved = output;
        s.state = SpmSlotState::Completed;
        self.used -= surplus;
        Ok(())
    }

    /// Releases a COMPLETED slot (write-back done), returning the bytes
    /// it held.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Device`] if the slot does not exist or is still
    /// pending.
    pub fn release(&mut self, slot: SlotId) -> Result<usize> {
        match self.slots.get(&slot.0) {
            None => return Err(Error::Device(format!("no SPM slot {}", slot.0))),
            Some(s) if s.state == SpmSlotState::Pending => {
                return Err(Error::Device(format!("SPM slot {} still pending", slot.0)))
            }
            Some(_) => {}
        }
        let s = self.slots.remove(&slot.0).expect("slot checked above");
        self.used -= s.reserved as u64;
        Ok(s.reserved)
    }

    /// Cancels a PENDING reservation (op aborted), freeing its space.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Device`] if the slot does not exist.
    pub fn cancel(&mut self, slot: SlotId) -> Result<()> {
        let s = self
            .slots
            .remove(&slot.0)
            .ok_or_else(|| Error::Device(format!("no SPM slot {}", slot.0)))?;
        self.used -= s.reserved as u64;
        Ok(())
    }

    /// State of a slot, if it exists.
    #[must_use]
    pub fn state(&self, slot: SlotId) -> Option<SpmSlotState> {
        self.slots.get(&slot.0).map(|s| s.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spm() -> Spm {
        Spm::new(ByteSize::from_kib(8))
    }

    #[test]
    fn reserve_complete_release_cycle() {
        let mut s = spm();
        let slot = s.reserve(4096).unwrap();
        assert_eq!(s.used().as_bytes(), 4096);
        assert_eq!(s.state(slot), Some(SpmSlotState::Pending));
        s.complete(slot, 1000).unwrap();
        // Surplus reclaimed on completion.
        assert_eq!(s.used().as_bytes(), 1000);
        assert_eq!(s.release(slot).unwrap(), 1000);
        assert_eq!(s.used().as_bytes(), 0);
        assert_eq!(s.state(slot), None);
    }

    #[test]
    fn capacity_enforced() {
        let mut s = spm();
        s.reserve(4096).unwrap();
        s.reserve(4096).unwrap();
        let err = s.reserve(1).unwrap_err();
        assert!(matches!(err, Error::SpmFull { available: 0, .. }));
    }

    #[test]
    fn release_of_pending_slot_rejected() {
        let mut s = spm();
        let slot = s.reserve(100).unwrap();
        assert!(s.release(slot).is_err());
    }

    #[test]
    fn double_complete_rejected() {
        let mut s = spm();
        let slot = s.reserve(100).unwrap();
        s.complete(slot, 1).unwrap();
        assert!(s.complete(slot, 2).is_err());
    }

    #[test]
    fn oversized_output_rejected() {
        let mut s = spm();
        let slot = s.reserve(10).unwrap();
        assert!(s.complete(slot, 11).is_err());
    }

    #[test]
    fn cancel_frees_space() {
        let mut s = spm();
        let slot = s.reserve(8192).unwrap();
        s.cancel(slot).unwrap();
        assert_eq!(s.used().as_bytes(), 0);
        assert!(s.reserve(8192).is_ok());
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut s = spm();
        let a = s.reserve(3000).unwrap();
        let b = s.reserve(3000).unwrap();
        s.cancel(a).unwrap();
        s.cancel(b).unwrap();
        assert_eq!(s.high_water().as_bytes(), 6000);
        assert_eq!(s.used().as_bytes(), 0);
    }

    #[test]
    fn free_reflects_sp_capacity_register_semantics() {
        let mut s = spm();
        assert_eq!(s.free(), ByteSize::from_kib(8));
        s.reserve(1024).unwrap();
        assert_eq!(s.free().as_bytes(), 8192 - 1024);
    }
}
