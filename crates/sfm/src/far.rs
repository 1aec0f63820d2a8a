//! The [`FarMemory<T>`] smart-pointer client API.
//!
//! Applications hold a `FarMemory<T>` instead of a `T`. While the
//! value is resident it behaves like a mutex-guarded local object;
//! after [`FarMemory::evict`] the value lives only in the swap plane
//! (any [`SwapPlane`] — the compressed zpool, a modeled SSD, a
//! replicated remote pair, or a whole
//! [`TieredPlane`](crate::tier::TieredPlane) hierarchy), and the next access
//! **faults it back in** through the plane transparently. Dropping a
//! resident `FarMemory` writes the value back to the plane, so the
//! far copy is always the durable one.
//!
//! This is the Proxics/AIFM-style programming model reduced to its
//! core: deref-on-fault, explicit eviction, write-back on drop.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use xfm_event::ClockMirror;
//! use xfm_sfm::{FarMemory, MediaModel, ModeledPlane};
//! use xfm_types::PageNumber;
//!
//! let plane = Arc::new(ModeledPlane::new(
//!     "ssd", MediaModel::ssd(), 0, ClockMirror::new(),
//! ));
//! let far = FarMemory::new(plane, PageNumber::new(1), b"hello".to_vec());
//! far.evict()?; // value now lives only on the modeled SSD
//! assert!(!far.is_resident());
//! assert_eq!(&*far.get()?, b"hello"); // deref faults it back in
//! # Ok::<(), xfm_types::SwapError>(())
//! ```

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};
use xfm_types::{PageNumber, SwapResult, PAGE_SIZE};

use crate::backend::SwapPlane;

/// A value that serializes to exactly one 4 KiB page.
///
/// Payloads smaller than a page are padded; [`FarObject::to_page`]
/// must panic if the value cannot fit (smart pointers own one page).
pub trait FarObject: Send {
    /// Serializes the value into a `PAGE_SIZE`-byte buffer.
    fn to_page(&self) -> Vec<u8>;
    /// Reconstructs the value from a page produced by
    /// [`FarObject::to_page`].
    fn from_page(data: &[u8]) -> Self;
}

/// Length-prefixed bytes: up to `PAGE_SIZE - 8` of payload.
impl FarObject for Vec<u8> {
    fn to_page(&self) -> Vec<u8> {
        assert!(
            self.len() <= PAGE_SIZE - 8,
            "Vec<u8> of {} bytes exceeds one page",
            self.len()
        );
        let mut page = vec![0u8; PAGE_SIZE];
        page[..8].copy_from_slice(&(self.len() as u64).to_le_bytes());
        page[8..8 + self.len()].copy_from_slice(self);
        page
    }

    fn from_page(data: &[u8]) -> Self {
        let len = u64::from_le_bytes(data[..8].try_into().expect("page header")) as usize;
        data[8..8 + len].to_vec()
    }
}

/// UTF-8 text: up to `PAGE_SIZE - 8` encoded bytes.
impl FarObject for String {
    fn to_page(&self) -> Vec<u8> {
        self.as_bytes().to_vec().to_page()
    }

    fn from_page(data: &[u8]) -> Self {
        String::from_utf8(Vec::<u8>::from_page(data)).expect("stored page held valid UTF-8")
    }
}

/// Fixed-size byte blocks up to one full page, zero-padded.
impl<const N: usize> FarObject for [u8; N] {
    fn to_page(&self) -> Vec<u8> {
        assert!(N <= PAGE_SIZE, "[u8; {N}] exceeds one page");
        let mut page = vec![0u8; PAGE_SIZE];
        page[..N].copy_from_slice(self);
        page
    }

    fn from_page(data: &[u8]) -> Self {
        data[..N].try_into().expect("page shorter than N")
    }
}

/// A smart pointer whose pointee can live in far memory.
///
/// See the [module docs](self). All methods take `&self`; residency
/// is guarded by a mutex, so one `FarMemory` can be shared across
/// threads behind an `Arc`.
pub struct FarMemory<T: FarObject> {
    plane: Arc<dyn SwapPlane>,
    page: PageNumber,
    resident: Mutex<Option<T>>,
}

impl<T: FarObject> FarMemory<T> {
    /// Wraps `value`, resident, backed by `plane` under `page`.
    ///
    /// The page number is the object's identity on the plane; two live
    /// `FarMemory` values must not share one.
    #[must_use]
    pub fn new(plane: Arc<dyn SwapPlane>, page: PageNumber, value: T) -> Self {
        Self {
            plane,
            page,
            resident: Mutex::new(Some(value)),
        }
    }

    /// Adopts a value that already lives on the plane (not resident).
    #[must_use]
    pub fn from_far(plane: Arc<dyn SwapPlane>, page: PageNumber) -> Self {
        Self {
            plane,
            page,
            resident: Mutex::new(None),
        }
    }

    /// The page number identifying this object on the plane.
    #[must_use]
    pub fn page(&self) -> PageNumber {
        self.page
    }

    /// Whether the value is currently resident in local memory.
    #[must_use]
    pub fn is_resident(&self) -> bool {
        self.resident.lock().is_some()
    }

    /// Writes the value out to the plane and drops the local copy.
    /// A no-op if already evicted.
    ///
    /// # Errors
    ///
    /// Any swap-out failure from the plane; the value stays resident.
    pub fn evict(&self) -> SwapResult<()> {
        let mut slot = self.resident.lock();
        let Some(value) = slot.take() else {
            return Ok(());
        };
        match self.plane.swap_out(self.page, &value.to_page()) {
            Ok(_) => Ok(()),
            Err(e) => {
                *slot = Some(value);
                Err(e)
            }
        }
    }

    /// Immutable access, faulting the value in if evicted.
    ///
    /// # Errors
    ///
    /// Any swap-in failure from the plane (e.g. the page was never
    /// stored, or every replica is down).
    pub fn get(&self) -> SwapResult<FarGuard<'_, T>> {
        Ok(FarGuard {
            inner: self.fault_in()?,
        })
    }

    /// Mutable access, faulting the value in if evicted.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FarMemory::get`].
    pub fn get_mut(&self) -> SwapResult<FarGuardMut<'_, T>> {
        Ok(FarGuardMut {
            inner: self.fault_in()?,
        })
    }

    fn fault_in(&self) -> SwapResult<MutexGuard<'_, Option<T>>> {
        let mut slot = self.resident.lock();
        if slot.is_none() {
            // Demand fault: the application is stalled on this value.
            let (data, _) = self.plane.swap_in(self.page, false)?;
            *slot = Some(T::from_page(&data));
        }
        Ok(slot)
    }
}

impl<T: FarObject> Drop for FarMemory<T> {
    /// Best-effort write-back: a resident value is flushed to the
    /// plane so the far copy survives the pointer. Failures are
    /// swallowed — drop cannot report them.
    fn drop(&mut self) {
        if let Some(value) = self.resident.lock().take() {
            let _ = self.plane.swap_out(self.page, &value.to_page());
        }
    }
}

/// Immutable residency guard returned by [`FarMemory::get`].
pub struct FarGuard<'a, T: FarObject> {
    inner: MutexGuard<'a, Option<T>>,
}

impl<T: FarObject> std::fmt::Debug for FarGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FarGuard").finish_non_exhaustive()
    }
}

impl<T: FarObject> Deref for FarGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard holds a resident value")
    }
}

/// Mutable residency guard returned by [`FarMemory::get_mut`].
pub struct FarGuardMut<'a, T: FarObject> {
    inner: MutexGuard<'a, Option<T>>,
}

impl<T: FarObject> std::fmt::Debug for FarGuardMut<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FarGuardMut").finish_non_exhaustive()
    }
}

impl<T: FarObject> Deref for FarGuardMut<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard holds a resident value")
    }
}

impl<T: FarObject> DerefMut for FarGuardMut<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard holds a resident value")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modeled::{MediaModel, ModeledPlane};
    use xfm_event::ClockMirror;
    use xfm_types::Error;

    fn ssd() -> Arc<ModeledPlane> {
        Arc::new(ModeledPlane::new(
            "ssd",
            MediaModel::ssd(),
            0,
            ClockMirror::new(),
        ))
    }

    #[test]
    fn evict_and_fault_round_trip() {
        let plane = ssd();
        let far = FarMemory::new(plane.clone(), PageNumber::new(1), b"payload".to_vec());
        assert!(far.is_resident());
        far.evict().unwrap();
        assert!(!far.is_resident());
        assert!(plane.contains(PageNumber::new(1)));
        assert_eq!(&*far.get().unwrap(), b"payload");
        assert!(far.is_resident());
        assert!(
            !plane.contains(PageNumber::new(1)),
            "fault consumed the far copy"
        );
    }

    #[test]
    fn mutation_survives_eviction_cycles() {
        let far = FarMemory::new(ssd(), PageNumber::new(2), String::from("v0"));
        for round in 1..4 {
            far.get_mut().unwrap().push_str(&format!("+v{round}"));
            far.evict().unwrap();
        }
        assert_eq!(&*far.get().unwrap(), "v0+v1+v2+v3");
    }

    #[test]
    fn drop_writes_back() {
        let plane = ssd();
        {
            let far = FarMemory::new(plane.clone(), PageNumber::new(3), [7u8; 64]);
            assert!(far.is_resident());
        }
        assert!(plane.contains(PageNumber::new(3)), "drop flushed the value");
        let adopted: FarMemory<[u8; 64]> = FarMemory::from_far(plane, PageNumber::new(3));
        assert_eq!(*adopted.get().unwrap(), [7u8; 64]);
    }

    #[test]
    fn double_evict_is_noop_and_missing_fault_errors() {
        let far: FarMemory<Vec<u8>> = FarMemory::from_far(ssd(), PageNumber::new(4));
        far.evict().unwrap();
        let err = far.get().unwrap_err();
        assert!(matches!(err.cause(), Error::EntryNotFound { .. }));
    }

    #[test]
    fn evicted_drop_does_not_duplicate() {
        let plane = ssd();
        {
            let far = FarMemory::new(plane.clone(), PageNumber::new(5), b"x".to_vec());
            far.evict().unwrap();
        }
        // Dropped while evicted: exactly the one stored copy remains.
        assert_eq!(plane.len(), 1);
    }
}
