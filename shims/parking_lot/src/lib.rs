//! Offline shim for `parking_lot`.
//!
//! Wraps `std::sync` primitives behind the `parking_lot` API surface the
//! workspace uses (`Mutex::lock` without poisoning, `into_inner`,
//! `RwLock`, and the non-blocking `try_*` forms returning `Option`). See
//! `shims/README.md` for why these exist.

use std::sync::{PoisonError, TryLockError, TryLockResult};

/// A non-blocking attempt's guard: poisoning ignored, `None` when the
/// lock is held elsewhere.
fn unless_blocked<G>(attempt: TryLockResult<G>) -> Option<G> {
    match attempt {
        Ok(guard) => Some(guard),
        Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

/// A mutex whose `lock` never returns a poison error (parking_lot
/// semantics: poisoning is ignored and the data is handed back).
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// Guard returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Self {
        Self(std::sync::Mutex::new(value))
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, ignoring poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquires the lock if no other thread holds it, ignoring
    /// poisoning.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        unless_blocked(self.0.try_lock())
    }
}

/// A reader-writer lock with poison-free accessors.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

/// Guard returned by [`RwLock::read`].
pub type RwLockReadGuard<'a, T> = std::sync::RwLockReadGuard<'a, T>;
/// Guard returned by [`RwLock::write`].
pub type RwLockWriteGuard<'a, T> = std::sync::RwLockWriteGuard<'a, T>;

impl<T> RwLock<T> {
    /// Creates a new reader-writer lock.
    pub const fn new(value: T) -> Self {
        Self(std::sync::RwLock::new(value))
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires a shared read lock, ignoring poisoning.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquires an exclusive write lock, ignoring poisoning.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquires a shared read lock if that needs no wait, ignoring
    /// poisoning.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        unless_blocked(self.0.try_read())
    }

    /// Acquires an exclusive write lock if that needs no wait, ignoring
    /// poisoning.
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        unless_blocked(self.0.try_write())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_lock_and_into_inner() {
        let m = Mutex::new(41);
        *m.lock() += 1;
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn rwlock_read_write() {
        let l = RwLock::new(vec![1, 2]);
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
        assert_eq!(l.into_inner(), vec![1, 2, 3]);
    }

    #[test]
    fn try_forms_fail_only_against_a_conflicting_holder() {
        let m = Mutex::new(0);
        let held = m.lock();
        assert!(m.try_lock().is_none());
        drop(held);
        assert!(m.try_lock().is_some());

        let l = RwLock::new(0);
        let reader = l.read();
        assert!(l.try_read().is_some(), "readers share");
        assert!(l.try_write().is_none());
        drop(reader);
        let writer = l.try_write().expect("free");
        assert!(l.try_read().is_none());
        drop(writer);
    }
}
