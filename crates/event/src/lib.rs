//! The shared virtual-time mirror of the XFM reproduction.
//!
//! A simulated component owns its own time and publishes it to a
//! [`ClockMirror`]; telemetry (lifecycle events stamp `virt_ns` from
//! it), the modeled media planes and the frozen benchmark read it from
//! any thread. The crate holds nothing else: every timing layer steps
//! its own plain loop (the Fig. 12 simulation one refresh window at a
//! time, the NMA between window closes and engine completions).
//!
//! # Example
//!
//! ```
//! use xfm_event::ClockMirror;
//! use xfm_types::Nanos;
//!
//! let mirror = ClockMirror::new();
//! let observer = mirror.clone();
//! mirror.publish(Nanos::from_us(3));
//! assert_eq!(observer.now_ns(), 3_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use xfm_types::Nanos;

/// A shared, lock-free view of one driver's virtual time.
///
/// The driver calls [`ClockMirror::publish`] after advancing; any number
/// of observer threads read [`ClockMirror::now_ns`] with a single relaxed
/// atomic load. The mirror is monotonic: publishing an earlier time than
/// already published is a no-op, so out-of-order observations can never
/// rewind simulated time.
///
/// # Examples
///
/// ```
/// use xfm_event::ClockMirror;
/// use xfm_types::Nanos;
///
/// let mirror = ClockMirror::new();
/// mirror.publish(Nanos::from_us(3));
/// mirror.publish(Nanos::from_us(1)); // ignored: the mirror is monotonic
/// assert_eq!(mirror.now(), Nanos::from_us(3));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ClockMirror {
    ns: Arc<AtomicU64>,
}

impl ClockMirror {
    /// A mirror at time zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Publish `now` to all observers (monotonic: earlier times are
    /// ignored).
    pub fn publish(&self, now: Nanos) {
        self.ns.fetch_max(now.as_ns(), Ordering::Relaxed);
    }

    /// The most recently published virtual time, in nanoseconds.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    /// The most recently published virtual time.
    #[must_use]
    pub fn now(&self) -> Nanos {
        Nanos::from_ns(self.now_ns())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let m = ClockMirror::new();
        m.publish(Nanos::from_ns(50));
        m.publish(Nanos::from_ns(10)); // ignored
        assert_eq!(m.now(), Nanos::from_ns(50));
    }

    #[test]
    fn clock_mirror_is_monotonic_and_shared() {
        let m = ClockMirror::new();
        let m2 = m.clone();
        m.publish(Nanos::from_ns(40));
        m.publish(Nanos::from_ns(10)); // ignored: mirror is monotonic
        assert_eq!(m2.now_ns(), 40);
        assert_eq!(m2.now(), Nanos::from_ns(40));
        m2.publish(Nanos::from_ns(90));
        assert_eq!(m.now_ns(), 90);
    }
}
