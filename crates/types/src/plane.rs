//! Tier/plane identity for the multi-backend swap fabric.
//!
//! A tiered far-memory system composes several swap planes — the
//! compressed local zpool, a modeled SSD, one or more remote nodes —
//! behind one surface. [`PlaneId`] names an individual plane instance
//! (stable across the run, used in error annotations and telemetry),
//! and [`PlacementClass`] names the *kind* of media a page landed on,
//! which is what demotion policy and latency accounting care about.

use core::fmt;

/// Stable identity of one swap plane inside a tiered composition.
///
/// Ids are assigned by the composing layer (tier 0 = hottest) and are
/// threaded through [`SwapError`](crate::SwapError) annotations and
/// lifecycle telemetry so a failure or demotion can always be traced
/// to the plane it happened on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PlaneId(u32);

impl PlaneId {
    /// Builds a plane id from its tier index.
    #[must_use]
    pub const fn new(id: u32) -> Self {
        Self(id)
    }

    /// The raw tier index.
    #[must_use]
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for PlaneId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "plane{}", self.0)
    }
}

crate::wire_enum! {
    /// The kind of media a swap plane models.
    ///
    /// Ordering is by distance from the CPU: `CompressedLocal` (DRAM
    /// zpool) is the hottest far-memory class, `Ssd` sits behind it, and
    /// `Remote` (network-attached memory) is the coldest. The class drives
    /// demotion direction and its code is recorded in lifecycle events
    /// (packed into the `aux` word next to the plane id).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
    #[non_exhaustive]
    pub enum PlacementClass (code, from_code) {
        /// Compressed pages in local DRAM (the classic zswap/zpool tier).
        CompressedLocal = "compressed_local",
        /// A local solid-state drive, latency/bandwidth modeled.
        Ssd = "ssd",
        /// Memory on a remote node reached over the fabric.
        Remote = "remote",
    }
}

impl fmt::Display for PlacementClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plane_id_round_trips() {
        let id = PlaneId::new(3);
        assert_eq!(id.as_u32(), 3);
        assert_eq!(id.to_string(), "plane3");
    }

    /// The codes tier moves pack into `aux`, and the names exports use.
    #[test]
    fn placement_codes_round_trip() {
        use PlacementClass::*;
        for (class, code, name) in [
            (CompressedLocal, 0, "compressed_local"),
            (Ssd, 1, "ssd"),
            (Remote, 2, "remote"),
        ] {
            assert_eq!((class.code(), class.name()), (code, name));
            assert_eq!(PlacementClass::from_code(code), Some(class));
        }
        assert_eq!(PlacementClass::from_code(3), None);
    }

    #[test]
    fn placement_orders_by_distance() {
        assert!(PlacementClass::CompressedLocal < PlacementClass::Ssd);
        assert!(PlacementClass::Ssd < PlacementClass::Remote);
    }
}
