//! Structured swap-path errors: where a failure originated and whether
//! retrying can help.
//!
//! The plain [`Error`] enum is a catch-all: a caller seeing `QueueFull`
//! versus `EntryExists` must hard-code knowledge of which variants are
//! transient. [`SwapError`] makes that classification part of the
//! contract — every swap-path failure carries its origin [`SwapSite`]
//! and a `retryable` verdict, so recovery layers can retry transient
//! rejects (queue full, SPM pressure, in-transit corruption) and fall
//! back or surface permanent ones without a fragile `match`.

use core::fmt;

use crate::error::Error;
use crate::plane::PlaneId;

/// Convenience alias for swap-path results.
pub type SwapResult<T> = core::result::Result<T, SwapError>;

/// Where on the swap path a failure originated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum SwapSite {
    /// Host-side submission: argument validation, duplicate entries.
    HostSubmit,
    /// The NMA compress-request queue.
    NmaQueue,
    /// The NMA scratchpad memory.
    Spm,
    /// The NMA (de)compression engine.
    NmaEngine,
    /// Refresh-window scheduling (missed or starved windows).
    RefreshWindow,
    /// The zpool slab allocator.
    Zpool,
    /// The SFM entry table.
    EntryTable,
    /// The software codec.
    Codec,
    /// Stored-block checksum verification at load time.
    Checksum,
    /// The modeled storage/network media of an SSD or remote plane.
    Media,
    /// The replication layer spanning two remote planes.
    Replica,
}

impl SwapSite {
    /// Stable lowercase name (used in exposition and logs).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            SwapSite::HostSubmit => "host_submit",
            SwapSite::NmaQueue => "nma_queue",
            SwapSite::Spm => "spm",
            SwapSite::NmaEngine => "nma_engine",
            SwapSite::RefreshWindow => "refresh_window",
            SwapSite::Zpool => "zpool",
            SwapSite::EntryTable => "entry_table",
            SwapSite::Codec => "codec",
            SwapSite::Checksum => "checksum",
            SwapSite::Media => "media",
            SwapSite::Replica => "replica",
        }
    }
}

/// A swap-path failure with its origin and retryability.
///
/// `retryable == true` means the condition is transient: the same
/// operation, re-submitted after backing off (letting refresh windows
/// drain the queue, the SPM free slots, or a clean re-read of the
/// stored block), may succeed. `retryable == false` means the caller
/// must fall back (CPU path), reject cleanly, or surface the error.
///
/// # Examples
///
/// ```
/// use xfm_types::{Error, SwapError, SwapSite};
///
/// let e = SwapError::from(Error::QueueFull);
/// assert_eq!(e.site, SwapSite::NmaQueue);
/// assert!(e.retryable);
/// // Compatibility: a SwapError collapses back to its cause.
/// assert_eq!(Error::from(e), Error::QueueFull);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct SwapError {
    /// Where the failure originated.
    pub site: SwapSite,
    /// The underlying error.
    pub cause: Error,
    /// Whether re-submitting the same operation may succeed.
    pub retryable: bool,
    /// The tier/plane the failure originated on, when the failing layer
    /// is part of a tiered composition (`None` for standalone planes).
    pub plane: Option<PlaneId>,
}

impl SwapError {
    /// Builds a swap error at `site`, classifying retryability from the
    /// cause (see [`SwapError::from`] for the default mapping).
    #[must_use]
    pub fn new(site: SwapSite, cause: Error) -> Self {
        let retryable = default_retryable(&cause);
        Self {
            site,
            cause,
            retryable,
            plane: None,
        }
    }

    /// Overrides the retryability verdict.
    #[must_use]
    pub fn with_retryable(mut self, retryable: bool) -> Self {
        self.retryable = retryable;
        self
    }

    /// Annotates the error with the tier/plane it originated on.
    #[must_use]
    pub fn with_plane(mut self, plane: PlaneId) -> Self {
        self.plane = Some(plane);
        self
    }

    /// Where the failure originated.
    ///
    /// Prefer this accessor over the public field in `match` guards:
    /// `SwapError` is `#[non_exhaustive]`, so accessors keep callers
    /// compiling as the struct grows.
    #[must_use]
    pub fn site(&self) -> SwapSite {
        self.site
    }

    /// The underlying error.
    #[must_use]
    pub fn cause(&self) -> &Error {
        &self.cause
    }

    /// Whether re-submitting the same operation *to the same plane* may
    /// succeed.
    #[must_use]
    pub fn is_retryable(&self) -> bool {
        self.retryable
    }

    /// The tier/plane the failure originated on, if known.
    #[must_use]
    pub fn plane(&self) -> Option<PlaneId> {
        self.plane
    }

    /// Whether the failed operation could plausibly succeed if re-issued
    /// against a *different* tier.
    ///
    /// This is the placement-spill predicate: capacity pressure
    /// (`SfmRegionFull`, `SpmFull`), queue rejection (`QueueFull`), and
    /// a dead device are all local to the plane that reported them —
    /// another tier may well accept the page. Logical failures
    /// (`EntryExists`, `EntryNotFound`, corrupt payloads, bad config)
    /// would fail identically everywhere.
    #[must_use]
    pub fn is_retryable_on_other_tier(&self) -> bool {
        matches!(
            self.cause,
            Error::SfmRegionFull | Error::SpmFull { .. } | Error::QueueFull | Error::Device(_)
        )
    }

    /// Whether the failure is capacity exhaustion on the reporting plane.
    #[must_use]
    pub fn is_capacity(&self) -> bool {
        matches!(self.cause, Error::SfmRegionFull | Error::SpmFull { .. })
    }

    /// Whether the failure is data corruption (stored or in transit).
    #[must_use]
    pub fn is_corruption(&self) -> bool {
        matches!(
            self.cause,
            Error::ChecksumMismatch { .. } | Error::Corrupt(_)
        )
    }
}

impl fmt::Display for SwapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at {} ({})",
            self.cause,
            self.site.name(),
            if self.retryable {
                "retryable"
            } else {
                "permanent"
            }
        )?;
        if let Some(plane) = self.plane {
            write!(f, " on {plane}")?;
        }
        Ok(())
    }
}

impl std::error::Error for SwapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.cause)
    }
}

/// The default retryability of each error kind: resource pressure the
/// device drains over time and in-transit corruption are transient;
/// everything else is permanent.
fn default_retryable(cause: &Error) -> bool {
    matches!(
        cause,
        Error::SpmFull { .. } | Error::QueueFull | Error::ChecksumMismatch { .. }
    )
}

impl From<Error> for SwapError {
    /// Classifies a plain error into the site it canonically originates
    /// from. Sites the mapping cannot infer (e.g. a `Device` error from
    /// any register file) land on coarse buckets; hook code that knows
    /// better should construct via [`SwapError::new`].
    fn from(cause: Error) -> Self {
        let site = match &cause {
            Error::SpmFull { .. } => SwapSite::Spm,
            Error::QueueFull => SwapSite::NmaQueue,
            Error::SfmRegionFull => SwapSite::Zpool,
            Error::EntryNotFound { .. } | Error::EntryExists { .. } => SwapSite::EntryTable,
            Error::ChecksumMismatch { .. } => SwapSite::Checksum,
            Error::Corrupt(_) | Error::OutputTooSmall { .. } | Error::Incompressible => {
                SwapSite::Codec
            }
            Error::InvalidConfig(_) => SwapSite::HostSubmit,
            Error::Device(_) => SwapSite::NmaEngine,
        };
        SwapError::new(site, cause)
    }
}

impl From<SwapError> for Error {
    /// Compatibility collapse: drops the site/retryability annotation.
    fn from(e: SwapError) -> Self {
        e.cause
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_causes_are_retryable() {
        for cause in [
            Error::QueueFull,
            Error::SpmFull {
                requested: 4096,
                available: 0,
            },
            Error::ChecksumMismatch {
                page: 1,
                expected: 2,
                got: 3,
            },
        ] {
            assert!(SwapError::from(cause.clone()).retryable, "{cause}");
        }
    }

    #[test]
    fn permanent_causes_are_not_retryable() {
        for cause in [
            Error::SfmRegionFull,
            Error::EntryExists { page: 1 },
            Error::EntryNotFound { page: 1 },
            Error::Corrupt("x".into()),
            Error::InvalidConfig("x".into()),
            Error::Device("nak".into()),
        ] {
            assert!(!SwapError::from(cause.clone()).retryable, "{cause}");
        }
    }

    #[test]
    fn sites_classify_canonically() {
        assert_eq!(SwapError::from(Error::QueueFull).site, SwapSite::NmaQueue);
        assert_eq!(SwapError::from(Error::SfmRegionFull).site, SwapSite::Zpool);
        assert_eq!(
            SwapError::from(Error::EntryExists { page: 9 }).site,
            SwapSite::EntryTable
        );
        assert_eq!(
            SwapError::from(Error::Corrupt("len".into())).site,
            SwapSite::Codec
        );
    }

    #[test]
    fn round_trips_to_plain_error() {
        let e = SwapError::new(SwapSite::Checksum, Error::QueueFull).with_retryable(false);
        assert!(!e.retryable);
        assert_eq!(Error::from(e), Error::QueueFull);
    }

    #[test]
    fn display_carries_site_and_verdict() {
        let e = SwapError::from(Error::QueueFull);
        let msg = e.to_string();
        assert!(msg.contains("nma_queue"), "{msg}");
        assert!(msg.contains("retryable"), "{msg}");
        assert!(!msg.ends_with('.'), "{msg}");
    }

    #[test]
    fn swap_error_is_send_sync_static() {
        fn assert_bounds<T: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<SwapError>();
    }

    #[test]
    fn plane_annotation_threads_through() {
        let e = SwapError::from(Error::SfmRegionFull).with_plane(PlaneId::new(2));
        assert_eq!(e.plane(), Some(PlaneId::new(2)));
        assert!(e.to_string().contains("plane2"), "{e}");
        // Un-annotated errors stay silent about planes.
        assert_eq!(SwapError::from(Error::QueueFull).plane(), None);
    }

    #[test]
    fn cross_tier_retry_verdicts() {
        // Capacity and device pressure are local to one plane.
        for cause in [
            Error::SfmRegionFull,
            Error::SpmFull {
                requested: 4096,
                available: 0,
            },
            Error::QueueFull,
            Error::Device("dead".into()),
        ] {
            assert!(
                SwapError::from(cause.clone()).is_retryable_on_other_tier(),
                "{cause}"
            );
        }
        // Logical failures would fail identically on any tier.
        for cause in [
            Error::EntryExists { page: 1 },
            Error::EntryNotFound { page: 1 },
            Error::Corrupt("x".into()),
            Error::InvalidConfig("x".into()),
        ] {
            assert!(
                !SwapError::from(cause.clone()).is_retryable_on_other_tier(),
                "{cause}"
            );
        }
    }

    #[test]
    fn capacity_and_corruption_classifiers() {
        assert!(SwapError::from(Error::SfmRegionFull).is_capacity());
        assert!(!SwapError::from(Error::QueueFull).is_capacity());
        assert!(SwapError::from(Error::ChecksumMismatch {
            page: 1,
            expected: 2,
            got: 3,
        })
        .is_corruption());
        assert!(SwapError::from(Error::Corrupt("len".into())).is_corruption());
        assert!(!SwapError::from(Error::SfmRegionFull).is_corruption());
    }
}
