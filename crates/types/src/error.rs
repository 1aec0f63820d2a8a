//! The shared error type for the XFM workspace.

use core::fmt;

/// Convenience alias for `Result` with the workspace [`Error`].
pub type Result<T> = core::result::Result<T, Error>;

/// Errors produced by the XFM stack.
///
/// # Examples
///
/// ```
/// use xfm_types::Error;
///
/// let e = Error::SpmFull {
///     requested: 4096,
///     available: 1024,
/// };
/// assert_eq!(
///     e.to_string(),
///     "scratchpad memory full: requested 4096 bytes, 1024 available"
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// The NMA scratchpad memory cannot hold the staged data.
    SpmFull {
        /// Bytes the operation needed.
        requested: u64,
        /// Bytes actually free.
        available: u64,
    },
    /// The compress request queue is full; the caller must fall back to CPU.
    QueueFull,
    /// The SFM region has no room for another compressed page.
    SfmRegionFull,
    /// No SFM entry exists for the requested page.
    EntryNotFound {
        /// Index of the page that was looked up.
        page: u64,
    },
    /// An entry for this page already exists in the SFM.
    EntryExists {
        /// Index of the page that collided.
        page: u64,
    },
    /// Compressed data failed validation during decompression.
    Corrupt(String),
    /// A stored block's checksum did not match at load time (in-transit
    /// corruption); the stored copy is still intact, so a re-read may
    /// succeed.
    ChecksumMismatch {
        /// Index of the page whose block failed verification.
        page: u64,
        /// Checksum recorded at store time.
        expected: u64,
        /// Checksum computed over the fetched bytes.
        got: u64,
    },
    /// The compressed output would not fit the provided buffer.
    OutputTooSmall {
        /// Bytes needed.
        needed: usize,
        /// Capacity of the destination buffer.
        capacity: usize,
    },
    /// Data did not shrink under compression; callers should store it raw.
    Incompressible,
    /// A configuration parameter is invalid.
    InvalidConfig(String),
    /// The device (register file) rejected an operation.
    Device(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::SpmFull {
                requested,
                available,
            } => write!(
                f,
                "scratchpad memory full: requested {requested} bytes, {available} available"
            ),
            Error::QueueFull => write!(f, "compress request queue full"),
            Error::SfmRegionFull => write!(f, "SFM region has no free space"),
            Error::EntryNotFound { page } => write!(f, "no SFM entry for page {page}"),
            Error::EntryExists { page } => write!(f, "SFM entry for page {page} already exists"),
            Error::Corrupt(msg) => write!(f, "corrupt compressed data: {msg}"),
            Error::ChecksumMismatch {
                page,
                expected,
                got,
            } => write!(
                f,
                "checksum mismatch for page {page}: stored {expected:#018x}, fetched {got:#018x}"
            ),
            Error::OutputTooSmall { needed, capacity } => write!(
                f,
                "output buffer too small: need {needed} bytes, have {capacity}"
            ),
            Error::Incompressible => write!(f, "data is incompressible"),
            Error::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Error::Device(msg) => write!(f, "device error: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_concise() {
        let cases: Vec<Error> = vec![
            Error::QueueFull,
            Error::SfmRegionFull,
            Error::EntryNotFound { page: 3 },
            Error::EntryExists { page: 3 },
            Error::Corrupt("bad length".into()),
            Error::ChecksumMismatch {
                page: 7,
                expected: 1,
                got: 2,
            },
            Error::OutputTooSmall {
                needed: 10,
                capacity: 5,
            },
            Error::Incompressible,
            Error::InvalidConfig("x".into()),
            Error::Device("nak".into()),
        ];
        for e in cases {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(!msg.ends_with('.'), "no trailing punctuation: {msg}");
            // Lowercase per C-GOOD-ERR, except acronyms like "SFM"/"DRAM".
            let first_word = msg.split_whitespace().next().unwrap();
            let acronym = first_word.chars().all(|c| c.is_uppercase());
            let first = msg.chars().next().unwrap();
            assert!(
                first.is_lowercase() || first.is_numeric() || acronym,
                "{msg}"
            );
        }
    }

    #[test]
    fn error_is_send_sync_static() {
        fn assert_bounds<T: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<Error>();
    }
}
