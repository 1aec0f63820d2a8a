//! The SFM entry table.
//!
//! Maps swapped-out page numbers to their compressed storage. The paper's
//! `xfm_swap_out()` "performs a lookup in an internal red-black tree to
//! find the associated physical address of the compressed page entry";
//! Rust's `BTreeMap` plays that role here. Private to the crate: only
//! [`crate::store::PageStore`] pairs a table with a zpool.

use std::collections::BTreeMap;

use xfm_types::{Error, PageNumber, Result, TenantId};

use xfm_compress::CodecKind;

use crate::backend::merge_usage;
use crate::store::Owner;
use crate::zpool::Handle;

/// Metadata for one compressed page resident in the SFM.
#[derive(Debug, Clone)]
pub struct SfmEntry {
    /// Location in the zpool.
    pub handle: Handle,
    /// Compressed length in bytes.
    pub compressed_len: u32,
    /// Codec used (or [`CodecKind::Raw`] for incompressible pages).
    pub codec: CodecKind,
    /// XXH64 checksum of the stored bytes, computed at swap-out and
    /// verified at swap-in so in-transit corruption surfaces as a
    /// retryable [`Error::ChecksumMismatch`] instead of a garbage page.
    pub checksum: u64,
    /// Whose account holds this entry's compressed bytes: the
    /// accounting is debited back to this owner when the entry is
    /// consumed, regardless of who issues the swap-in.
    pub owner: Owner,
    /// The store's sequence number for this block, unique per store.
    pub seq: u64,
}

/// Ordered page-number → entry map.
#[derive(Debug, Clone, Default)]
pub struct SfmTable {
    entries: BTreeMap<u64, SfmEntry>,
}

impl SfmTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts an entry for `page`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EntryExists`] if the page is already swapped out —
    /// the backend must never double-compress a page.
    pub fn insert(&mut self, page: PageNumber, entry: SfmEntry) -> Result<()> {
        if self.entries.contains_key(&page.index()) {
            return Err(Error::EntryExists { page: page.index() });
        }
        self.entries.insert(page.index(), entry);
        Ok(())
    }

    /// Looks up the entry for `page`.
    #[must_use]
    pub fn get(&self, page: PageNumber) -> Option<&SfmEntry> {
        self.entries.get(&page.index())
    }

    /// Removes and returns the entry for `page`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EntryNotFound`] if the page is not in the SFM.
    pub fn remove(&mut self, page: PageNumber) -> Result<SfmEntry> {
        self.entries
            .remove(&page.index())
            .ok_or(Error::EntryNotFound { page: page.index() })
    }

    /// Whether `page` is currently swapped out.
    #[must_use]
    pub fn contains(&self, page: PageNumber) -> bool {
        self.entries.contains_key(&page.index())
    }

    /// Number of swapped-out pages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sum of compressed lengths grouped by owning tenant, sorted by
    /// tenant id. Derived from the resident entries, so it can neither
    /// leak nor double-count: an entry either exists (billed to its
    /// owner) or it does not.
    #[must_use]
    pub fn tenant_bytes(&self) -> Vec<(TenantId, u64)> {
        let blocks = self.entries.values();
        merge_usage(blocks.map(|e| (e.owner.tenant, u64::from(e.compressed_len))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xfm_types::ByteSize;

    fn entry(len: u32) -> SfmEntry {
        // Handles here are synthetic: table tests don't need a real pool.
        let mut pool = crate::zpool::Zpool::new(ByteSize::from_mib(1));
        let data = vec![0u8; len as usize];
        let handle = pool.alloc(&data).unwrap();
        SfmEntry {
            handle,
            compressed_len: len,
            codec: CodecKind::XDeflate,
            checksum: xfm_faults::checksum(&data),
            owner: Owner::new(TenantId::SYSTEM, None),
            seq: 0,
        }
    }

    #[test]
    fn insert_get_remove() {
        let mut t = SfmTable::new();
        t.insert(PageNumber::new(1), entry(128)).unwrap();
        assert!(t.contains(PageNumber::new(1)));
        assert_eq!(t.get(PageNumber::new(1)).unwrap().compressed_len, 128);
        let e = t.remove(PageNumber::new(1)).unwrap();
        assert_eq!(e.compressed_len, 128);
        assert!(t.is_empty());
    }

    #[test]
    fn double_insert_rejected() {
        let mut t = SfmTable::new();
        t.insert(PageNumber::new(5), entry(64)).unwrap();
        assert!(matches!(
            t.insert(PageNumber::new(5), entry(64)),
            Err(Error::EntryExists { page: 5 })
        ));
    }

    #[test]
    fn remove_missing_rejected() {
        let mut t = SfmTable::new();
        assert!(matches!(
            t.remove(PageNumber::new(9)),
            Err(Error::EntryNotFound { page: 9 })
        ));
    }

    #[test]
    fn byte_accounting() {
        let mut t = SfmTable::new();
        t.insert(PageNumber::new(1), entry(1000)).unwrap();
        t.insert(PageNumber::new(2), entry(500)).unwrap();
        assert_eq!(t.tenant_bytes(), vec![(TenantId::SYSTEM, 1500)]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn tenant_bytes_groups_by_owner() {
        let mut t = SfmTable::new();
        for (p, tenant, len) in [(1u64, 1u16, 100u32), (2, 2, 50), (3, 1, 25)] {
            let mut e = entry(len);
            e.owner = Owner::new(TenantId::new(tenant), None);
            t.insert(PageNumber::new(p), e).unwrap();
        }
        assert_eq!(
            t.tenant_bytes(),
            vec![(TenantId::new(1), 125), (TenantId::new(2), 50)]
        );
        t.remove(PageNumber::new(2)).unwrap();
        assert_eq!(t.tenant_bytes(), vec![(TenantId::new(1), 125)]);
    }
}
