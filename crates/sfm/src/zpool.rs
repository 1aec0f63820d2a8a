//! A zsmalloc-like slab allocator for compressed pages.
//!
//! zswap deployments use the zsmalloc allocator because it packs as many
//! compressed pages as possible into each encapsulating OS page, at the
//! cost of intermittent compaction (paper §2.1). This model keeps the
//! same structure: objects occupy fixed slots of their *size class* (a
//! multiple of a 64 B chunk), and a class grows by one *zspage* at a
//! time — `k` contiguous 4 KiB host pages, `k` in `1..=4` fixed per class
//! by zsmalloc's `get_pages_per_zspage` rule (the `k` whose `k × 4 KiB`
//! leaves the smallest share unused, the smallest `k` on ties). The
//! 1 408 B class thus packs 11 slots into 4 host pages with 896 B to
//! spare, where one page would hold 2 and leave a 1 280 B tail. Each
//! zspage is one contiguous arena, so an object may straddle a host-page
//! boundary inside it, as zsmalloc's do, and slot addresses are pure
//! offset arithmetic: store, load, and compaction are single `memcpy`s
//! with no per-object heap boxes.
//! [`Zpool::compact`] repacks each class into the fewest zspages and
//! reports the `memcpy` volume, which the backends charge as DRAM
//! traffic.

use xfm_types::hash::IntMap;
use xfm_types::{ByteSize, Error, Result, PAGE_SIZE};

/// Allocation granularity within a zspage (zsmalloc chunk).
pub const CHUNK: usize = 64;

/// Size classes: slot sizes `CHUNK, 2 * CHUNK, ..., PAGE_SIZE`.
const CLASSES: usize = PAGE_SIZE / CHUNK;

/// The most host pages one zspage spans (zsmalloc's
/// `ZS_MAX_PAGES_PER_ZSPAGE`).
pub const MAX_ZSPAGE_PAGES: usize = 4;

/// One size class's unit of growth: a zspage of `pages` host pages
/// holding `slots` objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Geometry {
    pages: usize,
    slots: usize,
}

/// The zspage of the class whose slots are `slot_size` bytes: the page
/// count whose arena leaves the smallest share past the last whole slot,
/// the smallest count on ties.
const fn geometry(slot_size: usize) -> Geometry {
    let mut best = 1;
    let mut k = 2;
    while k <= MAX_ZSPAGE_PAGES {
        // waste(k) / k < waste(best) / best, cross-multiplied.
        if (k * PAGE_SIZE % slot_size) * best < (best * PAGE_SIZE % slot_size) * k {
            best = k;
        }
        k += 1;
    }
    Geometry {
        pages: best,
        slots: best * PAGE_SIZE / slot_size,
    }
}

/// Every class's zspage, indexed by class.
const GEOMETRY: [Geometry; CLASSES] = {
    let mut table = [Geometry { pages: 0, slots: 0 }; CLASSES];
    let mut class = 0;
    while class < CLASSES {
        table[class] = geometry((class + 1) * CHUNK);
        class += 1;
    }
    table
};

// A zspage has at most 64 slots: one free-slot word. (The densest class,
// 64 B, fills one host page exactly, so the tie-break keeps it at one.)
const _: () = {
    let mut class = 0;
    while class < CLASSES {
        assert!(GEOMETRY[class].slots >= 1 && GEOMETRY[class].slots <= 64);
        class += 1;
    }
};

/// An opaque reference to a stored object.
///
/// Handles remain valid across [`Zpool::compact`] (objects may move
/// between zspages, but the handle indirection is stable, mirroring
/// zsmalloc's handle table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Handle(u64);

/// One object slot: its payload length (0 = free; objects are never
/// empty) and the handle that names it, so a compaction move re-points
/// that handle without searching for it.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    len: u16,
    handle: u64,
}

#[derive(Debug, Clone)]
struct Zspage {
    /// Size class (slot size = `(class + 1) * CHUNK`).
    class: usize,
    /// One contiguous arena of the class's zspage pages; slot `si`
    /// occupies `si * slot_size .. si * slot_size + slots[si].len`,
    /// across a host-page boundary when it falls there.
    data: Box<[u8]>,
    slots: Vec<Slot>,
    /// Bit `si` is set while slot `si` is free.
    free: u64,
}

impl Zspage {
    fn new(class: usize) -> Self {
        let Geometry { pages, slots } = GEOMETRY[class];
        Self {
            class,
            data: vec![0u8; pages * PAGE_SIZE].into_boxed_slice(),
            slots: vec![Slot::default(); slots],
            free: u64::MAX >> (64 - slots),
        }
    }

    fn slot_size(&self) -> usize {
        (self.class + 1) * CHUNK
    }

    fn used(&self) -> usize {
        self.slots.len() - self.free.count_ones() as usize
    }

    fn object(&self, si: usize) -> &[u8] {
        let start = si * self.slot_size();
        &self.data[start..start + usize::from(self.slots[si].len)]
    }

    /// Stores `obj` under `handle` into free slot `si` (one memcpy into
    /// the arena).
    fn store(&mut self, si: usize, obj: &[u8], handle: u64) {
        debug_assert!(self.free & (1 << si) != 0, "slot occupied");
        let start = si * self.slot_size();
        self.data[start..start + obj.len()].copy_from_slice(obj);
        self.slots[si] = Slot {
            len: obj.len() as u16,
            handle,
        };
        self.free &= !(1 << si);
    }

    /// Frees slot `si`, returning the payload length it held.
    fn clear(&mut self, si: usize) -> usize {
        debug_assert!(self.free & (1 << si) == 0, "slot already free");
        self.free |= 1 << si;
        usize::from(self.slots[si].len)
    }

    fn first_free(&self) -> usize {
        self.free.trailing_zeros() as usize
    }

    fn first_used(&self) -> usize {
        (!self.free).trailing_zeros() as usize
    }
}

/// The zspages of one size class that have a free slot: a bitmap over
/// [`Zpool`]'s zspage indices, so first fit is a word scan.
#[derive(Debug, Clone, Default)]
struct ClassIndex(Vec<u64>);

impl ClassIndex {
    fn set(&mut self, pi: usize, partial: bool) {
        let (w, bit) = (pi / 64, 1u64 << (pi % 64));
        if partial {
            if w >= self.0.len() {
                self.0.resize(w + 1, 0);
            }
            self.0[w] |= bit;
        } else if let Some(word) = self.0.get_mut(w) {
            *word &= !bit;
        }
    }

    /// The lowest zspage index with a free slot.
    fn first(&self) -> Option<usize> {
        self.0
            .iter()
            .position(|&w| w != 0)
            .map(|w| w * 64 + self.0[w].trailing_zeros() as usize)
    }
}

/// Statistics snapshot for a [`Zpool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ZpoolStats {
    /// Bytes of actual object payload stored.
    pub stored_bytes: ByteSize,
    /// Bytes reserved by slot rounding (internal fragmentation).
    pub slot_overhead: ByteSize,
    /// Host pages currently allocated from the region: each live
    /// zspage's page count, summed.
    pub host_pages: u64,
    /// Live objects.
    pub objects: u64,
}

impl ZpoolStats {
    /// Pool bytes consumed from the SFM region (host pages x 4 KiB).
    #[must_use]
    pub fn pool_bytes(&self) -> ByteSize {
        ByteSize::from_pages(self.host_pages)
    }

    /// Fraction of pool bytes holding live payload (0 when empty).
    #[must_use]
    pub fn utilization(&self) -> f64 {
        let pool = self.pool_bytes().as_bytes();
        if pool == 0 {
            0.0
        } else {
            self.stored_bytes.as_bytes() as f64 / pool as f64
        }
    }
}

/// Sums pools (shards, tiers); every field is named, as for
/// [`crate::BackendStats`].
impl std::ops::AddAssign for ZpoolStats {
    fn add_assign(&mut self, o: Self) {
        *self = Self {
            stored_bytes: self.stored_bytes + o.stored_bytes,
            slot_overhead: self.slot_overhead + o.slot_overhead,
            host_pages: self.host_pages + o.host_pages,
            objects: self.objects + o.objects,
        };
    }
}

/// Report from one compaction pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactReport {
    /// Objects relocated.
    pub moved_objects: u64,
    /// Payload bytes `memcpy`ed (charged as DRAM read + write traffic).
    pub moved_bytes: ByteSize,
    /// Host pages returned to the region (each emptied zspage's page
    /// count).
    pub freed_pages: u64,
}

/// Sums the passes of several pools.
impl std::ops::AddAssign for CompactReport {
    fn add_assign(&mut self, o: Self) {
        *self = Self {
            moved_objects: self.moved_objects + o.moved_objects,
            moved_bytes: self.moved_bytes + o.moved_bytes,
            freed_pages: self.freed_pages + o.freed_pages,
        };
    }
}

/// The allocator.
///
/// # Examples
///
/// ```
/// use xfm_sfm::Zpool;
/// use xfm_types::ByteSize;
///
/// let mut pool = Zpool::new(ByteSize::from_mib(1));
/// let h = pool.alloc(&[1, 2, 3, 4])?;
/// assert_eq!(pool.get(h)?, &[1, 2, 3, 4]);
/// pool.free(h)?;
/// # Ok::<(), xfm_types::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct Zpool {
    capacity: ByteSize,
    zspages: Vec<Option<Zspage>>,
    /// Free indices in `zspages`.
    free_zspage_slots: Vec<usize>,
    /// Host pages the live zspages span.
    host_pages: u64,
    /// Per size class, the live zspages with a free slot (zsmalloc's
    /// fullness lists, as bitmaps over `zspages`).
    partial: Vec<ClassIndex>,
    /// `handle -> (zspage index, slot index)`.
    locations: IntMap<u64, (usize, usize)>,
    next_handle: u64,
    stored_bytes: u64,
    slot_overhead: u64,
}

impl Zpool {
    /// Creates a pool that may grow to at most `capacity` bytes of host
    /// pages.
    #[must_use]
    pub fn new(capacity: ByteSize) -> Self {
        Self {
            capacity,
            zspages: Vec::new(),
            free_zspage_slots: Vec::new(),
            host_pages: 0,
            partial: vec![ClassIndex::default(); CLASSES],
            locations: IntMap::default(),
            next_handle: 1,
            stored_bytes: 0,
            slot_overhead: 0,
        }
    }

    /// The configured capacity limit.
    #[must_use]
    pub fn capacity(&self) -> ByteSize {
        self.capacity
    }

    fn class_of(len: usize) -> usize {
        len.div_ceil(CHUNK).max(1) - 1
    }

    fn zspage_mut(&mut self, zi: usize) -> &mut Zspage {
        self.zspages[zi].as_mut().expect("live zspage")
    }

    /// Files live zspage `zi` in its class's index by its free word.
    fn refile(&mut self, zi: usize) {
        let z = self.zspages[zi].as_ref().expect("live zspage");
        self.partial[z.class].set(zi, z.free != 0);
    }

    /// Returns empty zspage `zi`'s host pages to the region, and how
    /// many they were.
    fn release(&mut self, zi: usize) -> u64 {
        let class = self.zspages[zi].take().expect("live zspage").class;
        self.partial[class].set(zi, false);
        self.free_zspage_slots.push(zi);
        let pages = GEOMETRY[class].pages as u64;
        self.host_pages -= pages;
        pages
    }

    /// The host pages storing an object of `len` bytes would add to the
    /// pool: 0 while a live zspage of the matching size class has a free
    /// slot, else the class's zspage page count (1 to
    /// [`MAX_ZSPAGE_PAGES`]).
    ///
    /// Read-only companion to [`Zpool::alloc`]: the sharded data plane
    /// uses it to enforce a *global* capacity budget across per-shard
    /// pools before committing an allocation, without mutating any pool.
    #[must_use]
    pub fn would_grow(&self, len: usize) -> u64 {
        let class = Self::class_of(len);
        if self.partial[class].first().is_some() {
            0
        } else {
            GEOMETRY[class].pages as u64
        }
    }

    /// Stores `data`, returning a stable handle.
    ///
    /// # Errors
    ///
    /// - [`Error::InvalidConfig`] if `data` is empty or larger than 4 KiB;
    /// - [`Error::SfmRegionFull`] if no slot is free and growing the pool
    ///   would exceed capacity. Callers should [`Zpool::compact`] and
    ///   retry, or reject the swap-out.
    pub fn alloc(&mut self, data: &[u8]) -> Result<Handle> {
        if data.is_empty() || data.len() > PAGE_SIZE {
            return Err(Error::InvalidConfig(format!(
                "object size {} outside 1..=4096",
                data.len()
            )));
        }
        let class = Self::class_of(data.len());
        // First fit: the lowest zspage of this class with a free slot.
        let (zi, si) = match self.partial[class].first() {
            Some(zi) => (zi, self.zspage_mut(zi).first_free()),
            None => {
                // Grow the class by one zspage, if capacity allows.
                let next_pages = self.host_pages + GEOMETRY[class].pages as u64;
                if ByteSize::from_pages(next_pages) > self.capacity {
                    return Err(Error::SfmRegionFull);
                }
                self.host_pages = next_pages;
                let zi = match self.free_zspage_slots.pop() {
                    Some(idx) => {
                        self.zspages[idx] = Some(Zspage::new(class));
                        idx
                    }
                    None => {
                        self.zspages.push(Some(Zspage::new(class)));
                        self.zspages.len() - 1
                    }
                };
                (zi, 0)
            }
        };
        let handle = Handle(self.next_handle);
        self.next_handle += 1;
        self.zspage_mut(zi).store(si, data, handle.0);
        self.refile(zi);
        self.locations.insert(handle.0, (zi, si));
        self.stored_bytes += data.len() as u64;
        self.slot_overhead += ((class + 1) * CHUNK - data.len()) as u64;
        Ok(handle)
    }

    /// [`Zpool::alloc`] behind a fault-injection hook: when `faults`
    /// carries an armed [`FaultSite::ZpoolStoreFailure`] that fires, the
    /// store is rejected as [`Error::SfmRegionFull`] before touching the
    /// pool — exactly the shape a capacity rejection takes, so callers
    /// exercise their compact-and-retry and clean-reject paths.
    ///
    /// The injector is a parameter rather than a field so the pool stays
    /// plain serializable data; with `None` this is a single branch on
    /// top of `alloc`.
    ///
    /// # Errors
    ///
    /// As [`Zpool::alloc`], plus the injected [`Error::SfmRegionFull`].
    ///
    /// [`FaultSite::ZpoolStoreFailure`]: xfm_faults::FaultSite::ZpoolStoreFailure
    pub fn alloc_faulted(
        &mut self,
        data: &[u8],
        faults: Option<&xfm_faults::FaultInjector>,
    ) -> Result<Handle> {
        if let Some(f) = faults {
            if f.should_fire(xfm_faults::FaultSite::ZpoolStoreFailure) {
                return Err(Error::SfmRegionFull);
            }
        }
        self.alloc(data)
    }

    /// Reads the object behind `handle`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EntryNotFound`] for a stale or unknown handle.
    pub fn get(&self, handle: Handle) -> Result<&[u8]> {
        let &(zi, si) = self
            .locations
            .get(&handle.0)
            .ok_or(Error::EntryNotFound { page: handle.0 })?;
        Ok(self.zspages[zi].as_ref().expect("live zspage").object(si))
    }

    /// Where the object behind `handle` sits: its zspage's index and its
    /// slot in that zspage. Placement is first fit, so this pins it.
    #[must_use]
    pub fn location(&self, handle: Handle) -> Option<(usize, usize)> {
        self.locations.get(&handle.0).copied()
    }

    /// Frees the object behind `handle`. A zspage left empty returns its
    /// host pages to the region immediately.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EntryNotFound`] for a stale or unknown handle.
    pub fn free(&mut self, handle: Handle) -> Result<ByteSize> {
        let (zi, si) = self
            .locations
            .remove(&handle.0)
            .ok_or(Error::EntryNotFound { page: handle.0 })?;
        let zspage = self.zspage_mut(zi);
        let len = zspage.clear(si);
        let (class, empty) = (zspage.class, zspage.used() == 0);
        self.stored_bytes -= len as u64;
        self.slot_overhead -= ((class + 1) * CHUNK - len) as u64;
        if empty {
            self.release(zi);
        } else {
            self.partial[class].set(zi, true);
        }
        Ok(ByteSize::from_bytes(len as u64))
    }

    /// Repacks every size class into the fewest zspages, relocating
    /// objects from sparse zspages into dense ones — the zsmalloc-style
    /// `memcpy` compaction the paper's `xfm_compact()` exposes. Each
    /// move re-points the handle its slot records; each emptied zspage
    /// reports its host pages as freed.
    pub fn compact(&mut self) -> CompactReport {
        let mut report = CompactReport::default();
        // Per-class zspage lists, in class order, densest first.
        let mut by_class = vec![Vec::new(); CLASSES];
        for (zi, z) in self.zspages.iter().enumerate() {
            if let Some(z) = z {
                by_class[z.class].push(zi);
            }
        }
        for mut idxs in by_class {
            idxs.sort_by_key(|&zi| {
                std::cmp::Reverse(self.zspages[zi].as_ref().expect("live").used())
            });
            // Two-pointer: move objects from the sparsest zspages into
            // free slots of the densest.
            let mut dense = 0usize;
            let mut sparse = idxs.len();
            while dense < sparse {
                let dense_zi = idxs[dense];
                if self.zspage_mut(dense_zi).free == 0 {
                    dense += 1;
                    continue;
                }
                let sparse_zi = idxs[sparse - 1];
                if sparse_zi == dense_zi {
                    break;
                }
                // Move one object: a single arena-to-arena memcpy.
                // `split_at_mut` yields disjoint borrows of the two
                // zspages (they are distinct — checked above).
                let (handle, si_to, moved_len, emptied) = {
                    let mid = sparse_zi.max(dense_zi);
                    let (lo, hi) = self.zspages.split_at_mut(mid);
                    let (from, to) = if sparse_zi < dense_zi {
                        (&mut lo[sparse_zi], &mut hi[0])
                    } else {
                        (&mut hi[0], &mut lo[dense_zi])
                    };
                    let from = from.as_mut().expect("live");
                    let to = to.as_mut().expect("live");
                    let si_from = from.first_used();
                    let si_to = to.first_free();
                    let handle = from.slots[si_from].handle;
                    to.store(si_to, from.object(si_from), handle);
                    let len = from.clear(si_from);
                    (handle, si_to, len, from.used() == 0)
                };
                self.locations.insert(handle, (dense_zi, si_to));
                self.refile(dense_zi);
                report.moved_objects += 1;
                report.moved_bytes += ByteSize::from_bytes(moved_len as u64);
                if emptied {
                    report.freed_pages += self.release(sparse_zi);
                    sparse -= 1;
                } else {
                    self.refile(sparse_zi);
                }
            }
        }
        report
    }

    /// Current statistics.
    #[must_use]
    pub fn stats(&self) -> ZpoolStats {
        ZpoolStats {
            stored_bytes: ByteSize::from_bytes(self.stored_bytes),
            slot_overhead: ByteSize::from_bytes(self.slot_overhead),
            host_pages: self.host_pages,
            objects: self.locations.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> Zpool {
        Zpool::new(ByteSize::from_mib(1))
    }

    #[test]
    fn alloc_get_free_round_trip() {
        let mut p = pool();
        let h = p.alloc(&[9u8; 100]).unwrap();
        assert_eq!(p.get(h).unwrap(), &[9u8; 100][..]);
        assert_eq!(p.free(h).unwrap().as_bytes(), 100);
        assert!(p.get(h).is_err());
        assert!(p.free(h).is_err());
    }

    #[test]
    fn objects_pack_into_shared_host_pages() {
        let mut p = pool();
        // 100-byte objects round to 128 B slots: 32 per host page.
        let handles: Vec<_> = (0..32).map(|_| p.alloc(&[1u8; 100]).unwrap()).collect();
        assert_eq!(p.stats().host_pages, 1);
        let h33 = p.alloc(&[1u8; 100]).unwrap();
        assert_eq!(p.stats().host_pages, 2);
        for h in handles {
            p.free(h).unwrap();
        }
        p.free(h33).unwrap();
        assert_eq!(p.stats().host_pages, 0);
    }

    #[test]
    fn capacity_limit_enforced() {
        let mut p = Zpool::new(ByteSize::from_pages(2));
        // Full-page objects: only 2 fit.
        p.alloc(&[1u8; 4096]).unwrap();
        p.alloc(&[2u8; 4096]).unwrap();
        assert!(matches!(p.alloc(&[3u8; 4096]), Err(Error::SfmRegionFull)));
    }

    #[test]
    fn invalid_sizes_rejected() {
        let mut p = pool();
        assert!(p.alloc(&[]).is_err());
        assert!(p.alloc(&vec![0u8; 4097]).is_err());
    }

    #[test]
    fn fragmentation_then_compaction_frees_pages() {
        let mut p = pool();
        // Fill 4 host pages with 128 B-class objects...
        let handles: Vec<_> = (0..128)
            .map(|i| p.alloc(&[i as u8; 100]).unwrap())
            .collect();
        assert_eq!(p.stats().host_pages, 4);
        // ...then free three quarters, scattered (leaves holes everywhere).
        for (i, h) in handles.iter().enumerate() {
            if i % 4 != 0 {
                p.free(*h).unwrap();
            }
        }
        assert_eq!(p.stats().objects, 32);
        let before = p.stats().host_pages;
        let report = p.compact();
        let after = p.stats().host_pages;
        assert_eq!(after, 1, "32 objects of 128 B fit one host page");
        assert_eq!(before - after, report.freed_pages);
        assert!(report.moved_objects > 0);
        // Survivors unharmed.
        for (i, h) in handles.iter().enumerate() {
            if i % 4 == 0 {
                assert_eq!(p.get(*h).unwrap(), &[i as u8; 100][..]);
            }
        }
    }

    #[test]
    fn handles_stay_valid_across_compaction() {
        let mut p = pool();
        let keep = p.alloc(b"keep me around").unwrap();
        let doomed: Vec<_> = (0..100).map(|_| p.alloc(&[0u8; 1000]).unwrap()).collect();
        for h in doomed {
            p.free(h).unwrap();
        }
        p.compact();
        assert_eq!(p.get(keep).unwrap(), b"keep me around");
    }

    #[test]
    fn stats_track_overhead() {
        let mut p = pool();
        p.alloc(&[0u8; 65]).unwrap(); // 128 B slot -> 63 B overhead
        let s = p.stats();
        assert_eq!(s.stored_bytes.as_bytes(), 65);
        assert_eq!(s.slot_overhead.as_bytes(), 63);
        assert_eq!(s.objects, 1);
        assert!(s.utilization() > 0.0 && s.utilization() < 0.05);
    }

    #[test]
    fn empty_pool_utilization_is_zero() {
        assert_eq!(pool().stats().utilization(), 0.0);
    }

    #[test]
    fn would_grow_tracks_free_slots_per_class() {
        let mut p = pool();
        assert_eq!(p.would_grow(100), 1, "empty pool: a one-page zspage");
        let h = p.alloc(&[1u8; 100]).unwrap();
        assert_eq!(p.would_grow(100), 0, "31 free 128 B slots remain");
        assert_eq!(p.would_grow(300), 4, "no 320 B-class zspage yet");
        // Fill the remaining slots of the 128 B class.
        let rest: Vec<_> = (0..31).map(|_| p.alloc(&[2u8; 100]).unwrap()).collect();
        assert_eq!(p.would_grow(100), 1, "class zspage is full");
        p.free(h).unwrap();
        assert_eq!(p.would_grow(100), 0, "freed slot is reusable");
        for h in rest {
            p.free(h).unwrap();
        }
        assert_eq!(p.would_grow(100), 1, "empty zspages return to the region");
    }

    /// zsmalloc's `get_pages_per_zspage`, as the kernel writes it: the
    /// page count with the highest whole-percent usage, the first on
    /// ties.
    fn max_usage_pages(class_size: usize) -> usize {
        let (mut best, mut best_usedpc) = (1, 0);
        for k in 1..=MAX_ZSPAGE_PAGES {
            let zspage = k * PAGE_SIZE;
            let usedpc = (zspage - zspage % class_size) * 100 / zspage;
            if usedpc > best_usedpc {
                (best, best_usedpc) = (k, usedpc);
            }
        }
        best
    }

    #[test]
    fn class_table_is_zsmallocs_max_usage_rule() {
        for (class, g) in GEOMETRY.iter().enumerate() {
            let size = (class + 1) * CHUNK;
            assert_eq!(g.pages, max_usage_pages(size), "class of {size} B");
            assert_eq!(g.slots, g.pages * PAGE_SIZE / size, "class of {size} B");
        }
        // Spot checks: 64 B and 2 KiB fill one page; 192 B fills three.
        assert_eq!(
            GEOMETRY[0],
            Geometry {
                pages: 1,
                slots: 64
            }
        );
        assert_eq!(
            GEOMETRY[2],
            Geometry {
                pages: 3,
                slots: 64
            }
        );
        assert_eq!(
            GEOMETRY[21],
            Geometry {
                pages: 4,
                slots: 11
            }
        );
        assert_eq!(GEOMETRY[31], Geometry { pages: 1, slots: 2 });
    }

    #[test]
    fn objects_straddle_host_pages_inside_a_zspage() {
        let mut p = pool();
        // 1 400 B objects take 1 408 B slots: 11 per 4-page zspage.
        let handles: Vec<_> = (0..11u8).map(|i| p.alloc(&[i; 1400]).unwrap()).collect();
        assert_eq!(p.stats().host_pages, 4);
        // Slot 2 spans bytes 2 816..4 216: across the first page boundary.
        assert_eq!(p.location(handles[2]), Some((0, 2)));
        for (i, &h) in handles.iter().enumerate() {
            assert_eq!(p.get(h).unwrap(), &[i as u8; 1400][..]);
        }
        let twelfth = p.alloc(&[11u8; 1400]).unwrap();
        assert_eq!(p.stats().host_pages, 8, "the class grew by a zspage");
        assert_eq!(p.location(twelfth), Some((1, 0)));
    }

    #[test]
    fn compaction_frees_whole_zspages() {
        let mut p = pool();
        let handles: Vec<_> = (0..22u8).map(|i| p.alloc(&[i; 1400]).unwrap()).collect();
        assert_eq!(p.stats().host_pages, 8);
        // Leave 5 objects in each zspage: 10 fit one.
        for (i, h) in handles.iter().enumerate() {
            if i % 11 >= 5 {
                p.free(*h).unwrap();
            }
        }
        let report = p.compact();
        assert_eq!(report.freed_pages, 4, "one 4-page zspage released");
        assert_eq!(report.moved_objects, 5);
        assert_eq!(p.stats().host_pages, 4);
        for (i, h) in handles.iter().enumerate() {
            if i % 11 < 5 {
                assert_eq!(p.get(*h).unwrap(), &[i as u8; 1400][..]);
            }
        }
    }

    #[test]
    fn a_zspage_larger_than_the_region_is_refused() {
        let mut p = Zpool::new(ByteSize::from_pages(3));
        assert!(matches!(p.alloc(&[1u8; 1400]), Err(Error::SfmRegionFull)));
        assert_eq!(p.stats(), ZpoolStats::default(), "nothing was grown");
        // One-page classes still fit.
        p.alloc(&[2u8; 4096]).unwrap();
        assert_eq!(p.stats().host_pages, 1);
    }

    #[test]
    fn distinct_classes_use_distinct_pages() {
        let mut p = pool();
        p.alloc(&[1u8; 64]).unwrap(); // class 0
        p.alloc(&[2u8; 2048]).unwrap(); // class 31
        assert_eq!(p.stats().host_pages, 2);
    }

    #[test]
    fn injected_store_failure_rejects_without_touching_the_pool() {
        use xfm_faults::{FaultInjector, FaultPlan, FaultSite, SiteSpec};
        let plan = FaultPlan::new(1).with_site(
            FaultSite::ZpoolStoreFailure,
            SiteSpec::with_probability(1.0).max_fires(1),
        );
        let inj = FaultInjector::new(&plan);
        let mut p = pool();
        let before = p.stats();
        assert!(matches!(
            p.alloc_faulted(&[1u8; 100], Some(&inj)),
            Err(Error::SfmRegionFull)
        ));
        assert_eq!(p.stats(), before, "rejected store left no residue");
        // Fires exhausted: the same call now succeeds, and a `None`
        // injector is a pure pass-through.
        assert!(p.alloc_faulted(&[1u8; 100], Some(&inj)).is_ok());
        assert!(p.alloc_faulted(&[1u8; 100], None).is_ok());
    }
}
