//! Exactness of the zpool's slot index: every allocation lands on the
//! same zspage and slot, every compaction makes the same moves, and
//! every statistic is the same as under first fit by linear scan — the
//! reference model below, which walks every zspage on each alloc and
//! every handle on each compaction move. The model derives each class's
//! zspage (host pages and slots) itself, by zsmalloc's whole-percent
//! `get_pages_per_zspage` loop, not from the pool's table.

use std::collections::BTreeMap;

use proptest::prelude::*;
use xfm_sfm::zpool::CHUNK;
use xfm_sfm::{CompactReport, Handle, Zpool, ZpoolStats};
use xfm_types::{ByteSize, Error, PAGE_SIZE};

/// Host pages in the zspage of the class whose slots are `size` bytes:
/// zsmalloc's `get_pages_per_zspage`, the count of at most 4 with the
/// highest whole-percent usage, the first on ties.
fn zspage_pages(size: usize) -> usize {
    let (mut best, mut best_usedpc) = (1, 0);
    for k in 1..=4 {
        let zspage = k * PAGE_SIZE;
        let usedpc = (zspage - zspage % size) * 100 / zspage;
        if usedpc > best_usedpc {
            (best, best_usedpc) = (k, usedpc);
        }
    }
    best
}

/// A zspage of the reference model.
#[derive(Debug, Clone)]
struct RefPage {
    class: usize,
    /// Host pages it spans.
    pages: usize,
    /// Per-slot payload length; 0 = free.
    lens: Vec<u16>,
    used: usize,
}

impl RefPage {
    fn first_free(&self) -> usize {
        self.lens.iter().position(|&l| l == 0).expect("free slot")
    }

    fn first_used(&self) -> usize {
        self.lens
            .iter()
            .position(|&l| l != 0)
            .expect("object present")
    }
}

/// First fit by linear scan over the host pages.
#[derive(Debug)]
struct RefPool {
    capacity: ByteSize,
    pages: Vec<Option<RefPage>>,
    free_page_slots: Vec<usize>,
    locations: BTreeMap<u64, (usize, usize)>,
    next_handle: u64,
    stored_bytes: u64,
    slot_overhead: u64,
}

impl RefPool {
    fn new(capacity: ByteSize) -> Self {
        Self {
            capacity,
            pages: Vec::new(),
            free_page_slots: Vec::new(),
            locations: BTreeMap::new(),
            next_handle: 1,
            stored_bytes: 0,
            slot_overhead: 0,
        }
    }

    fn class_of(len: usize) -> usize {
        len.div_ceil(CHUNK).max(1) - 1
    }

    fn live_pages(&self) -> u64 {
        self.pages.iter().flatten().map(|p| p.pages as u64).sum()
    }

    fn would_grow(&self, len: usize) -> u64 {
        let class = Self::class_of(len);
        let partial = self.pages.iter().any(|p| {
            p.as_ref()
                .is_some_and(|p| p.class == class && p.used < p.lens.len())
        });
        if partial {
            0
        } else {
            zspage_pages((class + 1) * CHUNK) as u64
        }
    }

    /// The new handle and where it landed, or `None` when the region is
    /// full.
    fn alloc(&mut self, len: usize) -> Option<(u64, (usize, usize))> {
        let class = Self::class_of(len);
        let found = self.pages.iter().enumerate().find_map(|(pi, p)| {
            p.as_ref().and_then(|p| {
                (p.class == class && p.used < p.lens.len()).then(|| (pi, p.first_free()))
            })
        });
        let (pi, si) = match found {
            Some(loc) => loc,
            None => {
                let size = (class + 1) * CHUNK;
                let pages = zspage_pages(size);
                if ByteSize::from_pages(self.live_pages() + pages as u64) > self.capacity {
                    return None;
                }
                let page = RefPage {
                    class,
                    pages,
                    lens: vec![0; pages * PAGE_SIZE / size],
                    used: 0,
                };
                let pi = match self.free_page_slots.pop() {
                    Some(idx) => {
                        self.pages[idx] = Some(page);
                        idx
                    }
                    None => {
                        self.pages.push(Some(page));
                        self.pages.len() - 1
                    }
                };
                (pi, 0)
            }
        };
        let page = self.pages[pi].as_mut().expect("live page");
        page.lens[si] = len as u16;
        page.used += 1;
        let handle = self.next_handle;
        self.next_handle += 1;
        self.locations.insert(handle, (pi, si));
        self.stored_bytes += len as u64;
        self.slot_overhead += ((class + 1) * CHUNK - len) as u64;
        Some((handle, (pi, si)))
    }

    fn free(&mut self, handle: u64) -> usize {
        let (pi, si) = self.locations.remove(&handle).expect("live handle");
        let page = self.pages[pi].as_mut().expect("live page");
        let len = std::mem::take(&mut page.lens[si]) as usize;
        page.used -= 1;
        self.stored_bytes -= len as u64;
        self.slot_overhead -= ((page.class + 1) * CHUNK - len) as u64;
        if page.used == 0 {
            self.pages[pi] = None;
            self.free_page_slots.push(pi);
        }
        len
    }

    fn compact(&mut self) -> CompactReport {
        let mut report = CompactReport::default();
        let mut by_class: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (pi, p) in self.pages.iter().enumerate() {
            if let Some(p) = p {
                by_class.entry(p.class).or_default().push(pi);
            }
        }
        for (_, mut idxs) in by_class {
            idxs.sort_by_key(|&pi| std::cmp::Reverse(self.pages[pi].as_ref().unwrap().used));
            let (mut dense, mut sparse) = (0usize, idxs.len());
            while dense < sparse {
                let dense_pi = idxs[dense];
                let d = self.pages[dense_pi].as_ref().unwrap();
                if d.lens.len() == d.used {
                    dense += 1;
                    continue;
                }
                let sparse_pi = idxs[sparse - 1];
                if sparse_pi == dense_pi {
                    break;
                }
                let from = self.pages[sparse_pi].as_mut().unwrap();
                let si_from = from.first_used();
                let len = std::mem::take(&mut from.lens[si_from]);
                from.used -= 1;
                let emptied = from.used == 0;
                let to = self.pages[dense_pi].as_mut().unwrap();
                let si_to = to.first_free();
                to.lens[si_to] = len;
                to.used += 1;
                // The scan the index replaces: find the moved handle.
                let handle = self
                    .locations
                    .iter()
                    .find_map(|(&h, &loc)| (loc == (sparse_pi, si_from)).then_some(h))
                    .expect("handle for moved object");
                self.locations.insert(handle, (dense_pi, si_to));
                report.moved_objects += 1;
                report.moved_bytes += ByteSize::from_bytes(u64::from(len));
                if emptied {
                    let gone = self.pages[sparse_pi].take().unwrap();
                    self.free_page_slots.push(sparse_pi);
                    report.freed_pages += gone.pages as u64;
                    sparse -= 1;
                }
            }
        }
        report
    }

    fn stats(&self) -> ZpoolStats {
        ZpoolStats {
            stored_bytes: ByteSize::from_bytes(self.stored_bytes),
            slot_overhead: ByteSize::from_bytes(self.slot_overhead),
            host_pages: self.live_pages(),
            objects: self.locations.len() as u64,
        }
    }
}

/// One op: `kind` 0–4 allocates (`len` bytes for kind 0, a small object
/// for 1–4, so classes fill several pages), 5–8 frees live object
/// `pick`, 9 compacts.
type Op = (u8, usize, usize);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u8..10, 1usize..=PAGE_SIZE, 0usize..1 << 16), 0..400)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn index_places_compacts_and_counts_as_the_linear_scan(ops in ops()) {
        // 24 host pages: small enough that the region fills and refuses
        // (at most six 4-page zspages).
        let capacity = ByteSize::from_pages(24);
        let (mut pool, mut model) = (Zpool::new(capacity), RefPool::new(capacity));
        let mut live: Vec<(Handle, u64, usize)> = Vec::new();
        for (kind, len, pick) in ops {
            let len = if kind == 0 { len } else { len % 640 + 1 };
            prop_assert_eq!(pool.would_grow(len), model.would_grow(len), "would_grow({})", len);
            match kind {
                0..=4 => match (pool.alloc(&vec![kind; len]), model.alloc(len)) {
                    (Ok(h), Some((mh, at))) => {
                        prop_assert_eq!(pool.location(h), Some(at), "alloc of {} bytes", len);
                        live.push((h, mh, len));
                    }
                    (Err(Error::SfmRegionFull), None) => {}
                    (got, want) => prop_assert!(false, "alloc({}): {:?} vs {:?}", len, got, want),
                },
                5..=8 if !live.is_empty() => {
                    let (h, mh, len) = live.swap_remove(pick % live.len());
                    prop_assert_eq!(pool.free(h).unwrap().as_bytes() as usize, len);
                    prop_assert_eq!(model.free(mh), len);
                }
                9 => prop_assert_eq!(pool.compact(), model.compact()),
                _ => {}
            }
            prop_assert_eq!(pool.stats(), model.stats());
            for &(h, mh, len) in &live {
                prop_assert_eq!(pool.location(h), model.locations.get(&mh).copied());
                prop_assert_eq!(pool.get(h).unwrap().len(), len);
            }
        }
    }
}
