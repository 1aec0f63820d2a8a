//! Latency/bandwidth-modeled swap planes: SSD and remote-node media.
//!
//! The DRAM-resident planes ([`crate::sharded::ShardedSfm`], the CPU
//! baseline) model *compression* cost; the media planes here model
//! *transport* cost. A [`ModeledPlane`] stores raw 4 KiB pages and
//! charges each operation a service time of `base + bytes / bandwidth`
//! against a single-server queue (`busy_until`), publishing completion
//! times to a shared [`ClockMirror`] (`xfm-event`) — so a
//! tiered composition of DRAM, SSD, and remote planes advances one
//! coherent virtual timeline and replays deterministically under a
//! fixed op sequence.
//!
//! A stored page is one record — bytes, checksum, owner — in the one
//! map behind the plane's one mutex, and each data-path call is one
//! critical section over it, as in [`crate::store::PageStore`]: of N
//! racing swap-ins exactly one gets the page, and `tenant_usage()` is
//! derived from the resident records, so it cannot leak.
//!
//! [`ReplicatedPlane`] spans two remote [`ModeledPlane`]s with
//! write-both / read-any semantics and checksum-verified read repair:
//! a write that silently loses one replica (the
//! [`FaultSite::ReplicaLoss`] hook) or a whole replica kill leaves
//! every stored page recoverable from the surviving copy, which the
//! chaos gate exercises end to end. Each of its operations, `scrub`
//! included, runs under one plane-level lock; the replicas' own locks
//! are taken one step at a time under it (plane lock → replica lock,
//! never the other way).

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;
use xfm_event::ClockMirror;
use xfm_faults::{checksum, FaultInjector, FaultSite};
use xfm_telemetry::{Histogram, Registry};
use xfm_types::{
    ByteSize, Error, Nanos, OpContext, PageNumber, SwapError, SwapResult, SwapSite, TenantId,
    PAGE_SIZE,
};

use crate::backend::{merge_usage, BackendStats, SwapOutcome, SwapPlane};
use crate::zpool::{CompactReport, ZpoolStats};

/// Latency/bandwidth parameters of one storage or network medium.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MediaModel {
    /// Fixed cost of a read (seek / request round-trip).
    pub read_base: Nanos,
    /// Fixed cost of a write.
    pub write_base: Nanos,
    /// Sustained transfer bandwidth in bytes per nanosecond
    /// (1 byte/ns = 1 GB/s).
    pub bytes_per_ns: u64,
}

impl MediaModel {
    /// A local NVMe-class SSD: ~20 µs reads, ~50 µs writes, 2 GB/s.
    #[must_use]
    pub fn ssd() -> Self {
        Self {
            read_base: Nanos::from_ns(20_000),
            write_base: Nanos::from_ns(50_000),
            bytes_per_ns: 2,
        }
    }

    /// RDMA-reachable remote memory: ~3 µs either way, 5 GB/s.
    #[must_use]
    pub fn remote() -> Self {
        Self {
            read_base: Nanos::from_ns(3_000),
            write_base: Nanos::from_ns(3_000),
            bytes_per_ns: 5,
        }
    }
}

/// One stored page: its bytes, their integrity checksum, and the
/// tenant billed for them until a swap-in consumes the record.
#[derive(Debug)]
struct Record {
    data: Vec<u8>,
    sum: u64,
    owner: TenantId,
}

#[derive(Debug, Default)]
struct MediaState {
    pages: BTreeMap<u64, Record>,
    /// Buffers of the pages that left the medium, for the next stores:
    /// a plane in steady state (one page out for each page in, as under
    /// a tier's demotions) stores without allocating, and its footprint
    /// is its high-water mark.
    spare: Vec<Vec<u8>>,
    stats: BackendStats,
    /// Virtual time at which the device finishes its current request
    /// (single-server queue).
    busy_until: u64,
    /// Killed and not yet revived.
    down: bool,
    corrupted_reads: u64,
}

impl MediaState {
    /// Drops `page` from the medium (no latency charge: trim is free)
    /// and keeps its buffer for the next store.
    fn evict(&mut self, page: PageNumber) {
        if let Some(record) = self.pages.remove(&page.index()) {
            self.spare.push(record.data);
        }
    }
}

fn media_error(cause: Error) -> SwapError {
    SwapError::new(SwapSite::Media, cause)
}

/// A raw-page swap plane over latency/bandwidth-modeled media.
///
/// Pages are stored uncompressed (the compression tier sits above);
/// every operation advances the shared virtual clock by its modeled
/// completion time and records the end-to-end latency (service +
/// queueing) into a [`Histogram`] in deterministic simulated
/// nanoseconds.
#[derive(Debug)]
pub struct ModeledPlane {
    name: String,
    model: MediaModel,
    capacity_pages: u64,
    clock: ClockMirror,
    state: Mutex<MediaState>,
    read_hist: Arc<Histogram>,
    write_hist: Arc<Histogram>,
    faults: Option<Arc<FaultInjector>>,
}

impl ModeledPlane {
    /// Builds a plane over `model` media. `capacity_pages == 0` means
    /// unbounded. All planes sharing `clock` advance one timeline.
    #[must_use]
    pub fn new(name: &str, model: MediaModel, capacity_pages: u64, clock: ClockMirror) -> Self {
        Self {
            name: name.to_owned(),
            model,
            capacity_pages,
            clock,
            state: Mutex::new(MediaState::default()),
            read_hist: Arc::new(Histogram::new()),
            write_hist: Arc::new(Histogram::new()),
            faults: None,
        }
    }

    /// Re-homes the latency histograms into `registry` as
    /// `xfm_plane_read_latency_ns{plane="<name>"}` /
    /// `xfm_plane_write_latency_ns{plane="<name>"}`.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        registry.describe(
            "xfm_plane_read_latency_ns",
            "Modeled plane read latency, service + queueing (simulated ns).",
        );
        registry.describe(
            "xfm_plane_write_latency_ns",
            "Modeled plane write latency, service + queueing (simulated ns).",
        );
        let series = |what| format!("xfm_plane_{what}_latency_ns{{plane=\"{}\"}}", self.name);
        self.read_hist = registry.histogram(&series("read"));
        self.write_hist = registry.histogram(&series("write"));
    }

    /// Arms fault injection ([`FaultSite::BitCorruption`] flips a
    /// fetched block's checksum; the stored copy stays intact).
    pub fn attach_faults(&mut self, faults: Arc<FaultInjector>) {
        self.faults = Some(faults);
    }

    /// Simulated end-to-end read latencies (ns).
    #[must_use]
    pub fn read_latency(&self) -> &Histogram {
        &self.read_hist
    }

    /// Simulated end-to-end write latencies (ns).
    #[must_use]
    pub fn write_latency(&self) -> &Histogram {
        &self.write_hist
    }

    /// Reads the plane detected as corrupted in transit (and retried).
    #[must_use]
    pub fn corrupted_reads(&self) -> u64 {
        self.state.lock().corrupted_reads
    }

    /// Models a device/node crash: every subsequent operation fails
    /// with a permanent `Device` error until [`ModeledPlane::revive`].
    pub fn kill(&self) {
        self.state.lock().down = true;
    }

    /// Brings a killed plane back (its stored pages survive).
    pub fn revive(&self) {
        self.state.lock().down = false;
    }

    /// Whether the plane is accepting operations.
    #[must_use]
    pub fn is_alive(&self) -> bool {
        !self.state.lock().down
    }

    fn check_alive(&self, state: &MediaState) -> SwapResult<()> {
        if state.down {
            return Err(media_error(Error::Device(format!("{} is down", self.name))));
        }
        Ok(())
    }

    /// Charges one request to the single-server queue and returns the
    /// end-to-end latency (queue wait + service) in simulated ns.
    fn charge(&self, busy_until: &mut u64, base: Nanos, bytes: u64) -> u64 {
        let now = self.clock.now_ns();
        let start = (*busy_until).max(now);
        // Service time for moving the bytes once, excluding queueing.
        let finish = start + base.as_ns() + bytes / self.model.bytes_per_ns.max(1);
        *busy_until = finish;
        self.clock.publish(Nanos::from_ns(finish));
        finish - now
    }

    /// Stores `data` under `page`, billed to `owner`, in one critical
    /// section: duplicate check → capacity → charge → insert (into a
    /// recycled buffer when one is spare) → tally. A replica of a pair
    /// passes `tally: false`: the pair counts the logical swap.
    fn store(
        &self,
        page: PageNumber,
        data: &[u8],
        owner: TenantId,
        tally: bool,
    ) -> SwapResult<SwapOutcome> {
        let mut state = self.state.lock();
        self.check_alive(&state)?;
        if data.len() != PAGE_SIZE {
            let len = data.len();
            return Err(media_error(Error::InvalidConfig(format!(
                "page must be {PAGE_SIZE} bytes, got {len}"
            ))));
        }
        if state.pages.contains_key(&page.index()) {
            return Err(media_error(Error::EntryExists { page: page.index() }));
        }
        if self.capacity_pages != 0 && state.pages.len() as u64 >= self.capacity_pages {
            return Err(media_error(Error::SfmRegionFull));
        }
        let latency = self.charge(
            &mut state.busy_until,
            self.model.write_base,
            data.len() as u64,
        );
        let mut block = state.spare.pop().unwrap_or_default();
        block.clear();
        block.extend_from_slice(data);
        let sum = checksum(data);
        let record = Record {
            data: block,
            sum,
            owner,
        };
        state.pages.insert(page.index(), record);
        self.write_hist.record(latency);
        let outcome = SwapOutcome::raw_page();
        if tally {
            state.stats.record(&outcome, true);
        }
        Ok(outcome)
    }

    /// Copies `page` into `out` in one critical section: lookup → charge
    /// → verify → copy out and, when `consume`, → remove → tally, so of
    /// two racing swap-ins one gets the page and one `EntryNotFound`.
    /// Returns the record's checksum and owner. The in-transit
    /// [`FaultSite::BitCorruption`] hook fires here: the *fetched* bytes
    /// fail verification while the stored record is untouched, so a
    /// retry succeeds. A replica of a pair is read with `consume: false`.
    fn load_into(
        &self,
        page: PageNumber,
        out: &mut Vec<u8>,
        consume: bool,
    ) -> SwapResult<(u64, TenantId)> {
        let mut state = self.state.lock();
        let state = &mut *state;
        self.check_alive(state)?;
        let record = state
            .pages
            .get(&page.index())
            .ok_or_else(|| media_error(Error::EntryNotFound { page: page.index() }))?;
        let latency = self.charge(
            &mut state.busy_until,
            self.model.read_base,
            record.data.len() as u64,
        );
        let mut got = checksum(&record.data);
        if let Some(f) = &self.faults {
            if f.should_fire(FaultSite::BitCorruption) {
                got ^= 1;
            }
        }
        let (expected, owner) = (record.sum, record.owner);
        if got != expected {
            state.corrupted_reads += 1;
            let page = page.index();
            return Err(media_error(Error::ChecksumMismatch {
                page,
                expected,
                got,
            }));
        }
        out.clear();
        out.extend_from_slice(&record.data);
        self.read_hist.record(latency);
        if consume {
            state.evict(page);
            state.stats.record(&SwapOutcome::raw_page(), false);
        }
        Ok((expected, owner))
    }

    /// The stored checksum and owner of `page`, if present.
    fn peek(&self, page: PageNumber) -> Option<(u64, TenantId)> {
        let state = self.state.lock();
        state.pages.get(&page.index()).map(|r| (r.sum, r.owner))
    }

    fn remove(&self, page: PageNumber) {
        self.state.lock().evict(page);
    }

    /// Live page count.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.state.lock().pages.len() as u64
    }

    /// Whether the plane stores no pages.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl SwapPlane for ModeledPlane {
    fn swap_out_ctx(
        &self,
        ctx: &OpContext,
        page: PageNumber,
        data: &[u8],
    ) -> SwapResult<SwapOutcome> {
        self.store(page, data, ctx.tenant, true)
    }

    fn swap_in_into_ctx(
        &self,
        _ctx: &OpContext,
        page: PageNumber,
        _do_offload: bool,
        out: &mut Vec<u8>,
    ) -> SwapResult<SwapOutcome> {
        self.load_into(page, out, true)?;
        Ok(SwapOutcome::raw_page())
    }

    fn contains(&self, page: PageNumber) -> bool {
        self.state.lock().pages.contains_key(&page.index())
    }

    fn compact(&self) -> CompactReport {
        // Raw-page media have no slab fragmentation to compact.
        CompactReport::default()
    }

    fn stats(&self) -> BackendStats {
        self.state.lock().stats
    }

    fn pool_stats(&self) -> ZpoolStats {
        let pages = self.len();
        ZpoolStats {
            stored_bytes: ByteSize::from_bytes(pages * PAGE_SIZE as u64),
            slot_overhead: ByteSize::ZERO,
            host_pages: pages,
            objects: pages,
        }
    }

    /// Derived from the resident records.
    fn tenant_usage(&self) -> Vec<(TenantId, u64)> {
        let state = self.state.lock();
        merge_usage(state.pages.values().map(|r| (r.owner, PAGE_SIZE as u64)))
    }

    fn tenant_of(&self, page: PageNumber) -> Option<TenantId> {
        self.peek(page).map(|(_, owner)| owner)
    }
}

/// What the pair counts, behind its plane-level lock.
#[derive(Debug, Default)]
struct ReplicaTallies {
    stats: BackendStats,
    dropped_writes: u64,
    degraded_reads: u64,
    repairs: u64,
}

/// Write-both / read-any replication across two remote planes.
///
/// Every swap-out is written to both replicas and accepted when it
/// reaches at least one: a copy lost to an injected
/// [`FaultSite::ReplicaLoss`] drop is counted in `dropped_writes`, a
/// copy not written because its replica is down is counted nowhere
/// (`scrub` restores either). Every swap-in reads from the first
/// replica holding a checksum-valid copy, repairing the other replica
/// from the good copy before the entry is consumed. With at most one
/// replica lost at a time, no stored page is ever lost — the invariant
/// `xfm-tier-bench`'s storm-and-kill pass proves. The owner travels in
/// the replicas' records; a page is billed once however many copies
/// exist (dropped writes and repairs never change a tenant's bill).
#[derive(Debug)]
pub struct ReplicatedPlane {
    replicas: [ModeledPlane; 2],
    /// The plane-level lock, held across every logical operation.
    tallies: Mutex<ReplicaTallies>,
    faults: Option<Arc<FaultInjector>>,
}

impl ReplicatedPlane {
    /// Builds a replica pair over `model` media sharing `clock`.
    /// Each replica independently holds `capacity_pages`.
    #[must_use]
    pub fn new(name: &str, model: MediaModel, capacity_pages: u64, clock: ClockMirror) -> Self {
        Self {
            replicas: [
                ModeledPlane::new(&format!("{name}.r0"), model, capacity_pages, clock.clone()),
                ModeledPlane::new(&format!("{name}.r1"), model, capacity_pages, clock),
            ],
            tallies: Mutex::new(ReplicaTallies::default()),
            faults: None,
        }
    }

    /// Re-homes both replicas' latency histograms into `registry`.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        for r in &mut self.replicas {
            r.attach_telemetry(registry);
        }
    }

    /// Arms fault injection: [`FaultSite::ReplicaLoss`] silently drops
    /// one replica's copy of a write; [`FaultSite::BitCorruption`]
    /// corrupts fetched blocks inside each replica.
    pub fn attach_faults(&mut self, faults: Arc<FaultInjector>) {
        for r in &mut self.replicas {
            r.attach_faults(Arc::clone(&faults));
        }
        self.faults = Some(faults);
    }

    /// Kills replica `idx` (0 or 1): its operations fail until revived.
    pub fn kill(&self, idx: usize) {
        self.replicas[idx].kill();
    }

    /// Revives replica `idx`; stored pages survive the outage.
    pub fn revive(&self, idx: usize) {
        self.replicas[idx].revive();
    }

    /// Access to one replica (inspection in tests and benches).
    #[must_use]
    pub fn replica(&self, idx: usize) -> &ModeledPlane {
        &self.replicas[idx]
    }

    /// Writes accepted with one copy dropped on the way to its replica.
    #[must_use]
    pub fn dropped_writes(&self) -> u64 {
        self.tallies.lock().dropped_writes
    }

    /// Reads served with one replica unavailable or invalid.
    #[must_use]
    pub fn degraded_reads(&self) -> u64 {
        self.tallies.lock().degraded_reads
    }

    /// Replica copies restored from the surviving good copy.
    #[must_use]
    pub fn repairs(&self) -> u64 {
        self.tallies.lock().repairs
    }

    /// Full-sweep anti-entropy pass: restores every page that one
    /// (alive) replica holds and the other lost or corrupted. Returns
    /// the number of copies restored.
    pub fn scrub(&self) -> u64 {
        let mut tallies = self.tallies.lock();
        let mut restored = 0;
        let mut buf = Vec::with_capacity(PAGE_SIZE);
        for (src, dst) in [(0usize, 1usize), (1, 0)] {
            let (src, dst) = (&self.replicas[src], &self.replicas[dst]);
            if !src.is_alive() || !dst.is_alive() {
                continue;
            }
            let held: Vec<_> = {
                let state = src.state.lock();
                let records = state.pages.iter();
                let held = records.map(|(&p, r)| (PageNumber::new(p), r.sum, r.owner));
                held.collect()
            };
            for (page, sum, owner) in held {
                let in_sync = dst.peek(page).is_some_and(|(d, _)| d == sum);
                if !in_sync && src.load_into(page, &mut buf, false).is_ok() {
                    dst.remove(page);
                    if dst.store(page, &buf, owner, false).is_ok() {
                        restored += 1;
                    }
                }
            }
        }
        tallies.repairs += restored;
        restored
    }
}

/// One replica's error, re-sited at the pair.
fn at_replica(e: SwapError) -> SwapError {
    SwapError::new(SwapSite::Replica, e.cause().clone()).with_retryable(e.is_retryable())
}

impl SwapPlane for ReplicatedPlane {
    fn swap_out_ctx(
        &self,
        ctx: &OpContext,
        page: PageNumber,
        data: &[u8],
    ) -> SwapResult<SwapOutcome> {
        let mut tallies = self.tallies.lock();
        if self.replicas.iter().any(|r| r.contains(page)) {
            let exists = Error::EntryExists { page: page.index() };
            return Err(SwapError::new(SwapSite::Replica, exists));
        }
        let first = self.replicas[0].store(page, data, ctx.tenant, false);
        // The fault hook models a fabric drop on the way to replica 1:
        // the write vanishes without an error.
        let faults = self.faults.as_ref();
        let second = if faults.is_some_and(|f| f.should_fire(FaultSite::ReplicaLoss)) {
            tallies.dropped_writes += 1;
            None
        } else {
            Some(self.replicas[1].store(page, data, ctx.tenant, false))
        };
        // Accepted when one replica took it; else the last error says why.
        first
            .or_else(|e| second.unwrap_or(Err(e)))
            .map_err(at_replica)?;
        let outcome = SwapOutcome::raw_page();
        tallies.stats.record(&outcome, true);
        Ok(outcome)
    }

    fn swap_in_into_ctx(
        &self,
        _ctx: &OpContext,
        page: PageNumber,
        _do_offload: bool,
        out: &mut Vec<u8>,
    ) -> SwapResult<SwapOutcome> {
        let mut tallies = self.tallies.lock();
        let mut read = self.replicas[0].load_into(page, out, false).map(|r| (0, r));
        if read.is_err() {
            read = self.replicas[1].load_into(page, out, false).map(|r| (1, r));
        }
        let (good, (sum, owner)) = read.map_err(at_replica)?;
        if good != 0 {
            tallies.degraded_reads += 1;
        }
        // Read repair before consuming: if the other replica lost or
        // corrupted its copy while alive, restore it so accounting
        // stays symmetric, then consume both. The copy just read was
        // verified against its stored checksum, so the two stored sums
        // say whether the other copy is the same page.
        let other = &self.replicas[1 - good];
        if other.is_alive() {
            let in_sync = other.peek(page).is_some_and(|(o, _)| o == sum);
            if !in_sync {
                other.remove(page);
                if other.store(page, out, owner, false).is_ok() {
                    tallies.repairs += 1;
                }
            }
        }
        for replica in &self.replicas {
            replica.remove(page);
        }
        let outcome = SwapOutcome::raw_page();
        tallies.stats.record(&outcome, false);
        Ok(outcome)
    }

    fn contains(&self, page: PageNumber) -> bool {
        let _plane = self.tallies.lock();
        self.replicas.iter().any(|r| r.contains(page))
    }

    fn compact(&self) -> CompactReport {
        CompactReport::default()
    }

    fn stats(&self) -> BackendStats {
        self.tallies.lock().stats
    }

    fn pool_stats(&self) -> ZpoolStats {
        // Report the fuller replica: with both healthy they agree, and
        // during an outage the survivor is the authoritative view.
        let _plane = self.tallies.lock();
        self.replicas
            .iter()
            .map(|r| r.pool_stats())
            .max_by_key(|s| s.objects)
            .unwrap_or_default()
    }

    /// Derived from the resident records, one bill per logical page
    /// however many replicas hold a copy.
    fn tenant_usage(&self) -> Vec<(TenantId, u64)> {
        let _plane = self.tallies.lock();
        let (r0, r1) = (self.replicas[0].state.lock(), self.replicas[1].state.lock());
        let only_r1 = r1.pages.iter().filter(|(p, _)| !r0.pages.contains_key(p));
        let records = r0.pages.values().chain(only_r1.map(|(_, r)| r));
        merge_usage(records.map(|r| (r.owner, PAGE_SIZE as u64)))
    }

    fn tenant_of(&self, page: PageNumber) -> Option<TenantId> {
        let _plane = self.tallies.lock();
        self.replicas
            .iter()
            .find_map(|r| r.peek(page))
            .map(|(_, owner)| owner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xfm_faults::{FaultPlan, SiteSpec};

    fn page_of(byte: u8) -> Vec<u8> {
        vec![byte; PAGE_SIZE]
    }

    #[test]
    fn modeled_round_trip_charges_latency() {
        let plane = ModeledPlane::new("ssd", MediaModel::ssd(), 0, ClockMirror::new());
        let data = page_of(7);
        plane.swap_out(PageNumber::new(1), &data).unwrap();
        assert!(plane.contains(PageNumber::new(1)));
        let (back, _) = plane.swap_in(PageNumber::new(1), false).unwrap();
        assert_eq!(back, data);
        assert!(!plane.contains(PageNumber::new(1)));
        assert_eq!(plane.write_latency().count(), 1);
        assert_eq!(plane.read_latency().count(), 1);
        // 50 µs base + 4096 B / 2 B-per-ns = 52_048 ns, queue empty.
        assert_eq!(plane.write_latency().quantile(0.5), 52_048);
    }

    #[test]
    fn a_store_reuses_the_buffer_of_a_page_that_left() {
        let plane = ModeledPlane::new("ssd", MediaModel::ssd(), 0, ClockMirror::new());
        plane.swap_out(PageNumber::new(1), &page_of(1)).unwrap();
        let held = plane.state.lock().pages[&1].data.as_ptr();
        plane.swap_in(PageNumber::new(1), false).unwrap();
        assert_eq!(plane.state.lock().spare.len(), 1);
        plane.swap_out(PageNumber::new(2), &page_of(2)).unwrap();
        let state = plane.state.lock();
        assert!(state.spare.is_empty());
        assert_eq!(state.pages[&2].data.as_ptr(), held);
        assert_eq!(state.pages[&2].data, page_of(2));
    }

    #[test]
    fn attached_latencies_land_in_plane_labelled_series() {
        let registry = Registry::new();
        let mut plane = ModeledPlane::new("ssd", MediaModel::ssd(), 0, ClockMirror::new());
        plane.attach_telemetry(&registry);
        plane.swap_out(PageNumber::new(1), &page_of(7)).unwrap();
        plane.swap_in(PageNumber::new(1), false).unwrap();
        let s = registry.snapshot();
        assert_eq!(
            s.histograms[r#"xfm_plane_write_latency_ns{plane="ssd"}"#].p50,
            plane.write_latency().quantile(0.5)
        );
        assert_eq!(
            s.histograms[r#"xfm_plane_read_latency_ns{plane="ssd"}"#].count,
            1
        );
        assert!(s.help.contains_key("xfm_plane_read_latency_ns"));
    }

    #[test]
    fn queueing_delays_back_to_back_ops() {
        let clock = ClockMirror::new();
        let plane = ModeledPlane::new("ssd", MediaModel::ssd(), 0, clock.clone());
        let t0 = clock.now_ns();
        plane.swap_out(PageNumber::new(1), &page_of(1)).unwrap();
        let t1 = clock.now_ns();
        plane.swap_out(PageNumber::new(2), &page_of(2)).unwrap();
        let t2 = clock.now_ns();
        assert!(t1 > t0 && t2 > t1, "completion times advance the clock");
        assert_eq!(t2 - t1, t1 - t0, "identical ops take identical service");
    }

    #[test]
    fn capacity_rejects_with_region_full() {
        let plane = ModeledPlane::new("ssd", MediaModel::ssd(), 1, ClockMirror::new());
        plane.swap_out(PageNumber::new(1), &page_of(1)).unwrap();
        let err = plane.swap_out(PageNumber::new(2), &page_of(2)).unwrap_err();
        assert!(err.is_capacity());
        assert!(err.is_retryable_on_other_tier());
        assert_eq!(err.site(), SwapSite::Media);
    }

    #[test]
    fn killed_plane_fails_permanent_until_revived() {
        let plane = ModeledPlane::new("node", MediaModel::remote(), 0, ClockMirror::new());
        plane.swap_out(PageNumber::new(1), &page_of(1)).unwrap();
        plane.kill();
        let err = plane.swap_in(PageNumber::new(1), false).unwrap_err();
        assert!(!err.is_retryable());
        assert!(err.is_retryable_on_other_tier(), "another tier may serve");
        plane.revive();
        let (back, _) = plane.swap_in(PageNumber::new(1), false).unwrap();
        assert_eq!(back, page_of(1));
    }

    #[test]
    fn bit_corruption_is_retryable_and_nonconsuming() {
        let mut plane = ModeledPlane::new("node", MediaModel::remote(), 0, ClockMirror::new());
        let plan = FaultPlan::new(9).with_site(
            FaultSite::BitCorruption,
            SiteSpec::with_probability(1.0).max_fires(1),
        );
        plane.attach_faults(Arc::new(FaultInjector::new(&plan)));
        plane.swap_out(PageNumber::new(3), &page_of(3)).unwrap();
        let err = plane.swap_in(PageNumber::new(3), false).unwrap_err();
        assert!(err.is_corruption() && err.is_retryable());
        assert_eq!(plane.corrupted_reads(), 1);
        // The stored block is intact; the retry succeeds.
        let (back, _) = plane.swap_in(PageNumber::new(3), false).unwrap();
        assert_eq!(back, page_of(3));
    }

    #[test]
    fn replica_write_both_read_any() {
        let rep = ReplicatedPlane::new("rem", MediaModel::remote(), 0, ClockMirror::new());
        rep.swap_out(PageNumber::new(1), &page_of(9)).unwrap();
        assert_eq!(rep.replica(0).len(), 1);
        assert_eq!(rep.replica(1).len(), 1);
        let (back, _) = rep.swap_in(PageNumber::new(1), false).unwrap();
        assert_eq!(back, page_of(9));
        assert_eq!(rep.replica(0).len(), 0);
        assert_eq!(rep.replica(1).len(), 0);
    }

    #[test]
    fn replica_kill_loses_no_pages() {
        let rep = ReplicatedPlane::new("rem", MediaModel::remote(), 0, ClockMirror::new());
        for i in 0..32u64 {
            rep.swap_out(PageNumber::new(i), &page_of(i as u8)).unwrap();
        }
        rep.kill(0);
        for i in 0..32u64 {
            let (back, _) = rep.swap_in(PageNumber::new(i), false).unwrap();
            assert_eq!(back, page_of(i as u8), "page {i} after replica-0 kill");
        }
        assert_eq!(rep.degraded_reads(), 32);
    }

    #[test]
    fn dropped_write_is_repaired_on_read() {
        let mut rep = ReplicatedPlane::new("rem", MediaModel::remote(), 0, ClockMirror::new());
        let plan = FaultPlan::new(5).with_site(
            FaultSite::ReplicaLoss,
            SiteSpec::with_probability(1.0).max_fires(1),
        );
        rep.attach_faults(Arc::new(FaultInjector::new(&plan)));
        rep.swap_out(PageNumber::new(1), &page_of(1)).unwrap();
        assert_eq!(rep.dropped_writes(), 1);
        assert_eq!(rep.replica(1).len(), 0, "replica 1 lost the write");
        // A second page (fault budget spent) lands on both.
        rep.swap_out(PageNumber::new(2), &page_of(2)).unwrap();
        // Reading page 1 repairs replica 1 before consuming.
        let (back, _) = rep.swap_in(PageNumber::new(1), false).unwrap();
        assert_eq!(back, page_of(1));
        assert_eq!(rep.repairs(), 1);
    }

    #[test]
    fn scrub_restores_missing_copies() {
        let mut rep = ReplicatedPlane::new("rem", MediaModel::remote(), 0, ClockMirror::new());
        let plan = FaultPlan::new(5).with_site(
            FaultSite::ReplicaLoss,
            SiteSpec::with_probability(1.0).max_fires(3),
        );
        rep.attach_faults(Arc::new(FaultInjector::new(&plan)));
        for i in 0..3u64 {
            rep.swap_out(PageNumber::new(i), &page_of(i as u8)).unwrap();
        }
        assert_eq!(rep.dropped_writes(), 3);
        assert_eq!(rep.scrub(), 3);
        assert_eq!(rep.replica(1).len(), 3);
        assert_eq!(rep.scrub(), 0, "second pass finds nothing to do");
    }
}
