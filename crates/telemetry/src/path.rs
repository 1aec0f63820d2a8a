//! One operation, decomposed: [`LifecycleTrace::explain`] rebuilds
//! where an operation's time went from the events the trail retains.
//!
//! A serve-layer operation (a get that took its tenant's lock, or a
//! put) records its own layers as [`LifecycleStage::Span`] events on its
//! page and ends with a [`LifecycleStage::Get`] or
//! [`LifecycleStage::Put`] event carrying its measured latency. Inside
//! it, the plane records what it always does — `Load` or `Fault` with
//! its `Fetch` and `Decompress`, and for each victim the serve drained
//! (an [`LifecycleStage::Evict`] event names it) that victim's
//! `Compress` and `ZpoolStore` — plus `Span`s for the shard-lock waits
//! and the booking of a fault. [`CriticalPath`] is the sum of those, step
//! by step; what no event explains (the plane call's dispatch, clock
//! reads) is [`CriticalPath::unattributed_ns`].
//!
//! A bare plane fault (no serve layer) explains as its `Fault` or `Load`
//! event: the fetch and checksum, and the decode.
//!
//! A path has one JSON shape, written by [`CriticalPath::write_json`]
//! and checked by [`check_path`] (the flight recorder's dumps carry it).

use std::fmt;

use xfm_types::{PlaneId, TenantId};

use crate::json::JsonValue;
use crate::lifecycle::{Cause, LifecycleEvent, LifecycleStage, LifecycleTrace};

xfm_types::wire_enum! {
    /// One layer of an operation's [`CriticalPath`]. Its code is the
    /// `aux` of a [`LifecycleStage::Span`] event.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum Layer (code, from_code) {
        /// Waiting for the tenant's mutex.
        TenantLock = "tenant_lock",
        /// Waiting for the lock of a stripe of resident pages.
        StripeLock = "stripe_lock",
        /// Waiting for another caller's in-flight key to settle.
        Settle = "settle",
        /// Waiting for a plane shard's lock.
        ShardLock = "shard_lock",
        /// Serve bookkeeping: the far-set and stripe lookups, the queue
        /// moves, the ledger.
        Bookkeeping = "bookkeeping",
        /// Discarding the plane's stale copy of a key a put overwrites.
        Discard = "discard",
        /// Table lookup, block copy and checksum of a fault (and the
        /// consume of a swap-in).
        Fetch = "fetch",
        /// The decode of a fault.
        Decompress = "decompress",
        /// A fault's re-lock and booking in the plane.
        Booking = "booking",
        /// Copying the restored page into its resident buffer.
        CopyOut = "copy_out",
        /// The quota pass's own work: turning the queues, taking victims.
        QuotaPass = "quota_pass",
        /// A drained victim's compression.
        Compress = "compress",
        /// A drained victim's zpool store.
        ZpoolStore = "zpool_store",
    }
}

impl Layer {
    /// Whether time in this layer is waiting rather than working.
    #[must_use]
    pub fn is_wait(self) -> bool {
        matches!(
            self,
            Layer::TenantLock | Layer::StripeLock | Layer::Settle | Layer::ShardLock
        )
    }

    /// Every layer, in code order.
    pub fn all() -> impl Iterator<Item = Layer> {
        (0..).map_while(Layer::from_code)
    }
}

/// One step of a [`CriticalPath`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathStep {
    /// The layer the time was spent in.
    pub layer: Layer,
    /// The page it was spent on: the operation's own, or a victim's.
    pub page: u64,
    /// Wall ns.
    pub ns: u64,
}

/// Where one operation's time went (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalPath {
    /// The operation's page.
    pub page: u64,
    /// What the operation was: `Get` or `Put` at the serve layer, `Fault`
    /// or `Load` for a bare plane fault.
    pub stage: LifecycleStage,
    /// The tier plane a fault was promoted from, when a tiered plane
    /// recorded one.
    pub plane: Option<PlaneId>,
    /// The shard that served the fault ([`crate::lifecycle::NO_SHARD`]
    /// when none did).
    pub shard: u32,
    /// The tenant billed.
    pub tenant: TenantId,
    /// The fault's cause when there was one (`stored_raw`,
    /// `same_filled`, ...), else the operation's.
    pub cause: Cause,
    /// The operation's measured latency, wall ns.
    pub total_ns: u64,
    /// The layers, in the order recorded.
    pub steps: Vec<PathStep>,
}

impl CriticalPath {
    /// Time spent waiting for locks and in-flight keys.
    #[must_use]
    pub fn wait_ns(&self) -> u64 {
        self.steps
            .iter()
            .filter(|s| s.layer.is_wait())
            .map(|s| s.ns)
            .sum()
    }

    /// Time spent working.
    #[must_use]
    pub fn work_ns(&self) -> u64 {
        self.steps
            .iter()
            .filter(|s| !s.layer.is_wait())
            .map(|s| s.ns)
            .sum()
    }

    /// Time in `layer`, over every page.
    #[must_use]
    pub fn layer_ns(&self, layer: Layer) -> u64 {
        self.steps
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.ns)
            .sum()
    }

    /// The victims the operation drained through its plane, in order.
    #[must_use]
    pub fn victims(&self) -> Vec<u64> {
        let mut pages: Vec<u64> = Vec::new();
        for s in &self.steps {
            if s.layer == Layer::Compress && !pages.contains(&s.page) {
                pages.push(s.page);
            }
        }
        pages
    }

    /// The latency no recorded layer explains: the plane call's
    /// dispatch and the clock reads.
    #[must_use]
    pub fn unattributed_ns(&self) -> u64 {
        self.total_ns
            .saturating_sub(self.wait_ns() + self.work_ns())
    }

    /// Appends the path as one JSON object: `page`, `stage`, `plane`
    /// (null when untiered), `shard`, `tenant`, `cause`, `total_ns`,
    /// `wait_ns`, `work_ns` and `steps` (`layer`, `page`, `ns`).
    pub fn write_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        let plane = self
            .plane
            .map_or_else(|| "null".to_string(), |p| p.as_u32().to_string());
        let _ = write!(
            out,
            "{{\"page\": {}, \"stage\": \"{}\", \"plane\": {plane}, \"shard\": {}, \
             \"tenant\": {}, \"cause\": \"{}\", \"total_ns\": {}, \"wait_ns\": {}, \
             \"work_ns\": {}, \"steps\": [",
            self.page,
            self.stage.name(),
            self.shard,
            self.tenant.code(),
            self.cause.name(),
            self.total_ns,
            self.wait_ns(),
            self.work_ns(),
        );
        for (i, s) in self.steps.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let (layer, page, ns) = (s.layer.name(), s.page, s.ns);
            let _ = write!(
                out,
                "{sep}{{\"layer\": \"{layer}\", \"page\": {page}, \"ns\": {ns}}}"
            );
        }
        out.push_str("]}");
    }
}

/// One line per step, then the wait/work split.
impl fmt::Display for CriticalPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} of page {:#x} ({}",
            self.stage.name(),
            self.page,
            self.tenant
        )?;
        if self.shard != crate::lifecycle::NO_SHARD {
            write!(f, ", shard {}", self.shard)?;
        }
        write!(f, ", cause {}", self.cause.name())?;
        if let Some(plane) = self.plane {
            write!(f, ", from {plane}")?;
        }
        writeln!(f, "): {} ns", self.total_ns)?;
        for s in &self.steps {
            let kind = if s.layer.is_wait() { "wait" } else { "work" };
            write!(f, "  {:<12} {kind} {:>9} ns", s.layer.name(), s.ns)?;
            if s.page != self.page {
                write!(f, "  (victim {:#x})", s.page)?;
            }
            writeln!(f)?;
        }
        write!(
            f,
            "  wait {} ns, work {} ns, unattributed {} ns",
            self.wait_ns(),
            self.work_ns(),
            self.unattributed_ns()
        )
    }
}

fn is_op(e: &LifecycleEvent) -> bool {
    matches!(
        e.stage,
        LifecycleStage::Get | LifecycleStage::Put | LifecycleStage::Fault | LifecycleStage::Load
    )
}

/// A victim's `Compress` and `ZpoolStore` of the demotion that ended at
/// `events[evict]`: the ones on its page since its story before that
/// (its last operation, fault or demotion).
fn victim_steps(events: &[LifecycleEvent], evict: usize, victim: u64) -> Vec<PathStep> {
    let mut steps = Vec::new();
    let before = events[..evict].iter().rev().filter(|e| e.page == victim);
    for e in before.take_while(|e| !is_op(e) && e.stage != LifecycleStage::Evict) {
        let layer = match (e.stage, e.cause) {
            (LifecycleStage::Compress, _) => Layer::Compress,
            (LifecycleStage::ZpoolStore, Cause::RegionFull) => continue,
            (LifecycleStage::ZpoolStore, _) => Layer::ZpoolStore,
            _ => continue,
        };
        steps.insert(
            0,
            PathStep {
                layer,
                page: victim,
                ns: e.dur_ns,
            },
        );
    }
    steps
}

impl LifecycleTrace {
    /// The critical path of the last operation on `page` the trail
    /// retains (see the [module docs](crate::path)); `None` when no
    /// operation on it is retained. The ring wraps in milliseconds under
    /// load, so a caller that wants the path of one operation asks right
    /// after it (`FarKvService`'s slow-op hook does).
    #[must_use]
    pub fn explain(&self, page: u64) -> Option<CriticalPath> {
        let events = self.snapshot();
        let end = events.iter().rposition(|e| e.page == page && is_op(e))?;
        let op = events[end];
        let mut path = CriticalPath {
            page,
            stage: op.stage,
            plane: None,
            shard: crate::lifecycle::NO_SHARD,
            tenant: op.tenant,
            cause: op.cause,
            total_ns: op.dur_ns,
            steps: Vec::new(),
        };
        let mut fault: Option<LifecycleEvent> = None;
        let (mut fault_at, mut decompress_ns) = (0, 0);
        if matches!(op.stage, LifecycleStage::Fault | LifecycleStage::Load) {
            // A bare plane fault: its `Fetch` and `Decompress`, and the
            // tier's promotion, follow it.
            fault = Some(op);
            let after = events[end + 1..].iter().filter(|e| e.page == page);
            for e in after.take_while(|e| !is_op(e)) {
                match e.stage {
                    LifecycleStage::Decompress => decompress_ns += e.dur_ns,
                    LifecycleStage::PromoteTier => {
                        path.plane = Some(PlaneId::new((e.aux >> 8) as u32))
                    }
                    _ => {}
                }
            }
        } else {
            // The operation's own events: those on its page since the
            // previous operation on it finished recording.
            let first = events[..end]
                .iter()
                .rposition(|e| {
                    e.page == page && matches!(e.stage, LifecycleStage::Get | LifecycleStage::Put)
                })
                .map_or(0, |i| i + 1);
            for (i, e) in events.iter().enumerate().take(end).skip(first) {
                if e.page != page {
                    continue;
                }
                match e.stage {
                    LifecycleStage::Span => {
                        if let Some(layer) = u8::try_from(e.aux).ok().and_then(Layer::from_code) {
                            path.steps.push(PathStep {
                                layer,
                                page,
                                ns: e.dur_ns,
                            });
                        }
                    }
                    LifecycleStage::Fault | LifecycleStage::Load => {
                        fault = Some(*e);
                        (fault_at, decompress_ns) = (path.steps.len(), 0);
                    }
                    LifecycleStage::Decompress => decompress_ns += e.dur_ns,
                    LifecycleStage::PromoteTier => {
                        path.plane = Some(PlaneId::new((e.aux >> 8) as u32))
                    }
                    LifecycleStage::Evict => path.steps.extend(victim_steps(&events, i, e.aux)),
                    _ => {}
                }
            }
        }
        if let Some(f) = fault {
            path.shard = f.shard;
            path.cause = f.cause;
            let fetch_ns = f.dur_ns.saturating_sub(decompress_ns);
            let step = |layer, ns| PathStep { layer, page, ns };
            let fetch = step(Layer::Fetch, fetch_ns);
            let decode = (decompress_ns > 0).then(|| step(Layer::Decompress, decompress_ns));
            path.steps
                .splice(fault_at..fault_at, std::iter::once(fetch).chain(decode));
        }
        Some(path)
    }
}

/// Whether a wire enum has a variant called `wanted`.
fn known<T>(from_code: fn(u8) -> Option<T>, name: fn(T) -> &'static str, wanted: &str) -> bool {
    (0..=u8::MAX)
        .map_while(from_code)
        .any(|v| name(v) == wanted)
}

/// Checks one path object as [`CriticalPath::write_json`] writes it: the
/// fields and their types, known stage, cause and layer names, `wait_ns`
/// and `work_ns` equal to the sums of their steps, and no more time in
/// the steps than `total_ns`. Returns the path's page.
///
/// # Errors
///
/// A description of the first violation.
pub fn check_path(v: &JsonValue) -> Result<u64, String> {
    let num = |key: &str| {
        v.get(key)
            .and_then(JsonValue::as_f64)
            .map(|n| n as u64)
            .ok_or(format!("path missing numeric `{key}`"))
    };
    let name = |key: &str| {
        v.get(key)
            .and_then(JsonValue::as_str)
            .ok_or(format!("path missing string `{key}`"))
    };
    let page = num("page")?;
    let stage = name("stage")?;
    if !known(LifecycleStage::from_code, LifecycleStage::name, stage) {
        return Err(format!("unknown path stage `{stage}`"));
    }
    let cause = name("cause")?;
    if !known(Cause::from_code, Cause::name, cause) {
        return Err(format!("unknown path cause `{cause}`"));
    }
    match v.get("plane") {
        Some(JsonValue::Null) | Some(JsonValue::Number(_)) => {}
        _ => return Err("path `plane` must be null or a number".to_string()),
    }
    num("shard")?;
    num("tenant")?;
    let total = num("total_ns")?;
    let steps = v
        .get("steps")
        .and_then(JsonValue::as_array)
        .ok_or("path missing `steps` array")?;
    let (mut wait, mut work) = (0u64, 0u64);
    for (i, s) in steps.iter().enumerate() {
        let layer = s
            .get("layer")
            .and_then(JsonValue::as_str)
            .and_then(|n| Layer::all().find(|l| l.name() == n))
            .ok_or(format!("step {i}: unknown or missing `layer`"))?;
        s.get("page")
            .and_then(JsonValue::as_f64)
            .ok_or(format!("step {i}: missing numeric `page`"))?;
        let ns = s
            .get("ns")
            .and_then(JsonValue::as_f64)
            .ok_or(format!("step {i}: missing numeric `ns`"))? as u64;
        if layer.is_wait() {
            wait += ns;
        } else {
            work += ns;
        }
    }
    if (num("wait_ns")?, num("work_ns")?) != (wait, work) {
        return Err("path `wait_ns`/`work_ns` differ from its steps".to_string());
    }
    if wait + work > total {
        return Err(format!(
            "path steps sum to {} ns, over its {total} ns",
            wait + work
        ));
    }
    Ok(page)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::NO_SHARD;
    use LifecycleStage::{Compress, Decompress, Evict, Fetch, Get, Load, Put, Span, ZpoolStore};

    const T: TenantId = TenantId::SYSTEM;

    fn span(trail: &LifecycleTrace, page: u64, layer: Layer, ns: u64) {
        let aux = u64::from(layer.code());
        trail.record(Span, Cause::Ok, T, page, NO_SHARD, aux, ns);
    }

    #[test]
    fn layer_codes_are_stable() {
        let names: Vec<_> = Layer::all().map(|l| (l.code(), l.name())).collect();
        assert_eq!(names.len(), 13);
        assert_eq!(names[0], (0, "tenant_lock"));
        assert_eq!(names[12], (12, "zpool_store"));
        assert!(Layer::ShardLock.is_wait() && !Layer::Fetch.is_wait());
    }

    #[test]
    fn a_bare_fault_explains_as_fetch_and_decode() {
        let trail = LifecycleTrace::with_capacity(16);
        trail.record(Load, Cause::Ok, T, 5, 3, 900, 1_000);
        trail.record(Fetch, Cause::Ok, T, 5, 3, 900, 150);
        trail.record(Decompress, Cause::Ok, T, 5, 3, 900, 700);
        let path = trail.explain(5).unwrap();
        assert_eq!((path.stage, path.shard, path.total_ns), (Load, 3, 1_000));
        assert_eq!(path.layer_ns(Layer::Fetch), 300);
        assert_eq!(path.layer_ns(Layer::Decompress), 700);
        assert_eq!(path.unattributed_ns(), 0);
        assert_eq!(trail.explain(6), None);
    }

    #[test]
    fn a_put_names_its_victims_compress_and_store() {
        let trail = LifecycleTrace::with_capacity(64);
        // The victim's earlier demotion, and an earlier put of the same
        // page: neither is this put's.
        trail.record(Compress, Cause::Ok, T, 7, 0, 0, 5_555);
        trail.record(Load, Cause::Ok, T, 7, 0, 0, 777);
        span(&trail, 1, Layer::Bookkeeping, 5);
        trail.record(Put, Cause::Ok, T, 1, NO_SHARD, 0, 10);
        span(&trail, 1, Layer::Bookkeeping, 100);
        trail.record(Compress, Cause::Ok, T, 7, 0, 0, 2_000);
        trail.record(ZpoolStore, Cause::Ok, T, 7, 0, 0, 300);
        trail.record(Evict, Cause::Ok, T, 1, NO_SHARD, 7, 2_500);
        // Another page's work in the window is not this put's.
        trail.record(Compress, Cause::Ok, T, 8, 0, 0, 9_999);
        span(&trail, 1, Layer::QuotaPass, 50);
        trail.record(Put, Cause::Ok, T, 1, NO_SHARD, 1, 3_000);
        let path = trail.explain(1).unwrap();
        assert_eq!(path.stage, Put);
        assert_eq!(path.victims(), vec![7]);
        assert_eq!(path.work_ns(), 100 + 2_000 + 300 + 50);
        assert_eq!(path.unattributed_ns(), 3_000 - 2_450);
        let mut json = String::new();
        path.write_json(&mut json);
        assert_eq!(check_path(&crate::json::parse(&json).unwrap()), Ok(1));
        assert!(path.to_string().contains("(victim 0x7)"), "{path}");
    }

    #[test]
    fn a_get_sums_its_spans_and_its_plane_fault() {
        let trail = LifecycleTrace::with_capacity(64);
        span(&trail, 2, Layer::TenantLock, 40);
        trail.record(Load, Cause::StoredRaw, T, 2, 1, 0, 500);
        trail.record(Fetch, Cause::Ok, T, 2, 1, 0, 400);
        span(&trail, 2, Layer::Booking, 60);
        span(&trail, 2, Layer::CopyOut, 80);
        trail.record(Get, Cause::Ok, T, 2, NO_SHARD, 1, 1_000);
        let path = trail.explain(2).unwrap();
        assert_eq!((path.shard, path.cause), (1, Cause::StoredRaw));
        assert_eq!(path.wait_ns(), 40);
        assert_eq!(
            path.layer_ns(Layer::Fetch),
            500,
            "a raw block decodes nothing"
        );
        assert_eq!(path.work_ns(), 500 + 60 + 80);
    }

    #[test]
    fn check_path_rejects_inconsistent_sums() {
        let bad = r#"{"page": 1, "stage": "get", "plane": null, "shard": 0, "tenant": 0,
            "cause": "ok", "total_ns": 10, "wait_ns": 0, "work_ns": 20,
            "steps": [{"layer": "fetch", "page": 1, "ns": 20}]}"#;
        let err = check_path(&crate::json::parse(bad).unwrap()).unwrap_err();
        assert!(err.contains("over its 10 ns"), "{err}");
        let unknown = bad.replace("\"fetch\"", "\"teleport\"");
        assert!(check_path(&crate::json::parse(&unknown).unwrap()).is_err());
    }
}
