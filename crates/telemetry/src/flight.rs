//! The degradation flight recorder: automatic post-mortem dumps.
//!
//! A [`FlightRecorder`] wraps a registry's always-on lifecycle trail
//! (see [`crate::lifecycle`]). In steady state it costs nothing beyond
//! the trail itself — no allocation, no I/O. When an *incident* fires —
//! a `SwapError` exhausting its retries, or the `DegradeController`
//! changing state — [`FlightRecorder::incident`] snapshots the last N
//! lifecycle events across all shards and writes them, with the
//! incident header, to a JSON post-mortem file in the recorder's
//! directory. The dump is the "what led up to this" answer that
//! counters alone cannot give; it holds the header and the events, not
//! the counters or gauges (those are [`crate::Snapshot`]'s).
//!
//! A dump is `{"xfm_flight_recorder": 1, "incident": {"id", "reason",
//! "detail", "virt_ns", "page"}, "path", "events_dropped_before_capture",
//! "events"}`, each event in the schema every export shares
//! ([`crate::export`]: `seq`, `stage`, `cause`, `tenant`, `page`,
//! `shard`, `aux`, `virt_ns`, `dur_ns`) plus its `wall_ns`. An incident
//! that names a page carries, as `path`, the critical path of the last
//! operation on that page the trail retains
//! ([`crate::LifecycleTrace::explain`]; `null` when none is, and always
//! for an incident with a `null` page). Dumps are parseable with
//! [`crate::json`]; [`validate_dump`] checks the header, the path
//! ([`crate::path::check_path`]) and runs every event through that
//! schema's one checker (used by `ci.sh --obs` and the chaos gate).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::export::{check_event, json_escape, write_event};
use crate::json::{parse, JsonValue};
use crate::lifecycle::LifecycleEvent;
use crate::path::{check_path, CriticalPath};
use crate::registry::Registry;

/// How many trailing lifecycle events each dump captures.
pub const DUMP_EVENTS: usize = 256;

/// Cap on dumps written over a recorder's lifetime; incidents past the
/// cap are counted but not dumped (a flapping degrade controller must
/// not fill the disk).
pub const MAX_DUMPS: u64 = 16;

/// Each incident reason's share of [`MAX_DUMPS`]: a storm of one kind
/// (a round of compress-side retry give-ups) leaves room for the dumps
/// of every other kind that follows (decompress-side give-ups, mode
/// changes).
pub const DUMPS_PER_REASON: u64 = MAX_DUMPS / 4;

/// Writes post-mortem dumps of the lifecycle trail on incidents.
///
/// # Examples
///
/// ```no_run
/// use xfm_telemetry::flight::FlightRecorder;
/// use xfm_telemetry::Registry;
///
/// let registry = Registry::new();
/// let recorder = FlightRecorder::new(&registry, "/tmp/dumps");
/// // ... on a degraded-mode transition:
/// let path = recorder.incident("degrade_transition", "nma -> mixed", Some(42));
/// # let _ = path;
/// ```
#[derive(Debug)]
pub struct FlightRecorder {
    registry: Registry,
    /// Directory the dumps are written into (must exist).
    dir: PathBuf,
    incidents: AtomicU64,
    dumps: AtomicU64,
    /// Dumps claimed per reason (cold path: one entry per reason).
    claimed: Mutex<Vec<(String, u64)>>,
}

impl FlightRecorder {
    /// A recorder reading `registry`'s lifecycle trail and dumping the
    /// last [`DUMP_EVENTS`] of it into `dir` (which must exist), at most
    /// [`MAX_DUMPS`] times and at most [`DUMPS_PER_REASON`] times per
    /// incident reason.
    #[must_use]
    pub fn new(registry: &Registry, dir: impl Into<PathBuf>) -> Self {
        Self {
            registry: registry.clone(),
            dir: dir.into(),
            incidents: AtomicU64::new(0),
            dumps: AtomicU64::new(0),
            claimed: Mutex::new(Vec::new()),
        }
    }

    /// Incidents reported so far (dumped or not).
    #[must_use]
    pub fn incidents(&self) -> u64 {
        self.incidents.load(Ordering::Relaxed)
    }

    /// Dumps successfully written so far.
    #[must_use]
    pub fn dumps(&self) -> u64 {
        self.dumps.load(Ordering::Relaxed)
    }

    /// Reports an incident, about `page` when it concerns one: captures
    /// the trailing lifecycle events and the page's critical path, and
    /// writes a post-mortem dump. Returns the dump path, or `None` when
    /// the dump cap or `reason`'s share of it was reached, or the write
    /// failed. This is the cold path — it allocates and performs file
    /// I/O by design.
    pub fn incident(&self, reason: &str, detail: &str, page: Option<u64>) -> Option<PathBuf> {
        let id = self.incidents.fetch_add(1, Ordering::Relaxed);
        if !self.claim(reason) {
            return None;
        }
        let trail = self.registry.lifecycle();
        let events = trail.tail(DUMP_EVENTS);
        let incident = Incident {
            id,
            reason,
            detail,
            virt_ns: trail.clock().now_ns(),
            page,
        };
        let path = page.and_then(|p| trail.explain(p));
        let body = render_dump(&incident, path.as_ref(), trail.dropped(), &events);
        let file = format!("xfm-postmortem-{id:04}-{}.json", sanitize(reason));
        let path = self.dir.join(file);
        match std::fs::write(&path, body) {
            Ok(()) => {
                self.dumps.fetch_add(1, Ordering::Relaxed);
                Some(path)
            }
            Err(_) => None,
        }
    }

    /// Claims one of `reason`'s dumps, if its share and the cap allow.
    fn claim(&self, reason: &str) -> bool {
        let mut claimed = self.claimed.lock();
        if claimed.iter().map(|(_, n)| n).sum::<u64>() >= MAX_DUMPS {
            return false;
        }
        match claimed.iter_mut().find(|(r, _)| r == reason) {
            Some((_, n)) if *n >= DUMPS_PER_REASON => false,
            Some((_, n)) => {
                *n += 1;
                true
            }
            None => {
                claimed.push((reason.to_owned(), 1));
                true
            }
        }
    }
}

/// Restricts a reason string to a filesystem-safe slug.
fn sanitize(reason: &str) -> String {
    let slug: String = reason
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .take(48)
        .collect();
    if slug.is_empty() {
        "incident".to_string()
    } else {
        slug
    }
}

/// A dump's header.
struct Incident<'a> {
    id: u64,
    reason: &'a str,
    detail: &'a str,
    virt_ns: u64,
    page: Option<u64>,
}

fn render_dump(
    incident: &Incident<'_>,
    path: Option<&CriticalPath>,
    dropped: u64,
    events: &[LifecycleEvent],
) -> String {
    let mut out = String::with_capacity(1024 + events.len() * 160);
    out.push_str("{\n  \"xfm_flight_recorder\": 1,\n  \"incident\": {");
    out.push_str(&format!(
        "\"id\": {}, \"reason\": \"{}\", \"detail\": \"{}\", \"virt_ns\": {}, \"page\": {}",
        incident.id,
        json_escape(incident.reason),
        json_escape(incident.detail),
        incident.virt_ns,
        incident
            .page
            .map_or_else(|| "null".to_string(), |p| p.to_string()),
    ));
    out.push_str("},\n  \"path\": ");
    match path {
        Some(path) => path.write_json(&mut out),
        None => out.push_str("null"),
    }
    out.push_str(&format!(
        ",\n  \"events_dropped_before_capture\": {dropped},\n  \"events\": ["
    ));
    for (i, e) in events.iter().enumerate() {
        out.push_str(if i == 0 { "\n    " } else { ",\n    " });
        write_event(&mut out, e, true);
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Summary of a parsed post-mortem dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DumpSummary {
    /// Incident id (dump sequence number).
    pub id: u64,
    /// Incident reason slug.
    pub reason: String,
    /// Free-form incident detail.
    pub detail: String,
    /// Number of captured lifecycle events.
    pub events: usize,
    /// The page the incident names, if any.
    pub page: Option<u64>,
    /// Steps of the page's critical path (`None` when the dump carries
    /// no path).
    pub path_steps: Option<usize>,
}

/// Parses and validates a post-mortem dump, returning its summary.
///
/// # Errors
///
/// Returns a description of the first violated invariant (bad JSON,
/// missing marker, malformed incident header or event records).
pub fn validate_dump(json: &str) -> Result<DumpSummary, String> {
    let doc = parse(json).map_err(|e| e.to_string())?;
    if doc.get("xfm_flight_recorder").and_then(JsonValue::as_f64) != Some(1.0) {
        return Err("missing `xfm_flight_recorder` marker".to_string());
    }
    let incident = doc
        .get("incident")
        .and_then(JsonValue::as_object)
        .ok_or("missing `incident` object")?;
    let id = incident
        .get("id")
        .and_then(JsonValue::as_f64)
        .ok_or("incident missing numeric `id`")?;
    let reason = incident
        .get("reason")
        .and_then(JsonValue::as_str)
        .ok_or("incident missing string `reason`")?
        .to_string();
    let detail = incident
        .get("detail")
        .and_then(JsonValue::as_str)
        .ok_or("incident missing string `detail`")?
        .to_string();
    let page = match incident.get("page") {
        Some(JsonValue::Null) => None,
        Some(v) => Some(
            v.as_f64()
                .ok_or("incident `page` must be null or a number")? as u64,
        ),
        None => return Err("incident missing `page`".to_string()),
    };
    let path_steps = match (doc.get("path"), page) {
        (Some(JsonValue::Null), _) => None,
        (Some(path), Some(page)) => {
            if check_path(path)? != page {
                return Err(format!("`path` is not incident page {page}'s"));
            }
            path.get("steps")
                .and_then(JsonValue::as_array)
                .map(<[JsonValue]>::len)
        }
        (Some(_), None) => return Err("a `path` without an incident page".to_string()),
        (None, _) => return Err("missing `path`".to_string()),
    };
    let events = doc
        .get("events")
        .and_then(JsonValue::as_array)
        .ok_or("missing `events` array")?;
    for (i, ev) in events.iter().enumerate() {
        check_event(ev, true).map_err(|e| format!("event {i}: {e}"))?;
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    Ok(DumpSummary {
        id: id as u64,
        reason,
        detail,
        events: events.len(),
        page,
        path_steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::{Cause, LifecycleStage};
    use xfm_types::TenantId;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("xfm-flight-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn incident_dumps_trailing_events() {
        let registry = Registry::new();
        let (trail, tenant) = (registry.lifecycle(), TenantId::new(4));
        for i in 0..DUMP_EVENTS as u64 + 10 {
            trail.record(LifecycleStage::Compress, Cause::Ok, tenant, i, 0, 0, 100);
        }
        trail.record(
            LifecycleStage::ModeChange,
            Cause::Degraded,
            tenant,
            0,
            0,
            2,
            0,
        );
        let dir = tmp_dir("basic");
        let rec = FlightRecorder::new(&registry, &dir);
        let path = rec
            .incident("degrade_transition", "nma -> cpu_only", None)
            .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let summary = validate_dump(&text).unwrap();
        assert_eq!(summary.reason, "degrade_transition");
        assert_eq!(summary.detail, "nma -> cpu_only");
        assert_eq!(
            summary.events, DUMP_EVENTS,
            "captures exactly the last N events"
        );
        // The most recent event (the mode change) is in the capture,
        // with the tenant it was billed to.
        let mode_change = "\"stage\": \"mode_change\", \"cause\": \"degraded\", \"tenant\": 4";
        assert!(text.contains(mode_change));
        assert_eq!(rec.dumps(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dump_cap_bounds_disk_usage() {
        let registry = Registry::new();
        let (stage, cause) = (LifecycleStage::Fault, Cause::RetryExhausted);
        let system = TenantId::SYSTEM;
        registry
            .lifecycle()
            .record(stage, cause, system, 1, 0, 0, 0);
        let dir = tmp_dir("cap");
        let rec = FlightRecorder::new(&registry, &dir);
        for i in 0..MAX_DUMPS {
            assert!(rec.incident(&format!("r{i}"), "", None).is_some());
        }
        assert!(
            rec.incident("over", "", None).is_none(),
            "over cap: counted, not dumped"
        );
        assert_eq!(rec.incidents(), MAX_DUMPS + 1);
        assert_eq!(rec.dumps(), MAX_DUMPS);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_storm_of_one_reason_leaves_room_for_another() {
        let registry = Registry::new();
        let dir = tmp_dir("share");
        let rec = FlightRecorder::new(&registry, &dir);
        let written = (0..MAX_DUMPS)
            .filter(|_| rec.incident("retry-exhausted-compress", "", None).is_some())
            .count() as u64;
        assert_eq!(written, DUMPS_PER_REASON, "one reason takes its share only");
        let other = rec
            .incident("retry-exhausted-decompress", "", None)
            .expect("another reason is still dumped");
        let summary = validate_dump(&std::fs::read_to_string(other).unwrap()).unwrap();
        assert_eq!(summary.reason, "retry-exhausted-decompress");
        assert_eq!(summary.id, MAX_DUMPS, "ids count every incident");
        assert_eq!(rec.dumps(), DUMPS_PER_REASON + 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dump_reason_is_escaped_and_filename_sanitized() {
        let registry = Registry::new();
        let dir = tmp_dir("esc");
        let rec = FlightRecorder::new(&registry, &dir);
        let path = rec
            .incident("weird \"reason\"/../x", "detail with\nnewline", None)
            .unwrap();
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        assert!(!name.contains('/') && !name.contains('"'), "{name}");
        let summary = validate_dump(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(summary.reason, "weird \"reason\"/../x");
        assert_eq!(summary.detail, "detail with\nnewline");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_incident_about_a_page_carries_its_path() {
        let registry = Registry::new();
        let (trail, tenant) = (registry.lifecycle(), TenantId::new(2));
        trail.record(LifecycleStage::Load, Cause::Ok, tenant, 9, 1, 0, 1_000);
        trail.record(LifecycleStage::Decompress, Cause::Ok, tenant, 9, 1, 0, 600);
        let dir = tmp_dir("path");
        let rec = FlightRecorder::new(&registry, &dir);
        let text = std::fs::read_to_string(rec.incident("r", "", Some(9)).unwrap()).unwrap();
        let summary = validate_dump(&text).unwrap();
        assert_eq!((summary.page, summary.path_steps), (Some(9), Some(2)));
        // A page with no retained operation dumps a null path.
        let text = std::fs::read_to_string(rec.incident("r", "", Some(8)).unwrap()).unwrap();
        assert_eq!(validate_dump(&text).unwrap().path_steps, None);
        // A path that is not the incident's page's is refused.
        let wrong = text.replace("\"page\": 8}", "\"page\": 9}").replacen(
            "\"path\": null",
            "\"path\": {\"page\": 1, \"stage\": \"load\", \"plane\": null, \"shard\": 0, \
             \"tenant\": 0, \"cause\": \"ok\", \"total_ns\": 1, \"wait_ns\": 0, \
             \"work_ns\": 0, \"steps\": []}",
            1,
        );
        let err = validate_dump(&wrong).unwrap_err();
        assert!(err.contains("not incident page 9"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn validator_rejects_non_dumps() {
        assert!(validate_dump("{}").is_err());
        assert!(validate_dump("nope").is_err());
        assert!(validate_dump("{\"xfm_flight_recorder\": 1}").is_err());
        let missing_fields = r#"{"xfm_flight_recorder": 1,
            "incident": {"id": 0, "reason": "r", "detail": ""},
            "events": [{"seq": 1}]}"#;
        assert!(validate_dump(missing_fields).is_err());
    }
}
