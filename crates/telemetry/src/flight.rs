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
//! "detail", "virt_ns"}, "events_dropped_before_capture", "events"}`,
//! each event in the schema every export shares ([`crate::export`]:
//! `seq`, `stage`, `cause`, `tenant`, `page`, `shard`, `aux`,
//! `virt_ns`, `dur_ns`) plus its `wall_ns`. Dumps are parseable with
//! [`crate::json`]; [`validate_dump`] checks the header and runs every
//! event through that schema's one checker (used by `ci.sh --obs` and
//! the chaos gate).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::export::{check_event, json_escape, write_event};
use crate::json::{parse, JsonValue};
use crate::lifecycle::LifecycleEvent;
use crate::registry::Registry;

/// How many trailing lifecycle events each dump captures.
pub const DUMP_EVENTS: usize = 256;

/// Cap on dumps written over a recorder's lifetime; incidents past the
/// cap are counted but not dumped (a flapping degrade controller must
/// not fill the disk).
pub const MAX_DUMPS: u64 = 16;

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
/// let path = recorder.incident("degrade_transition", "nma -> mixed");
/// # let _ = path;
/// ```
#[derive(Debug)]
pub struct FlightRecorder {
    registry: Registry,
    /// Directory the dumps are written into (must exist).
    dir: PathBuf,
    incidents: AtomicU64,
    dumps: AtomicU64,
}

impl FlightRecorder {
    /// A recorder reading `registry`'s lifecycle trail and dumping the
    /// last [`DUMP_EVENTS`] of it into `dir` (which must exist), at most
    /// [`MAX_DUMPS`] times.
    #[must_use]
    pub fn new(registry: &Registry, dir: impl Into<PathBuf>) -> Self {
        Self {
            registry: registry.clone(),
            dir: dir.into(),
            incidents: AtomicU64::new(0),
            dumps: AtomicU64::new(0),
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

    /// Reports an incident: captures the trailing lifecycle events and
    /// writes a post-mortem dump. Returns the dump path, or `None` when
    /// the dump cap was reached or the write failed. This is the cold
    /// path — it allocates and performs file I/O by design.
    pub fn incident(&self, reason: &str, detail: &str) -> Option<PathBuf> {
        let id = self.incidents.fetch_add(1, Ordering::Relaxed);
        if id >= MAX_DUMPS {
            return None;
        }
        let trail = self.registry.lifecycle();
        let events = trail.tail(DUMP_EVENTS);
        let body = render_dump(
            id,
            reason,
            detail,
            trail.clock().now_ns(),
            trail.dropped(),
            &events,
        );
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

fn render_dump(
    id: u64,
    reason: &str,
    detail: &str,
    virt_ns: u64,
    dropped: u64,
    events: &[LifecycleEvent],
) -> String {
    let mut out = String::with_capacity(512 + events.len() * 160);
    out.push_str("{\n  \"xfm_flight_recorder\": 1,\n  \"incident\": {");
    out.push_str(&format!(
        "\"id\": {id}, \"reason\": \"{}\", \"detail\": \"{}\", \"virt_ns\": {virt_ns}",
        json_escape(reason),
        json_escape(detail)
    ));
    out.push_str(&format!(
        "}},\n  \"events_dropped_before_capture\": {dropped},\n  \"events\": ["
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
            .incident("degrade_transition", "nma -> cpu_only")
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
            assert!(rec.incident(&format!("r{i}"), "").is_some());
        }
        assert!(
            rec.incident("over", "").is_none(),
            "over cap: counted, not dumped"
        );
        assert_eq!(rec.incidents(), MAX_DUMPS + 1);
        assert_eq!(rec.dumps(), MAX_DUMPS);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dump_reason_is_escaped_and_filename_sanitized() {
        let registry = Registry::new();
        let dir = tmp_dir("esc");
        let rec = FlightRecorder::new(&registry, &dir);
        let path = rec
            .incident("weird \"reason\"/../x", "detail with\nnewline")
            .unwrap();
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        assert!(!name.contains('/') && !name.contains('"'), "{name}");
        let summary = validate_dump(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(summary.reason, "weird \"reason\"/../x");
        assert_eq!(summary.detail, "detail with\nnewline");
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
