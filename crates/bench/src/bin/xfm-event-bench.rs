//! Discrete-event core benchmark and deterministic replay harness.
//!
//! Two modes, both writing into `--out-dir <dir>` (default: the
//! working directory):
//!
//! - **Throughput** (default): measures raw events/sec through the
//!   shared [`xfm_event::EventQueue`] under a self-rescheduling periodic
//!   workload, and pins the wall-clock of a full-stack simulated run so
//!   event-core regressions show up as a hard failure rather than a
//!   silently slower CI. Writes `BENCH_event.json`.
//!
//! - **Replay** (`--replay`): runs the deterministic full stack (see
//!   [`xfm_bench::replay`]) and writes the sim-time-only telemetry
//!   export to `replay.json`. The `ci.sh` determinism gate runs this in
//!   two processes and byte-diffs the two files.

use std::time::Instant;

use xfm_bench::replay::replay;
use xfm_bench::report::{self, Args};
use xfm_event::EventQueue;
use xfm_telemetry::json::JsonValue;
use xfm_types::Nanos;

/// Generous wall-clock ceiling for the pinned full-stack run. The run
/// takes well under a second on any host this repo targets; the pin only
/// exists to catch catastrophic event-core regressions (e.g. the queue
/// going quadratic).
const SIM_WALL_CEILING_MS: u64 = 30_000;

/// The seed both modes replay.
const SEED: u64 = 0x0f0f_1234;

/// A self-rescheduling periodic stream, mimicking how the refresh
/// calendar, burst arrivals and engine completions ride the queue.
struct Stream {
    period: Nanos,
    next: Nanos,
}

/// Pushes `total` events through the queue across `streams` interleaved
/// periodic streams and returns the events/sec rate.
fn queue_throughput(streams: usize, total: u64) -> f64 {
    let mut queue: EventQueue<usize> = EventQueue::with_capacity(streams);
    let mut procs: Vec<Stream> = (0..streams)
        .map(|i| Stream {
            // Coprime-ish periods so streams genuinely interleave, with
            // frequent exact collisions exercising the FIFO tie-break.
            period: Nanos::from_ns(100 + (i as u64 % 7) * 50),
            next: Nanos::ZERO,
        })
        .collect();
    for (i, p) in procs.iter().enumerate() {
        queue.push(p.next, i);
    }
    let start = Instant::now();
    let mut popped = 0u64;
    while popped < total {
        let ev = queue.pop().expect("streams never drain");
        popped += 1;
        let p = &mut procs[ev.payload];
        p.next = ev.at + p.period;
        queue.push(p.next, ev.payload);
    }
    popped as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let mut args = Args::from_env();
    let out_dir = args.out_dir();
    let replay_only = args.switch("--replay");
    args.done();
    if replay_only {
        report::write(&out_dir, "replay.json", &replay(SEED));
        return;
    }

    let (streams, total) = (64, 5_000_000);
    let events_per_sec = queue_throughput(streams, total);
    assert!(
        events_per_sec > 10_000.0,
        "event core absurdly slow: {events_per_sec:.0} ev/s"
    );

    // Pin the wall-clock of a full-stack simulated run: the Fig. 12
    // simulation, the event-front DRAM trace, and the NMA pipeline all
    // ride the shared event core.
    let start = Instant::now();
    let export = replay(SEED);
    let sim_wall_ms = start.elapsed().as_millis() as u64;
    assert!(
        sim_wall_ms < SIM_WALL_CEILING_MS,
        "full-stack sim took {sim_wall_ms} ms (ceiling {SIM_WALL_CEILING_MS} ms)"
    );
    assert!(export.get("fallback").is_some(), "replay export malformed");

    let doc = JsonValue::object([
        ("streams", streams.into()),
        ("events", total.into()),
        ("sim_wall_ceiling_ms", SIM_WALL_CEILING_MS.into()),
        (
            "wall",
            report::wall([
                ("events_per_sec", events_per_sec.round().into()),
                ("sim_wall_ms", sim_wall_ms.into()),
            ]),
        ),
    ]);
    println!(
        "event core: {events_per_sec:.0} events/sec across {streams} streams; \
         full-stack sim {sim_wall_ms} ms"
    );
    report::write(&out_dir, "BENCH_event.json", &doc);
}
