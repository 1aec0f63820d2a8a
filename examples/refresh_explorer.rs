//! Refresh-window explorer: visualize how XFM schedules NMA accesses
//! into `tRFC` windows as conditional and random accesses.
//!
//! Run with: `cargo run --example refresh_explorer`

use xfm::core::sched::{AccessOp, AccessPhase, SchedConfig, SchedEvent, WindowScheduler};
use xfm::dram::refresh::RefreshAccessKind;
use xfm::dram::{DeviceGeometry, DramTimings};
use xfm::types::{Nanos, RowId};

fn main() {
    let timings = DramTimings::paper_emulator();
    let geometry = DeviceGeometry::ddr4_8gb();

    println!("== the refresh calendar XFM exploits ==");
    println!(
        "tREFI = {} (one REF every interval), tRFC = {} (rank locked)",
        timings.t_refi, timings.t_rfc
    );
    println!(
        "rank locked {:.1}% of all time; {} rows refreshed per bank per REF\n",
        timings.refresh_duty_cycle() * 100.0,
        geometry.rows_per_ref()
    );

    for t in [
        DramTimings::ddr5_3200_8gb(),
        DramTimings::ddr5_3200_16gb(),
        DramTimings::ddr5_3200_32gb(),
    ] {
        println!(
            "tRFC = {:>3} ns -> first conditional read {} ns, each next {} ns, \
             max {} conditional page accesses per window",
            t.t_rfc.as_ns(),
            t.conditional_read_first().as_ns(),
            t.conditional_read_next().as_ns(),
            t.max_conditional_accesses()
        );
    }

    println!("\n== scheduling 12 offload accesses ==");
    let mut sched = WindowScheduler::new(SchedConfig::default(), timings, geometry);

    // Flexible accesses (controller-aligned demotions) to rows whose
    // refresh slots are spread over the next few windows.
    for (id, row) in [
        (0u64, 2u32),
        (1, 3),
        (2, 3),
        (3, 5),
        (4, 8),
        (5, 8),
        (6, 8),
        (7, 8),
    ] {
        println!(
            "enqueue flexible read  id={id} row={row} (slot {})",
            row % 8192
        );
        sched.enqueue_flexible(AccessOp {
            id,
            row: RowId::new(row),
            bytes: 4096,
            phase: AccessPhase::Read { output: 1024 },
            enqueued_window: 0,
        });
    }
    // Urgent accesses (demand promotions): rows not refreshing soon.
    for (id, row) in [
        (100u64, 20_000u32),
        (101, 30_000),
        (102, 44_000),
        (103, 50_000),
    ] {
        println!("enqueue urgent   read  id={id} row={row}");
        sched.enqueue_urgent(AccessOp {
            id,
            row: RowId::new(row),
            bytes: 4096,
            phase: AccessPhase::Read { output: 1024 },
            enqueued_window: 0,
        });
    }

    println!(
        "\nwindow-by-window service (budget: 3 pages of bytes, ≤1 random; \
         a slot's surplus re-aligns to the next slots):"
    );
    // Each read reserves 1 KiB of a 2 MiB scratchpad for its output.
    let mut spm_free = 2u64 << 20;
    let mut events = Vec::new();
    for index in 0..20 {
        if sched.pending() == 0 {
            break;
        }
        events.clear();
        let w = sched.refresh().window(index);
        spm_free = sched.advance_window_into(spm_free, &mut events);
        if events.is_empty() {
            continue;
        }
        print!(
            "window {:>2} (refreshes rows {:>2}+k*8192, ends {}):",
            w.index,
            w.index % 8192,
            w.end
        );
        for e in &events {
            match e {
                SchedEvent::Served { id, kind, .. } => {
                    let tag = match kind {
                        RefreshAccessKind::Conditional => "COND",
                        RefreshAccessKind::Random => "RAND",
                    };
                    print!(" [{tag} id={id}]");
                }
                SchedEvent::Spilled { id, .. } => print!(" [SPILL id={id} -> CPU]"),
            }
        }
        println!();
    }

    let stats = sched.stats();
    println!(
        "\nserved {} conditional + {} random; {} spilled to the CPU \
         (urgent deadlines); {} subarray conflicts reordered",
        stats.conditional, stats.random, stats.spilled, stats.subarray_conflicts
    );
    println!(
        "side channel moved {} without touching the DDR bus",
        stats.side_channel_bytes
    );

    // Where would a row be refreshed next?
    println!("\n== conditional-opportunity lookup ==");
    let sched2 = xfm::dram::RefreshScheduler::new(timings, geometry);
    for row in [5u32, 9_000, 40_000] {
        let w = sched2.next_window_refreshing(RowId::new(row), Nanos::ZERO);
        println!(
            "row {row:>6}: next refreshed in window {} (at {})",
            w.index, w.start
        );
    }
}
