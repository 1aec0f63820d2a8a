#!/usr/bin/env bash
# Tier-1 gate: build, tests, lints. Run from the repo root.
set -euo pipefail

cargo fmt --all -- --check
# The size of the source tree is a tracked figure (ROADMAP item 6):
# CHANGES.md quotes this line, not a hand count.
src_files() { find crates -path '*/src/*' -name '*.rs'; }
lines_of() { find "$@" -name '*.rs' 2>/dev/null | xargs -r cat | wc -l; }
echo "crates/*/src: $(src_files | xargs cat | wc -l) lines; longest file: $(src_files | xargs wc -l | sort -n | tail -2 | head -1 | awk '{print $2 " (" $1 ")"}')"
echo "shims/*/src: $(lines_of shims/*/src) lines; crates/*/benches: $(lines_of crates/*/benches) lines; tests + crates/*/tests: $(lines_of tests crates/*/tests) lines"
# A dependency edge no source file uses is dead weight in every build
# and in `benchmark/Cargo.lock`: fail when a crate's manifest declares a
# dependency that none of its own sources names as a path (`dep::`,
# `use dep as`, `use dep;`).
for manifest in Cargo.toml crates/*/Cargo.toml; do
    dir=$(dirname "$manifest")
    for dep in $(awk '/^\[/ { on = /^\[(dev-)?dependencies\]$/ } on && /^[a-z]/ { sub(/[ .=].*/, ""); print }' "$manifest"); do
        grep -rqE "(^|[^A-Za-z0-9_])${dep//-/_}(::| as |;)" "$dir"/{src,tests,benches,examples} 2>/dev/null \
            || { echo "stale dependency: $manifest declares $dep, none of its sources names it"; exit 1; }
    done
done
# The same for the shared table: a `[workspace.dependencies]` entry no
# member manifest inherits (`dep.workspace = true`) builds nothing.
for dep in $(awk '/^\[/ { on = /^\[workspace\.dependencies\]$/ } on && /^[a-z]/ { sub(/[ .=].*/, ""); print }' Cargo.toml); do
    grep -qE "^${dep}(\.workspace|[ =]+\{[^}]*workspace)" Cargo.toml crates/*/Cargo.toml shims/*/Cargo.toml \
        || { echo "stale dependency: [workspace.dependencies] declares $dep, no member manifest names it"; exit 1; }
done
# `benchmark/` and `BENCHMARK.json` are frozen. Any build of `benchmark/`
# rewrites `benchmark/Cargo.lock` in place (the frozen lock still lists
# edges PRs 18–20 removed), so after each step that builds it, a run
# inside a git checkout restores the lock from HEAD and then fails if
# anything there still differs from HEAD.
keep_benchmark_frozen() {
    git rev-parse --is-inside-work-tree > /dev/null 2>&1 || return 0
    git checkout -q HEAD -- benchmark/Cargo.lock
    local changed
    changed=$(git status --porcelain -- benchmark BENCHMARK.json)
    [[ -z "$changed" ]] || { echo "$changed"; echo "benchmark/ or BENCHMARK.json differs from HEAD"; exit 1; }
}
cargo build --release
# `default-members` makes a bare `cargo test -q` (tier-1) the facade plus
# every crate; `--workspace` is that plus the shims' own tests.
cargo test --workspace -q
# The sharded data plane must hold up under a parallel test harness too
# (the counting-allocator gates included: every one counts per thread,
# through the one allocator in `xfm-testkit`).
cargo test --workspace -q -- --test-threads=4
# The composed-stack model test (serve → prefetch → tiered → sharded +
# replicated against a `HashMap`) once more on a single test thread, so
# it is held at one thread and at four whatever the host's core count.
cargo test -q -p xfm-serve --test stack_model -- --test-threads=1
cargo test --doc --workspace -q
# The examples are runnable tours of the public API: each must still run
# to completion, not only compile (clippy's --all-targets checks that).
for example in examples/*.rs; do
    cargo run --release -q --example "$(basename "$example" .rs)" > /dev/null
done
# A doc link to an item that was deleted or made private fails here
# instead of rotting as a warning nobody reads.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline -q
cargo clippy --all-targets --workspace -- -D warnings
# `benchmark/` is a nested workspace none of the steps above compile:
# type-check it, so a `SwapPlane` or public-API change that breaks its
# trace decorators fails here and not first in the opt-in `--benchmark`
# pass.
cargo check --manifest-path benchmark/Cargo.toml --release --offline --all-targets
keep_benchmark_frozen
# Observability and regression gate (always on; standalone via
# `./ci.sh --obs`):
# 1. lifecycle-trace round trip — xfm-repro exports the audit trail as
#    Chrome trace_event JSON and xfm-sentinel structurally validates it;
#    the same pass leaves its last traced fault as a post-mortem, which
#    must carry that page's critical path (`LifecycleTrace::explain`)
#    and validate;
# 2. flight-recorder run — a forced fault storm must leave parseable
#    post-mortem dumps (validated inside the harness via validate_dump),
#    at least one of them (a later round's decompress-side give-up: each
#    incident reason gets a share of the dump cap) carrying its page's
#    critical path; its survival record goes to a directory the sentinel
#    does not read;
# 3. determinism — the same-seed full-stack replay (`xfm-repro
#    --replay-out`) must export byte-identical sim-time-only telemetry
#    JSON from two processes;
# 4. bench-regression sentinel — every xfm-*-bench bin runs fresh into a
#    temp dir (each exits nonzero on its own invariants: a lost page, no
#    injected fault, a prefetch floor missed) and
#    xfm-sentinel deep-compares that dir with the committed BENCH_*.json
#    in the repo root: equal values and key sets, shape only under
#    `wall`.
obs_gate() {
    local obsdir fresh
    obsdir=$(mktemp -d)
    fresh="$obsdir/fresh"
    bench() { cargo run --release -q -p xfm-bench --bin "$@"; }
    bench xfm-repro -- --trace-out "$obsdir/trace.json" --dump-dir "$obsdir/traced"
    bench xfm-sentinel -- validate-trace "$obsdir/trace.json"
    bench xfm-sentinel -- validate-dump "$obsdir"/traced/xfm-postmortem-0000-traced-fault.json \
        | grep -q "path_steps=Some" \
        || { echo "obs gate FAILED: the traced fault's post-mortem carries no path"; exit 1; }
    XFM_FAULT_PLAN="refresh_window_miss:0.9,engine_timeout:0.6,spm_exhaustion:0.6" \
        bench xfm-fault-bench -- --dump-dir "$obsdir/dumps" --out-dir "$obsdir/storm" \
        > "$obsdir/chaos.log" \
        || { cat "$obsdir/chaos.log"; echo "obs gate FAILED: chaos run"; exit 1; }
    grep -q "all parseable" "$obsdir/chaos.log" \
        || { echo "obs gate FAILED: no validated post-mortem dumps"; exit 1; }
    grep -qE "all parseable, [1-9][0-9]* with the page's critical path" "$obsdir/chaos.log" \
        || { echo "obs gate FAILED: no chaos post-mortem carries its page's critical path"; exit 1; }
    bench xfm-repro -- --replay-out "$obsdir/replay-a.json"
    bench xfm-repro -- --replay-out "$obsdir/replay-b.json"
    diff "$obsdir/replay-a.json" "$obsdir/replay-b.json" \
        || { echo "determinism gate FAILED: exports differ"; exit 1; }
    for bin in codec fault prefetch tier; do
        bench "xfm-$bin-bench" -- --out-dir "$fresh" > "$obsdir/$bin.log" \
            || { cat "$obsdir/$bin.log"; echo "obs gate FAILED: xfm-$bin-bench"; exit 1; }
    done
    bench xfm-sentinel -- check --baseline-dir . --current-dir "$fresh"
    rm -rf "$obsdir"
    echo "observability gate passed (trace round-trip, post-mortems, determinism, sentinel)"
}
if [[ "${1:-}" == "--obs" ]]; then
    obs_gate
    exit 0
fi
obs_gate
# The opt-in passes below rerun suites in release mode, where wrapping
# arithmetic and elided debug assertions could hide what the dev-profile
# gate above sees.
#
# `--codec`: the whole xfm-compress suite — the counting-allocator
# zero-alloc gate (single blocks and `decompress_batch_into`), the
# byte-identity oracle (golden stream digests; tokens, Huffman lengths,
# the radix-sorted leaf order and priced block size against their
# in-crate references; the select-driven merge against the branchy one,
# the reversed-increment codes against a per-symbol reversal, the
# once-walked runs, price and header against the twice-walked ones; the
# search's work counts pinned per corpus), the writer differential (the
# branch-free token writer against `xdeflate::reference`'s branchy one on
# arbitrary tokens and codes up to 15 bits), the decoder differential (the table-driven
# decoder against the bit-at-a-time `xdeflate::reference` on every
# corpus, every truncation point and 2 000 bit flips; on headers whose
# runs send fitted, 11–15-bit, over-subscribed, incomplete and
# single-symbol codes; on every truncation of the last 32 bytes and
# every bit flip in the last 16, which the fast loop decodes from a
# zero-padded copy) and the decoder
# mutation fuzz at both destination
# capacities — then the multi-channel container round trip, which
# decodes through `unpack_page_into`, and the two-plane parity script
# (the container on one side, the bare stream on the other, one store
# under both).
if [[ "${1:-}" == "--codec" ]]; then
    cargo test --release -q -p xfm-compress
    cargo test --release -q -p xfm-core --test proptests
    cargo test --release -q --test store_parity
fi
# `--xfm`: the paper's own path — the offload exactness gate (every
# simulated statistic of a 1-, 2- and 4-DIMM script against constants
# recorded when the scheduler took the Fig. 12 rules), the two-plane
# parity script, the same-trace test (the service over the backend and
# over the one-shard CPU plane with the same container codec: equal
# compressions, kept loads and discards) and the bare-device
# behaviours, then xfm-core's unit tests (the offload share sizes
# against the container and the interleaved split, and the driver's
# one-release-per-event regression test among them), the counting-
# allocator gates that hold a warm single-page swap-out, swap-in, kept
# load and discard at strict zero (`backend_zero_alloc`: 1 and 4
# DIMMs; `sharded_zero_alloc`: the host-only plane the backend's data
# path is), and the whole DRAM
# substrate the path runs on (`xfm-dram`: the refresh calendar, device
# geometry, timings, energy, the SECDED encoder against its bit-loop
# reference and `parity_bytes`, and the calendar proptests). Last, the
# Fig. 12 pin: the arrival driver over this same device, whose reports
# and per-cause counters `fallback_exact` holds to the last digit, the
# window loop's counted work at the same three points (`fallback_work`),
# and the driver's own tests (every offered op ends once; the traced
# default and 1-access points' trails drop no event). `sched_diff` holds
# the scheduler's slab-index backlog to a by-value reference, window by
# window.
if [[ "${1:-}" == "--xfm" ]]; then
    cargo test --release -q --test xfm_offload_exact --test store_parity --test same_trace \
        --test device_behaviors
    cargo test --release -q -p xfm-core --lib --test backend_zero_alloc --test sched_diff
    cargo test --release -q -p xfm-sfm --test sharded_zero_alloc
    cargo test --release -q -p xfm-dram
    cargo test --release -q -p xfm-sim --test fallback_exact --test fallback_work
    cargo test --release -q -p xfm-sim --lib fallback::
fi
# `--prefetch`: the differential proptest proving prefetching never
# changes observable contents, the counting-allocator gate over the
# staging-cache hit path, and the predictor and engine unit tests (the
# outstanding-set bound among them: short runs must keep issuing).
if [[ "${1:-}" == "--prefetch" ]]; then
    cargo test --release -q -p xfm-sfm --test prefetch_diff
    cargo test --release -q -p xfm-sfm --test prefetch_zero_alloc
    cargo test --release -q -p xfm-sfm --lib -- predictor:: prefetch::
fi
# `--serve`: the zpool's slot index against first fit by linear scan
# (`zpool_exact`: the same zspage and slot for every alloc, the same
# compaction moves and statistics), the zpool's counted density
# (`pool_density`: blocks fill exactly the whole zspages first fit
# fills, at a utilization of at least 0.90), the critical-path layer sum (a
# faulting get's and a draining put's layers cover their latency,
# `serve_explain`), the service's unit tests (the kept-copy, discard and
# stale-copy regressions and the read-slack deferral among them), the
# single-tenant differential proptests (1-, 4- and 10-page tenants, and a 64-page
# one checked against its read slack after every op), the racing
# per-tenant accounting proptest and the noisy-neighbour-at-quota run,
# the counted-work pins (no get compresses on a fixed trace, swap-outs
# and hits no worse than when gets paid and better than under CLOCK, a
# `kv-churn`-shaped trace with at least 10 % fewer faults and 15 % fewer
# swap-outs than under CLOCK, and each trace's counts exactly), the
# S3-FIFO behaviour tests (scan resistance, ghost readmission, quotas
# of 1, 2, 9 and 10 pages), the
# counting-allocator gates over the serve hit path, the kept-fault /
# clean-demotion cycle (with promotions, turns of main and ghost hits),
# a 64-page tenant's deferring-get / draining-put cycle with ghost hits,
# the context-carrying swap hot path and the
# sharded plane's warm swap-outs, swap-ins, kept loads and discards, the
# sharded plane's corrupt-block contract, and the race tests, the
# service's at one test thread and at four (no race test may depend on
# the harness's thread count): same key, same page (a read-locked hit
# never sees a torn page; no lock is held across a codec call; a get of
# a victim a reader deferred parks while a put demotes it and faults it
# back, `get_of_a_deferred_victim_being_demoted_by_a_put_faults_it_back`;
# a put demotes only what it found over the quota while a reader faults
# during each of its swap-outs,
# `steady_faults_cannot_keep_a_put_draining`), a snapshot under hits
# never counts more hits than gets
# (`a_snapshot_under_hits_never_counts_more_hits_than_gets`), and hits,
# faults and overwrites on every resident-page stripe while a putter
# keeps a quota pass turning the ring keep values, ledgers and counters
# exact (`hits_and_overwrites_on_every_stripe_during_quota_passes_stay_exact`);
# and on the sharded plane two faults on one shard inside the decoder at
# once, a same-page swap-out during a swap-in's decode, a discard during
# a kept load's decode, and a kept load that fails to decode after its
# page was replaced.
if [[ "${1:-}" == "--serve" ]]; then
    cargo test --release -q -p xfm-sfm --test zpool_exact --test pool_density
    cargo test --release -q -p xfm-serve --test serve_explain
    cargo test --release -q -p xfm-serve --lib
    cargo test --release -q -p xfm-serve --test serve_diff
    cargo test --release -q -p xfm-serve --test serve_work
    cargo test --release -q -p xfm-serve --test serve_evict
    cargo test --release -q -p xfm-serve --test serve_zero_alloc
    cargo test --release -q -p xfm-sfm --test ctx_zero_alloc
    cargo test --release -q -p xfm-sfm --test sharded_zero_alloc
    cargo test --release -q -p xfm-sfm --test sharded_corrupt
    cargo test --release -q -p xfm-serve --test serve_race -- --test-threads=1
    cargo test --release -q -p xfm-serve --test serve_race -- --test-threads=4
    cargo test --release -q -p xfm-sfm --test sharded_race -- --test-threads=4
fi
# `--tier`: the differential proptest proving a single-tier composition
# is observably identical to the bare plane, the replica-loss proptest
# proving zero lost pages with any single replica down after
# anti-entropy, the virtual-time exactness pin of the media planes
# (constants recorded before PR 24) and their consume-once races under a
# parallel harness.
if [[ "${1:-}" == "--tier" ]]; then
    cargo test --release -q -p xfm-sfm --test tier_diff
    cargo test --release -q -p xfm-sfm --test tier_replica
    cargo test --release -q -p xfm-sfm --test media_exact
    cargo test --release -q -p xfm-sfm --test media_race -- --test-threads=4
fi
# Benchmark workspace (opt-in via `./ci.sh --benchmark`): the default
# gate above only type-checks `benchmark/`. Its own gate: format, lints,
# unit tests, smoke run of every workload.
if [[ "${1:-}" == "--benchmark" ]]; then
    bash benchmark/check.sh
    keep_benchmark_frozen
fi
