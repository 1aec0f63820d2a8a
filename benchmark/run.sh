#!/usr/bin/env bash
# Entry point named in ../BENCHMARK.json. Run from the repository root:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds the benchmark from source (into $CARGO_TARGET_DIR, else
# benchmark/target) and runs one workload: untraced with --trace 0
# (end-to-end metrics), traced with --trace 1 (per-layer metrics). The
# two binaries are built separately, so a change that stops the trace
# decorators compiling cannot stop the end-to-end run.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

bin=xfm-benchmark
prev=
for arg in "$@"; do
    if [[ "$prev" == "--trace" && "$arg" == "1" ]]; then
        bin=xfm-benchmark-trace
    fi
    prev="$arg"
done

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bin "$bin" >&2
exec "$target/release/$bin" "$@"
