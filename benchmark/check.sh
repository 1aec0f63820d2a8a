#!/usr/bin/env bash
# Gate for the benchmark's own workspace (the root ci.sh does not cover
# a nested workspace): format, lints, unit tests, and a smoke run of
# all five workloads, untraced and traced. Run from anywhere.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/Cargo.toml"
target="${CARGO_TARGET_DIR:-$here/target}"
cd "$here/.."

cargo fmt --manifest-path "$manifest" --check
cargo clippy --manifest-path "$manifest" --release --offline --all-targets -- -D warnings
cargo test --manifest-path "$manifest" --release --offline -q
cargo build --manifest-path "$manifest" --release --offline -q

"$target/release/xfm-benchmark" run --all --smoke --out benchmark/out/smoke.json
for workload in kv-hot kv-churn plane-swap tier-prefetch xfm-offload; do
    "$target/release/xfm-benchmark-trace" --workload "$workload" --smoke | tail -n 1 | cut -c1-120
done
echo "benchmark check: ok"
