#!/usr/bin/env bash
# Builds the `icomm` CLI and this benchmark in release mode, then runs one
# benchmark invocation with the given arguments, for example
#
#   bash crates/bench/examples/icomm_benchmark/bench.sh --workload plan --seed 42
#
# Build output goes to stderr, so the benchmark's last stdout line stays
# its JSON result. Artifacts land in $CARGO_TARGET_DIR (default
# .bench_build at the repository root).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../../../.." && pwd)"
target="${CARGO_TARGET_DIR:-$root/.bench_build}"
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p icomm-cli >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/icomm_benchmark" --icomm "$target/release/icomm" "$@"
