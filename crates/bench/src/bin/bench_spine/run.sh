#!/usr/bin/env bash
# Builds bench_spine and flatdd-serve from this checkout's sources (no
# registry access needed, see Cargo.toml) and runs bench_spine with the
# arguments given. BENCHMARK.json names this script as the command.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/bench_spine_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/bench_spine" "$@"
