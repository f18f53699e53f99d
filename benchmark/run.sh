#!/usr/bin/env bash
# Build the benchmark package (release, offline) and run it; all arguments
# pass through to the `benchmark` binary. Build output goes to
# $CARGO_TARGET_DIR when set, else to benchmark/target.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/benchmark" "$@"
