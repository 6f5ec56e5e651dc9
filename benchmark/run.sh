#!/usr/bin/env bash
# Build the benchmark and run it:
#   run.sh <workload>|all [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
#   run.sh --workload <name> --seed N --seconds S --trace 0|1     (the driver's form)
#   run.sh spec                                                    (print BENCHMARK.json)
# Results go to stdout, one JSON object last; cargo's messages go to stderr.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# cargo runs from this directory (its .cargo/config.toml selects the tracked
# stand-ins under offline/), so a relative target directory given by the
# caller is pinned to where the caller stands first.
if [ -n "${CARGO_TARGET_DIR:-}" ]; then
  case "$CARGO_TARGET_DIR" in
    /*) ;;
    *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
  esac
else
  CARGO_TARGET_DIR="$here/target"
fi
export CARGO_TARGET_DIR

if [ ! -f "$here/../crates/ledger/Cargo.toml" ]; then
  echo "error: $here/../crates is missing; the benchmark builds the repository's crates and has nothing to measure without them" >&2
  exit 3
fi

cd "$here"
cargo build --release --offline >&2
exec "$CARGO_TARGET_DIR/release/tf-benchmark" "$@" --out "$here/out"
