#!/usr/bin/env bash
# Full local verification: build, tests, lints, formatting.
#
# Usage: scripts/verify.sh [--offline]
#   --offline   build with no registry access: every cargo call gets
#               `--config offline/config.toml`, which patches the four
#               registry crates (bytes, rand, proptest, criterion) to tracked
#               stand-ins and sets net.offline. Without the flag nothing is
#               patched and cargo resolves from crates.io.

set -euo pipefail
cd "$(dirname "$0")/.."

OFFLINE=()
if [[ "${1:-}" == "--offline" ]]; then
    OFFLINE=(--config offline/config.toml)
fi

echo "==> cargo build --workspace --release"
cargo build "${OFFLINE[@]}" --workspace --release

echo "==> cargo test --workspace"
cargo test "${OFFLINE[@]}" --workspace -q

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy "${OFFLINE[@]}" --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "verify: all checks passed"
