#!/usr/bin/env bash
# The numbers ROADMAP asks every PR to record in CHANGES.md, counted the
# same way at every commit. Reads tracked sources only; builds nothing.
#
# Usage: scripts/scoreboard.sh

set -euo pipefail
cd "$(dirname "$0")/.."

# Lines of tracked `*.rs` under the given directories that are neither
# blank nor a `//` comment.
code_lines() {
    git ls-files -- "$@" | grep '\.rs$' | xargs cat | grep -vcE '^\s*(//|$)'
}

# Fields of the `pub struct $2` in file $1: lines `pub name: Type,`.
fields() {
    sed -n "/^pub struct $2 {/,/^}/p" "$1" | grep -cE '^\s+pub [a-z_0-9]+:'
}

# Entries of `const OPTIONS` in the tfq command table.
options() {
    sed -n '/^const OPTIONS: &\[&str\] = &\[/,/^\];/p' crates/cli/src/commands.rs |
        grep -cE '^\s+"'
}

ledger=$(fields crates/ledger/src/config.rs LedgerConfig)
kv=$(fields crates/kvstore/src/options.rs Options)
echo "code lines (crates/ tests/ examples/): $(code_lines crates tests examples)"
echo "code lines (offline/ stand-ins):       $(code_lines offline)"
echo "config knobs:                          $((ledger + kv)) (LedgerConfig $ledger + KvOptions $kv)"
echo "tfq options (commands::OPTIONS):       $(options)"
