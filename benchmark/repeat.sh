#!/usr/bin/env bash
# Run the full set twice on this commit with two seeds and hold the two sets
# against the bounds in BENCHMARK.json:
#   repeat.sh [--seeds A,B] [--seconds S] [--smoke]
# Exits non-zero if a metric differs by more than its bound, a count that
# must repeat exactly within a seed does not, or a run answers wrongly.
set -euo pipefail
exec "$(dirname "${BASH_SOURCE[0]}")/run.sh" repeat "$@"
