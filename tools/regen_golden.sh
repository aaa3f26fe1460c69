#!/usr/bin/env bash
# Regenerate the golden-metrics corpus: one <spec>.golden.json per
# committed scenario spec, holding every deterministic metric of the run
# (aggregates + the per-job table; wall-clock excluded). The
# scenario_golden ctest re-runs each spec and diffs its output against
# these files byte-for-byte, so any change to engine trajectories —
# intended or not — shows up as a reviewable diff to scenarios/golden/.
#
# Usage: tools/regen_golden.sh [build-dir] [out-dir]
#   build-dir  where scenario_runner lives / is built (default: build)
#   out-dir    where the goldens are written (default: scenarios/golden).
#              The ctest points this at a temp dir and diffs it against
#              the committed corpus, so the checkout is never mutated there.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-scenarios/golden}"
if [ ! -x "$BUILD_DIR/scenario_runner" ]; then
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build "$BUILD_DIR" -j --target scenario_runner
fi

mkdir -p "$OUT_DIR"
for spec in scenarios/*.ini; do
  name="$(basename "$spec" .ini)"
  echo "== $name"
  "$BUILD_DIR/scenario_runner" "$spec" --golden "$OUT_DIR" --quiet
done

# Drop goldens whose spec no longer exists, so the corpus never goes
# stale. Only meaningful for the committed corpus: a fresh out-dir holds
# exactly the specs that exist, and the ctest's diff -r flags strays by
# itself.
if [ "$OUT_DIR" = "scenarios/golden" ]; then
  for golden in scenarios/golden/*.golden.json; do
    [ -f "$golden" ] || continue
    name="$(basename "$golden" .golden.json)"
    if [ ! -f "scenarios/$name.ini" ]; then
      echo "== removing stale $golden"
      rm "$golden"
    fi
  done
fi
