#!/bin/sh
# Run the full bench suite and aggregate one BENCH_summary.json.
#
# Every harness receives the same --timestamp/--git-rev pair (binaries never
# invent provenance; the runner supplies it) and writes its
# BENCH_<name>.json into $PATHVIEW_BENCH_JSON, which this script points at
# the repo root. The summary wraps each per-bench report verbatim — they
# all share the pathview-bench-v2 schema — plus a pass/fail roll-up.
#
# usage: scripts/bench.sh [build-dir]   (default: build)
set -eu

BUILD="${1:-build}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

if [ ! -d "$BUILD/bench" ]; then
  echo "bench.sh: no $BUILD/bench — configure and build first" >&2
  exit 2
fi

TIMESTAMP="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
GIT_REV="$(git -C "$ROOT" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export PATHVIEW_BENCH_JSON="$ROOT"

BENCHES="fig2_three_views fig3_hotpath_cct fig4_callers_view
fig5_flat_inlining fig6_derived_metrics fig7_load_imbalance
ablation_scaling merge_scaling trace_scaling serve_scaling query_scaling
fault_recovery ensemble_scaling chaos_recovery"

failed=0
failed_names=""
for b in $BENCHES; do
  echo "==== running $b ===="
  if ! "$BUILD/bench/$b" --timestamp "$TIMESTAMP" --git-rev "$GIT_REV"; then
    failed=$((failed + 1))
    failed_names="$failed_names $b"
  fi
done
echo "==== running scalability ===="
"$BUILD/bench/scalability" --timestamp "$TIMESTAMP" --git-rev "$GIT_REV" \
  --benchmark_min_time=0.05 || { failed=$((failed + 1)); failed_names="$failed_names scalability"; }

# --- aggregate ---------------------------------------------------------------
SUMMARY="$ROOT/BENCH_summary.json"
{
  printf '{\n'
  printf '  "schema": "pathview-bench-summary-v1",\n'
  printf '  "timestamp": "%s",\n' "$TIMESTAMP"
  printf '  "git_rev": "%s",\n' "$GIT_REV"
  printf '  "failed": %d,\n' "$failed"
  printf '  "reports": [\n'
  first=1
  for f in "$ROOT"/BENCH_*.json; do
    [ "$f" = "$SUMMARY" ] && continue
    [ -f "$f" ] || continue
    [ $first -eq 1 ] || printf ',\n'
    first=0
    # Each report is a complete JSON object; indent it into the array.
    sed 's/^/    /' "$f" | sed '$ { /^ *$/d }' | sed 's/[[:space:]]*$//'
  done
  printf '\n  ]\n}\n'
} > "$SUMMARY"

echo "[wrote $SUMMARY]"
if [ $failed -ne 0 ]; then
  echo "bench.sh: $failed bench(es) failed:$failed_names" >&2
  exit 1
fi
echo "bench.sh: all benches passed"
