#!/usr/bin/env bash
# One-shot verification: tier-1 ctest on the regular build, program lint
# over the shipped examples, then the ASan and TSan builds (KGM_SANITIZE)
# with the race-sensitive suites.
#
#   tools/check.sh            # full run (regular + lint + asan + tsan)
#   tools/check.sh --fast     # regular build + ctest + program lint only
#   tools/check.sh --tidy     # clang-tidy over src/ (skips if not installed)
#   tools/check.sh --tidy --update-baseline   # refresh the suppression file
#
# The tidy run diffs against tools/tidy_baseline.txt: pre-existing findings
# listed there are suppressed, and only NEW findings fail the run, so the
# check can be adopted without first paying down the whole backlog.
#
# Sanitizer builds reuse build-asan/ and build-tsan/ so incremental runs
# are cheap.  Exits non-zero on the first failing step.

set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
TIDY=0
UPDATE_BASELINE=0
[[ "${1:-}" == "--fast" ]] && FAST=1
[[ "${1:-}" == "--tidy" ]] && TIDY=1
[[ "${2:-}" == "--update-baseline" ]] && UPDATE_BASELINE=1

run() {
  echo "== $*"
  "$@"
}

if [[ "$TIDY" == 1 ]]; then
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "clang-tidy not installed; skipping tidy run"
    exit 0
  fi
  BASELINE=tools/tidy_baseline.txt
  # clang-tidy reads the compile flags from build/compile_commands.json
  # (CMAKE_EXPORT_COMPILE_COMMANDS is always on).
  run cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
  mapfile -t SOURCES < <(find src -name '*.cc' | sort)
  echo "== clang-tidy -p build --quiet (${#SOURCES[@]} sources)"
  # Findings are normalized to "relative/path.cc check-name" — no line or
  # column numbers, so unrelated edits that shift code never churn the
  # baseline.  clang-tidy's own exit code is ignored; the baseline diff
  # decides pass/fail.
  clang-tidy -p build --quiet "${SOURCES[@]}" 2>/dev/null \
    | grep -E '(warning|error): .* \[[a-z0-9.,-]+\]$' \
    | sed -E "s|^$(pwd)/||; s|:[0-9]+:[0-9]+: (warning\|error): .* \[([a-z0-9.,-]+)\]$| \2|" \
    | sort -u > build/tidy_findings.txt || true
  if [[ "$UPDATE_BASELINE" == 1 ]]; then
    {
      echo "# clang-tidy suppression baseline: one \"path check-name\" pair"
      echo "# per line.  Regenerate with: tools/check.sh --tidy --update-baseline"
      cat build/tidy_findings.txt
    } > "$BASELINE"
    echo "baseline refreshed: $(grep -cv '^#' "$BASELINE") suppressed findings"
    exit 0
  fi
  # New findings = current minus baseline (comment lines ignored).
  NEW=$(comm -23 build/tidy_findings.txt \
    <(grep -v '^#' "$BASELINE" 2>/dev/null | sort -u) || true)
  if [[ -n "$NEW" ]]; then
    echo "clang-tidy: NEW findings not in $BASELINE:"
    echo "$NEW"
    echo "fix them, or refresh with: tools/check.sh --tidy --update-baseline"
    exit 1
  fi
  echo "OK (clang-tidy: no findings beyond baseline)"
  exit 0
fi

# No explicit generator: reconfiguring an existing build dir with a
# different one is a cmake error, so stick to the platform default.
run cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
run cmake --build build -j
JOBS="$(nproc)"

run ctest --test-dir build --output-on-failure -j "$JOBS"

# Shipped example programs must lint clean (exit 0 = no warnings/errors).
run ./build/examples/kgmctl lint --schema company examples/programs/*

# Output must not change, at any thread count: each shipped program's
# `kgmctl explain` output fingerprint, at 1 and at 4 threads, must equal
# the one pinned in tools/explain_fingerprints.txt.
EXPLAIN_PROGRAMS=(
  examples/programs/owns.mlog examples/programs/control.mlog
  examples/programs/stakeholders.mlog examples/programs/family.mlog
  examples/programs/closelinks.mlog examples/programs/reach.vlog
)
echo "== kgmctl explain (fingerprints at 1 and 4 threads vs tools/explain_fingerprints.txt)"
./build/examples/kgmctl explain --json --threads 1 "${EXPLAIN_PROGRAMS[@]}" \
  > build/explain-threads-1.json
./build/examples/kgmctl explain --json --threads 4 "${EXPLAIN_PROGRAMS[@]}" \
  > build/explain-threads-4.json
python3 - tools/explain_fingerprints.txt build/explain-threads-1.json \
  build/explain-threads-4.json <<'PY'
import json
import sys

pinned = {}
for line in open(sys.argv[1]):
    if line.strip() and not line.startswith("#"):
        path, fingerprint = line.split()
        pinned[path] = fingerprint
failures = []
for run_path in sys.argv[2:]:
    run = json.load(open(run_path))
    if sorted(entry["file"] for entry in run) != sorted(pinned):
        failures.append(run_path + ": programs differ from the pinned list")
    for entry in run:
        if entry["fingerprint"] != pinned.get(entry["file"]):
            failures.append("%s at %d threads: %s, pinned %s" % (
                entry["file"], entry["threads"], entry["fingerprint"],
                pinned.get(entry["file"])))
if failures:
    sys.exit("kgmctl explain: output differs from the pinned fingerprints:\n  "
             + "\n  ".join(failures))
PY

if [[ "$FAST" == 1 ]]; then
  echo "OK (fast: sanitizer builds skipped)"
  exit 0
fi

# The sanitizer runs focus on the suites that exercise the concurrent
# engine and serving paths; everything else is covered by the regular
# build above.  vadalog_ includes the thread-determinism suites
# (vadalog_engine_chase_parallel_test and the engine parallel tests),
# whose work items join a frozen database beside each other and record
# facts for the driver's ordered replay — the main thing TSan needs to
# see, with Skolem terms interned from every worker.  finkg_incremental
# runs the incremental-vs-rebuild differential at 1 and 4 engine threads,
# which exercises delta maintenance (DRed + stratum recompute) under both
# sanitizers.  vadalog_ also matches vadalog_database_test (relations,
# indexes and copy-on-write sharing) and vadalog_magic_test;
# finkg_pointquery runs the point-query differential (magic vs full
# materialization) at 1 and 4 threads.
SANITIZER_TESTS='vadalog_|base_thread_pool|service_|finkg_incremental|finkg_pointquery'

run cmake -B build-asan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DKGM_SANITIZE=address
run cmake --build build-asan -j
run ctest --test-dir build-asan --output-on-failure -j "$JOBS" \
  -R "$SANITIZER_TESTS"

run cmake -B build-tsan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DKGM_SANITIZE=thread
run cmake --build build-tsan -j
run ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
  -R "$SANITIZER_TESTS"

echo "OK (regular + asan + tsan)"
