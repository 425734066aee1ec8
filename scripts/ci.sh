#!/usr/bin/env bash
# CI driver, eight stages:
#   plain  build (TVEG_WERROR=ON: -Werror + the hardened -Wconversion
#          -Wdouble-promotion -Wnon-virtual-dtor tier) + full test suite
#   obs    observability end-to-end: a threaded sweep with --trace-out and
#          --flight-out, an independent Python validation of the Perfetto
#          trace (worker tracks, queue waits, matched B/E pairs), plus the
#          trace-schema and span-overhead ctests re-run in isolation
#   lint   scripts/lint.sh — clang-tidy and the -Werror=thread-safety
#          build (both when clang is available) + tveg-lint (text rules,
#          header isolation, suppression audit) + tveg-analyze (cross-TU
#          manifests / lock order / noexcept boundaries). The stage reuses
#          this script's build-ci tree via TVEG_LINT_BUILD_DIR, so it adds
#          two tool links to an incremental build instead of a second
#          configure-from-scratch.
#   perfbench  perfbench/ (a separate project that compiles src/ by glob
#          and calls internal API no other target links) built and each
#          workload run once for a second with the per-layer trace on; a
#          build failure or a run reporting correct: false fails the stage
#   fuzz   scripts/fuzz.sh smoke: coverage-guided libFuzzer for a short
#          budget when clang is available, pinned-corpus replay through
#          the plain build's replay drivers otherwise
#   asan   suite under AddressSanitizer; also drives the malformed-input
#          trace corpus through the CLI parser, so every rejection path
#          runs under ASan with real file I/O
#   ubsan  suite under UndefinedBehaviorSanitizer
#   tsan   suite under ThreadSanitizer — the ThreadPool / Monte-Carlo /
#          parallel-solve stress tests provoke the contention TSan needs
#   soak   per-request budget soak: multi-worker sweeps through the real
#          CLI across a budget ladder (including a zero budget that lands
#          every EEDCB request on GREED) and a zero-budget run that must
#          report the greed rung, plus the CancelStorm and Govern suites
#          re-run on the TSan build
#
# Usage: scripts/ci.sh [--fast] [--bench]
#   --fast   plain build + ctest + lint.sh --lint-only (skips obs,
#            perfbench, the clang-tidy/thread-safety lint layers, the fuzz
#            smoke, and the sanitizer and soak tiers — but never tveg-lint or
#            tveg-analyze: the project invariant checkers gate every speed
#            setting; the fuzz.corpus_replay ctests still ran with the
#            plain suite)
#   --bench  additionally run scripts/bench_gate.sh (bench regression gate)
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
FAST=0
BENCH=0
for arg in "$@"; do
  case "${arg}" in
    --fast) FAST=1 ;;
    --bench) BENCH=1 ;;
    *) echo "unknown argument: ${arg}" >&2; exit 2 ;;
  esac
done

GENERATOR=()
command -v ninja >/dev/null 2>&1 && GENERATOR=(-G Ninja)

run_suite() {
  local name="$1" build_dir="$2"
  shift 2
  echo "==== [${name}] configure ===="
  cmake -B "${build_dir}" -S "${REPO_ROOT}" "${GENERATOR[@]}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo "$@"
  echo "==== [${name}] build ===="
  cmake --build "${build_dir}" -j "${JOBS}"
  echo "==== [${name}] ctest ===="
  ctest --test-dir "${build_dir}" -j "${JOBS}" --output-on-failure
}

drive_corpus() {
  # Feed every malformed trace in the corpus to the real CLI under the
  # sanitized binary; each must be rejected with a clean exit code 2 (a
  # crash or sanitizer report fails the pipeline via the exit-code check).
  local build_dir="$1"
  local tmedb="${build_dir}/src/cli/tmedb"
  local corpus="${REPO_ROOT}/tests/trace/corpus"
  echo "==== [asan] malformed-input corpus through the CLI ===="
  local n=0
  for f in "${corpus}"/*.trace; do
    local rc=0
    "${tmedb}" stats "$f" >/dev/null 2>&1 || rc=$?
    if [[ "${rc}" -ne 2 ]]; then
      echo "corpus file ${f} exited with ${rc}, expected clean rejection (2)"
      exit 1
    fi
    n=$((n + 1))
  done
  echo "corpus: ${n} malformed traces cleanly rejected under ASan"
}

# CI builds the plain suite with the hardened warning tier fatal; the
# sanitizer suites pass TVEG_WERROR=OFF so a sanitizer-instrumentation
# quirk can never mask a real race/overflow report behind a build failure.
drive_obs() {
  # End-to-end observability check on the plain build: generate a small
  # trace, sweep it with 4 workers and both outputs armed, then validate the
  # Perfetto JSON independently of the in-binary validator — the sweep must
  # show at least two pool-worker tracks with queue-wait and phase spans.
  local build_dir="$1"
  local tmedb="${build_dir}/src/cli/tmedb"
  local work
  work="$(mktemp -d)"
  echo "==== [obs] threaded sweep with --trace-out / --flight-out ===="
  "${tmedb}" generate --kind snapshots --nodes 12 --horizon 2000 --seed 3 \
      --out "${work}/ci.trace"
  "${tmedb}" sweep "${work}/ci.trace" --from 1000 --to 2000 --step 500 \
      --threads 4 --trace-out "${work}/sweep.perfetto.json" \
      --flight-out "${work}/sweep.flight.txt"
  [[ -s "${work}/sweep.flight.txt" ]] || {
    echo "flight recorder produced no dump"; exit 1; }
  grep -q "flight-recorder:" "${work}/sweep.flight.txt" || {
    echo "flight dump header missing"; exit 1; }
  python3 - "${work}/sweep.perfetto.json" <<'PYEOF'
import collections
import json
import sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
events = doc["traceEvents"]
names = {e["args"]["name"]: e["tid"] for e in events
         if e["ph"] == "M" and e["name"] == "thread_name"}
workers = [n for n in names if n.startswith("pool-worker-")]
assert len(workers) >= 2, f"want >=2 worker tracks, got {sorted(names)}"
phases = {e["name"] for e in events if e["ph"] in ("B", "X")}
for want in ("queue_wait", "pool_task", "aux_dcs_fill"):
    assert want in phases, f"span '{want}' missing from {sorted(phases)}"
stacks = collections.defaultdict(list)
last_ts = collections.defaultdict(float)
for e in events:
    if e["ph"] not in ("B", "E"):
        continue
    tid = e["tid"]
    assert e["ts"] >= last_ts[tid], f"ts went backwards on tid {tid}"
    last_ts[tid] = e["ts"]
    if e["ph"] == "B":
        stacks[tid].append(e["name"])
    else:
        assert stacks[tid] and stacks[tid].pop() == e["name"], \
            f"unmatched E:{e['name']} on tid {tid}"
assert not any(stacks.values()), f"unclosed spans: {dict(stacks)}"
print(f"obs: {len(events)} events, {len(workers)} worker tracks, "
      f"{len(phases)} span names — trace is well-formed")
PYEOF
  rm -rf "${work}"
  echo "==== [obs] trace-schema + overhead ctests ===="
  ctest --test-dir "${build_dir}" --output-on-failure \
        -R 'Perfetto|Span|Overhead|FlightRecorder'
}

drive_soak() {
  # Budget soak on the plain build: the same trace swept under a ladder of
  # per-request budgets — unlimited, tight, and zero (which must degrade
  # every EEDCB request to GREED yet still exit 0).
  # Then the cancellation suites re-run on the TSan build, where the
  # cross-thread cancel traffic is instrumented.
  local build_dir="$1" tsan_dir="$2"
  local tmedb="${build_dir}/src/cli/tmedb"
  local work
  work="$(mktemp -d)"
  echo "==== [soak] budgeted sweeps across a budget ladder ===="
  "${tmedb}" generate --kind snapshots --nodes 12 --horizon 2000 --seed 7 \
      --out "${work}/soak.trace"
  for budget in -1 50 0; do
    "${tmedb}" sweep "${work}/soak.trace" --from 1000 --to 2000 --step 500 \
        --threads 4 --request-budget-ms "${budget}" \
        > "${work}/sweep-${budget}.out"
  done
  # Zero budget: every EEDCB cell fell back — the * marker from the
  # fallback ladder must appear.
  grep -q '\*' "${work}/sweep-0.out" || {
    echo "zero-budget sweep produced no degraded cells"; exit 1; }
  # Zero budget on a single run: the one-request batch lands on GREED.
  "${tmedb}" run "${work}/soak.trace" --algorithm EEDCB --deadline 1500 \
      --threads 4 --request-budget-ms 0 > "${work}/run-budgeted.out"
  grep -q 'solver rung: *greed' "${work}/run-budgeted.out" || {
    echo "zero-budget run did not report the greed rung"; exit 1; }
  rm -rf "${work}"
  echo "==== [soak] CancelStorm + Govern suites on the TSan build ===="
  ctest --test-dir "${tsan_dir}" --output-on-failure -R 'CancelStorm|Govern'
}

drive_perfbench() {
  # run.py builds perfbench into .bench_build/ and exits non-zero on a
  # build failure or a run whose checks report correct: false.
  echo "==== [perfbench] build + one 1 s traced run per workload ===="
  local workload
  for workload in sweep-greedy cold-spt fading-fr; do
    python3 "${REPO_ROOT}/perfbench/run.py" --workload "${workload}" \
        --seed 1 --seconds 1 --trace 1 > /dev/null
  done
}

run_suite "plain" "${REPO_ROOT}/build-ci" -DTVEG_WERROR=ON

drive_fuzz() {
  # Fuzz smoke: coverage-guided for a short budget when clang is on the
  # PATH, otherwise a corpus replay through the plain build's replay
  # drivers (scripts/fuzz.sh picks the mode). Either way the pinned corpus
  # must come through clean.
  echo "==== [fuzz] scripts/fuzz.sh smoke ===="
  FUZZ_SECONDS=10 BUILD_DIR="${REPO_ROOT}/build-ci" \
      "${REPO_ROOT}/scripts/fuzz.sh"
}

if [[ "${FAST}" -eq 1 ]]; then
  echo "==== [lint] scripts/lint.sh --lint-only ===="
  TVEG_LINT_BUILD_DIR="${REPO_ROOT}/build-ci" \
      "${REPO_ROOT}/scripts/lint.sh" --lint-only
else
  drive_obs "${REPO_ROOT}/build-ci"
  drive_perfbench
  drive_fuzz
  echo "==== [lint] scripts/lint.sh ===="
  TVEG_LINT_BUILD_DIR="${REPO_ROOT}/build-ci" "${REPO_ROOT}/scripts/lint.sh"
  run_suite "asan" "${REPO_ROOT}/build-asan" -DTVEG_SANITIZE=address \
      -DTVEG_WERROR=OFF
  drive_corpus "${REPO_ROOT}/build-asan"
  run_suite "ubsan" "${REPO_ROOT}/build-ubsan" -DTVEG_SANITIZE=undefined \
      -DTVEG_WERROR=OFF
  run_suite "tsan" "${REPO_ROOT}/build-tsan" -DTVEG_SANITIZE=thread \
      -DTVEG_WERROR=OFF
  drive_soak "${REPO_ROOT}/build-ci" "${REPO_ROOT}/build-tsan"
fi

if [[ "${BENCH}" -eq 1 ]]; then
  echo "==== [bench] scripts/bench_gate.sh ===="
  BUILD_DIR="${REPO_ROOT}/build-ci" "${REPO_ROOT}/scripts/bench_gate.sh"
fi

echo "==== CI green ===="
