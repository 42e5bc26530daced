#!/usr/bin/env bash
# CI entry point: tier-1 verification (default build + full ctest suite,
# including the checkpoint/WAL/fault-injection durability suites), then an
# ASan/UBSan sweep of the whole suite (the byte-flip and truncation fault
# injections run under the sanitizers here — damaged files must fail with a
# clean Status, never UB), then a TSan pass over the threaded paths: the
# observability suites (the lock-free metrics/trace primitives under a
# concurrent-registry hammer, and end-to-end metrics) and the
# standing-query server (socket reader/writer threads racing the command
# dispatcher, subscription fan-out, and slow-subscriber teardown). The
# checkpoint/restore path starts no thread, so it has no TSan leg.
# Every build compiles with -Wall -Wextra -Werror.
#
# Fail-fast: `set -e` alone does not fire inside `if`/`&&`/`||` contexts and
# says nothing about *where* a pipeline died, so every leg runs through
# run_leg(), which propagates the exact exit code and names the failing
# command. The ERR trap is inherited by functions/subshells via `set -E`.
set -Eeuo pipefail
cd "$(dirname "$0")"

trap 'status=$?; echo "ci.sh: FAILED (exit ${status}) at: ${BASH_COMMAND}" >&2; exit "${status}"' ERR

JOBS="${JOBS:-$(nproc)}"

# -Wfree-nonheap-object fires a known GCC-12 false positive inside gtest
# macro expansion (tests/common/value_test.cc); keep it non-fatal.
WARN_FLAGS="-Wall -Wextra -Werror -Wno-error=free-nonheap-object"

run_leg() {
  local name="$1"
  shift
  echo "--- ${name}: $*"
  local status=0
  "$@" || status=$?
  if [ "${status}" -ne 0 ]; then
    echo "ci.sh: leg '${name}' FAILED (exit ${status}): $*" >&2
    exit "${status}"
  fi
  echo "--- ${name}: ok"
}

echo "=== tier 1: default build + full test suite ==="
run_leg "tier1-configure" cmake -B build -S . -DCMAKE_CXX_FLAGS="${WARN_FLAGS}"
run_leg "tier1-build" cmake --build build -j"${JOBS}"
run_leg "tier1-ctest" ctest --test-dir build -j"${JOBS}" --output-on-failure

echo "=== perf: bench regression vs checked-in baselines ==="
# Runs the NEXMark end-to-end bench and the component microbenches from the
# tier-1 build and compares throughput per benchmark against the committed
# BENCH_*.json baselines. Thresholds are loose (fail below 50%, warn below
# 85%) because CI machines are single-core and noisy: the leg exists to catch
# a regression of a large factor (an extra fsync, a quadratic path), not
# percent-level drift. Refresh a
# baseline by copying the regenerated JSON from the bench's working
# directory over the checked-in file.
PERF_DIR="build/perf-run"
rm -rf "${PERF_DIR}" && mkdir -p "${PERF_DIR}"
run_leg "perf-nexmark-run" \
  env -C "${PERF_DIR}" ../bench/bench_nexmark --benchmark_min_time=0.1
run_leg "perf-micro-run" \
  env -C "${PERF_DIR}" ../bench/bench_micro --benchmark_min_time=0.1
# The operator-state scaling benches (per-change cost at 1k-100k rows of live
# state) share BENCH_micro.json as their baseline; they compare as a second
# pair below.
run_leg "perf-state-cleanup-run" \
  env -C "${PERF_DIR}" ../bench/bench_state_cleanup \
  --benchmark_filter='BM_AggregateWatermarkLiveGroups|BM_JoinRetractSharedEventTime' \
  --benchmark_min_time=0.1 --benchmark_repetitions=5
# bench_profile carries its own hard gate (profiling overhead must stay
# under 5% of the profiling-off feed path) and exits non-zero past budget;
# the JSON it writes also joins the throughput comparison below.
run_leg "perf-profile-run" \
  env -C "${PERF_DIR}" ../bench/bench_profile --benchmark_min_time=0.1
# The durability bench guards the feed log's one fsync per Feed call: a
# regression that syncs more often than that shows up here as a throughput
# cliff on the durable BM_FeedThroughput rows long before anyone reads a
# latency histogram.
run_leg "perf-checkpoint-run" \
  env -C "${PERF_DIR}" ../bench/bench_checkpoint --benchmark_min_time=0.1
# The e2e legs get extra headroom: full-engine NEXMark runs swing harder
# under co-tenant load than the component microbenches do.
run_leg "perf-e2e-compare" python3 tools/bench_compare.py \
  BENCH_nexmark.json "${PERF_DIR}/BENCH_nexmark.json" \
  BENCH_profile.json "${PERF_DIR}/BENCH_profile.json" \
  BENCH_checkpoint.json "${PERF_DIR}/BENCH_checkpoint.json" \
  --fail=0.35 --warn=0.7
run_leg "perf-micro-compare" python3 tools/bench_compare.py \
  BENCH_micro.json "${PERF_DIR}/BENCH_micro.json" \
  BENCH_micro.json "${PERF_DIR}/BENCH_state_cleanup.json"

echo "=== explain-analyze smoke: annotated plans over every NEXMark query ==="
# Drives all six NEXMark queries through one profiled engine, then validates
# every rendering: the driver itself fails on an unannotated plan, and
# profile_report.py --check re-parses each JSON and asserts the
# plan/sink/per-node shape the tooling depends on.
EXPLAIN_DIR="build/explain-run"
rm -rf "${EXPLAIN_DIR}"
run_leg "explain-run-seq" ./build/tools/explain_nexmark "${EXPLAIN_DIR}/n1"
run_leg "explain-check-seq" python3 tools/profile_report.py --check "${EXPLAIN_DIR}/n1"

echo "=== ASan/UBSan: full test suite ==="
# GCC-12 emits -Wmaybe-uninitialized false positives inside std::variant
# when optimizing under -fsanitize=address,undefined (std::basic_string
# member of the Value payload); keep that one non-fatal here only.
run_leg "asan-configure" cmake -B build-asan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="${WARN_FLAGS} -Wno-error=maybe-uninitialized -fsanitize=address,undefined -fno-sanitize-recover=all" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
run_leg "asan-build" cmake --build build-asan -j"${JOBS}"
run_leg "asan-ctest" ctest --test-dir build-asan -j"${JOBS}" --output-on-failure

echo "=== fuzz: differential five-oracle sweep (ASan/UBSan) ==="
# Fixed seed range so a red leg is reproducible verbatim: the driver prints
# every failing seed, minimizes it, and drops the shrunk reproducer into
# tests/fuzz/corpus/ — check it in and it replays forever in tier-1
# (fuzz_test.CheckedInCorpusReplaysClean). The budget caps the sanitized
# sweep's wall clock; the driver reports how far through the range it got.
run_leg "fuzz-sweep" ./build-asan/tests/fuzz_driver \
  --seed-start=1 --seed-count=10000 --budget-seconds=600 --wal-every=16 \
  --corpus=tests/fuzz/corpus --corpus-out=tests/fuzz/corpus

echo "=== TSan: observability and server tests ==="
# Only the observability primitives and the server start threads; the
# engine's own suites run single-threaded, so they get no TSan leg.
run_leg "tsan-configure" cmake -B build-tsan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="${WARN_FLAGS} -fsanitize=thread" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
run_leg "tsan-build" cmake --build build-tsan -j"${JOBS}" \
  --target obs_test observability_test server_test
# Observability primitives under contention: the counter / histogram /
# registry hammer (8 threads racing registration, updates, and
# snapshots) and the lock-free trace rings.
run_leg "tsan-obs" ./build-tsan/tests/obs_test \
  --gtest_filter='*Concurrent*:RegistryTest.*'
# End-to-end metrics, durable feed log included.
run_leg "tsan-observability" ./build-tsan/tests/observability_test
# The standing-query server: TCP reader/writer/accept threads against the
# core's session registry, plus the in-process overflow-teardown path. The
# 10k-subscriber fan-out test is skipped under TSan (instrumented planning
# of 10k submissions dominates, not the threading under test).
run_leg "tsan-server" ./build-tsan/tests/server_test \
  --gtest_filter='-ServerCoreTest.TenThousandSharedSubscribersOneOperator'

echo "=== CI passed ==="
