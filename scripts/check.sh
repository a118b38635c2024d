#!/usr/bin/env bash
# Tier-1 verification: configure, build, and run the test suite, then the
# observability overhead guard (bench/micro_pipeline --verify-overhead,
# asserting an observed analyzeChanges stays within 5% of an unobserved
# one). Extra arguments pass through to ctest, e.g.
#   scripts/check.sh -L tier1
#   scripts/check.sh -L differential
#   scripts/check.sh -L metrics
#
# --asan (opt-in): build into build-asan/ with AddressSanitizer +
# UndefinedBehaviorSanitizer, aborting on the first report. Also drives
# one traced CLI pipeline run (--metrics --trace-out) so the span/metrics
# paths get a sanitized pass, and re-runs the lexer fuzz suite
# (test_lexer_fuzz) so the mutation corpus executes under the
# sanitizers; the overhead guard is skipped (sanitizer timings are
# meaningless). The regular build/ directory is untouched, so a
# sanitizer sweep never invalidates the incremental tier-1 build.
#   scripts/check.sh --asan -L tier1
#
# --bench <name|all> (opt-in, repeatable): after the test suite, run
# one self-verifying bench — or, with `all`, each of them in the order
# below. Every bench exits non-zero when its check fails and leaves
# BENCH_<name>.json in the build directory.
#   sharding     bench/micro_sharding 10000 42: sharded clustering at
#                paper scale; fails on a determinism or memory-budget
#                violation.
#   interning    bench/micro_interning 10000 42: interned data model at
#                n in {1k, 5k, 10k}; fails if it saves less than 2x
#                resident bytes per change or the warmed cache is slower
#                than the string-space metric.
#   faults       bench/micro_faults 120 42: per-ChangeStatus counts vs
#                wall time across fault rates and sites, read from
#                metrics snapshots; fails on an incomplete report, a
#                nondeterministic campaign, or metrics that disagree with
#                the health block.
#   lexer        bench/micro_lexer 120 42: table-driven lexer vs the seed
#                scanner oracle over the concatenated corpus stream, each
#                timing in a forked child; fails unless the two are
#                byte-identical on every corpus source and the
#                corpus-stream speedup is at least 5x.
#   incremental  bench/micro_incremental 10000 42: service append vs a
#                cold batch; fails unless the warmed session's snapshot
#                is byte-identical to the cold batch report and the
#                single-commit append speedup is at least 5x.
#   scan         bench/micro_scan 600 42: streaming rule scanner at 5x the
#                Fig-10 corpus; fails unless the report is byte-identical
#                to the serial CryptoChecker loop at 1/2/8 threads, the
#                warm-scan speedup is at least 3x, the per-rule counters
#                are in the metrics snapshot, and refinement never widens
#                a verdict.
#   scripts/check.sh --bench all -L tier1
#
# --chaos (opt-in): after the regular suite, run the seeded chaos
# campaign (ctest -L chaos): workers that crash, hang, OOM-exit, start
# slowly, and corrupt result streams, asserting deterministic per-status
# counts and zero coordinator crashes; then the supervision throughput
# guard (bench/micro_supervision, asserting supervised execution stays
# byte-identical to in-process and within 10% of its CPU time at
# min(4, hardware-width) workers; leaves BENCH_supervision.json in the
# build directory); then a stitched-trace validation: two supervised
# traced CLI runs (2 and 4 workers) whose traces must be schema-valid,
# show at least two pid lanes, and agree on the per-change span count
# (span-count invariance — worker scheduling must not lose spans).
#   scripts/check.sh --chaos -L tier1
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=build
CMAKE_ARGS=()
CTEST_ARGS=()
ASAN=0
ALL_BENCHES=(sharding interning faults lexer incremental scan)
BENCHES=()
CHAOS=0
while [[ $# -gt 0 ]]; do
  arg="$1"
  shift
  if [[ "$arg" == "--asan" ]]; then
    ASAN=1
    BUILD_DIR=build-asan
    CMAKE_ARGS+=(
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
      "-DCMAKE_CXX_FLAGS=-fsanitize=address,undefined -fno-sanitize-recover=all"
    )
  elif [[ "$arg" == "--bench" ]]; then
    name="${1:-}"
    shift || true
    if [[ "$name" == "all" ]]; then
      BENCHES+=("${ALL_BENCHES[@]}")
    elif [[ " ${ALL_BENCHES[*]} " == *" $name "* && -n "$name" ]]; then
      BENCHES+=("$name")
    else
      echo "--bench takes one of: ${ALL_BENCHES[*]} all" >&2
      exit 2
    fi
  elif [[ "$arg" == "--chaos" ]]; then
    CHAOS=1
  else
    CTEST_ARGS+=("$arg")
  fi
done

cmake -B "$BUILD_DIR" -S . ${CMAKE_ARGS[@]+"${CMAKE_ARGS[@]}"}
cmake --build "$BUILD_DIR" -j"$(nproc)"
cd "$BUILD_DIR"
ctest --output-on-failure -j"$(nproc)" ${CTEST_ARGS[@]+"${CTEST_ARGS[@]}"}

if [[ "$ASAN" == "1" ]]; then
  echo "== traced pipeline under sanitizers =="
  ./examples/diffcode_cli pipeline ../tests/data/smoke_corpus \
    --metrics --trace-out=trace_asan.json > /dev/null
  echo "== supervised traced pipeline under sanitizers =="
  # The cross-process telemetry path (worker observers, Telemetry frames,
  # coordinator stitch/merge) under the sanitizers.
  ./examples/diffcode_cli pipeline ../tests/data/smoke_corpus \
    --workers 2 --metrics --trace-out=trace_asan_supervised.json > /dev/null
  echo "== supervised execution differential under sanitizers =="
  ./tests/test_supervised_exec
  echo "== lexer fuzz suite under sanitizers =="
  ./tests/test_lexer_fuzz
  echo "== service round-trip under sanitizers =="
  # One full serve/connect cycle over a UNIX socket: ingest the smoke
  # corpus, query, snapshot, shut down. `wait` surfaces the daemon's
  # exit code, so a sanitizer report on either side fails the sweep.
  SOCK="${TMPDIR:-/tmp}/diffcoded_asan_$$.sock"
  rm -f "$SOCK"
  # --metrics so the live-introspection path (StatsReq) runs too: the
  # `--query metrics` round-trip below must return the daemon's summary.
  ./examples/diffcoded "$SOCK" --threads 2 --metrics &
  SERVE_PID=$!
  for _ in $(seq 1 100); do [[ -S "$SOCK" ]] && break; sleep 0.1; done
  ./examples/diffcode_cli connect "$SOCK" \
    --ingest ../tests/data/smoke_corpus \
    --query health --query stats --query metrics --snapshot --shutdown \
    > /dev/null
  wait "$SERVE_PID"
  rm -f "$SOCK"
  echo "== rule scan under sanitizers =="
  # One refined scan through the streaming pipeline (parse, digest,
  # refinement, reorder buffer, report writer) so the scan layer gets a
  # sanitized pass too. The smoke file violates R5/R7 by design, so the
  # expected exit code under --fail-on-violation is 1.
  SCAN_RC=0
  ./examples/diffcode_cli scan --json --refine --fail-on-violation \
    ../tests/data/smoke_corpus/projA/commits/c0001/new.java > /dev/null \
    || SCAN_RC=$?
  if [[ "$SCAN_RC" != "1" ]]; then
    echo "scan --fail-on-violation exited $SCAN_RC, expected 1" >&2
    exit 1
  fi
else
  echo "== observability overhead guard (bench/micro_pipeline) =="
  ./bench/micro_pipeline --verify-overhead
fi

for name in ${BENCHES[@]+"${BENCHES[@]}"}; do
  case "$name" in
    sharding)
      echo "== sharded clustering sweep (bench/micro_sharding) =="
      ./bench/micro_sharding 10000 42 BENCH_sharding.json ;;
    interning)
      echo "== interned data model sweep (bench/micro_interning) =="
      ./bench/micro_interning 10000 42 BENCH_interning.json ;;
    faults)
      echo "== fault-campaign sweep (bench/micro_faults) =="
      ./bench/micro_faults 120 42 BENCH_faults.json ;;
    lexer)
      echo "== front-end scanner sweep (bench/micro_lexer) =="
      ./bench/micro_lexer 120 42 BENCH_lexer.json ;;
    incremental)
      echo "== service incremental-append guard (bench/micro_incremental) =="
      ./bench/micro_incremental 10000 42 BENCH_incremental.json ;;
    scan)
      echo "== streaming rule scanner guard (bench/micro_scan) =="
      ./bench/micro_scan 600 42 BENCH_scan.json ;;
  esac
done

if [[ "$CHAOS" == "1" ]]; then
  echo "== seeded chaos campaign (ctest -L chaos) =="
  ctest --output-on-failure -j"$(nproc)" -L chaos
  echo "== supervision throughput guard (bench/micro_supervision) =="
  ./bench/micro_supervision 32 42 BENCH_supervision.json
  echo "== stitched supervised trace validation =="
  # Two supervised traced runs at different worker counts: both traces
  # must be schema-valid with worker lanes present, and the per-change
  # span count must not depend on how units were scheduled.
  for W in 2 4; do
    ./examples/diffcode_cli pipeline ../tests/data/smoke_corpus \
      --workers "$W" --metrics --trace-out="trace_chaos_w$W.json" > /dev/null
    grep -q '"traceEvents":\[' "trace_chaos_w$W.json"
    grep -q '"ph":"X"' "trace_chaos_w$W.json"
    PIDS=$(grep -o '"pid":[0-9]*' "trace_chaos_w$W.json" | sort -u | wc -l)
    if [[ "$PIDS" -lt 2 ]]; then
      echo "trace_chaos_w$W.json: expected >=2 pid lanes, got $PIDS" >&2
      exit 1
    fi
  done
  SPANS2=$(grep -o '"name":"processChange"' trace_chaos_w2.json | wc -l)
  SPANS4=$(grep -o '"name":"processChange"' trace_chaos_w4.json | wc -l)
  if [[ "$SPANS2" != "$SPANS4" || "$SPANS2" == "0" ]]; then
    echo "span-count invariance violated: $SPANS2 (2 workers) vs $SPANS4 (4 workers)" >&2
    exit 1
  fi
  echo "stitched traces OK: $SPANS2 per-change spans on both worker counts"
fi
