#!/bin/sh
# Tier-1 verification gate (see ROADMAP.md): gofmt, vet, build,
# repo-specific static analysis, race-enabled tests, the allocation
# gates. Run from the repository root; exits non-zero on first failure.
#
#   ./verify.sh          # the standard gate
#   ./verify.sh --deep   # additionally: fuzz smokes (CSV parser,
#                        # stream ingest, WAL record decoder,
#                        # ingest-body values scanner, mvts kernel
#                        # against its reference), the serving
#                        # benchmark against BENCH_4.json, the experiment-
#                        # engine benchmark against BENCH_5.json, the
#                        # fleet-scale ingest benchmark against
#                        # BENCH_6.json, the raw-speed benchmark against
#                        # BENCH_7.json, and the coverage floor gate
#                        # against coverage_baseline.txt
set -eu

deep=0
for arg in "$@"; do
  case "$arg" in
    --deep) deep=1 ;;
    *) echo "usage: ./verify.sh [--deep]" >&2; exit 2 ;;
  esac
done

echo "== gofmt -l (testdata/ holds analyzer fixtures and is skipped)"
unformatted=$(find . -name '*.go' -not -path '*/testdata/*' -not -path './.bench_build/*' -exec gofmt -l {} +)
if [ -n "$unformatted" ]; then
  echo "gofmt: unformatted files:" >&2
  echo "$unformatted" >&2
  exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== albacheck (repo-specific static analysis; see docs/STATIC_ANALYSIS.md)"
# -expect-analyzers pins the registry size: a dropped (or silently
# added) analyzer fails the gate even when the sweep itself is clean.
# ALBACHECK_OUT (used by CI) additionally writes the full -json report
# (findings, reasoned suppressions, per-analyzer wall-clock timing).
if [ -n "${ALBACHECK_OUT:-}" ]; then
  go run ./cmd/albacheck -expect-analyzers 10 -json \
    ./internal/... ./cmd/... ./examples/... > "$ALBACHECK_OUT"
else
  go run ./cmd/albacheck -expect-analyzers 10 ./internal/... ./cmd/... ./examples/...
fi

echo "== go test -race ./..."
# 20m headroom: the experiments package runs race-enabled end-to-end
# sweeps (golden fixture + worker-count parity) that near the default
# 10m per-package budget on 1-CPU hosts.
go test -race -timeout 20m ./...

echo "== allocation gates (testing.AllocsPerRun; without -race, under which sync.Pool drops Puts)"
go test -count=1 -run 'Alloc' ./internal/features/mvts/ ./internal/stream/

echo "== lifecycle chaos scenario (drift trigger, quarantine, rollback; see docs/LIFECYCLE.md)"
# Every phase invariant is asserted in-process; a violation exits
# non-zero. LIFECYCLE_OUT (used by CI) writes the phase table as CSV.
go run ./cmd/experiments -run lifecycle -scale tiny ${LIFECYCLE_OUT:+-out "$LIFECYCLE_OUT"}

if [ "$deep" -eq 1 ]; then
  echo "== fuzz smoke: FuzzReadCSV (10s)"
  go test -fuzz=FuzzReadCSV -fuzztime=10s ./internal/ldms/

  echo "== fuzz smoke: FuzzPushAt (10s)"
  go test -fuzz=FuzzPushAt -fuzztime=10s ./internal/pipeline/

  echo "== fuzz smoke: FuzzValuesDecode (10s)"
  go test -fuzz=FuzzValuesDecode -fuzztime=10s ./internal/fleet/

  echo "== fuzz smoke: FuzzWALDecode (10s)"
  go test -fuzz=FuzzWALDecode -fuzztime=10s ./internal/wal/

  echo "== fuzz smoke: FuzzMVTSReference (10s)"
  go test -fuzz=FuzzMVTSReference -fuzztime=10s ./internal/features/mvts/

  echo "== serving benchmark vs BENCH_4.json (see docs/TESTING.md)"
  go run ./cmd/loadgen -selfcheck -duration 2s -trials 2 \
    -baseline BENCH_4.json -tolerance 0.20

  echo "== experiment-engine benchmark vs BENCH_5.json (see docs/TESTING.md)"
  go run ./cmd/experiments -bench -bench-trials 2 \
    -bench-baseline BENCH_5.json -bench-tolerance 0.20 -bench-min-speedup 2.5

  echo "== raw-speed benchmark vs BENCH_7.json (see docs/PERFORMANCE.md)"
  # Gates the ISSUE 7 contracts: forest flat-vs-pointer batch speedup
  # >= 3x (same-run ratio), flattened-vs-pointer predictions bitwise
  # identical. BENCH7_OUT (used by CI) writes the fresh report for
  # artifact upload.
  go run ./cmd/experiments -bench7 \
    -bench7-baseline BENCH_7.json -bench-tolerance 0.20 -bench7-min-speedup 3.0 \
    ${BENCH7_OUT:+-bench7-out "$BENCH7_OUT"}

  echo "== fleet-scale ingest benchmark vs BENCH_6.json (see docs/FLEET.md)"
  # Gates the ISSUE 10 contracts: bulk-vs-single ingest speedup >= 2x
  # at 64+ nodes (same-run ratio), zero-alloc warmed demux, bounded
  # shed with intact accounting and a Retry-After hint under overload,
  # bitwise WAL recovery, shard-count-invariant rollup artifacts.
  # BENCH6_OUT (used by CI) writes the fresh report for artifact upload.
  go run ./cmd/experiments -bench6 -bench-trials 2 \
    -bench6-baseline BENCH_6.json -bench-tolerance 0.20 -bench6-min-speedup 2.0 \
    ${BENCH6_OUT:+-bench6-out "$BENCH6_OUT"}

  echo "== coverage floors vs coverage_baseline.txt"
  go test -cover ./internal/server/ ./internal/stream/ ./internal/active/ \
    ./internal/wal/ ./internal/pipeline/ ./internal/fleet/ ./internal/loadgen/ \
    > /tmp/albadross_cover.$$ 2>&1 || { cat /tmp/albadross_cover.$$; rm -f /tmp/albadross_cover.$$; exit 1; }
  cat /tmp/albadross_cover.$$
  awk '
    NR==FNR {
      if ($0 !~ /^#/ && NF >= 2) floor[$1] = $2 + 0
      next
    }
    /coverage:/ {
      pkg = $2
      for (i = 1; i <= NF; i++) if ($i == "coverage:") { pct = $(i+1); sub(/%/, "", pct) }
      if (pkg in floor) {
        seen[pkg] = 1
        if (pct + 0 < floor[pkg] - 1.0) {
          printf "coverage gate: %s at %.1f%% is more than 1.0 point below the committed %.1f%%\n", pkg, pct, floor[pkg]
          bad = 1
        }
      }
    }
    END {
      for (p in floor) if (!(p in seen)) { printf "coverage gate: no fresh measurement for %s\n", p; bad = 1 }
      exit bad
    }
  ' coverage_baseline.txt /tmp/albadross_cover.$$ || { rm -f /tmp/albadross_cover.$$; exit 1; }
  rm -f /tmp/albadross_cover.$$
fi

echo "verify: OK"
