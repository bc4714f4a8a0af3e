#!/bin/sh
# Tier-1 verification gate (see ROADMAP.md): gofmt, vet, build,
# repo-specific static analysis, race-enabled tests, the allocation
# gates. Run from the repository root; exits non-zero on first failure.
#
#   ./verify.sh          # the standard gate
#   ./verify.sh --deep   # additionally: fuzz smokes (CSV parser,
#                        # stream ingest, WAL record decoder,
#                        # ingest-body values scanner, ingest wire
#                        # decoder against encoding/json, mvts kernel
#                        # against its reference) and the coverage
#                        # floor gate against coverage_baseline.txt
#
# Speed is measured end to end by BENCHMARK.json (sh benchmark/run.sh),
# never gated here: every check below is deterministic.
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
go test -count=1 -run 'Alloc' ./internal/features/mvts/ ./internal/stream/ \
  ./internal/ml/... ./internal/fleet/

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

  echo "== fuzz smoke: FuzzIngestWireDecode (10s)"
  go test -run '^$' -fuzz=FuzzIngestWireDecode -fuzztime=10s ./internal/server/

  echo "== fuzz smoke: FuzzWALDecode (10s)"
  go test -fuzz=FuzzWALDecode -fuzztime=10s ./internal/wal/

  echo "== fuzz smoke: FuzzMVTSReference (10s)"
  go test -fuzz=FuzzMVTSReference -fuzztime=10s ./internal/features/mvts/

  echo "== coverage floors vs coverage_baseline.txt"
  # COVER_OUT (used by CI) additionally writes the same run's profile.
  go test -cover ${COVER_OUT:+-coverprofile="$COVER_OUT"} \
    ./internal/server/ ./internal/stream/ ./internal/active/ \
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
