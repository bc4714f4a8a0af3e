// Selfcheck is the reproducible half of the serving benchmark: it
// spins up the real annotation server in-process on a loopback
// listener, measures bulk {"batch": …} request throughput, and collects
// micro-benchmark numbers for the model-level batch inference. The
// committed BENCH_4.json is this report (its serial-phase and speedup
// fields, from when the server had a request coalescer to compare
// against, are no longer read); verify.sh --deep re-runs the
// measurement and fails on regression.
package loadgen

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"albadross/internal/active"
	"albadross/internal/dataset"
	"albadross/internal/ml"
	"albadross/internal/ml/forest"
	"albadross/internal/ml/tree"
	"albadross/internal/server"
	"albadross/internal/telemetry"
)

// SelfcheckConfig sizes the self-contained benchmark.
type SelfcheckConfig struct {
	// Duration of the load phase per trial.
	Duration time.Duration
	// Trials of the load phase; the best trial is reported, damping
	// scheduler noise on small machines.
	Trials int
	// Concurrency is the client fleet size.
	Concurrency int
	// Rows per request.
	Rows int
	// Seed drives the synthetic dataset and the generated traffic.
	Seed int64
}

// MicroBench holds the model-level batch-inference micro numbers,
// measured with testing.Benchmark over a fitted forest.
type MicroBench struct {
	// SerialNsPerRow is one-row-at-a-time PredictProba cost.
	SerialNsPerRow float64 `json:"forest_serial_ns_per_row"`
	// BatchNsPerRow is PredictProbaBatch cost per row.
	BatchNsPerRow float64 `json:"forest_batch_ns_per_row"`
	// SerialAllocsPerOp / BatchAllocsPerOp are allocations per 256-row
	// pass; the batch path's flat output matrix should hold this at a
	// handful regardless of row count.
	SerialAllocsPerOp int64 `json:"forest_serial_allocs_per_op"`
	BatchAllocsPerOp  int64 `json:"forest_batch_allocs_per_op"`
}

// BenchReport is the BENCH_4.json document.
type BenchReport struct {
	// SchemaVersion guards future shape changes.
	SchemaVersion int `json:"schema_version"`
	// GoMaxProcs records the parallelism the numbers were taken under.
	GoMaxProcs int `json:"gomaxprocs"`
	// Micro holds model-level numbers; Batched holds the load phase.
	Micro   MicroBench `json:"micro"`
	Batched *Result    `json:"batched"`
}

// benchDim is the synthetic dataset's feature width — wide enough that
// JSON encode/decode per request is realistic, narrow enough to keep
// the benchmark fast.
const benchDim = 32

// newBenchServer builds the synthetic annotation server the benchmark
// drives. The dataset is a separable 3-class problem; the model is the
// production default (entropy forest).
func newBenchServer(seed int64) (*server.Server, error) {
	classes := []string{"healthy", "cpuoccupy", "memleak"}
	rng := rand.New(rand.NewSource(seed))
	d := dataset.New(classes)
	for i := 0; i < 600; i++ {
		label := 0
		if rng.Float64() < 0.2 {
			label = 1 + rng.Intn(2)
		}
		x := make([]float64, benchDim)
		for j := range x {
			x[j] = rng.Float64() * 0.3
		}
		if label > 0 {
			x[label-1] += 0.8
		}
		if err := d.Add(x, classes[label], telemetry.RunMeta{App: "BT", Node: i % 8}); err != nil {
			return nil, err
		}
	}
	split, err := dataset.MakeALSplit(d, dataset.ALSplitConfig{
		TestFraction: 0.3, AnomalyRatio: 0.10, HealthyClass: 0, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	return server.New(server.Config{
		Data:  d,
		Split: split,
		Factory: forest.NewFactory(forest.Config{
			NEstimators: 40, MaxDepth: 10, Criterion: tree.Entropy, Seed: seed,
		}),
		Strategy: active.Uncertainty{},
		Seed:     seed + 7,
	})
}

// runPhase measures the serving path at cfg.Rows rows per request,
// returning the best of cfg.Trials runs by rows-per-second.
func runPhase(cfg SelfcheckConfig) (*Result, error) {
	srv, err := newBenchServer(cfg.Seed)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()

	var best *Result
	for t := 0; t < cfg.Trials; t++ {
		res, err := Run(Config{
			BaseURL:     hts.URL,
			Duration:    cfg.Duration,
			Concurrency: cfg.Concurrency,
			Rows:        cfg.Rows,
			Dim:         benchDim,
			Seed:        cfg.Seed + int64(t),
		})
		if err != nil {
			return nil, err
		}
		if res.Errors > 0 {
			return nil, fmt.Errorf("loadgen: %d of %d requests failed", res.Errors, res.Requests)
		}
		if best == nil || res.RowsPerSec > best.RowsPerSec {
			best = res
		}
	}
	return best, nil
}

// runMicro measures model-level inference cost with testing.Benchmark.
// The forest is pinned to one worker: PredictProbaBatch's per-worker
// fan-out allocates per goroutine, so the committed alloc floor (3, taken
// at GOMAXPROCS 1) would otherwise mean something different on every
// core count.
func runMicro(seed int64) (MicroBench, error) {
	var mb MicroBench
	rng := rand.New(rand.NewSource(seed))
	n, k := 512, 3
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		y[i] = i % k
		x[i] = make([]float64, benchDim)
		for j := range x[i] {
			x[i][j] = rng.NormFloat64()
		}
		x[i][y[i]] += 2
	}
	f := forest.New(forest.Config{NEstimators: 20, MaxDepth: 8, Seed: seed, Workers: 1})
	if err := f.Fit(x, y, k); err != nil {
		return mb, err
	}
	rows := x[:256]
	serial := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ml.ProbaBatch(f, rows)
		}
	})
	batch := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.PredictProbaBatch(rows)
		}
	})
	mb.SerialNsPerRow = float64(serial.NsPerOp()) / float64(len(rows))
	mb.BatchNsPerRow = float64(batch.NsPerOp()) / float64(len(rows))
	mb.SerialAllocsPerOp = serial.AllocsPerOp()
	mb.BatchAllocsPerOp = batch.AllocsPerOp()
	return mb, nil
}

// Selfcheck runs the full in-process benchmark and returns the report.
func Selfcheck(cfg SelfcheckConfig, gomaxprocs int, logf func(string, ...interface{})) (*BenchReport, error) {
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * time.Second
	}
	if cfg.Trials <= 0 {
		cfg.Trials = 1
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 8
	}
	if cfg.Rows <= 0 {
		cfg.Rows = 64
	}
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}

	logf("micro: forest inference over 256x%d rows", benchDim)
	micro, err := runMicro(cfg.Seed)
	if err != nil {
		return nil, err
	}
	logf("micro: serial %.0f ns/row (%d allocs/op), batch %.0f ns/row (%d allocs/op)",
		micro.SerialNsPerRow, micro.SerialAllocsPerOp, micro.BatchNsPerRow, micro.BatchAllocsPerOp)

	logf("phase batched: %d rows/request, %d clients, %s x %d trials",
		cfg.Rows, cfg.Concurrency, cfg.Duration, cfg.Trials)
	batched, err := runPhase(cfg)
	if err != nil {
		return nil, fmt.Errorf("batched phase: %w", err)
	}
	logf("phase batched: %.0f rows/s, p50 %.2fms p99 %.2fms", batched.RowsPerSec, batched.P50Ms, batched.P99Ms)

	return &BenchReport{
		SchemaVersion: 1,
		GoMaxProcs:    gomaxprocs,
		Micro:         micro,
		Batched:       batched,
	}, nil
}

// LoadReport reads a committed BENCH_4.json.
func LoadReport(path string) (*BenchReport, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r BenchReport
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// Compare checks a fresh report against the committed baseline:
// the batched throughput may not regress more than tolerance (a
// fraction, e.g. 0.2). The micro bench is gated on load-invariant
// signals only — the batch/serial cost ratio and the allocation count —
// because absolute ns/row shifts with host load and would flake on
// shared runners. It returns a list of human-readable violations,
// empty when the run passes.
func Compare(fresh, baseline *BenchReport, tolerance float64) []string {
	var bad []string
	if baseline.Batched != nil && fresh.Batched != nil {
		floor := baseline.Batched.RowsPerSec * (1 - tolerance)
		if fresh.Batched.RowsPerSec < floor {
			bad = append(bad, fmt.Sprintf(
				"batched throughput regressed: %.0f rows/s vs baseline %.0f (floor %.0f at %.0f%% tolerance)",
				fresh.Batched.RowsPerSec, baseline.Batched.RowsPerSec, floor, tolerance*100))
		}
	}
	if baseline.Micro.SerialNsPerRow > 0 && baseline.Micro.BatchNsPerRow > 0 &&
		fresh.Micro.SerialNsPerRow > 0 && fresh.Micro.BatchNsPerRow > 0 {
		baseRatio := baseline.Micro.BatchNsPerRow / baseline.Micro.SerialNsPerRow
		freshRatio := fresh.Micro.BatchNsPerRow / fresh.Micro.SerialNsPerRow
		ceil := baseRatio * (1 + tolerance)
		if freshRatio > ceil {
			bad = append(bad, fmt.Sprintf(
				"micro batch/serial cost ratio regressed: %.2f vs baseline %.2f (ceiling %.2f)",
				freshRatio, baseRatio, ceil))
		}
	}
	if baseline.Micro.BatchAllocsPerOp > 0 && fresh.Micro.BatchAllocsPerOp > baseline.Micro.BatchAllocsPerOp+2 {
		bad = append(bad, fmt.Sprintf(
			"micro batch inference allocates more: %d allocs/op vs baseline %d",
			fresh.Micro.BatchAllocsPerOp, baseline.Micro.BatchAllocsPerOp))
	}
	return bad
}
