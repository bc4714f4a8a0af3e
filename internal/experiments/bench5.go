// Bench5 is the reproducible experiment-engine benchmark behind the
// committed BENCH_5.json: it times a miniature query-curve sweep at one
// worker versus many (asserting the CSV artifacts stay byte-identical),
// micro-benchmarks the AL loop's pool-scoring hot path (per-row
// PredictProba versus the batched parallel scorer), and measures the
// GBM Fit cost with allocation counts. verify.sh --deep re-runs the
// measurement and fails on regression; see docs/TESTING.md for the
// gating philosophy on 1-CPU hosts.
package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"albadross/internal/ml"
	"albadross/internal/ml/forest"
	"albadross/internal/ml/gbm"
)

// Bench5Config sizes the self-contained benchmark.
type Bench5Config struct {
	// System selects the telemetry spec of the sweep ("volta" default).
	System string
	// Workers is the parallel worker count of the sweep's second run
	// (default 8); the first run always uses one worker.
	Workers int
	// Trials per sweep configuration; the best (fastest) trial is
	// reported, damping scheduler noise.
	Trials int
	// Seed drives the sweep and the synthetic micro-benchmark data.
	Seed int64
}

// SweepBench times the experiment sweep at 1 worker vs Workers.
type SweepBench struct {
	// Workers is the parallel run's worker count.
	Workers int `json:"workers"`
	// Cells is the number of independent (method x split) cells fanned out.
	Cells int `json:"cells"`
	// SerialSec / ParallelSec are best-trial wall-clock seconds.
	SerialSec   float64 `json:"serial_sec"`
	ParallelSec float64 `json:"parallel_sec"`
	// Speedup is SerialSec/ParallelSec. On a 1-CPU host this is ~1; the
	// gate scales its floor by the effective core count.
	Speedup float64 `json:"speedup"`
	// OutputsIdentical reports whether the two runs' CSV artifacts were
	// byte-identical — the determinism contract of the sweep engine.
	OutputsIdentical bool `json:"outputs_identical"`
}

// PoolBench micro-benchmarks the AL loop's pool scoring: one-row-at-a-
// time PredictProba (the pre-batching hot path, still available as
// ml.ProbaBatch) against ml.ProbaBatchParallel over the same pool.
type PoolBench struct {
	Rows int `json:"rows"`
	// SerialNsPerRow / BatchNsPerRow are per-row scoring costs.
	SerialNsPerRow float64 `json:"pool_serial_ns_per_row"`
	BatchNsPerRow  float64 `json:"pool_batch_ns_per_row"`
	// SerialAllocsPerOp / BatchAllocsPerOp count allocations per full
	// pool pass; the batch path's flat matrix should stay at a handful.
	SerialAllocsPerOp int64 `json:"pool_serial_allocs_per_op"`
	BatchAllocsPerOp  int64 `json:"pool_batch_allocs_per_op"`
}

// GBMBench measures one gbm.Model.Fit on synthetic blobs.
type GBMBench struct {
	Rounds int `json:"rounds"`
	// FitNsPerOp is load-sensitive and recorded for reference only; the
	// gate reads the allocation counts, which are load-invariant.
	FitNsPerOp     float64 `json:"gbm_fit_ns_per_op"`
	FitAllocsPerOp int64   `json:"gbm_fit_allocs_per_op"`
	FitBytesPerOp  int64   `json:"gbm_fit_bytes_per_op"`
}

// Bench5Report is the BENCH_5.json document.
type Bench5Report struct {
	// SchemaVersion guards future shape changes.
	SchemaVersion int `json:"schema_version"`
	// GoMaxProcs records the parallelism the numbers were taken under —
	// the speedup gate scales with it.
	GoMaxProcs int        `json:"gomaxprocs"`
	Sweep      SweepBench `json:"sweep"`
	Pool       PoolBench  `json:"pool"`
	GBM        GBMBench   `json:"gbm"`
}

// bench5SweepConfig is the miniature sweep: Tiny scale with a short
// query budget keeps one trial in the low seconds while still fanning
// out Splits*len(methods) independent cells.
func bench5SweepConfig(system string, seed int64, workers int) Config {
	cfg := Default(system, Tiny)
	cfg.Extractor = "mvts"
	cfg.Seed = seed
	cfg.Splits = 2
	cfg.MaxQueries = 6
	cfg.EvalEvery = 2
	cfg.Workers = workers
	return cfg
}

// runSweepOnce runs the query-curve sweep once and returns its
// wall-clock time plus the rendered CSV artifact.
func runSweepOnce(system string, seed int64, workers int) (time.Duration, []byte, int, error) {
	cfg := bench5SweepConfig(system, seed, workers)
	start := time.Now()
	res, err := RunCurves(cfg)
	elapsed := time.Since(start)
	if err != nil {
		return 0, nil, 0, err
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		return 0, nil, 0, err
	}
	return elapsed, buf.Bytes(), cfg.Splits * len(MethodNames()), nil
}

// runSweepBench measures the sweep at 1 worker and at cfg.Workers,
// keeping each configuration's fastest trial.
func runSweepBench(cfg Bench5Config, logf func(string, ...interface{})) (SweepBench, error) {
	sb := SweepBench{Workers: cfg.Workers}
	var serialCSV, parallelCSV []byte
	for trial := 0; trial < cfg.Trials; trial++ {
		el, csv, cells, err := runSweepOnce(cfg.System, cfg.Seed, 1)
		if err != nil {
			return sb, fmt.Errorf("serial sweep: %w", err)
		}
		sb.Cells = cells
		if serialCSV == nil || el.Seconds() < sb.SerialSec {
			sb.SerialSec = el.Seconds()
		}
		serialCSV = csv
	}
	logf("sweep serial: %d cells in %.2fs (best of %d)", sb.Cells, sb.SerialSec, cfg.Trials)
	for trial := 0; trial < cfg.Trials; trial++ {
		el, csv, _, err := runSweepOnce(cfg.System, cfg.Seed, cfg.Workers)
		if err != nil {
			return sb, fmt.Errorf("parallel sweep: %w", err)
		}
		if parallelCSV == nil || el.Seconds() < sb.ParallelSec {
			sb.ParallelSec = el.Seconds()
		}
		parallelCSV = csv
	}
	logf("sweep parallel: %d workers in %.2fs (best of %d)", cfg.Workers, sb.ParallelSec, cfg.Trials)
	if sb.ParallelSec > 0 {
		sb.Speedup = sb.SerialSec / sb.ParallelSec
	}
	sb.OutputsIdentical = bytes.Equal(serialCSV, parallelCSV)
	return sb, nil
}

// benchBlobs builds a separable synthetic classification problem.
func benchBlobs(seed int64, n, dim, k int) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		y[i] = i % k
		x[i] = make([]float64, dim)
		for j := range x[i] {
			x[i][j] = rng.NormFloat64()
		}
		x[i][y[i]] += 2
	}
	return x, y
}

// runPoolBench micro-benchmarks pool scoring over a fitted forest,
// pinned to one worker so the committed alloc floor (3, taken at
// GOMAXPROCS 1) does not count a per-core goroutine fan-out.
func runPoolBench(seed int64) (PoolBench, error) {
	var pb PoolBench
	const dim, k = 32, 3
	x, y := benchBlobs(seed, 512, dim, k)
	f := forest.New(forest.Config{NEstimators: 20, MaxDepth: 8, Seed: seed, Workers: 1})
	if err := f.Fit(x, y, k); err != nil {
		return pb, err
	}
	pool := x[:256]
	pb.Rows = len(pool)
	serial := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ml.ProbaBatch(f, pool)
		}
	})
	batch := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ml.ProbaBatchParallel(f, pool, 0)
		}
	})
	pb.SerialNsPerRow = float64(serial.NsPerOp()) / float64(len(pool))
	pb.BatchNsPerRow = float64(batch.NsPerOp()) / float64(len(pool))
	pb.SerialAllocsPerOp = serial.AllocsPerOp()
	pb.BatchAllocsPerOp = batch.AllocsPerOp()
	return pb, nil
}

// runGBMBench measures gbm Fit cost with allocation counts.
func runGBMBench(seed int64) (GBMBench, error) {
	var gb GBMBench
	const rounds = 15
	x, y := benchBlobs(seed+1, 256, 16, 3)
	cfg := gbm.Config{
		NEstimators: rounds, NumLeaves: 8, LearningRate: 0.2,
		ColsampleByTree: 0.6, Seed: seed,
	}
	probe := gbm.New(cfg)
	if err := probe.Fit(x, y, 3); err != nil {
		return gb, err
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := gbm.New(cfg).Fit(x, y, 3); err != nil {
				b.Fatal(err)
			}
		}
	})
	gb.Rounds = rounds
	gb.FitNsPerOp = float64(res.NsPerOp())
	gb.FitAllocsPerOp = res.AllocsPerOp()
	gb.FitBytesPerOp = res.AllocedBytesPerOp()
	return gb, nil
}

// RunBench5 runs the full benchmark and returns the report.
func RunBench5(cfg Bench5Config, gomaxprocs int, logf func(string, ...interface{})) (*Bench5Report, error) {
	if cfg.System == "" {
		cfg.System = "volta"
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.Trials <= 0 {
		cfg.Trials = 1
	}
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	sweep, err := runSweepBench(cfg, logf)
	if err != nil {
		return nil, err
	}
	logf("sweep: %.2fx speedup at %d workers, outputs identical: %v",
		sweep.Speedup, sweep.Workers, sweep.OutputsIdentical)
	pool, err := runPoolBench(cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("pool bench: %w", err)
	}
	logf("pool: serial %.0f ns/row (%d allocs/op), batch %.0f ns/row (%d allocs/op)",
		pool.SerialNsPerRow, pool.SerialAllocsPerOp, pool.BatchNsPerRow, pool.BatchAllocsPerOp)
	gbmBench, err := runGBMBench(cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("gbm bench: %w", err)
	}
	logf("gbm: fit %.0f ns/op, %d allocs/op, %d B/op",
		gbmBench.FitNsPerOp, gbmBench.FitAllocsPerOp, gbmBench.FitBytesPerOp)
	return &Bench5Report{
		SchemaVersion: 1,
		GoMaxProcs:    gomaxprocs,
		Sweep:         sweep,
		Pool:          pool,
		GBM:           gbmBench,
	}, nil
}

// LoadBench5 reads a committed BENCH_5.json.
func LoadBench5(path string) (*Bench5Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Bench5Report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// sweepSpeedupFloor scales the required sweep speedup by the effective
// core count: minSpeedup binds in full only when the host can actually
// run that many workers (0.55 * cores crosses 2.5 at five cores). On a
// 1-CPU host the floor clamps to 0.8 — the gate then only catches
// catastrophic parallelization overhead, while determinism and the
// allocation gates still bind at full strength.
func sweepSpeedupFloor(minSpeedup float64, workers, gomaxprocs int) float64 {
	eff := workers
	if gomaxprocs < eff {
		eff = gomaxprocs
	}
	floor := 0.55 * float64(eff)
	if floor > minSpeedup {
		floor = minSpeedup
	}
	if floor < 0.8 {
		floor = 0.8
	}
	return floor
}

// CompareBench5 checks a fresh report against the committed baseline.
// The sweep gate requires byte-identical artifacts unconditionally and
// a core-scaled speedup floor (see sweepSpeedupFloor). The pool and GBM
// micro-benchmarks are gated on load-invariant signals — the
// batch/serial cost ratio and the allocation counts — because absolute
// ns/op shifts with host load and would flake on shared runners. It
// returns human-readable violations, empty when the run passes.
func CompareBench5(fresh, baseline *Bench5Report, tolerance, minSpeedup float64) []string {
	var bad []string
	if !fresh.Sweep.OutputsIdentical {
		bad = append(bad, fmt.Sprintf(
			"sweep artifacts differ between 1 and %d workers — the determinism contract is broken",
			fresh.Sweep.Workers))
	}
	floor := sweepSpeedupFloor(minSpeedup, fresh.Sweep.Workers, fresh.GoMaxProcs)
	if fresh.Sweep.Speedup < floor {
		bad = append(bad, fmt.Sprintf(
			"sweep speedup %.2fx at %d workers is below the %.2fx floor (gomaxprocs %d)",
			fresh.Sweep.Speedup, fresh.Sweep.Workers, floor, fresh.GoMaxProcs))
	}
	if baseline.Pool.SerialNsPerRow > 0 && baseline.Pool.BatchNsPerRow > 0 &&
		fresh.Pool.SerialNsPerRow > 0 && fresh.Pool.BatchNsPerRow > 0 {
		baseRatio := baseline.Pool.BatchNsPerRow / baseline.Pool.SerialNsPerRow
		freshRatio := fresh.Pool.BatchNsPerRow / fresh.Pool.SerialNsPerRow
		ceil := baseRatio * (1 + tolerance)
		if freshRatio > ceil {
			bad = append(bad, fmt.Sprintf(
				"pool batch/serial cost ratio regressed: %.2f vs baseline %.2f (ceiling %.2f)",
				freshRatio, baseRatio, ceil))
		}
	}
	if baseline.Pool.BatchAllocsPerOp > 0 && fresh.Pool.BatchAllocsPerOp > baseline.Pool.BatchAllocsPerOp+2 {
		bad = append(bad, fmt.Sprintf(
			"pool batch scoring allocates more: %d allocs/op vs baseline %d",
			fresh.Pool.BatchAllocsPerOp, baseline.Pool.BatchAllocsPerOp))
	}
	if baseline.GBM.FitAllocsPerOp > 0 {
		ceil := int64(float64(baseline.GBM.FitAllocsPerOp) * (1 + tolerance))
		if fresh.GBM.FitAllocsPerOp > ceil {
			bad = append(bad, fmt.Sprintf(
				"gbm fit allocates more: %d allocs/op vs baseline %d (ceiling %d)",
				fresh.GBM.FitAllocsPerOp, baseline.GBM.FitAllocsPerOp, ceil))
		}
	}
	return bad
}
