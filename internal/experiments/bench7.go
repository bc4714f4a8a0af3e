// Bench7 is the reproducible raw-speed benchmark behind the committed
// BENCH_7.json: it measures the flattened SoA tree layout behind
// PredictProbaBatch and pins its correctness contract (predictions
// bitwise identical to the pointer walk). verify.sh --deep re-runs the
// measurement and fails on regression; see docs/PERFORMANCE.md for what
// each number means and docs/TESTING.md for the gating philosophy on
// loaded hosts.
//
// Every timing gate is a same-run ratio: the pointer walk and the
// flattened walk are measured seconds apart under identical load, so
// their ratio survives host noise that would make absolute ns/op flake.
// The pointer per-row path is the same code BENCH_4's micro benchmark
// timed, which makes the same-run speedup the load-adjusted stand-in
// for "vs the BENCH_4 baseline".
package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"

	"albadross/internal/ml/forest"
	"albadross/internal/ml/gbm"
)

// FlatForestBench compares the pointer-walk per-row scorer against the
// flattened single-threaded batch scorer over the same fitted forest.
type FlatForestBench struct {
	Rows  int `json:"rows"`
	Trees int `json:"trees"`
	// PointerNsPerRow is per-row PredictProba — the heap pointer chase
	// BENCH_4's micro section timed (forest_serial_ns_per_row).
	PointerNsPerRow float64 `json:"forest_pointer_ns_per_row"`
	// FlatNsPerRow is PredictProbaBatch at one worker over the flattened
	// SoA arrays; the speedup gate reads the same-run ratio.
	FlatNsPerRow float64 `json:"forest_flat_batch_ns_per_row"`
	// Speedup is PointerNsPerRow / FlatNsPerRow.
	Speedup float64 `json:"forest_flat_speedup"`
	// FlatAllocsPerOp counts allocations per 256-row batch call.
	FlatAllocsPerOp int64 `json:"forest_flat_allocs_per_op"`
	// BitwiseIdentical reports whether the flattened batch output matched
	// per-row PredictProba bit for bit on every row and class.
	BitwiseIdentical bool `json:"forest_bitwise_identical"`
}

// FlatGBMBench is the same comparison for the boosted model, whose
// flattened form also folds away the per-row column projections.
type FlatGBMBench struct {
	Rows             int     `json:"rows"`
	Rounds           int     `json:"rounds"`
	PointerNsPerRow  float64 `json:"gbm_pointer_ns_per_row"`
	FlatNsPerRow     float64 `json:"gbm_flat_batch_ns_per_row"`
	Speedup          float64 `json:"gbm_flat_speedup"`
	FlatAllocsPerOp  int64   `json:"gbm_flat_allocs_per_op"`
	BitwiseIdentical bool    `json:"gbm_bitwise_identical"`
}

// Bench7Report is the BENCH_7.json document. The committed file also
// carries "rolling" and "stream" sections from before the incremental
// extractor was deleted; encoding/json ignores them on load.
type Bench7Report struct {
	SchemaVersion int             `json:"schema_version"`
	GoMaxProcs    int             `json:"gomaxprocs"`
	Forest        FlatForestBench `json:"forest"`
	GBM           FlatGBMBench    `json:"gbm"`
}

// bitwiseEqualMatrix reports whether two probability matrices agree bit
// for bit, including NaN payloads.
func bitwiseEqualMatrix(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// runFlatForestBench fits the same miniature forest as BENCH_4's micro
// section (20 trees, depth 8, 512x32 blobs) and compares the pointer
// per-row walk against the flattened single-worker batch walk.
func runFlatForestBench(seed int64) (FlatForestBench, error) {
	var fb FlatForestBench
	const dim, k = 32, 3
	x, y := benchBlobs(seed, 512, dim, k)
	f := forest.New(forest.Config{NEstimators: 20, MaxDepth: 8, Seed: seed, Workers: 1})
	if err := f.Fit(x, y, k); err != nil {
		return fb, err
	}
	pool := x[:256]
	fb.Rows = len(pool)
	fb.Trees = len(f.Trees)
	pointer := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, row := range pool {
				f.PredictProba(row)
			}
		}
	})
	flatRun := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.PredictProbaBatch(pool)
		}
	})
	fb.PointerNsPerRow = float64(pointer.NsPerOp()) / float64(len(pool))
	fb.FlatNsPerRow = float64(flatRun.NsPerOp()) / float64(len(pool))
	if fb.FlatNsPerRow > 0 {
		fb.Speedup = fb.PointerNsPerRow / fb.FlatNsPerRow
	}
	fb.FlatAllocsPerOp = flatRun.AllocsPerOp()
	want := make([][]float64, len(pool))
	for i, row := range pool {
		want[i] = f.PredictProba(row)
	}
	fb.BitwiseIdentical = bitwiseEqualMatrix(f.PredictProbaBatch(pool), want)
	return fb, nil
}

// runFlatGBMBench is the boosted-model counterpart: 15 rounds, 8
// leaves, half the columns per tree, so the flattened walk also has to
// prove its column remapping.
func runFlatGBMBench(seed int64) (FlatGBMBench, error) {
	var gb FlatGBMBench
	const dim, k = 32, 3
	x, y := benchBlobs(seed+1, 512, dim, k)
	m := gbm.New(gbm.Config{
		NEstimators: 15, NumLeaves: 8, LearningRate: 0.2,
		ColsampleByTree: 0.5, Seed: seed, Workers: 1,
	})
	if err := m.Fit(x, y, k); err != nil {
		return gb, err
	}
	pool := x[:256]
	gb.Rows = len(pool)
	gb.Rounds = len(m.Trees)
	pointer := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, row := range pool {
				m.PredictProba(row)
			}
		}
	})
	flatRun := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.PredictProbaBatch(pool)
		}
	})
	gb.PointerNsPerRow = float64(pointer.NsPerOp()) / float64(len(pool))
	gb.FlatNsPerRow = float64(flatRun.NsPerOp()) / float64(len(pool))
	if gb.FlatNsPerRow > 0 {
		gb.Speedup = gb.PointerNsPerRow / gb.FlatNsPerRow
	}
	gb.FlatAllocsPerOp = flatRun.AllocsPerOp()
	want := make([][]float64, len(pool))
	for i, row := range pool {
		want[i] = m.PredictProba(row)
	}
	gb.BitwiseIdentical = bitwiseEqualMatrix(m.PredictProbaBatch(pool), want)
	return gb, nil
}

// RunBench7 runs the full benchmark and returns the report.
func RunBench7(seed int64, gomaxprocs int, logf func(string, ...interface{})) (*Bench7Report, error) {
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	fb, err := runFlatForestBench(seed)
	if err != nil {
		return nil, fmt.Errorf("forest bench: %w", err)
	}
	logf("forest: pointer %.0f ns/row, flat batch %.0f ns/row (%.2fx, %d allocs/op, bitwise %v)",
		fb.PointerNsPerRow, fb.FlatNsPerRow, fb.Speedup, fb.FlatAllocsPerOp, fb.BitwiseIdentical)
	gb, err := runFlatGBMBench(seed)
	if err != nil {
		return nil, fmt.Errorf("gbm bench: %w", err)
	}
	logf("gbm: pointer %.0f ns/row, flat batch %.0f ns/row (%.2fx, %d allocs/op, bitwise %v)",
		gb.PointerNsPerRow, gb.FlatNsPerRow, gb.Speedup, gb.FlatAllocsPerOp, gb.BitwiseIdentical)
	return &Bench7Report{
		SchemaVersion: 1,
		GoMaxProcs:    gomaxprocs,
		Forest:        fb,
		GBM:           gb,
	}, nil
}

// LoadBench7 reads a committed BENCH_7.json.
func LoadBench7(path string) (*Bench7Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Bench7Report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// bench4Doc is the slice of BENCH_4.json the trajectory table needs
// (the full document belongs to cmd/loadgen's selfcheck).
type bench4Doc struct {
	Micro struct {
		SerialNsPerRow float64 `json:"forest_serial_ns_per_row"`
		BatchNsPerRow  float64 `json:"forest_batch_ns_per_row"`
	} `json:"micro"`
	Batched struct {
		RowsPerSec float64 `json:"rows_per_sec"`
	} `json:"batched"`
}

// TrajectoryMarkdown renders the README "performance trajectory" table
// from the committed BENCH_4.json, a BENCH_7 report, and (when
// non-nil) a BENCH_6 report. The rows are not the same rig — BENCH_4
// times the HTTP serving path on pointer trees, BENCH_7 the in-process
// flattened batch, BENCH_6 the fleet bulk-ingest HTTP path — so each
// row names what it measured.
func TrajectoryMarkdown(bench4Path string, b7 *Bench7Report, b6 *Bench6Report) (string, error) {
	raw, err := os.ReadFile(bench4Path)
	if err != nil {
		return "", err
	}
	var b4 bench4Doc
	if err := json.Unmarshal(raw, &b4); err != nil {
		return "", fmt.Errorf("%s: %w", bench4Path, err)
	}
	b4Speed := 0.0
	if b4.Micro.BatchNsPerRow > 0 {
		b4Speed = b4.Micro.SerialNsPerRow / b4.Micro.BatchNsPerRow
	}
	var sb []byte
	sb = append(sb, "| bench | forest batch ns/row | speedup vs per-row pointer walk | sustained rows/s | measured path |\n"...)
	sb = append(sb, "|---|---:|---:|---:|---|\n"...)
	sb = append(sb, fmt.Sprintf("| BENCH_4 | %.0f | %.2fx | %.0f | HTTP `/api/diagnose/batch`, pointer trees |\n",
		b4.Micro.BatchNsPerRow, b4Speed, b4.Batched.RowsPerSec)...)
	sb = append(sb, fmt.Sprintf("| BENCH_7 | %.0f | %.2fx | — | in-process flat SoA batch |\n",
		b7.Forest.FlatNsPerRow, b7.Forest.Speedup)...)
	if b6 != nil && len(b6.Scale) > 0 {
		top := b6.Scale[len(b6.Scale)-1]
		rows := 0.0
		if top.Bulk != nil {
			rows = top.Bulk.RowsPerSec
		}
		sb = append(sb, fmt.Sprintf("| BENCH_6 | — | %.2fx bulk vs single-row | %.0f | HTTP `/api/ingest/bulk`, %d nodes on %d shard workers |\n",
			top.Speedup, rows, top.Nodes, top.Shards)...)
	}
	return string(sb), nil
}

// CompareBench7 checks a fresh report against the committed baseline
// and returns human-readable violations (empty when the run passes).
// All gates are load-invariant: same-run speedup ratios, allocation
// counts and bitwise-identity booleans — never absolute ns/op, which
// flakes with host load. minSpeedup is the absolute floor on the
// forest's flat-vs-pointer ratio (the ISSUE 7 acceptance bar, default
// 3.0); the GBM ratio is gated against the baseline's own ratio shrunk
// by tolerance, so a layout regression trips it without pinning an
// absolute number.
func CompareBench7(fresh, baseline *Bench7Report, tolerance, minSpeedup float64) []string {
	var bad []string
	if !fresh.Forest.BitwiseIdentical {
		bad = append(bad, "forest flattened batch predictions are not bitwise identical to the pointer walk")
	}
	if !fresh.GBM.BitwiseIdentical {
		bad = append(bad, "gbm flattened batch predictions are not bitwise identical to the pointer walk")
	}
	if fresh.Forest.Speedup < minSpeedup {
		bad = append(bad, fmt.Sprintf(
			"forest flat batch speedup %.2fx is below the %.2fx floor (pointer %.0f ns/row, flat %.0f ns/row)",
			fresh.Forest.Speedup, minSpeedup, fresh.Forest.PointerNsPerRow, fresh.Forest.FlatNsPerRow))
	}
	if floor := baseline.GBM.Speedup * (1 - tolerance); baseline.GBM.Speedup > 0 && fresh.GBM.Speedup < floor {
		bad = append(bad, fmt.Sprintf(
			"gbm flat batch speedup regressed: %.2fx vs baseline %.2fx (floor %.2fx)",
			fresh.GBM.Speedup, baseline.GBM.Speedup, floor))
	}
	if baseline.Forest.FlatAllocsPerOp > 0 && fresh.Forest.FlatAllocsPerOp > baseline.Forest.FlatAllocsPerOp+2 {
		bad = append(bad, fmt.Sprintf(
			"forest flat batch allocates more: %d allocs/op vs baseline %d",
			fresh.Forest.FlatAllocsPerOp, baseline.Forest.FlatAllocsPerOp))
	}
	if baseline.GBM.FlatAllocsPerOp > 0 && fresh.GBM.FlatAllocsPerOp > baseline.GBM.FlatAllocsPerOp+2 {
		bad = append(bad, fmt.Sprintf(
			"gbm flat batch allocates more: %d allocs/op vs baseline %d",
			fresh.GBM.FlatAllocsPerOp, baseline.GBM.FlatAllocsPerOp))
	}
	return bad
}
