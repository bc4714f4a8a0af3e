// Bench7 is the reproducible raw-speed benchmark behind the committed
// BENCH_7.json: it measures the two per-window cost overhauls of ISSUE 7
// — the flattened SoA tree layout behind PredictProbaBatch and the
// incremental rolling feature extractor behind the stream path — and
// pins their correctness contracts (bitwise-identical predictions,
// rolling-vs-scratch equivalence within 1e-9, zero steady-state push
// allocations). verify.sh --deep re-runs the measurement and fails on
// regression; see docs/PERFORMANCE.md for what each number means and
// docs/TESTING.md for the gating philosophy on loaded hosts.
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
	"math/rand"
	"os"
	"testing"
	"time"

	"albadross/internal/features/rolling"
	"albadross/internal/ml/forest"
	"albadross/internal/ml/gbm"
	"albadross/internal/pipeline"
	"albadross/internal/stream"
	"albadross/internal/telemetry"
)

// Bench7Config sizes the benchmark.
type Bench7Config struct {
	// Trials per timed section; the best (fastest) trial is kept.
	Trials int
	// Seed drives the synthetic data everywhere.
	Seed int64
}

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

// RollingBench pins the incremental extractor's contracts: equivalence
// with the from-scratch reference on every window of a driven series,
// zero steady-state push allocations, and the per-emission cost of
// stride pushes + Features against one from-scratch Extract.
type RollingBench struct {
	Window int `json:"window"`
	Stride int `json:"stride"`
	Steps  int `json:"steps"`
	// MaxRelErr is the worst rolling-vs-scratch disagreement across all
	// windows, relative to each window's value scale (NaNs must agree in
	// position and count as disagreement otherwise).
	MaxRelErr float64 `json:"rolling_max_rel_err"`
	// PushAllocsPerOp is testing.AllocsPerRun over steady-state pushes.
	PushAllocsPerOp float64 `json:"rolling_push_allocs_per_op"`
	// ScratchNsPerEmit is one from-scratch Extract over a full window;
	// RollingNsPerEmit is stride pushes plus one Features call — the
	// incremental path's cost for the same emission.
	ScratchNsPerEmit float64 `json:"rolling_scratch_ns_per_emit"`
	RollingNsPerEmit float64 `json:"rolling_incremental_ns_per_emit"`
	// Speedup is ScratchNsPerEmit / RollingNsPerEmit.
	Speedup float64 `json:"rolling_speedup"`
}

// StreamBench measures sustained end-to-end ingest (Push through
// Diagnose) with the batch per-window recomputation versus the rolling
// push/evict path, same extractor and feed.
type StreamBench struct {
	Metrics int `json:"metrics"`
	Window  int `json:"window"`
	Stride  int `json:"stride"`
	Rows    int `json:"rows"`
	// BatchRowsPerSec / RollingRowsPerSec are best-trial readings/s.
	BatchRowsPerSec   float64 `json:"stream_batch_rows_per_sec"`
	RollingRowsPerSec float64 `json:"stream_rolling_rows_per_sec"`
	// Speedup is RollingRowsPerSec / BatchRowsPerSec, a same-run ratio.
	Speedup float64 `json:"stream_rolling_speedup"`
}

// Bench7Report is the BENCH_7.json document.
type Bench7Report struct {
	SchemaVersion int             `json:"schema_version"`
	GoMaxProcs    int             `json:"gomaxprocs"`
	Forest        FlatForestBench `json:"forest"`
	GBM           FlatGBMBench    `json:"gbm"`
	Rolling       RollingBench    `json:"rolling"`
	Stream        StreamBench     `json:"stream"`
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

// runRollingBench drives a synthetic series through the roller,
// records the worst disagreement with the from-scratch reference, then
// times the per-emission cost of both paths.
func runRollingBench(seed int64) RollingBench {
	const window, stride, steps = 32, 8, 512
	rb := RollingBench{Window: window, Stride: stride, Steps: steps}
	rng := rand.New(rand.NewSource(seed))
	series := make([]float64, steps)
	for i := range series {
		series[i] = 40*math.Sin(float64(i)/7) + rng.NormFloat64()
	}
	ext := rolling.Extractor{}
	r := rolling.NewRoller(window)
	dst := make([]float64, len(ext.FeatureNames()))
	for i, v := range series {
		r.Push(v)
		lo := i + 1 - window
		if lo < 0 {
			lo = 0
		}
		win := series[lo : i+1]
		got := r.Features(dst)
		want := ext.Extract(win)
		scale := 1.0
		for _, w := range win {
			if a := math.Abs(w); a > scale {
				scale = a
			}
		}
		for j := range got {
			gn, wn := math.IsNaN(got[j]), math.IsNaN(want[j])
			if gn != wn {
				rb.MaxRelErr = math.Inf(1)
				continue
			}
			if gn {
				continue
			}
			if d := math.Abs(got[j]-want[j]) / scale; d > rb.MaxRelErr {
				rb.MaxRelErr = d
			}
		}
	}
	idx := 0
	rb.PushAllocsPerOp = testing.AllocsPerRun(2000, func() {
		r.Push(series[idx%steps])
		idx++
	})
	scratch := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ext.Extract(series[:window])
		}
	})
	rolled := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for s := 0; s < stride; s++ {
				r.Push(series[(i*stride+s)%steps])
			}
			r.Features(dst)
		}
	})
	rb.ScratchNsPerEmit = float64(scratch.NsPerOp())
	rb.RollingNsPerEmit = float64(rolled.NsPerOp())
	if rb.RollingNsPerEmit > 0 {
		rb.Speedup = rb.ScratchNsPerEmit / rb.RollingNsPerEmit
	}
	return rb
}

// runStreamOnce feeds rows synthetic readings through a fresh chain and
// returns the wall-clock time.
func runStreamOnce(schema []telemetry.Metric, rows int, seed int64, roll bool) (time.Duration, error) {
	const window = 32
	feat, err := pipeline.FeaturesFor(rolling.Extractor{}, schema, window, stream.GapHoldLast, roll)
	if err != nil {
		return 0, err
	}
	s, err := pipeline.NewChain(pipeline.ChainConfig{
		Metrics:  len(schema),
		Window:   window,
		Stride:   8,
		Gap:      stream.GapHoldLast,
		Features: feat,
		Predict:  pipeline.PredictFunc(func([]float64) (string, float64, error) { return "healthy", 1, nil }),
		Sink:     &pipeline.Collector{},
	})
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	cum := telemetry.CumulativeFlags(schema)
	acc := make([]float64, len(schema))
	reading := make([]float64, len(schema))
	start := time.Now()
	for i := 0; i < rows; i++ {
		for m := range reading {
			v := 10*math.Sin(float64(i)/5+float64(m)) + rng.NormFloat64()
			if cum[m] {
				acc[m] += math.Abs(v)
				v = acc[m]
			}
			reading[m] = v
		}
		if err := s.PushAt(i, reading); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// runStreamBench measures sustained ingest on both stream paths,
// keeping each path's fastest trial.
func runStreamBench(cfg Bench7Config, logf func(string, ...interface{})) (StreamBench, error) {
	const metrics, rows = 16, 4000
	sb := StreamBench{Metrics: metrics, Window: 32, Stride: 8, Rows: rows}
	schema := telemetry.BuildSchema(metrics)
	best := func(roll bool) (float64, error) {
		var b time.Duration
		for trial := 0; trial < cfg.Trials; trial++ {
			el, err := runStreamOnce(schema, rows, cfg.Seed, roll)
			if err != nil {
				return 0, err
			}
			if b == 0 || el < b {
				b = el
			}
		}
		return float64(rows) / b.Seconds(), nil
	}
	var err error
	if sb.BatchRowsPerSec, err = best(false); err != nil {
		return sb, fmt.Errorf("batch stream: %w", err)
	}
	if sb.RollingRowsPerSec, err = best(true); err != nil {
		return sb, fmt.Errorf("rolling stream: %w", err)
	}
	if sb.BatchRowsPerSec > 0 {
		sb.Speedup = sb.RollingRowsPerSec / sb.BatchRowsPerSec
	}
	logf("stream: batch %.0f rows/s, rolling %.0f rows/s (%.2fx, best of %d)",
		sb.BatchRowsPerSec, sb.RollingRowsPerSec, sb.Speedup, cfg.Trials)
	return sb, nil
}

// RunBench7 runs the full benchmark and returns the report.
func RunBench7(cfg Bench7Config, gomaxprocs int, logf func(string, ...interface{})) (*Bench7Report, error) {
	if cfg.Trials <= 0 {
		cfg.Trials = 1
	}
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	fb, err := runFlatForestBench(cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("forest bench: %w", err)
	}
	logf("forest: pointer %.0f ns/row, flat batch %.0f ns/row (%.2fx, %d allocs/op, bitwise %v)",
		fb.PointerNsPerRow, fb.FlatNsPerRow, fb.Speedup, fb.FlatAllocsPerOp, fb.BitwiseIdentical)
	gb, err := runFlatGBMBench(cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("gbm bench: %w", err)
	}
	logf("gbm: pointer %.0f ns/row, flat batch %.0f ns/row (%.2fx, %d allocs/op, bitwise %v)",
		gb.PointerNsPerRow, gb.FlatNsPerRow, gb.Speedup, gb.FlatAllocsPerOp, gb.BitwiseIdentical)
	rb := runRollingBench(cfg.Seed)
	logf("rolling: max rel err %.2e, push allocs %.1f, emit %.0f ns vs scratch %.0f ns (%.2fx)",
		rb.MaxRelErr, rb.PushAllocsPerOp, rb.RollingNsPerEmit, rb.ScratchNsPerEmit, rb.Speedup)
	sb, err := runStreamBench(cfg, logf)
	if err != nil {
		return nil, err
	}
	return &Bench7Report{
		SchemaVersion: 1,
		GoMaxProcs:    gomaxprocs,
		Forest:        fb,
		GBM:           gb,
		Rolling:       rb,
		Stream:        sb,
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
// flattened batch and rolling stream, BENCH_6 the fleet bulk-ingest
// HTTP path — so each row names what it measured.
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
	sb = append(sb, fmt.Sprintf("| BENCH_7 | %.0f | %.2fx | %.0f | in-process flat SoA batch + rolling stream (%d-metric readings) |\n",
		b7.Forest.FlatNsPerRow, b7.Forest.Speedup, b7.Stream.RollingRowsPerSec, b7.Stream.Metrics)...)
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

// rollingEquivalenceTol is the golden equivalence bound of ISSUE 7:
// rolling features match from-scratch extraction within 1e-9 of the
// window's value scale on every window.
const rollingEquivalenceTol = 1e-9

// CompareBench7 checks a fresh report against the committed baseline
// and returns human-readable violations (empty when the run passes).
// All gates are load-invariant: same-run speedup ratios, allocation
// counts, bitwise-identity booleans, and the equivalence bound — never
// absolute ns/op, which flakes with host load. minSpeedup is the
// absolute floor on the forest's flat-vs-pointer ratio (the ISSUE 7
// acceptance bar, default 3.0); the GBM and stream ratios are gated
// against the baseline's own ratio shrunk by tolerance, so a layout
// regression trips them without pinning an absolute number.
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
	if !(fresh.Rolling.MaxRelErr <= rollingEquivalenceTol) {
		bad = append(bad, fmt.Sprintf(
			"rolling-vs-scratch max relative error %.3e exceeds the %.0e equivalence bound",
			fresh.Rolling.MaxRelErr, rollingEquivalenceTol))
	}
	if fresh.Rolling.PushAllocsPerOp != 0 {
		bad = append(bad, fmt.Sprintf(
			"rolling Push allocates %.1f objects per call in steady state, want 0",
			fresh.Rolling.PushAllocsPerOp))
	}
	if floor := baseline.Stream.Speedup * (1 - tolerance); baseline.Stream.Speedup > 0 && fresh.Stream.Speedup < floor {
		bad = append(bad, fmt.Sprintf(
			"stream rolling/batch throughput ratio regressed: %.2fx vs baseline %.2fx (floor %.2fx)",
			fresh.Stream.Speedup, baseline.Stream.Speedup, floor))
	}
	return bad
}
