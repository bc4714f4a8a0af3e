package gbm

import (
	"math"
	"math/rand"
	"testing"

	"albadross/internal/ml"
)

// fitSmallGBM trains a small boosted model with column subsampling on,
// so the batch path exercises the projection scratch reuse.
func fitSmallGBM(t testing.TB) (*Model, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	n, d, k := 200, 10, 3
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		y[i] = i % k
		x[i] = make([]float64, d)
		for j := range x[i] {
			x[i][j] = rng.NormFloat64()
		}
		x[i][y[i]] += 2
	}
	m := New(Config{NEstimators: 8, NumLeaves: 8, ColsampleByTree: 0.6, Seed: 11})
	if err := m.Fit(x, y, k); err != nil {
		t.Fatal(err)
	}
	return m, x
}

func TestGBMPredictProbaBatchMatchesSerial(t *testing.T) {
	m, x := fitSmallGBM(t)
	want := ml.ProbaBatch(m, x)
	got := m.PredictProbaBatch(x)
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		for c := range got[i] {
			if math.Abs(got[i][c]-want[i][c]) > 1e-15 {
				t.Fatalf("row %d class %d: batch %v serial %v", i, c, got[i], want[i])
			}
		}
	}
}

func TestGBMPredictProbaBatchBeforeFitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PredictProbaBatch before Fit did not panic")
		}
	}()
	New(Config{}).PredictProbaBatch([][]float64{{1}})
}

// TestGBMPredictProbaBatchAllocs pins the batch path's allocation
// count: a 256-row call on one worker allocates the output matrix and
// nothing per row or per round. The per-row pointer walk allocates 257.
func TestGBMPredictProbaBatchAllocs(t *testing.T) {
	m, x := fitSmallGBM(t)
	m.Cfg.Workers = 1
	rows := append(x, x[:56]...) // the 200 fitted rows plus 56 repeats
	if got := testing.AllocsPerRun(20, func() { m.PredictProbaBatch(rows) }); got > 3 {
		t.Fatalf("PredictProbaBatch allocates %.0f times per 256-row call, want <= 3", got)
	}
}

func BenchmarkGBMPredictSerial(b *testing.B) {
	m, x := fitSmallGBM(b)
	rows := x[:128]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ml.ProbaBatch(m, rows)
	}
}

func BenchmarkGBMPredictBatch(b *testing.B) {
	m, x := fitSmallGBM(b)
	rows := x[:128]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictProbaBatch(rows)
	}
}
