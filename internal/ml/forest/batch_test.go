package forest

import (
	"math/rand"
	"testing"

	"albadross/internal/ml"
)

// fitSmall trains a small forest on a separable synthetic problem.
func fitSmall(t testing.TB, workers int) (*Forest, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	n, d, k := 300, 12, 3
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		y[i] = i % k
		x[i] = make([]float64, d)
		for j := range x[i] {
			x[i][j] = rng.NormFloat64()
		}
		x[i][y[i]] += 2.5
	}
	f := New(Config{NEstimators: 15, MaxDepth: 6, Workers: workers, Seed: 7})
	if err := f.Fit(x, y, k); err != nil {
		t.Fatal(err)
	}
	return f, x
}

func TestPredictProbaBatchMatchesSerial(t *testing.T) {
	for _, workers := range []int{0, 1, 3} {
		f, x := fitSmall(t, workers)
		want := ml.ProbaBatch(f, x) // one PredictProba per row
		got := f.PredictProbaBatch(x)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d rows, want %d", workers, len(got), len(want))
		}
		for i := range got {
			for c := range got[i] {
				if got[i][c] != want[i][c] {
					t.Fatalf("workers=%d row %d class %d: batch %v serial %v",
						workers, i, c, got[i], want[i])
				}
			}
		}
	}
}

func TestPredictProbaBatchEmptyAndPanics(t *testing.T) {
	f, _ := fitSmall(t, 1)
	if out := f.PredictProbaBatch(nil); len(out) != 0 {
		t.Fatalf("empty batch returned %d rows", len(out))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("PredictProbaBatch before Fit did not panic")
		}
	}()
	New(Config{}).PredictProbaBatch([][]float64{{1}})
}

// TestBatchScoringAllocs pins the allocation count of both batch entry
// points over a native-batch forest on one worker: a 256-row call
// allocates the output matrix (row headers and backing) and nothing per
// row or per tree. The per-row pointer walk allocates 257. The batch
// path's pointer fallback allocates no more than the flat kernel, so
// the test also checks that Fit left the flat form for it to use.
func TestBatchScoringAllocs(t *testing.T) {
	f, x := fitSmall(t, 1)
	if f.flatFore == nil {
		t.Fatal("Fit built no flat form; PredictProbaBatch would walk the pointer trees")
	}
	rows := x[:256]
	for name, score := range map[string]func(){
		"PredictProbaBatch":     func() { f.PredictProbaBatch(rows) },
		"ml.ProbaBatchParallel": func() { ml.ProbaBatchParallel(f, rows, 1) },
	} {
		if got := testing.AllocsPerRun(20, score); got > 3 {
			t.Errorf("%s allocates %.0f times per 256-row call, want <= 3", name, got)
		}
	}
}

func BenchmarkPredictSerial(b *testing.B) {
	f, x := fitSmall(b, 1)
	rows := x[:256]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ml.ProbaBatch(f, rows)
	}
}

func BenchmarkPredictBatch(b *testing.B) {
	f, x := fitSmall(b, 1)
	rows := x[:256]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.PredictProbaBatch(rows)
	}
}
