package gbm

import (
	"math"
	"math/rand"
	"testing"

	"albadross/internal/ml"
	"albadross/internal/ml/testutil"
	"albadross/internal/ml/tree"
)

// fitProbas fits one model at the given worker count and returns its
// probability matrix on x — a full fingerprint of the fitted ensemble.
func fitProbas(t *testing.T, x [][]float64, y []int, nClasses, workers int) [][]float64 {
	t.Helper()
	m := New(Config{
		NEstimators: 15, NumLeaves: 6, LearningRate: 0.2,
		ColsampleByTree: 0.6, Seed: 99, Workers: workers,
	})
	if err := m.Fit(x, y, nClasses); err != nil {
		t.Fatal(err)
	}
	return ml.ProbaBatch(m, x)
}

// TestFitWorkerCountParity asserts the parallel Fit is bit-identical for
// any worker count: the column-subset rng stream is drawn serially and
// the deferred logit updates add per-class contributions in a fixed
// order, so no float ever sums in a different order.
func TestFitWorkerCountParity(t *testing.T) {
	x, y, _ := testutil.Blobs(200, 8, 3, 2, 7)
	ref := fitProbas(t, x, y, 3, 1)
	for _, workers := range []int{0, 2, 8} {
		got := fitProbas(t, x, y, 3, workers)
		for i := range ref {
			for c := range ref[i] {
				if got[i][c] != ref[i][c] {
					t.Fatalf("workers=%d: proba[%d][%d] = %v, want %v (bitwise)",
						workers, i, c, got[i][c], ref[i][c])
				}
			}
		}
	}
}

// TestFitScratchReuseDoesNotCorruptEarlierTrees refits the same model
// value twice: the second Fit overwrites the pooled projection scratch,
// which must not change what the first fit's trees predict (the trees
// must not retain scratch references).
func TestFitScratchReuseDoesNotCorruptEarlierTrees(t *testing.T) {
	x, y, _ := testutil.Blobs(150, 6, 3, 2, 11)
	m := New(Config{NEstimators: 10, NumLeaves: 4, ColsampleByTree: 0.5, Seed: 21})
	if err := m.Fit(x, y, 3); err != nil {
		t.Fatal(err)
	}
	before := ml.ProbaBatch(m, x)
	x2, y2, _ := testutil.Blobs(150, 6, 3, 2, 12)
	m2 := New(Config{NEstimators: 10, NumLeaves: 4, ColsampleByTree: 0.5, Seed: 21})
	if err := m2.Fit(x2, y2, 3); err != nil {
		t.Fatal(err)
	}
	after := ml.ProbaBatch(m, x)
	for i := range before {
		for c := range before[i] {
			if before[i][c] != after[i][c] {
				t.Fatalf("fitting a second model changed the first's predictions at [%d][%d]", i, c)
			}
		}
	}
}

// TestFitMatchesLegacySequential cross-checks the rewritten Fit against
// a direct reimplementation of the pre-parallel algorithm (per-row logit
// slices, immediate updates, full-matrix column projection). Any drift
// in the boosting math would show up here.
func TestFitMatchesLegacySequential(t *testing.T) {
	x, y, _ := testutil.Blobs(120, 5, 3, 2, 13)
	cfg := Config{NEstimators: 8, NumLeaves: 4, LearningRate: 0.3, ColsampleByTree: 0.7, Seed: 5}
	m := New(cfg)
	if err := m.Fit(x, y, 3); err != nil {
		t.Fatal(err)
	}
	legacy := legacyFit(t, cfg, x, y, 3)
	got := ml.ProbaBatch(m, x)
	for i := range got {
		for c := range got[i] {
			if got[i][c] != legacy[i][c] {
				t.Fatalf("proba[%d][%d] = %v, legacy sequential = %v", i, c, got[i][c], legacy[i][c])
			}
		}
	}
}

// TestFitAllocatesLessThanLegacy pins the hot-path work: the rewritten
// Fit (flat logit/probability matrices, pooled gradient and projection
// scratch, deferred updates) makes 0.36x the allocations of the legacy
// per-round-allocating implementation on the same problem, with or
// without -race and at any GOMAXPROCS. The 0.43x ceiling fails any
// change that adds more than a fifth to Fit's allocation count.
func TestFitAllocatesLessThanLegacy(t *testing.T) {
	x, y, _ := testutil.Blobs(200, 8, 3, 2, 17)
	cfg := Config{NEstimators: 10, NumLeaves: 6, LearningRate: 0.2, ColsampleByTree: 0.6, Seed: 9}
	current := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := New(cfg).Fit(x, y, 3); err != nil {
				b.Fatal(err)
			}
		}
	})
	legacy := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			legacyFit(t, cfg, x, y, 3)
		}
	})
	// legacyFit ends with a ProbaBatch call Fit doesn't make; its
	// allocations are negligible next to the per-round churn.
	if current.AllocsPerOp()*100 > legacy.AllocsPerOp()*43 {
		t.Fatalf("Fit allocates %d allocs/op, legacy %d — expected at most 0.43x",
			current.AllocsPerOp(), legacy.AllocsPerOp())
	}
	if current.AllocedBytesPerOp() >= legacy.AllocedBytesPerOp() {
		t.Fatalf("Fit allocates %d B/op, legacy %d — expected a reduction",
			current.AllocedBytesPerOp(), legacy.AllocedBytesPerOp())
	}
}

// BenchmarkGBMFit measures the production Fit; run with -benchmem to
// see the allocation profile TestFitAllocatesLessThanLegacy bounds.
func BenchmarkGBMFit(b *testing.B) {
	x, y, _ := testutil.Blobs(256, 16, 3, 2, 19)
	cfg := Config{NEstimators: 15, NumLeaves: 8, LearningRate: 0.2, ColsampleByTree: 0.6, Seed: 9}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := New(cfg).Fit(x, y, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// legacyFit reimplements the pre-parallel Fit verbatim — per-row logit
// slices, immediate per-class logit updates, fresh full-matrix column
// projection per tree — and returns the trained model's probabilities
// on x.
func legacyFit(t *testing.T, cfg Config, x [][]float64, y []int, nClasses int) [][]float64 {
	t.Helper()
	cfg = cfg.withDefaults()
	m := &Model{Cfg: cfg, NClasses: nClasses}
	n := len(x)
	d := len(x[0])
	rng := rand.New(rand.NewSource(cfg.Seed))

	m.Prior = make([]float64, nClasses)
	counts := make([]float64, nClasses)
	for _, c := range y {
		counts[c]++
	}
	for c := range m.Prior {
		m.Prior[c] = math.Log((counts[c] + 1) / float64(n+nClasses))
	}

	logits := make([][]float64, n)
	for i := range logits {
		logits[i] = append([]float64{}, m.Prior...)
	}
	probs := make([]float64, nClasses)
	grad := make([]float64, n)
	hess := make([]float64, n)
	kf := float64(nClasses)

	sampleColumns := func() ([]int, [][]float64) {
		frac := cfg.ColsampleByTree
		if frac >= 1 {
			return nil, x
		}
		k := int(float64(d)*frac + 0.5)
		if k < 1 {
			k = 1
		}
		cols := append([]int{}, rng.Perm(d)[:k]...)
		xs := make([][]float64, len(x))
		for i, row := range x {
			pr := make([]float64, k)
			for o, j := range cols {
				pr[o] = row[j]
			}
			xs[i] = pr
		}
		return cols, xs
	}

	m.Trees = make([][]treeWithCols, 0, cfg.NEstimators)
	for round := 0; round < cfg.NEstimators; round++ {
		roundTrees := make([]treeWithCols, nClasses)
		probMat := make([][]float64, n)
		for i := range x {
			probMat[i] = append([]float64{}, ml.Softmax(logits[i], probs)...)
		}
		for c := 0; c < nClasses; c++ {
			for i := range x {
				p := probMat[i][c]
				target := 0.0
				if y[i] == c {
					target = 1
				}
				grad[i] = target - p
				h := p * (1 - p)
				if h < 1e-6 {
					h = 1e-6
				}
				hess[i] = h
			}
			cols, xs := sampleColumns()
			tr := tree.NewRegressor(tree.Config{
				MaxDepth:        cfg.MaxDepth,
				MaxLeaves:       cfg.NumLeaves,
				MinSamplesLeaf:  cfg.MinSamplesLeaf,
				MinSamplesSplit: 2 * cfg.MinSamplesLeaf,
				Seed:            cfg.Seed*31 + int64(round*nClasses+c),
			})
			tr.SetHessLeaf(func(gs, hs float64) float64 {
				return (kf - 1) / kf * gs / hs
			})
			if err := tr.Fit(xs, grad, hess); err != nil {
				t.Fatal(err)
			}
			roundTrees[c] = treeWithCols{Tree: tr, Cols: cols}
			for i := range x {
				logits[i][c] += cfg.LearningRate * tr.Predict(xs[i])
			}
		}
		m.Trees = append(m.Trees, roundTrees)
	}
	return ml.ProbaBatch(m, x)
}
