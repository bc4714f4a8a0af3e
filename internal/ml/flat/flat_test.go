package flat_test

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"

	"albadross/internal/ml/flat"
	"albadross/internal/ml/forest"
	"albadross/internal/ml/gbm"
	"albadross/internal/ml/tree"
)

// randomData draws n rows of d features with labels correlated to the
// first feature, so trees find real splits at every depth.
func randomData(rng *rand.Rand, n, d, k int) ([][]float64, []int) {
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.NormFloat64() * 3
		}
		x[i] = row
		y[i] = i % k
		row[0] += float64(y[i]) * 2 // separable signal
	}
	return x, y
}

func randomRows(rng *rand.Rand, n, d int) [][]float64 {
	x := make([][]float64, n)
	for i := range x {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.NormFloat64() * 4
		}
		x[i] = row
	}
	return x
}

// assertBitwise fails unless got and want are bitwise-identical float
// vectors (the flattened-vs-pointer contract BENCH_7 gates on).
func assertBitwise(t *testing.T, ctx string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d values, want %d", ctx, len(got), len(want))
	}
	for c := range got {
		if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
			t.Fatalf("%s: class %d: got %x (%v), want %x (%v)",
				ctx, c, math.Float64bits(got[c]), got[c], math.Float64bits(want[c]), want[c])
		}
	}
}

// TestForestFlatBitwiseIdentical is the property test of the flattened
// layout: over random forests, datasets, and worker counts, the
// SoA batch kernel must reproduce per-row pointer-walk PredictProba
// bit for bit.
func TestForestFlatBitwiseIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		n := 60 + rng.Intn(120)
		d := 4 + rng.Intn(12)
		k := 2 + rng.Intn(4)
		x, y := randomData(rng, n, d, k)
		f := forest.New(forest.Config{
			NEstimators: 5 + rng.Intn(12),
			MaxDepth:    1 + rng.Intn(9),
			Workers:     1 + rng.Intn(4),
			Seed:        int64(trial),
		})
		if err := f.Fit(x, y, k); err != nil {
			t.Fatalf("trial %d: fit: %v", trial, err)
		}
		q := randomRows(rng, 150, d)
		batch := f.PredictProbaBatch(q)
		for i, row := range q {
			assertBitwise(t, "forest flat vs pointer", batch[i], f.PredictProba(row))
		}
	}
}

// TestGBMFlatBitwiseIdentical is the same property for the boosted
// model, with column subsampling on so the flatten-time feature-id
// remap is exercised.
func TestGBMFlatBitwiseIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5; trial++ {
		n := 80 + rng.Intn(120)
		d := 6 + rng.Intn(10)
		k := 2 + rng.Intn(3)
		x, y := randomData(rng, n, d, k)
		m := gbm.New(gbm.Config{
			NEstimators:     2 + rng.Intn(5),
			NumLeaves:       4 + rng.Intn(12),
			LearningRate:    0.1,
			ColsampleByTree: 0.4 + rng.Float64()*0.6,
			Workers:         1 + rng.Intn(4),
			Seed:            int64(trial) + 3,
		})
		if err := m.Fit(x, y, k); err != nil {
			t.Fatalf("trial %d: fit: %v", trial, err)
		}
		q := randomRows(rng, 120, d)
		batch := m.PredictProbaBatch(q)
		for i, row := range q {
			assertBitwise(t, "gbm flat vs pointer", batch[i], m.PredictProba(row))
		}
	}
}

// TestTreeFlatBitwiseIdentical covers the single-tree batch path.
func TestTreeFlatBitwiseIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	x, y := randomData(rng, 200, 8, 3)
	tr := tree.NewClassifier(tree.Config{MaxDepth: 7, MaxFeatures: -1, Seed: 5})
	if err := tr.Fit(x, y, 3); err != nil {
		t.Fatalf("fit: %v", err)
	}
	q := randomRows(rng, 100, 8)
	batch := tr.PredictProbaBatch(q)
	for i, row := range q {
		assertBitwise(t, "tree flat vs pointer", batch[i], tr.PredictProba(row))
	}
}

// TestGobRoundTripFallsBackThenWarms checks the decode path: a model
// decoded from gob loses its unexported flat cache, its batch path must
// still answer identically through the pointer fallback, and WarmFlat
// (what ml.Warm runs at publication) must restore the flat path with
// the same bits.
func TestGobRoundTripFallsBackThenWarms(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	x, y := randomData(rng, 150, 6, 3)
	f := forest.New(forest.Config{NEstimators: 9, MaxDepth: 6, Workers: 2, Seed: 41})
	if err := f.Fit(x, y, 3); err != nil {
		t.Fatalf("fit: %v", err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(f); err != nil {
		t.Fatalf("encode: %v", err)
	}
	var f2 forest.Forest
	if err := gob.NewDecoder(&buf).Decode(&f2); err != nil {
		t.Fatalf("decode: %v", err)
	}
	q := randomRows(rng, 80, 6)
	want := f.PredictProbaBatch(q)  // flat path (warmed by Fit)
	cold := f2.PredictProbaBatch(q) // pointer fallback (flat cache lost in gob)
	f2.WarmFlat()
	warm := f2.PredictProbaBatch(q) // flat path rebuilt
	for i := range q {
		assertBitwise(t, "gob fallback vs flat", cold[i], want[i])
		assertBitwise(t, "warmed vs flat", warm[i], want[i])
	}
}

// flattenForest rebuilds a standalone flat.Forest from a fitted forest
// via the public Flatten API (what WarmFlat does internally).
func flattenForest(t *testing.T, f *forest.Forest) *flat.Forest {
	t.Helper()
	fl := flat.NewForest(f.NClasses, len(f.Trees), 0)
	for _, tr := range f.Trees {
		tr.Flatten(fl)
	}
	if fl.NumTrees() != len(f.Trees) {
		t.Fatalf("flattened %d trees, want %d", fl.NumTrees(), len(f.Trees))
	}
	return fl
}
