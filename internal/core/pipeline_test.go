package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"albadross/internal/featsel"
	"albadross/internal/ts"
)

// referenceTransformRow is the clean → scale → clip → select sequence
// TransformRow folded into one pass over the selected columns, kept
// verbatim as its oracle.
func referenceTransformRow(p *Preprocessor, x []float64) ([]float64, error) {
	cleaned, err := p.Clean.Apply([][]float64{x})
	if err != nil {
		return nil, err
	}
	if err := p.Scaler.Transform(cleaned); err != nil {
		return nil, err
	}
	row := cleaned[0]
	for j, v := range row {
		if v < -1 {
			row[j] = -1
		} else if v > 2 {
			row[j] = 2
		}
	}
	return p.Sel.ApplyRow(row)
}

// randomPreprocessor draws a fitted-looking pipeline over d raw columns:
// a random Keep mask, scaler bounds with some zero (and one infinite)
// ranges, and a random selection of the kept columns in random order.
func randomPreprocessor(rng *rand.Rand, d int) *Preprocessor {
	keep := make([]bool, d)
	kept := 0
	for j := range keep {
		keep[j] = rng.Intn(3) > 0
		if keep[j] {
			kept++
		}
	}
	if kept == 0 {
		keep[0], kept = true, 1
	}
	sc := &ts.MinMaxScaler{Min: make([]float64, kept), Range: make([]float64, kept)}
	for j := range sc.Min {
		sc.Min[j] = rng.NormFloat64() * 10
		switch rng.Intn(6) {
		case 0:
			sc.Range[j] = 0
		case 1:
			sc.Range[j] = math.Inf(1)
		default:
			sc.Range[j] = rng.ExpFloat64() * 5
		}
	}
	sel := &featsel.Selector{Indices: rng.Perm(kept)[:1+rng.Intn(kept)]}
	return &Preprocessor{Clean: &featsel.CleanReport{Keep: keep, Kept: kept}, Scaler: sc, Sel: sel}
}

// randomRow draws a raw vector mixing in-range values, far out-of-range
// ones (to hit both clips), NaN and ±Inf.
func randomRow(rng *rand.Rand, d int) []float64 {
	x := make([]float64, d)
	for j := range x {
		switch rng.Intn(8) {
		case 0:
			x[j] = math.NaN()
		case 1:
			x[j] = math.Inf(1 - 2*rng.Intn(2))
		case 2:
			x[j] = rng.NormFloat64() * 1e4
		default:
			x[j] = rng.NormFloat64() * 10
		}
	}
	return x
}

func sameRow(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestTransformRowMatchesThreeStepTransform pins the one-pass transform
// to clean → scale → clip → select, bit for bit and error for error, on
// random pipelines and on a fitted one.
func TestTransformRowMatchesThreeStepTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		d := 1 + rng.Intn(60)
		p := randomPreprocessor(rng, d)
		for r := 0; r < 5; r++ {
			x := randomRow(rng, d)
			in := append([]float64(nil), x...)
			got, err := p.TransformRow(x)
			want, werr := referenceTransformRow(p, x)
			if err != nil || werr != nil {
				t.Fatalf("trial %d: errors %v / %v on a well-formed pipeline", trial, err, werr)
			}
			if !sameRow(got, want) {
				t.Fatalf("trial %d: TransformRow %v, three-step %v", trial, got, want)
			}
			if !sameRow(x, in) {
				t.Fatalf("trial %d: TransformRow wrote its input", trial)
			}
		}
	}

	d := tinyData(t, 4)
	p, err := FitPreprocessor(d, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 40)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range d.X {
		got, _ := p.TransformRow(x)
		want, _ := referenceTransformRow(p, x)
		if !sameRow(got, want) {
			t.Fatalf("fitted pipeline, row %d: TransformRow differs from the three-step transform", i)
		}
	}
}

// TestTransformRowErrorsMatch checks every shape error comes back worded
// as the three-step transform words it: a wrong-width row, and a
// pipeline whose scaler or selector disagrees with its cleaning mask.
func TestTransformRowErrorsMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := randomPreprocessor(rng, 12)
	short := randomPreprocessor(rng, 12)
	short.Scaler.Min, short.Scaler.Range = short.Scaler.Min[1:], short.Scaler.Range[1:]
	wide := randomPreprocessor(rng, 12)
	wide.Sel.Indices = append(wide.Sel.Indices, wide.Clean.Kept)
	for _, tc := range []struct {
		name string
		p    *Preprocessor
		x    []float64
	}{
		{"short row", p, randomRow(rng, 11)},
		{"long row", p, randomRow(rng, 13)},
		{"scaler narrower than the mask", short, randomRow(rng, 12)},
		{"selector past the mask", wide, randomRow(rng, 12)},
	} {
		_, err := tc.p.TransformRow(tc.x)
		_, werr := referenceTransformRow(tc.p, tc.x)
		if err == nil || werr == nil || err.Error() != werr.Error() {
			t.Fatalf("%s: error %v, three-step %v", tc.name, err, werr)
		}
	}
}

// TestTransformRowConcurrentFirstUse has several goroutines make the
// first calls on one pipeline at once: the plan is derived exactly once
// and every caller reads it whole (run under -race).
func TestTransformRowConcurrentFirstUse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := randomPreprocessor(rng, 40)
	x := randomRow(rng, 40)
	want, err := referenceTransformRow(p, x)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := p.TransformRow(x)
			if err != nil || !sameRow(got, want) {
				t.Errorf("concurrent TransformRow: %v, %v; want %v", got, err, want)
			}
		}()
	}
	wg.Wait()
}
