package features

import (
	"math"
	"testing"

	"albadross/internal/features/mvts"
	"albadross/internal/features/tsfresh"
	"albadross/internal/ts"
)

func block(vals ...[]float64) *ts.Multivariate {
	m := &ts.Multivariate{}
	for _, v := range vals {
		m.Metrics = append(m.Metrics, v)
	}
	return m
}

func TestVectorNames(t *testing.T) {
	e := mvts.Extractor{}
	names := VectorNames(e, []string{"a", "b"})
	if len(names) != 96 {
		t.Fatalf("len = %d, want 96", len(names))
	}
	if names[0] != "a::mean" || names[48] != "b::mean" {
		t.Fatalf("name layout wrong: %q, %q", names[0], names[48])
	}
}

func TestExtractSampleConcatenates(t *testing.T) {
	e := mvts.Extractor{}
	m := block([]float64{1, 2, 3, 4}, []float64{10, 20, 30, 40})
	v := ExtractSample(e, m)
	if len(v) != 96 {
		t.Fatalf("len = %d, want 96", len(v))
	}
	if v[0] != 2.5 || v[48] != 25 {
		t.Fatalf("means = %v, %v want 2.5, 25", v[0], v[48])
	}
}

func TestSanitize(t *testing.T) {
	v := []float64{1, math.NaN(), math.Inf(1), math.Inf(-1), -2.5}
	if n := Sanitize(v); n != 3 {
		t.Fatalf("sanitized %d cells, want 3", n)
	}
	want := []float64{1, 0, 0, 0, -2.5}
	for i := range v {
		if v[i] != want[i] {
			t.Fatalf("v = %v, want %v", v, want)
		}
	}
	if n := Sanitize(v); n != 0 {
		t.Fatal("second pass should find nothing")
	}
	if Sanitize(nil) != 0 {
		t.Fatal("nil vector should be a no-op")
	}
}

// Degraded windows — all-NaN and constant series — must extract to a
// finite vector after Sanitize, whatever non-finite stats the raw
// extraction produced.
func TestSanitizeDegradedWindows(t *testing.T) {
	nan := math.NaN()
	allNaN := make([]float64, 32)
	constant := make([]float64, 32)
	for i := range allNaN {
		allNaN[i] = nan
		constant[i] = 7
	}
	for _, e := range []Extractor{mvts.Extractor{}, tsfresh.Extractor{}} {
		v := ExtractSample(e, block(allNaN, constant))
		Sanitize(v)
		for i, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("%s: non-finite feature %d after Sanitize", e.Name(), i)
			}
		}
	}
}
