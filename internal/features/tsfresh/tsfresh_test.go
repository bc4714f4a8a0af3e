package tsfresh

import (
	"math"
	"math/rand"
	"testing"

	"albadross/internal/features/mvts"
)

func TestFeatureCountConsistent(t *testing.T) {
	e := Extractor{}
	names := e.FeatureNames()
	if len(names) < 120 {
		t.Fatalf("tsfresh set has %d features, expected a rich set (>=120)", len(names))
	}
	for _, n := range []int{0, 1, 2, 5, 64, 200, 777} {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i % 7)
		}
		v := e.Extract(s)
		if len(v) != len(names) {
			t.Fatalf("n=%d: extract returned %d features, declared %d", n, len(v), len(names))
		}
	}
}

func TestSupersetOfMVTS(t *testing.T) {
	e := Extractor{}
	names := e.FeatureNames()
	// The first 48 names are the MVTS set.
	if names[0] != "mean" || len(names) <= 48 {
		t.Fatal("tsfresh should embed the MVTS features first")
	}
	// And the first 48 values are mvts' own (which mvts_test pins to its
	// feature-by-feature oracle), save the overflow guard's Inf → NaN.
	rng := rand.New(rand.NewSource(7))
	cases := [][]float64{{}, {3}, {1, 1}, {0, math.Copysign(0, -1), 0, 2}, {1, math.NaN(), 2, 3}, {math.Inf(1), 1, 2, math.Inf(-1), 5}}
	for trial := 0; trial < 40; trial++ {
		cases = append(cases, randSeries(rng))
	}
	for ci, s := range cases {
		want := mvts.Extractor{}.Extract(s)
		got := e.Append([]float64{-1}, s)[1:]
		for i, w := range want {
			if math.IsInf(w, 0) {
				w = math.NaN()
			}
			if g := got[i]; !(math.IsNaN(g) && math.IsNaN(w)) && math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("case %d: embedded %s = %v, mvts %v", ci, names[i], g, w)
			}
		}
	}
}

func TestUniqueNames(t *testing.T) {
	seen := map[string]bool{}
	for _, n := range (Extractor{}).FeatureNames() {
		if seen[n] {
			t.Fatalf("duplicate feature name %q", n)
		}
		seen[n] = true
	}
}

func idx(t *testing.T, name string) int {
	t.Helper()
	for i, n := range (Extractor{}).FeatureNames() {
		if n == name {
			return i
		}
	}
	t.Fatalf("no feature named %q", name)
	return -1
}

func TestSpectralPeakDetectsPeriodicity(t *testing.T) {
	e := Extractor{}
	n := 512
	periodic := make([]float64, n)
	for i := range periodic {
		periodic[i] = math.Sin(2 * math.Pi * float64(i) / 16) // 1/16 Hz
	}
	v := e.Extract(periodic)
	f0 := v[idx(t, "psd_argmax_freq")]
	if math.Abs(f0-1.0/16) > 0.02 {
		t.Fatalf("psd peak at %v, want ~%v", f0, 1.0/16)
	}
}

func TestEntropyOrdersRegularVsNoise(t *testing.T) {
	e := Extractor{}
	rng := rand.New(rand.NewSource(2))
	n := 300
	regular := make([]float64, n)
	noise := make([]float64, n)
	for i := range regular {
		regular[i] = math.Sin(float64(i) / 5)
		noise[i] = rng.NormFloat64()
	}
	ai := idx(t, "approximate_entropy")
	vr := e.Extract(regular)[ai]
	vn := e.Extract(noise)[ai]
	if !(vr < vn) {
		t.Fatalf("ApEn(regular)=%v should be < ApEn(noise)=%v", vr, vn)
	}
}

func TestAutocorrFeatures(t *testing.T) {
	e := Extractor{}
	// Strongly autocorrelated ramp.
	s := make([]float64, 200)
	for i := range s {
		s[i] = float64(i)
	}
	v := e.Extract(s)
	if ac := v[idx(t, "autocorr_lag1")]; ac < 0.9 {
		t.Fatalf("ramp lag-1 autocorr = %v, want ~1", ac)
	}
}

func TestEnergyRatioChunksSumToOne(t *testing.T) {
	e := Extractor{}
	rng := rand.New(rand.NewSource(3))
	s := make([]float64, 173)
	for i := range s {
		s[i] = rng.NormFloat64() + 1
	}
	v := e.Extract(s)
	sum := 0.0
	for c := 0; c < 10; c++ {
		sum += v[idx(t, "energy_ratio_chunk0")+c]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("energy ratios sum to %v, want 1", sum)
	}
}

func TestIndexMassMonotone(t *testing.T) {
	e := Extractor{}
	rng := rand.New(rand.NewSource(4))
	s := make([]float64, 100)
	for i := range s {
		s[i] = math.Abs(rng.NormFloat64()) + 0.1
	}
	v := e.Extract(s)
	q25 := v[idx(t, "index_mass_q25")]
	q50 := v[idx(t, "index_mass_q50")]
	q75 := v[idx(t, "index_mass_q75")]
	if !(q25 <= q50 && q50 <= q75) {
		t.Fatalf("index mass quantiles not monotone: %v %v %v", q25, q50, q75)
	}
	if q25 <= 0 || q75 > 1 {
		t.Fatalf("index mass out of (0,1]: %v %v", q25, q75)
	}
}

func TestDecimate(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i)
	}
	d := decimate(s, 128)
	if len(d) > 128 {
		t.Fatalf("decimated to %d, want <= 128", len(d))
	}
	if d[0] != 0 {
		t.Fatal("decimation should keep first element")
	}
	short := []float64{1, 2, 3}
	if len(decimate(short, 128)) != 3 {
		t.Fatal("short series should pass through")
	}
}

func TestBooleanFeaturesAreBinary(t *testing.T) {
	e := Extractor{}
	rng := rand.New(rand.NewSource(5))
	s := make([]float64, 100)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	v := e.Extract(s)
	for _, name := range []string{"has_duplicate_max", "has_duplicate_min", "variance_larger_than_std", "large_std", "symmetry_looking"} {
		got := v[idx(t, name)]
		if got != 0 && got != 1 {
			t.Fatalf("%s = %v, want 0 or 1", name, got)
		}
	}
}

func BenchmarkExtract600(b *testing.B) {
	e := Extractor{}
	rng := rand.New(rand.NewSource(6))
	s := make([]float64, 600)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Extract(s)
	}
}
