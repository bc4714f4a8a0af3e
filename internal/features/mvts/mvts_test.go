package mvts

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"albadross/internal/stats"
	"albadross/internal/telemetry"
	"albadross/internal/ts"
)

// raceEnabled is set by race_test.go: sync.Pool drops a random share of
// Puts under the race detector, so allocation gates only hold without
// it (./verify.sh runs them in a separate, race-free step).
var raceEnabled bool

// referenceExtract is the feature-by-feature composition of stats
// functions that Extractor.Append replaced, kept verbatim as the oracle
// the fused kernel must match bit for bit.
func referenceExtract(s []float64) []float64 {
	out := make([]float64, 0, len(featureNames))
	n := len(s)
	qs := stats.QuantilesSorted(s, 0.05, 0.25, 0.5, 0.75, 0.95)
	mean := stats.Mean(s)
	out = append(out,
		mean,
		qs[2],
		stats.Min(s),
		stats.Max(s),
		stats.Std(s),
		stats.Var(s),
		stats.Skewness(s),
		stats.Kurtosis(s),
		stats.Range(s),
		qs[3]-qs[1],
		qs[0], qs[1], qs[3], qs[4],
		stats.MeanAbs(s),
		stats.RMS(s),
		stats.MedianAbsDeviation(s),
		stats.VariationCoefficient(s),
		stats.Sum(s),
		stats.AbsEnergy(s),
	)
	slope, intercept, r := stats.LinearTrend(s)
	out = append(out,
		stats.MeanChange(s),
		stats.MeanAbsChange(s),
		stats.MeanSecondDerivativeCentral(s),
		slope, intercept, r,
	)
	out = append(out,
		float64(stats.CountAbove(s, mean)),
		float64(stats.CountBelow(s, mean)),
		float64(stats.CrossingCount(s, mean)),
		float64(stats.LongestStrikeAbove(s, mean)),
		float64(stats.LongestStrikeBelow(s, mean)),
		stats.RatioBeyondRSigma(s, 1),
		stats.BinnedEntropy(s, 10),
		float64(stats.LongestMonotonicIncrease(s)),
		float64(stats.LongestMonotonicDecrease(s)),
	)
	// Halves differences.
	if n >= 2 {
		h1, h2 := s[:n/2], s[n/2:]
		out = append(out,
			math.Abs(stats.Mean(h1)-stats.Mean(h2)),
			math.Abs(stats.Std(h1)-stats.Std(h2)),
			math.Abs(stats.Median(h1)-stats.Median(h2)),
			math.Abs(stats.Min(h1)-stats.Min(h2)),
			math.Abs(stats.Max(h1)-stats.Max(h2)),
			math.Abs(stats.Var(h1)-stats.Var(h2)),
			math.Abs(stats.Skewness(h1)-stats.Skewness(h2)),
			math.Abs(stats.Kurtosis(h1)-stats.Kurtosis(h2)),
		)
	} else {
		for i := 0; i < 8; i++ {
			out = append(out, math.NaN())
		}
	}
	if n > 0 {
		out = append(out,
			float64(stats.ArgMax(s))/float64(n),
			float64(stats.ArgMin(s))/float64(n),
			s[0],
			s[n-1],
		)
	} else {
		out = append(out, math.NaN(), math.NaN(), math.NaN(), math.NaN())
	}
	out = append(out, float64(stats.NumberPeaks(s, 3)))
	return out
}

// sameBits reports whether two feature vectors agree bit for bit, any
// two NaNs counting as equal (NaN payloads never reach a model: every
// consumer cleans, scales or sanitizes NaN away).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.IsNaN(a[i]) && math.IsNaN(b[i]) {
			continue
		}
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkReference fails t unless Append matches referenceExtract on s,
// naming the first differing feature. It also appends behind a
// non-empty prefix, which must survive untouched.
func checkReference(t *testing.T, name string, s []float64) {
	t.Helper()
	in := append([]float64(nil), s...)
	want := referenceExtract(s)
	got := Extractor{}.Append([]float64{-7}, s)
	if got[0] != -7 {
		t.Fatalf("%s: Append overwrote the prefix of dst", name)
	}
	got = got[1:]
	if !sameBits(got, want) {
		for i := range want {
			if i >= len(got) || !sameBits(got[i:i+1], want[i:i+1]) {
				t.Fatalf("%s (n=%d): %s = %v (%#x), reference %v (%#x)", name, len(s), featureNames[i],
					got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
		t.Fatalf("%s: %d features, reference %d", name, len(got), len(want))
	}
	if !sameBits(in, s) {
		t.Fatalf("%s: Append wrote its input", name)
	}
}

// series draws one series of length n of the given kind.
func series(rng *rand.Rand, kind string, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		switch kind {
		case "gaussian":
			s[i] = rng.NormFloat64() * 3
		case "ties":
			s[i] = float64(rng.Intn(4) - 1)
		case "constant":
			s[i] = 2.5
		case "ramp":
			s[i] = float64(i) * 0.75
		case "descending":
			s[i] = float64(n - i)
		case "exponential":
			s[i] = rng.ExpFloat64() * 1e6
		case "tiny":
			s[i] = rng.NormFloat64() * 1e-300
		case "signed-zeros":
			s[i] = []float64{0, math.Copysign(0, -1), 1, -1}[rng.Intn(4)]
		case "negative-zeros":
			s[i] = []float64{math.Copysign(0, -1), 2, 3}[rng.Intn(3)]
		case "inf":
			s[i] = rng.NormFloat64()
			if rng.Intn(8) == 0 {
				s[i] = math.Inf(1 - 2*rng.Intn(2))
			}
		case "mostly-inf": // the median itself is +Inf
			s[i] = math.Inf(1)
			if rng.Intn(3) == 0 {
				s[i] = rng.NormFloat64()
			}
		case "some-nan":
			s[i] = rng.NormFloat64()
			if rng.Intn(5) == 0 {
				s[i] = math.NaN()
			}
		case "all-nan":
			s[i] = math.NaN()
		default:
			panic(kind)
		}
	}
	return s
}

var seriesKinds = []string{"gaussian", "ties", "constant", "ramp", "descending", "exponential",
	"tiny", "signed-zeros", "negative-zeros", "inf", "mostly-inf", "some-nan", "all-nan"}

// TestAppendMatchesReference pins the fused kernel to the
// feature-by-feature oracle: every length 0-300, every series kind
// (including the ones that take the whole-sort route), bit for bit.
func TestAppendMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for n := 0; n <= 300; n++ {
		for _, kind := range seriesKinds {
			checkReference(t, kind, series(rng, kind, n))
		}
	}
	for trial := 0; trial < 2000; trial++ {
		kind := seriesKinds[rng.Intn(len(seriesKinds))]
		checkReference(t, kind, series(rng, kind, 1+rng.Intn(130)))
	}
}

// TestAppendMatchesReferenceOnRealWindows runs the oracle over every
// metric of Volta- and Eclipse-width windows as the serving path sees
// them: 64 samples, repaired and counter-differenced to 63.
func TestAppendMatchesReferenceOnRealWindows(t *testing.T) {
	for _, sys := range []*telemetry.SystemSpec{telemetry.Volta(721), telemetry.Eclipse(806)} {
		for ai, app := range sys.AppNames()[:2] {
			samples, err := sys.GenerateRun(telemetry.RunConfig{App: sys.App(app), Nodes: 1, Steps: 96, Seed: int64(ai + 1)})
			if err != nil {
				t.Fatal(err)
			}
			block := windowOf(samples[0].Data, 16, 64)
			ts.InterpolateAll(block)
			if err := ts.DiffCounters(block, telemetry.CumulativeFlags(sys.Metrics)); err != nil {
				t.Fatal(err)
			}
			for m, s := range block.Metrics {
				checkReference(t, fmt.Sprintf("%s/%s metric %d", sys.Name, app, m), s)
			}
		}
	}
}

// windowOf copies steps samples of every metric starting at from.
func windowOf(data *ts.Multivariate, from, steps int) *ts.Multivariate {
	w := &ts.Multivariate{Metrics: make([]ts.Series, len(data.Metrics))}
	for m, s := range data.Metrics {
		w.Metrics[m] = s[from : from+steps].Clone()
	}
	return w
}

// decodeSeries maps fuzz bytes to a series. An even first byte reads
// raw float64 bit patterns (NaN payloads, ±Inf, subnormals, -0); an odd
// one reads one small value per byte, which is where ties and mixed
// signed zeros live.
func decodeSeries(data []byte) []float64 {
	if len(data) == 0 {
		return nil
	}
	mode, data := data[0], data[1:]
	var s []float64
	if mode%2 == 0 {
		for ; len(data) >= 8; data = data[8:] {
			s = append(s, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		}
		return s
	}
	for _, b := range data {
		v := float64(int8(b)) / 4
		if b == 0x80 {
			v = math.Copysign(0, -1)
		}
		s = append(s, v)
	}
	return s
}

func FuzzMVTSReference(f *testing.F) {
	f.Add([]byte{1, 0, 0x80, 4, 4, 0xfc, 0, 0x80, 8, 1, 2})
	f.Add(append([]byte{0}, make([]byte, 64)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReference(t, "fuzz", decodeSeries(data))
	})
}

// TestAppendAllocatesNothing is the steady-state gate: with dst presized
// and the scratch pool warm, extracting a series allocates nothing.
func TestAppendAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	s := series(rand.New(rand.NewSource(1)), "gaussian", 63)
	dst := Extractor{}.Append(make([]float64, 0, len(featureNames)), s)
	if allocs := testing.AllocsPerRun(100, func() { dst = Extractor{}.Append(dst[:0], s) }); allocs != 0 {
		t.Fatalf("warm Append into a presized dst allocates %v times per series", allocs)
	}
}

// BenchmarkAppendWindow extracts one Volta-width window: 721 series of
// 63 samples, the shape every served window has after differencing.
func BenchmarkAppendWindow(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	window := make([][]float64, 721)
	for m := range window {
		window[m] = series(rng, "gaussian", 63)
	}
	dst := make([]float64, 0, len(window)*len(featureNames))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = dst[:0]
		for _, s := range window {
			dst = Extractor{}.Append(dst, s)
		}
	}
}

func TestFeatureCountIs48(t *testing.T) {
	e := Extractor{}
	if len(e.FeatureNames()) != 48 {
		t.Fatalf("MVTS declares %d features, paper says 48", len(e.FeatureNames()))
	}
	v := e.Extract([]float64{1, 2, 3, 4, 5, 6, 7, 8})
	if len(v) != 48 {
		t.Fatalf("extract returned %d features, want 48", len(v))
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

func TestKnownValues(t *testing.T) {
	e := Extractor{}
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	v := e.Extract(s)
	checks := map[string]float64{
		"mean":        4.5,
		"min":         1,
		"max":         8,
		"sum":         36,
		"range":       7,
		"first_value": 1,
		"last_value":  8,
		"mean_change": 1,
		"trend_slope": 1,
	}
	for name, want := range checks {
		got := v[idx(t, name)]
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	// Monotonic series: longest increase is the whole series.
	if got := v[idx(t, "longest_monotonic_increase")]; got != 8 {
		t.Errorf("longest_monotonic_increase = %v, want 8", got)
	}
}

func TestHalvesDiffs(t *testing.T) {
	e := Extractor{}
	// First half all 1s, second half all 5s.
	s := []float64{1, 1, 1, 1, 5, 5, 5, 5}
	v := e.Extract(s)
	if got := v[idx(t, "halves_abs_diff_mean")]; math.Abs(got-4) > 1e-9 {
		t.Fatalf("halves mean diff = %v, want 4", got)
	}
	if got := v[idx(t, "halves_abs_diff_std")]; math.Abs(got) > 1e-9 {
		t.Fatalf("halves std diff = %v, want 0", got)
	}
}

func TestConstantSeries(t *testing.T) {
	e := Extractor{}
	v := e.Extract([]float64{3, 3, 3, 3, 3, 3})
	if v[idx(t, "std")] != 0 || v[idx(t, "var")] != 0 {
		t.Fatal("constant series should have zero spread")
	}
	if !math.IsNaN(v[idx(t, "skewness")]) {
		t.Fatal("skewness of constant series should be NaN")
	}
	if v[idx(t, "binned_entropy_10")] != 0 {
		t.Fatal("constant entropy should be 0")
	}
}

func TestShortAndEmptySeries(t *testing.T) {
	e := Extractor{}
	for _, s := range [][]float64{{}, {7}, {1, 2}} {
		v := e.Extract(s)
		if len(v) != 48 {
			t.Fatalf("short series %v: got %d features", s, len(v))
		}
	}
	v := e.Extract([]float64{7})
	if got := v[idx(t, "mean")]; got != 7 {
		t.Fatalf("single-sample mean = %v", got)
	}
}

func TestSeparatesDifferentSignals(t *testing.T) {
	// Sanity: the feature vector of a trend differs from a flat noisy
	// signal in trend-related features.
	e := Extractor{}
	rng := rand.New(rand.NewSource(1))
	flat := make([]float64, 100)
	trend := make([]float64, 100)
	for i := range flat {
		flat[i] = rng.NormFloat64()
		trend[i] = float64(i)*0.5 + rng.NormFloat64()
	}
	vf := e.Extract(flat)
	vt := e.Extract(trend)
	si := idx(t, "trend_slope")
	if math.Abs(vt[si]-0.5) > 0.1 {
		t.Fatalf("trend slope = %v, want ~0.5", vt[si])
	}
	if math.Abs(vf[si]) > 0.1 {
		t.Fatalf("flat slope = %v, want ~0", vf[si])
	}
}
