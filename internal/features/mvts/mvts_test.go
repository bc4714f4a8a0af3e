package mvts

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
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
// functions (internal/stats, and oracle_test.go for those only it uses)
// that Extractor.Append replaced, kept verbatim as the oracle
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
		Skewness(s),
		Kurtosis(s),
		stats.Range(s),
		qs[3]-qs[1],
		qs[0], qs[1], qs[3], qs[4],
		MeanAbs(s),
		RMS(s),
		MedianAbsDeviation(s),
		VariationCoefficient(s),
		stats.Sum(s),
		stats.AbsEnergy(s),
	)
	slope, intercept, r := LinearTrend(s)
	out = append(out,
		MeanChange(s),
		MeanAbsChange(s),
		MeanSecondDerivativeCentral(s),
		slope, intercept, r,
	)
	out = append(out,
		float64(CountAbove(s, mean)),
		float64(CountBelow(s, mean)),
		float64(stats.CrossingCount(s, mean)),
		float64(stats.LongestStrikeAbove(s, mean)),
		float64(stats.LongestStrikeBelow(s, mean)),
		stats.RatioBeyondRSigma(s, 1),
		stats.BinnedEntropy(s, 10),
		float64(LongestMonotonicIncrease(s)),
		float64(LongestMonotonicDecrease(s)),
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
			math.Abs(Skewness(h1)-Skewness(h2)),
			math.Abs(Kurtosis(h1)-Kurtosis(h2)),
		)
	} else {
		for i := 0; i < 8; i++ {
			out = append(out, math.NaN())
		}
	}
	if n > 0 {
		out = append(out,
			float64(stats.ArgMax(s))/float64(n),
			float64(ArgMin(s))/float64(n),
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
		case "positive-zeros":
			s[i] = []float64{0, -2, 3}[rng.Intn(3)]
		case "max-float":
			s[i] = []float64{math.MaxFloat64, -math.MaxFloat64, rng.NormFloat64()}[rng.Intn(3)]
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
// them: 64 samples, repaired and counter-differenced to 63. On Volta it
// walks every stride-8 window start of the run, as volta_dense serves
// them, so the exact path (sorting network, merges) sees real data at
// every phase and not one window per app.
func TestAppendMatchesReferenceOnRealWindows(t *testing.T) {
	for _, sys := range []*telemetry.SystemSpec{telemetry.Volta(721), telemetry.Eclipse(806)} {
		starts := []int{16}
		if sys.Name == "volta" {
			starts = []int{0, 8, 16, 24, 32}
		}
		for ai := range sys.AppNames()[:2] {
			for _, from := range starts {
				block := realWindow(t, sys, ai, from)
				for m, s := range block.Metrics {
					checkReference(t, fmt.Sprintf("%s/%s from %d metric %d", sys.Name, sys.AppNames()[ai], from, m), s)
				}
			}
		}
	}
}

// realWindow is the served form of one 64-sample window of app ai's
// generated 96-step run on sys, starting at sample from: repaired and
// counter-differenced to 63 samples per metric.
func realWindow(tb testing.TB, sys *telemetry.SystemSpec, ai, from int) *ts.Multivariate {
	tb.Helper()
	app := sys.AppNames()[ai]
	samples, err := sys.GenerateRun(telemetry.RunConfig{App: sys.App(app), Nodes: 1, Steps: 96, Seed: int64(ai + 1)})
	if err != nil {
		tb.Fatal(err)
	}
	block := windowOf(samples[0].Data, from, 64)
	ts.InterpolateAll(block)
	if err := ts.DiffCounters(block, telemetry.CumulativeFlags(sys.Metrics)); err != nil {
		tb.Fatal(err)
	}
	return block
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
// "gaussian" draws every sample independently; "volta" is a generated
// Volta window as the serving path sees it (realWindow), whose samples
// follow each other, and sorting cost depends on how ordered the data
// already is.
func BenchmarkAppendWindow(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	gaussian := make([][]float64, 721)
	for m := range gaussian {
		gaussian[m] = series(rng, "gaussian", 63)
	}
	volta := make([][]float64, 0, 721)
	for _, s := range realWindow(b, telemetry.Volta(721), 0, 16).Metrics {
		volta = append(volta, s)
	}
	for _, c := range []struct {
		name   string
		window [][]float64
	}{
		{"gaussian", gaussian},
		{"volta", volta},
	} {
		b.Run(c.name, func(b *testing.B) {
			dst := make([]float64, 0, len(c.window)*len(featureNames))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = dst[:0]
				for _, s := range c.window {
					dst = Extractor{}.Append(dst, s)
				}
			}
		})
	}
}

// exactSeries reports whether s takes Append's exact path: no NaN, no
// ±Inf, not both signed zeros.
func exactSeries(s []float64) bool {
	pos, neg := false, false
	for _, x := range s {
		switch {
		case math.IsNaN(x) || math.IsInf(x, 0):
			return false
		case x == 0 && math.Signbit(x):
			neg = true
		case x == 0:
			pos = true
		}
	}
	return !(pos && neg)
}

// checkSortExact fails t unless sortHalf, told s is exact, orders a copy
// of s bit for bit as sort.Float64s does.
func checkSortExact(t *testing.T, name string, s []float64) {
	t.Helper()
	want := append([]float64(nil), s...)
	sort.Float64s(want)
	got := append([]float64(nil), s...)
	var keys [256]uint64
	sortHalf(got, true, &keys)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s (n=%d): position %d holds %v (%#x), sort.Float64s %v (%#x)", name, len(s), i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestSortExactMatchesFloat64s pins the network sort to sort.Float64s on
// exact series: every length up to one past maxNetwork (which takes
// sort.Float64s itself), bit for bit, over kinds with ties, runs, both
// extremes of the range, subnormals and either signed zero on its own.
func TestSortExactMatchesFloat64s(t *testing.T) {
	kinds := []string{"gaussian", "ties", "constant", "ramp", "descending", "exponential",
		"tiny", "negative-zeros", "positive-zeros", "max-float"}
	rng := rand.New(rand.NewSource(31))
	for n := 0; n <= maxNetwork+1; n++ {
		for _, kind := range kinds {
			for trial := 0; trial < 20; trial++ {
				s := series(rng, kind, n)
				if !exactSeries(s) {
					t.Fatalf("%s series of %d is not exact", kind, n)
				}
				checkSortExact(t, kind, s)
			}
		}
	}
}

// TestNetworksSortEveryZeroOneInput proves the short networks by the 0-1
// principle: a comparator network that sorts every input of 0s and 1s
// sorts every input.
func TestNetworksSortEveryZeroOneInput(t *testing.T) {
	for n := 2; n <= 16; n++ {
		for bitsIn := 0; bitsIn < 1<<n; bitsIn++ {
			var keys [256]uint64
			for i := 0; i < n; i++ {
				keys[i] = uint64(bitsIn >> i & 1)
			}
			for _, e := range networks[n] {
				a, b := keys[e.lo], keys[e.hi]
				keys[e.lo], keys[e.hi] = min(a, b), max(a, b)
			}
			for i := 1; i < n; i++ {
				if keys[i-1] > keys[i] {
					t.Fatalf("network %d leaves input %0*b unsorted", n, n, bitsIn)
				}
			}
		}
	}
}

func FuzzSortExact(f *testing.F) {
	f.Add([]byte{1, 0x80, 4, 4, 0xfc, 0x80, 8, 1, 2})
	f.Add(append([]byte{0}, make([]byte, 64)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := decodeSeries(data)
		if !exactSeries(s) {
			t.Skip("not exact: Append sorts it with sort.Float64s")
		}
		if len(s) > maxNetwork+1 {
			s = s[:maxNetwork+1]
		}
		checkSortExact(t, "fuzz", s)
		checkSortExact(t, "fuzz first half", s[:len(s)/2])
		checkSortExact(t, "fuzz second half", s[len(s)/2:])
	})
}

// referenceSummarize is the one-slice summarize that the fused one
// replaced, kept verbatim as its oracle.
func referenceSummarize(s []float64) summary {
	m := summary{n: float64(len(s)), mean: math.NaN(), min: math.NaN(), max: math.NaN()}
	if len(s) == 0 {
		return m
	}
	m.min, m.max = s[0], s[0]
	for i, x := range s {
		m.sum += x
		if x < m.min {
			m.min, m.argMin = x, i
		}
		if x > m.max {
			m.max, m.argMax = x, i
		}
	}
	m.mean = m.sum / float64(len(s))
	for _, x := range s {
		d := x - m.mean
		d2 := d * d
		m.s2 += d2
		m.m3 += d2 * d
		m.m4 += d2 * d2
	}
	return m
}

// sameSummary reports whether two summaries agree in every field, floats
// bit for bit (NaN payloads included).
func sameSummary(a, b summary) bool {
	fa := []float64{a.n, a.sum, a.mean, a.min, a.max, a.s2, a.m3, a.m4}
	fb := []float64{b.n, b.sum, b.mean, b.min, b.max, b.s2, b.m3, b.m4}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return a.argMin == b.argMin && a.argMax == b.argMax
}

// TestSummarizeMatchesSeparate pins the two-pass summary of a series and
// its halves to the one-slice oracle on s, s[:n/2] and s[n/2:]: every
// field bitwise, every length 0-300, every series kind, NaN and ±Inf
// included.
func TestSummarizeMatchesSeparate(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for n := 0; n <= 300; n++ {
		for _, kind := range seriesKinds {
			s := series(rng, kind, n)
			h := n / 2
			all, lo, hi := summarize(s)
			for _, c := range []struct {
				part      string
				got, want summary
			}{
				{"all", all, referenceSummarize(s)},
				{"lo", lo, referenceSummarize(s[:h])},
				{"hi", hi, referenceSummarize(s[h:])},
			} {
				if !sameSummary(c.got, c.want) {
					t.Fatalf("%s n=%d %s: summary %+v, oracle %+v", kind, n, c.part, c.got, c.want)
				}
			}
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
