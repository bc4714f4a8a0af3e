package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(t *testing.T, got, want, tol float64, name string) {
	t.Helper()
	if math.IsNaN(want) {
		if !math.IsNaN(got) {
			t.Fatalf("%s: got %v, want NaN", name, got)
		}
		return
	}
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v, want %v (tol %v)", name, got, want, tol)
	}
}

func TestMeanVarStd(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	almost(t, Mean(xs), 3, 1e-12, "mean")
	almost(t, Var(xs), 2, 1e-12, "var")
	almost(t, Std(xs), math.Sqrt2, 1e-12, "std")
}

func TestEmptyInputsReturnNaN(t *testing.T) {
	var e []float64
	for name, f := range map[string]func([]float64) float64{
		"mean": Mean, "var": Var, "std": Std, "min": Min, "max": Max,
		"median": Median,
	} {
		if !math.IsNaN(f(e)) {
			t.Errorf("%s(empty) should be NaN", name)
		}
	}
	if Sum(e) != 0 {
		t.Errorf("Sum(empty) = %v, want 0", Sum(e))
	}
}

func TestMinMaxRange(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5, -9, 2, 6}
	almost(t, Min(xs), -9, 0, "min")
	almost(t, Max(xs), 6, 0, "max")
	almost(t, Range(xs), 15, 0, "range")
}

func TestQuantileInterpolation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	almost(t, Quantile(xs, 0), 1, 0, "q0")
	almost(t, Quantile(xs, 1), 4, 0, "q1")
	almost(t, Quantile(xs, 0.5), 2.5, 1e-12, "q0.5")
	almost(t, Quantile(xs, 0.25), 1.75, 1e-12, "q0.25")
	almost(t, Median([]float64{5}), 5, 0, "median single")
}

func TestQuantilesSortedMatchesQuantile(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	qs := []float64{0.05, 0.25, 0.5, 0.75, 0.95}
	got := QuantilesSorted(xs, qs...)
	for i, q := range qs {
		almost(t, got[i], Quantile(xs, q), 1e-12, "batch quantile")
	}
}

func TestCrossingAndStrikes(t *testing.T) {
	xs := []float64{0, 2, -1, 3, -2, 4}
	if c := CrossingCount(xs, 0); c != 4 {
		t.Fatalf("crossings = %d, want 4", c)
	}
	xs2 := []float64{1, 2, 3, 0, 5, 6, 7, 8, 0}
	if s := LongestStrikeAbove(xs2, 0.5); s != 4 {
		t.Fatalf("strike above = %d, want 4", s)
	}
	if s := LongestStrikeBelow(xs2, 0.5); s != 1 {
		t.Fatalf("strike below = %d, want 1", s)
	}
}

func TestAutocorrelation(t *testing.T) {
	// Perfectly alternating series has lag-1 autocorr near -1.
	xs := make([]float64, 100)
	for i := range xs {
		if i%2 == 0 {
			xs[i] = 1
		} else {
			xs[i] = -1
		}
	}
	if ac := Autocorrelation(xs, 1); ac > -0.95 {
		t.Fatalf("alternating lag-1 autocorr = %v, want near -1", ac)
	}
	almost(t, Autocorrelation(xs, 0), 1, 1e-12, "lag0")
	if !math.IsNaN(Autocorrelation([]float64{1, 1, 1}, 1)) {
		t.Fatal("constant series autocorr should be NaN")
	}
}

func TestPartialAutocorrelationAR1(t *testing.T) {
	// AR(1): PACF at lag 1 near phi, near 0 at lag 2.
	rng := rand.New(rand.NewSource(7))
	const phi = 0.8
	xs := make([]float64, 4000)
	for i := 1; i < len(xs); i++ {
		xs[i] = phi*xs[i-1] + rng.NormFloat64()
	}
	p1 := PartialAutocorrelation(xs, 1)
	p2 := PartialAutocorrelation(xs, 2)
	if math.Abs(p1-phi) > 0.1 {
		t.Fatalf("pacf(1) = %v, want ~%v", p1, phi)
	}
	if math.Abs(p2) > 0.1 {
		t.Fatalf("pacf(2) = %v, want ~0", p2)
	}
	if PartialAutocorrelation(xs, 0) != 1 {
		t.Fatal("pacf(0) must be 1")
	}
}

func TestBinnedEntropy(t *testing.T) {
	if h := BinnedEntropy([]float64{5, 5, 5, 5}, 10); h != 0 {
		t.Fatalf("constant entropy = %v, want 0", h)
	}
	// Uniform over bins approaches log(bins).
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	h := BinnedEntropy(xs, 10)
	almost(t, h, math.Log(10), 1e-6, "uniform entropy")
}

func TestApproximateEntropyOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	regular := make([]float64, 200)
	noisy := make([]float64, 200)
	for i := range regular {
		regular[i] = math.Sin(float64(i) / 5)
		noisy[i] = rng.NormFloat64()
	}
	rr := 0.2 * Std(regular)
	rn := 0.2 * Std(noisy)
	if ApproximateEntropy(regular, 2, rr) >= ApproximateEntropy(noisy, 2, rn) {
		t.Fatal("regular signal should have lower ApEn than noise")
	}
	if ApproximateEntropy([]float64{1, 2}, 2, 0.1) != 0 {
		t.Fatal("short series ApEn should be 0")
	}
}

func TestSampleEntropyOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	regular := make([]float64, 150)
	noisy := make([]float64, 150)
	for i := range regular {
		regular[i] = math.Sin(float64(i) / 4)
		noisy[i] = rng.NormFloat64()
	}
	se1 := SampleEntropy(regular, 2, 0.2*Std(regular))
	se2 := SampleEntropy(noisy, 2, 0.2*Std(noisy))
	if !(se1 < se2) {
		t.Fatalf("SampEn(regular)=%v should be < SampEn(noise)=%v", se1, se2)
	}
}

func TestNumberPeaks(t *testing.T) {
	xs := []float64{0, 3, 0, 0, 5, 0, 1, 2, 1}
	if p := NumberPeaks(xs, 1); p != 3 {
		t.Fatalf("peaks support 1 = %d, want 3", p)
	}
	if p := NumberPeaks(xs, 2); p != 1 {
		t.Fatalf("peaks support 2 = %d, want 1", p)
	}
}

func TestC3AndTimeReversal(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6}
	want := (1.0*2*3 + 2.0*3*4 + 3.0*4*5 + 4.0*5*6) / 4
	almost(t, C3(xs, 1), want, 1e-12, "c3")
	if !math.IsNaN(C3(xs, 3)) {
		t.Fatal("c3 with 2*lag >= n should be NaN")
	}
	// Symmetric (time reversible) signal has statistic near 0.
	sym := []float64{0, 1, 0, -1, 0, 1, 0, -1, 0, 1, 0, -1}
	if v := math.Abs(TimeReversalAsymmetry(sym, 1)); v > 0.3 {
		t.Fatalf("time reversal of symmetric signal = %v, want near 0", v)
	}
}

func TestCidCE(t *testing.T) {
	xs := []float64{0, 1, 0, 1}
	almost(t, CidCE(xs, false), math.Sqrt(3), 1e-12, "cidce")
	if CidCE([]float64{4, 4, 4}, true) != 0 {
		t.Fatal("normalized cid of constant should be 0")
	}
}

func TestDuplicatesAndReoccurring(t *testing.T) {
	xs := []float64{1, 2, 2, 3, 3, 3}
	almost(t, PercentageReoccurring(xs), 5.0/6, 1e-12, "pct reoccurring")
	almost(t, SumOfReoccurringValues(xs), 5, 1e-12, "sum reoccurring")
	if !HasDuplicateMax(xs) {
		t.Fatal("max 3 duplicated")
	}
	if HasDuplicateMin(xs) {
		t.Fatal("min 1 not duplicated")
	}
}

func TestRatioBeyondRSigma(t *testing.T) {
	xs := []float64{0, 0, 0, 0, 100}
	r := RatioBeyondRSigma(xs, 1)
	almost(t, r, 0.2, 1e-12, "ratio beyond")
}

// Property: variance is non-negative and invariant under shifting.
func TestQuickVarianceProperties(t *testing.T) {
	f := func(raw []float64, shiftRaw float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		shift := math.Mod(shiftRaw, 1000)
		if math.IsNaN(shift) || math.IsInf(shift, 0) {
			shift = 1
		}
		v1 := Var(xs)
		shifted := make([]float64, len(xs))
		for i, x := range xs {
			shifted[i] = x + shift
		}
		v2 := Var(shifted)
		tol := 1e-6 * (1 + math.Abs(v1))
		return v1 >= -1e-12 && math.Abs(v1-v2) < tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		qs := QuantilesSorted(xs, 0.1, 0.3, 0.5, 0.7, 0.9)
		lo, hi := Min(xs), Max(xs)
		prev := lo
		for _, q := range qs {
			if q < prev-1e-12 || q > hi+1e-12 {
				return false
			}
			prev = q
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: autocorrelation magnitudes never exceed ~1.
func TestQuickAutocorrBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 10 + rng.Intn(100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		for lag := 0; lag < n; lag += 3 {
			ac := Autocorrelation(xs, lag)
			if !math.IsNaN(ac) && math.Abs(ac) > 1+1e-9 {
				t.Fatalf("autocorr out of bounds: lag=%d ac=%v", lag, ac)
			}
		}
	}
}
