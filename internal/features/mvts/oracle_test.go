package mvts

// Descriptive statistics that only referenceExtract composes, with their
// unit tests: the oracle's building blocks, which Extractor.Append fuses
// into one pass.

import (
	"math"
	"testing"

	"albadross/internal/stats"
)

// MeanAbs returns the mean of absolute values.
func MeanAbs(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += math.Abs(x)
	}
	return s / float64(len(xs))
}

// RMS returns the root mean square of xs.
func RMS(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return math.Sqrt(stats.AbsEnergy(xs) / float64(len(xs)))
}

// Skewness returns the adjusted Fisher-Pearson skewness (the pandas/tsfresh
// G1 estimator), or NaN when it is undefined (n < 3 or zero variance).
func Skewness(xs []float64) float64 {
	n := float64(len(xs))
	if n < 3 {
		return math.NaN()
	}
	m := stats.Mean(xs)
	m2, m3 := 0.0, 0.0
	for _, x := range xs {
		d := x - m
		m2 += d * d
		m3 += d * d * d
	}
	m2 /= n
	m3 /= n
	if m2 == 0 {
		return math.NaN()
	}
	g1 := m3 / math.Pow(m2, 1.5)
	return g1 * math.Sqrt(n*(n-1)) / (n - 2)
}

// Kurtosis returns the adjusted excess kurtosis (the pandas/tsfresh G2
// estimator), or NaN when undefined (n < 4 or zero variance).
func Kurtosis(xs []float64) float64 {
	n := float64(len(xs))
	if n < 4 {
		return math.NaN()
	}
	m := stats.Mean(xs)
	m2, m4 := 0.0, 0.0
	for _, x := range xs {
		d := x - m
		d2 := d * d
		m2 += d2
		m4 += d2 * d2
	}
	m2 /= n
	m4 /= n
	if m2 == 0 {
		return math.NaN()
	}
	g2 := m4/(m2*m2) - 3
	return ((n - 1) / ((n - 2) * (n - 3))) * ((n+1)*g2 + 6)
}

// MedianAbsDeviation returns median(|x - median(x)|).
func MedianAbsDeviation(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	med := stats.Median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - med)
	}
	return stats.Median(dev)
}

// VariationCoefficient returns std/mean (population std), or NaN when the
// mean is zero.
func VariationCoefficient(xs []float64) float64 {
	m := stats.Mean(xs)
	if m == 0 {
		return math.NaN()
	}
	return stats.Std(xs) / m
}

// CountAbove returns the number of elements strictly greater than t.
func CountAbove(xs []float64, t float64) int {
	n := 0
	for _, x := range xs {
		if x > t {
			n++
		}
	}
	return n
}

// CountBelow returns the number of elements strictly less than t.
func CountBelow(xs []float64, t float64) int {
	n := 0
	for _, x := range xs {
		if x < t {
			n++
		}
	}
	return n
}

// LongestMonotonicIncrease returns the length (in samples) of the longest
// non-decreasing run, one of the MVTS "long-run trend" features.
func LongestMonotonicIncrease(xs []float64) int {
	if len(xs) == 0 {
		return 0
	}
	best, cur := 1, 1
	for i := 1; i < len(xs); i++ {
		if xs[i] >= xs[i-1] {
			cur++
		} else {
			cur = 1
		}
		if cur > best {
			best = cur
		}
	}
	return best
}

// LongestMonotonicDecrease returns the length of the longest non-increasing
// run.
func LongestMonotonicDecrease(xs []float64) int {
	if len(xs) == 0 {
		return 0
	}
	best, cur := 1, 1
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			cur++
		} else {
			cur = 1
		}
		if cur > best {
			best = cur
		}
	}
	return best
}

// MeanChange returns the mean of first differences ((x_n - x_0)/(n-1)).
func MeanChange(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	return (xs[len(xs)-1] - xs[0]) / float64(len(xs)-1)
}

// MeanAbsChange returns the mean absolute first difference.
func MeanAbsChange(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	s := 0.0
	for i := 1; i < len(xs); i++ {
		s += math.Abs(xs[i] - xs[i-1])
	}
	return s / float64(len(xs)-1)
}

// MeanSecondDerivativeCentral returns tsfresh's
// mean_second_derivative_central: mean of (x[i+1] - 2x[i] + x[i-1]) / 2.
func MeanSecondDerivativeCentral(xs []float64) float64 {
	if len(xs) < 3 {
		return math.NaN()
	}
	s := 0.0
	for i := 1; i < len(xs)-1; i++ {
		s += (xs[i+1] - 2*xs[i] + xs[i-1]) / 2
	}
	return s / float64(len(xs)-2)
}

// ArgMin returns the index of the first minimum value; -1 for empty input.
func ArgMin(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}

// LinearTrend fits y = slope*i + intercept over the sample index by
// ordinary least squares and also reports the correlation coefficient r.
// For a series shorter than 2, all results are NaN.
func LinearTrend(xs []float64) (slope, intercept, r float64) {
	n := float64(len(xs))
	if n < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	// Index statistics are closed-form.
	sumI := (n - 1) * n / 2
	sumII := (n - 1) * n * (2*n - 1) / 6
	meanI := sumI / n
	sumX := stats.Sum(xs)
	meanX := sumX / n
	var sumIX float64
	for i, x := range xs {
		sumIX += float64(i) * x
	}
	den := sumII - n*meanI*meanI
	if den == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	slope = (sumIX - n*meanI*meanX) / den
	intercept = meanX - slope*meanI
	varX := stats.Var(xs)
	if varX == 0 {
		return slope, intercept, math.NaN()
	}
	covIX := (sumIX/n - meanI*meanX)
	varI := sumII/n - meanI*meanI
	r = covIX / math.Sqrt(varI*varX)
	return slope, intercept, r
}

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

func TestSkewnessKurtosisSymmetric(t *testing.T) {
	xs := []float64{-2, -1, 0, 1, 2}
	almost(t, Skewness(xs), 0, 1e-12, "skew symmetric")
	// Uniform five points: excess kurtosis is negative (platykurtic).
	if k := Kurtosis(xs); k >= 0 {
		t.Fatalf("kurtosis of uniform sample should be negative, got %v", k)
	}
	if !math.IsNaN(Skewness([]float64{1, 1})) {
		t.Fatal("skewness with n<3 should be NaN")
	}
	if !math.IsNaN(Kurtosis([]float64{1, 1, 1})) {
		t.Fatal("kurtosis with n<4 should be NaN")
	}
	if !math.IsNaN(Skewness([]float64{2, 2, 2, 2})) {
		t.Fatal("skewness of constant series should be NaN")
	}
}

func TestMonotonicRuns(t *testing.T) {
	xs := []float64{1, 2, 3, 3, 2, 1, 0, 5}
	if r := LongestMonotonicIncrease(xs); r != 4 {
		t.Fatalf("longest increase = %d, want 4", r)
	}
	if r := LongestMonotonicDecrease(xs); r != 5 {
		t.Fatalf("longest decrease = %d, want 5", r)
	}
	if LongestMonotonicIncrease(nil) != 0 {
		t.Fatal("empty should be 0")
	}
}

func TestChanges(t *testing.T) {
	xs := []float64{0, 1, 3, 6}
	almost(t, MeanChange(xs), 2, 1e-12, "meanchange")
	almost(t, MeanAbsChange([]float64{0, 1, -1, 2}), (1+2+3)/3.0, 1e-12, "meanabschange")
	almost(t, MeanSecondDerivativeCentral([]float64{0, 1, 4, 9}), ((4-2+0)/2.0+(9-8+1)/2.0)/2, 1e-12, "second deriv")
}

func TestLinearTrend(t *testing.T) {
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = 2.5*float64(i) + 7
	}
	slope, intercept, r := LinearTrend(xs)
	almost(t, slope, 2.5, 1e-9, "slope")
	almost(t, intercept, 7, 1e-9, "intercept")
	almost(t, r, 1, 1e-9, "r")
	_, _, rConst := LinearTrend([]float64{3, 3, 3})
	if !math.IsNaN(rConst) {
		t.Fatal("r of constant series should be NaN")
	}
}

func TestCountsAndArg(t *testing.T) {
	xs := []float64{1, 5, 3, 5, 2}
	if CountAbove(xs, 2.5) != 3 || CountBelow(xs, 2.5) != 2 {
		t.Fatal("count above/below wrong")
	}
	if stats.ArgMax(xs) != 1 || ArgMin(xs) != 0 {
		t.Fatal("argmax/argmin wrong")
	}
	if stats.ArgMax(nil) != -1 || ArgMin(nil) != -1 {
		t.Fatal("empty arg should be -1")
	}
}

func TestMedianAbsDeviation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	almost(t, MedianAbsDeviation(xs), 2, 1e-12, "mad")
}

func TestOracleEmptyInputsReturnNaN(t *testing.T) {
	var e []float64
	for name, f := range map[string]func([]float64) float64{
		"meanabs": MeanAbs, "rms": RMS,
		"mad": MedianAbsDeviation, "meanchange": MeanChange,
	} {
		if !math.IsNaN(f(e)) {
			t.Errorf("%s(empty) should be NaN", name)
		}
	}
}
