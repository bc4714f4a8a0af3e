// Package stats provides the descriptive-statistics substrate used by the
// feature-extraction toolkits and the evaluation machinery: moments,
// quantiles, histograms, entropy estimators, autocorrelation, and simple
// trend fits on float64 slices.
//
// All functions treat their input as an immutable sample; none of them
// mutate the slice they are given. Functions that need a sorted copy make
// one internally, except SortedQuantile, which takes a slice its caller
// has already sorted. Empty inputs return NaN (or zero where a count is
// the natural answer) rather than panicking, because upstream telemetry
// can legitimately produce empty windows.
package stats

import (
	"math"
	"sort"
)

// Sum returns the sum of xs; 0 for an empty slice.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return Sum(xs) / float64(len(xs))
}

// Var returns the population variance of xs (divisor n), or NaN for an
// empty slice. The population form matches what tsfresh and the MVTS
// toolkit compute.
func Var(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// SampleVar returns the unbiased sample variance (divisor n-1), or NaN if
// fewer than two observations are available.
func SampleVar(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// Std returns the population standard deviation of xs.
func Std(xs []float64) float64 {
	return math.Sqrt(Var(xs)) //albacheck:ignore floatsafe Var is a sum of squares over a positive count (or NaN for short input), never negative
}

// Min returns the minimum of xs, or NaN for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or NaN for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Range returns Max(xs) - Min(xs).
func Range(xs []float64) float64 { return Max(xs) - Min(xs) }

// AbsEnergy returns the sum of squared values, tsfresh's "abs_energy".
func AbsEnergy(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x * x
	}
	return s
}

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
	return math.Sqrt(AbsEnergy(xs) / float64(len(xs)))
}

// Skewness returns the adjusted Fisher-Pearson skewness (the pandas/tsfresh
// G1 estimator), or NaN when it is undefined (n < 3 or zero variance).
func Skewness(xs []float64) float64 {
	n := float64(len(xs))
	if n < 3 {
		return math.NaN()
	}
	m := Mean(xs)
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
	m := Mean(xs)
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

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	return cp
}

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (numpy's default), or NaN for an
// empty slice.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	cp := sorted(xs)
	return SortedQuantile(cp, q)
}

// QuantilesSorted evaluates multiple quantiles with a single sort. The qs
// need not be ordered. The result has the same length as qs.
func QuantilesSorted(xs []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(xs) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	cp := sorted(xs)
	for i, q := range qs {
		out[i] = SortedQuantile(cp, q)
	}
	return out
}

// SortedQuantile is Quantile over a slice already in ascending order
// (as sort.Float64s leaves it), without copying or sorting: callers that
// evaluate several order statistics of one sort share it. It returns NaN
// for an empty slice.
func SortedQuantile(cp []float64, q float64) float64 {
	if len(cp) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return cp[0]
	}
	if q >= 1 {
		return cp[len(cp)-1]
	}
	pos := q * float64(len(cp)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return cp[lo]
	}
	frac := pos - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac
}

// Median returns the 0.5 quantile of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// IQR returns the interquartile range Q3 - Q1.
func IQR(xs []float64) float64 {
	qs := QuantilesSorted(xs, 0.25, 0.75)
	return qs[1] - qs[0]
}

// MedianAbsDeviation returns median(|x - median(x)|).
func MedianAbsDeviation(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	med := Median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - med)
	}
	return Median(dev)
}

// VariationCoefficient returns std/mean (population std), or NaN when the
// mean is zero.
func VariationCoefficient(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return math.NaN()
	}
	return Std(xs) / m
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

// CrossingCount returns the number of consecutive pairs that straddle the
// threshold t (sign changes of x - t), tsfresh's number_crossing_m.
func CrossingCount(xs []float64, t float64) int {
	n := 0
	for i := 1; i < len(xs); i++ {
		a, b := xs[i-1]-t, xs[i]-t
		if (a < 0 && b >= 0) || (a >= 0 && b < 0) {
			n++
		}
	}
	return n
}

// LongestStrikeAbove returns the length of the longest run of consecutive
// values strictly above the threshold.
func LongestStrikeAbove(xs []float64, t float64) int {
	best, cur := 0, 0
	for _, x := range xs {
		if x > t {
			cur++
			if cur > best {
				best = cur
			}
		} else {
			cur = 0
		}
	}
	return best
}

// LongestStrikeBelow returns the length of the longest run of consecutive
// values strictly below the threshold.
func LongestStrikeBelow(xs []float64, t float64) int {
	best, cur := 0, 0
	for _, x := range xs {
		if x < t {
			cur++
			if cur > best {
				best = cur
			}
		} else {
			cur = 0
		}
	}
	return best
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

// Autocorrelation returns the lag-k autocorrelation using the standard
// biased estimator, or NaN when the variance is zero or the lag is out of
// range.
func Autocorrelation(xs []float64, lag int) float64 {
	n := len(xs)
	if lag < 0 || lag >= n {
		return math.NaN()
	}
	m := Mean(xs)
	v := Var(xs)
	if v == 0 {
		return math.NaN()
	}
	s := 0.0
	for i := 0; i < n-lag; i++ {
		s += (xs[i] - m) * (xs[i+lag] - m)
	}
	return s / (float64(n) * v)
}

// PartialAutocorrelation estimates the lag-k partial autocorrelation via
// Durbin-Levinson recursion on the sample autocorrelations. Lag 0 is 1 by
// convention.
func PartialAutocorrelation(xs []float64, lag int) float64 {
	if lag == 0 {
		return 1
	}
	if lag < 0 || lag >= len(xs) {
		return math.NaN()
	}
	rho := make([]float64, lag+1)
	for k := 0; k <= lag; k++ {
		rho[k] = Autocorrelation(xs, k)
		if math.IsNaN(rho[k]) {
			return math.NaN()
		}
	}
	// Durbin-Levinson.
	phi := make([][]float64, lag+1)
	for i := range phi {
		phi[i] = make([]float64, lag+1)
	}
	phi[1][1] = rho[1]
	for k := 2; k <= lag; k++ {
		num := rho[k]
		den := 1.0
		for j := 1; j < k; j++ {
			num -= phi[k-1][j] * rho[k-j]
			den -= phi[k-1][j] * rho[j]
		}
		if den == 0 {
			return math.NaN()
		}
		phi[k][k] = num / den
		for j := 1; j < k; j++ {
			phi[k][j] = phi[k-1][j] - phi[k][k]*phi[k-1][k-j]
		}
	}
	return phi[lag][lag]
}

// C3 returns tsfresh's c3 non-linearity statistic:
// mean of x[i] * x[i+lag] * x[i+2*lag].
func C3(xs []float64, lag int) float64 {
	n := len(xs)
	if lag <= 0 || n <= 2*lag {
		return math.NaN()
	}
	s := 0.0
	for i := 0; i < n-2*lag; i++ {
		s += xs[i] * xs[i+lag] * xs[i+2*lag]
	}
	return s / float64(n-2*lag)
}

// CidCE returns tsfresh's cid_ce complexity estimate:
// sqrt(sum of squared first differences), optionally on the z-normalized
// series.
func CidCE(xs []float64, normalize bool) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	v := xs
	if normalize {
		sd := Std(xs)
		if sd == 0 {
			return 0
		}
		m := Mean(xs)
		v = make([]float64, len(xs))
		for i, x := range xs {
			v[i] = (x - m) / sd
		}
	}
	s := 0.0
	for i := 1; i < len(v); i++ {
		d := v[i] - v[i-1]
		s += d * d
	}
	return math.Sqrt(s) //albacheck:ignore floatsafe s is a sum of squares, never negative
}

// NumberPeaks returns the number of peaks of at least the given support: a
// value that is strictly greater than its `support` neighbours on both
// sides (tsfresh's number_peaks).
func NumberPeaks(xs []float64, support int) int {
	if support <= 0 {
		return 0
	}
	count := 0
	for i := support; i < len(xs)-support; i++ {
		peak := true
		for d := 1; d <= support && peak; d++ {
			if xs[i] <= xs[i-d] || xs[i] <= xs[i+d] {
				peak = false
			}
		}
		if peak {
			count++
		}
	}
	return count
}

// ArgMax returns the index of the first maximum value; -1 for empty input.
func ArgMax(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
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
	sumX := Sum(xs)
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
	varX := Var(xs)
	if varX == 0 {
		return slope, intercept, math.NaN()
	}
	covIX := (sumIX/n - meanI*meanX)
	varI := sumII/n - meanI*meanI
	r = covIX / math.Sqrt(varI*varX)
	return slope, intercept, r
}

// BinnedEntropy buckets the series into `bins` equal-width bins between its
// min and max and returns the Shannon entropy (nats) of the bin occupancy
// distribution (tsfresh's binned_entropy). A constant series has entropy 0.
func BinnedEntropy(xs []float64, bins int) float64 {
	if len(xs) == 0 || bins <= 0 {
		return math.NaN()
	}
	lo, hi := Min(xs), Max(xs)
	counts := make([]float64, bins)
	w := (hi - lo) / float64(bins)
	if w <= 0 {
		return 0 // constant series, or a range so narrow the bin width underflows
	}
	for _, x := range xs {
		b := int((x - lo) / w)
		if b >= bins {
			b = bins - 1
		}
		if b < 0 {
			b = 0
		}
		counts[b]++
	}
	h := 0.0
	for _, c := range counts {
		p := c / float64(len(xs))
		if p > 0 {
			h -= p * math.Log(p)
		}
	}
	return h
}

// ApproximateEntropy computes ApEn(m, r) of the series (Pincus), the
// regularity statistic tsfresh exposes as approximate_entropy. r is the
// tolerance expressed in absolute units (callers usually pass a multiple of
// the series' standard deviation). Returns 0 for series shorter than m+1.
func ApproximateEntropy(xs []float64, m int, r float64) float64 {
	n := len(xs)
	if n <= m+1 || m <= 0 || r <= 0 {
		return 0
	}
	phi := func(m int) float64 {
		count := n - m + 1
		sum := 0.0
		for i := 0; i < count; i++ {
			matches := 0
			for j := 0; j < count; j++ {
				ok := true
				for k := 0; k < m; k++ {
					if math.Abs(xs[i+k]-xs[j+k]) > r {
						ok = false
						break
					}
				}
				if ok {
					matches++
				}
			}
			sum += math.Log(float64(matches) / float64(count))
		}
		return sum / float64(count)
	}
	return phi(m) - phi(m+1)
}

// SampleEntropy computes SampEn(m, r), the negative log of the conditional
// probability that sequences matching for m points also match for m+1
// points, excluding self-matches. Returns +Inf when no m+1 matches exist
// and NaN for degenerate inputs.
func SampleEntropy(xs []float64, m int, r float64) float64 {
	n := len(xs)
	if n <= m+1 || m <= 0 || r <= 0 {
		return math.NaN()
	}
	count := func(m int) float64 {
		total := 0
		limit := n - m
		for i := 0; i < limit; i++ {
			for j := i + 1; j < limit; j++ {
				ok := true
				for k := 0; k < m; k++ {
					if math.Abs(xs[i+k]-xs[j+k]) > r {
						ok = false
						break
					}
				}
				if ok {
					total++
				}
			}
		}
		return float64(total)
	}
	b := count(m)
	a := count(m + 1)
	if b == 0 {
		return math.NaN()
	}
	if a == 0 {
		return math.Inf(1)
	}
	return -math.Log(a / b)
}

// TimeReversalAsymmetry returns tsfresh's time_reversal_asymmetry_statistic
// for the given lag: mean of x[i+2l]^2 * x[i+l] - x[i+l] * x[i]^2.
func TimeReversalAsymmetry(xs []float64, lag int) float64 {
	n := len(xs)
	if lag <= 0 || n <= 2*lag {
		return math.NaN()
	}
	s := 0.0
	for i := 0; i < n-2*lag; i++ {
		s += xs[i+2*lag]*xs[i+2*lag]*xs[i+lag] - xs[i+lag]*xs[i]*xs[i]
	}
	return s / float64(n-2*lag)
}

// RatioBeyondRSigma returns the fraction of values farther than r standard
// deviations from the mean.
func RatioBeyondRSigma(xs []float64, r float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m, sd := Mean(xs), Std(xs)
	count := 0
	for _, x := range xs {
		if math.Abs(x-m) > r*sd {
			count++
		}
	}
	return float64(count) / float64(len(xs))
}

// PercentageReoccurring returns the fraction of values that appear more
// than once in the series (tsfresh's
// percentage_of_reoccurring_datapoints_to_all_datapoints).
func PercentageReoccurring(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	counts := make(map[float64]int, len(xs))
	for _, x := range xs {
		counts[x]++
	}
	re := 0
	for _, c := range counts {
		if c > 1 {
			re += c
		}
	}
	return float64(re) / float64(len(xs))
}

// HasDuplicateMax reports whether the maximum value occurs more than once.
func HasDuplicateMax(xs []float64) bool {
	if len(xs) == 0 {
		return false
	}
	m := Max(xs)
	n := 0
	for _, x := range xs {
		if x == m { //albacheck:ignore floatsafe exact match against the series' own Max counts duplicate extrema
			n++
			if n > 1 {
				return true
			}
		}
	}
	return false
}

// HasDuplicateMin reports whether the minimum value occurs more than once.
func HasDuplicateMin(xs []float64) bool {
	if len(xs) == 0 {
		return false
	}
	m := Min(xs)
	n := 0
	for _, x := range xs {
		if x == m { //albacheck:ignore floatsafe exact match against the series' own Min counts duplicate extrema
			n++
			if n > 1 {
				return true
			}
		}
	}
	return false
}

// SumOfReoccurringValues returns the sum over distinct values that occur
// more than once, counting each such value once.
func SumOfReoccurringValues(xs []float64) float64 {
	counts := make(map[float64]int, len(xs))
	for _, x := range xs {
		counts[x]++
	}
	s := 0.0
	for v, c := range counts {
		if c > 1 {
			s += v
		}
	}
	return s
}
