// Package mvts reimplements the MVTS-Data Toolkit feature extractor used
// by the paper (Ahmadzadeh et al., SoftwareX 2020): 48 statistical
// features per metric, covering descriptive statistics, absolute
// differences between the descriptive statistics of the first and second
// halves of the series, and long-run trend features such as the longest
// monotonic increase (Sec. III-A).
//
// Append is the one implementation of the 48 features: a fused kernel
// that shares its passes over the series and one ordering of it between
// the features, allocates nothing in steady state, and reproduces the
// per-feature stats functions bit for bit (mvts_test.go keeps the
// feature-by-feature composition as its oracle).
package mvts

import (
	"math"
	"sort"
	"sync"

	"albadross/internal/stats"
)

// Extractor computes the 48 MVTS features per metric. The zero value is
// ready to use.
type Extractor struct{}

// Name returns "mvts".
func (Extractor) Name() string { return "mvts" }

// featureNames lists the 48 features in extraction order.
var featureNames = []string{
	// Descriptive statistics (20).
	"mean", "median", "min", "max", "std", "var", "skewness", "kurtosis",
	"range", "iqr", "q05", "q25", "q75", "q95", "mean_abs", "rms",
	"mad", "variation_coef", "sum", "abs_energy",
	// Change statistics (6).
	"mean_change", "mean_abs_change", "mean_second_derivative",
	"trend_slope", "trend_intercept", "trend_r",
	// Distribution around the mean (7).
	"count_above_mean", "count_below_mean", "crossings_mean",
	"strike_above_mean", "strike_below_mean", "ratio_beyond_1sigma",
	"binned_entropy_10",
	// Long-run trends (2).
	"longest_monotonic_increase", "longest_monotonic_decrease",
	// First-half/second-half absolute differences (8).
	"halves_abs_diff_mean", "halves_abs_diff_std", "halves_abs_diff_median",
	"halves_abs_diff_min", "halves_abs_diff_max", "halves_abs_diff_var",
	"halves_abs_diff_skewness", "halves_abs_diff_kurtosis",
	// Locations and endpoints (5).
	"argmax_ratio", "argmin_ratio", "first_value", "last_value",
	"num_peaks_3",
}

// FeatureNames returns the 48 per-metric feature names.
func (Extractor) FeatureNames() []string { return featureNames }

// Extract computes the 48 features of one series into a new slice.
func (e Extractor) Extract(s []float64) []float64 {
	return e.Append(make([]float64, 0, len(featureNames)), s)
}

// quantileLevels are the order statistics read off the sorted series:
// q05, q25, the median, q75 and q95.
var quantileLevels = [5]float64{0.05, 0.25, 0.5, 0.75, 0.95}

// entropyBins is the bin count of binned_entropy_10.
const entropyBins = 10

// peakSupport is the neighbourhood of num_peaks_3.
const peakSupport = 3

// scratchPool holds the kernel's ordering buffers. A buffer serves one
// Append at a time and grows to the longest series it has seen, so the
// steady state allocates nothing and the memory is per concurrent
// extraction, not per node.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

type scratch struct{ buf []float64 }

// grow returns three disjoint length-n buffers.
//
//albacheck:coldpath amortized scratch growth; a pooled buffer reallocates only for a series longer than any it has served
func (sc *scratch) grow(n int) (halves, sorted, dev []float64) {
	if cap(sc.buf) < 3*n {
		sc.buf = make([]float64, 3*n)
	}
	b := sc.buf[:3*n]
	return b[:n:n], b[n : 2*n : 2*n], b[2*n:]
}

// Append computes the 48 features of one series and appends them to dst.
// Features that are undefined for the input (e.g. skewness of a constant
// series) are NaN. s is only read.
//
// Every feature keeps the arithmetic of its stats function — the same
// accumulators in the same order — so the result is bitwise what the
// feature-by-feature composition computes. What is shared instead of
// recomputed: the sum and extremes (one pass), the moment sums around
// the mean that var, std, skewness and kurtosis divide (one pass), one
// pass for everything compared against the mean, and one ordering. The
// ordering sorts the two halves (their medians need that anyway) and
// merges them into the sorted series; the MAD's deviations |x - median|
// come out of that order as two sorted runs, merged rather than sorted.
// A series holding NaN or both +0 and -0 has ties sort.Float64s orders
// in a way only it reproduces, and ±Inf can make a deviation NaN; such a
// series sorts whole, and sorts its deviations, as the stats functions
// do.
//
//albacheck:hotpath
func (Extractor) Append(dst, s []float64) []float64 {
	n := len(s)
	nan := math.NaN()
	all := summarize(s)
	mean, variance, sd := all.mean, all.variance(), all.std()

	// Everything compared against the mean, the extremes or a neighbour.
	var absSum, energy, sumIX, absChange, secondDeriv float64
	var above, below, crossings, strikeAbove, strikeBelow, beyond, peaks int
	var curAbove, curBelow int
	incBest, incCur, decBest, decCur := 0, 0, 0, 0
	if n > 0 {
		incBest, incCur, decBest, decCur = 1, 1, 1, 1
	}
	var bins [entropyBins]float64
	width := (all.max - all.min) / float64(entropyBins)
	binned := !(width <= 0) // a constant series (or an underflowing range) has entropy 0
	exact := true           // no NaN, no ±Inf, not both signed zeros
	posZero, negZero := false, false
	for i, x := range s {
		absSum += math.Abs(x)
		energy += x * x
		sumIX += float64(i) * x
		if x > mean {
			above++
			curAbove++
			if curAbove > strikeAbove {
				strikeAbove = curAbove
			}
		} else {
			curAbove = 0
		}
		if x < mean {
			below++
			curBelow++
			if curBelow > strikeBelow {
				strikeBelow = curBelow
			}
		} else {
			curBelow = 0
		}
		if math.Abs(x-mean) > 1*sd {
			beyond++
		}
		if binned {
			b := int((x - all.min) / width)
			if b >= entropyBins {
				b = entropyBins - 1
			}
			if b < 0 {
				b = 0
			}
			bins[b]++
		}
		if i >= 1 {
			prev := s[i-1]
			a, b := prev-mean, x-mean
			if (a < 0 && b >= 0) || (a >= 0 && b < 0) {
				crossings++
			}
			if x >= prev {
				incCur++
			} else {
				incCur = 1
			}
			if incCur > incBest {
				incBest = incCur
			}
			if x <= prev {
				decCur++
			} else {
				decCur = 1
			}
			if decCur > decBest {
				decBest = decCur
			}
			absChange += math.Abs(x - prev)
		}
		if i >= 2 {
			secondDeriv += (x - 2*s[i-1] + s[i-2]) / 2
		}
		if i >= peakSupport && i < n-peakSupport {
			peak := true
			for d := 1; d <= peakSupport && peak; d++ {
				if x <= s[i-d] || x <= s[i+d] {
					peak = false
				}
			}
			if peak {
				peaks++
			}
		}
		switch {
		case math.IsNaN(x) || math.IsInf(x, 0):
			exact = false
		case x == 0 && math.Signbit(x):
			negZero = true
		case x == 0:
			posZero = true
		}
	}
	exact = exact && !(posZero && negZero)

	// Order statistics.
	qs := [len(quantileLevels)]float64{nan, nan, nan, nan, nan}
	mad, medLo, medHi := nan, nan, nan
	h := n / 2
	if n > 0 {
		sc := scratchPool.Get().(*scratch)
		halves, sorted, dev := sc.grow(n)
		copy(halves, s)
		sort.Float64s(halves[:h])
		sort.Float64s(halves[h:])
		if exact {
			mergeSorted(sorted, halves[:h], halves[h:])
		} else {
			copy(sorted, s)
			sort.Float64s(sorted)
		}
		for k, q := range quantileLevels {
			qs[k] = stats.SortedQuantile(sorted, q)
		}
		med := qs[2]
		if exact {
			mergeDeviations(dev, sorted, med)
		} else {
			for i, x := range s {
				dev[i] = math.Abs(x - med)
			}
			sort.Float64s(dev)
		}
		mad = stats.SortedQuantile(dev, 0.5)
		medLo, medHi = stats.SortedQuantile(halves[:h], 0.5), stats.SortedQuantile(halves[h:], 0.5)
		scratchPool.Put(sc)
	}

	meanAbs, rms, ratioBeyond, entropy := nan, nan, nan, nan
	if n > 0 {
		meanAbs = absSum / float64(n)
		rms = math.Sqrt(energy / float64(n))
		ratioBeyond = float64(beyond) / float64(n)
		entropy = 0.0
		if binned {
			for _, c := range bins {
				p := c / float64(n)
				if p > 0 {
					entropy -= p * math.Log(p)
				}
			}
		}
	}
	variationCoef := nan
	if mean != 0 {
		variationCoef = sd / mean
	}
	dst = append(dst,
		mean, qs[2], all.min, all.max, sd, variance, all.skewness(), all.kurtosis(),
		all.max-all.min, qs[3]-qs[1], qs[0], qs[1], qs[3], qs[4],
		meanAbs, rms, mad, variationCoef, all.sum, energy,
	)

	meanChange, meanAbsChange, meanSecondDeriv := nan, nan, nan
	if n >= 2 {
		meanChange = (s[n-1] - s[0]) / float64(n-1)
		meanAbsChange = absChange / float64(n-1)
	}
	if n >= 3 {
		meanSecondDeriv = secondDeriv / float64(n-2)
	}
	slope, intercept, r := linearTrend(float64(n), all.sum, sumIX, variance)
	dst = append(dst, meanChange, meanAbsChange, meanSecondDeriv, slope, intercept, r)

	dst = append(dst,
		float64(above), float64(below), float64(crossings),
		float64(strikeAbove), float64(strikeBelow), ratioBeyond, entropy,
		float64(incBest), float64(decBest),
	)

	if n >= 2 {
		lo, hi := summarize(s[:h]), summarize(s[h:])
		dst = append(dst,
			math.Abs(lo.mean-hi.mean),
			math.Abs(lo.std()-hi.std()),
			math.Abs(medLo-medHi),
			math.Abs(lo.min-hi.min),
			math.Abs(lo.max-hi.max),
			math.Abs(lo.variance()-hi.variance()),
			math.Abs(lo.skewness()-hi.skewness()),
			math.Abs(lo.kurtosis()-hi.kurtosis()),
		)
	} else {
		dst = append(dst, nan, nan, nan, nan, nan, nan, nan, nan)
	}
	if n > 0 {
		dst = append(dst, float64(all.argMax)/float64(n), float64(all.argMin)/float64(n), s[0], s[n-1])
	} else {
		dst = append(dst, nan, nan, nan, nan)
	}
	dst = append(dst, float64(peaks))
	return dst
}

// summary is what the moment-based features of one series (or half)
// need: the sum, the first extreme positions, and the sums of the
// second, third and fourth powers of d = x - mean. var, std, skewness
// and kurtosis all divide the same s2.
type summary struct {
	n, sum, mean   float64
	min, max       float64
	argMin, argMax int
	s2, m3, m4     float64
}

// summarize makes the two passes over s: sum and extremes, then the
// moment sums around the mean.
func summarize(s []float64) summary {
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

// variance is the population variance (divisor n).
func (m summary) variance() float64 {
	if m.n == 0 {
		return math.NaN()
	}
	return m.s2 / m.n
}

func (m summary) std() float64 {
	return math.Sqrt(m.variance()) //albacheck:ignore floatsafe variance is a sum of squares over a positive count (or NaN for an empty series), never negative
}

// skewness is the adjusted Fisher-Pearson G1 estimator, NaN for n < 3 or
// zero variance.
func (m summary) skewness() float64 {
	n := m.n
	if n < 3 {
		return math.NaN()
	}
	m2, m3 := m.s2/n, m.m3/n
	if m2 == 0 {
		return math.NaN()
	}
	g1 := m3 / math.Pow(m2, 1.5)
	return g1 * math.Sqrt(n*(n-1)) / (n - 2)
}

// kurtosis is the adjusted excess G2 estimator, NaN for n < 4 or zero
// variance.
func (m summary) kurtosis() float64 {
	n := m.n
	if n < 4 {
		return math.NaN()
	}
	m2, m4 := m.s2/n, m.m4/n
	if m2 == 0 {
		return math.NaN()
	}
	g2 := m4/(m2*m2) - 3
	return ((n - 1) / ((n - 2) * (n - 3))) * ((n+1)*g2 + 6)
}

// linearTrend is the least-squares fit of x against the sample index
// from the series' sum, Σi·x and variance, with the index sums in closed
// form. All three are NaN for n < 2.
func linearTrend(n, sumX, sumIX, varX float64) (slope, intercept, r float64) {
	if n < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	sumI := (n - 1) * n / 2
	sumII := (n - 1) * n * (2*n - 1) / 6
	meanI := sumI / n
	meanX := sumX / n
	den := sumII - n*meanI*meanI
	if den == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	slope = (sumIX - n*meanI*meanX) / den
	intercept = meanX - slope*meanI
	if varX == 0 {
		return slope, intercept, math.NaN()
	}
	covIX := (sumIX/n - meanI*meanX)
	varI := sumII/n - meanI*meanI
	r = covIX / math.Sqrt(varI*varX) //albacheck:ignore floatsafe varI is the variance of 0..n-1 and varX a variance, both non-negative
	return slope, intercept, r
}

// mergeSorted merges the ascending runs a and b into dst
// (len(dst) == len(a)+len(b)).
func mergeSorted(dst, a, b []float64) {
	i, j := 0, 0
	for k := range dst {
		if j == len(b) || (i < len(a) && a[i] <= b[j]) {
			dst[k] = a[i]
			i++
		} else {
			dst[k] = b[j]
			j++
		}
	}
}

// mergeDeviations writes |x - med| for every x of the ascending,
// finite series sorted into dev in ascending order. Below med the
// deviations fall as x rises, from med up they rise, so they are two
// sorted runs meeting at med's position and one merge orders them.
func mergeDeviations(dev, sorted []float64, med float64) {
	k := 0
	for k < len(sorted) && sorted[k] < med {
		k++
	}
	i, j := k-1, k
	for o := range dev {
		if j == len(sorted) || (i >= 0 && math.Abs(sorted[i]-med) <= math.Abs(sorted[j]-med)) {
			dev[o] = math.Abs(sorted[i] - med)
			i--
		} else {
			dev[o] = math.Abs(sorted[j] - med)
			j++
		}
	}
}
