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
// feature-by-feature composition as its oracle). Two of its shortcuts
// need an argument for why they stay bitwise:
//
//   - The series and its two halves are summarized in two passes, not
//     one pair per slice. Each of the three summaries keeps its own
//     accumulators, started where the slice starts and fed in the
//     slice's order (the second half's sum starts from 0 at its first
//     sample, its positions count from there), and Go neither
//     reassociates nor, on amd64, fuses float arithmetic, so each
//     summary is the same sequence of rounded operations a separate
//     summary of that slice makes.
//   - An exact series (no NaN, no ±Inf, not both +0 and -0) sorts its
//     halves of up to maxNetwork samples through a sorting network on
//     integer keys instead of sort.Float64s. In such a series two values
//     that compare equal have equal bits, so every correct sort of it
//     yields the same bits; the key map is an order-preserving bijection
//     (-0 keeps its own key), so the sorted keys map back to exactly
//     those bits. Every other half, and every non-exact series, keeps
//     sort.Float64s, whose order of NaN and signed-zero ties only it
//     reproduces.
package mvts

import (
	"math"
	"math/bits"
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

type scratch struct {
	buf []float64
	// keys holds one half's sort keys while the network orders them.
	// Indexed by the network's uint8 positions, it needs no bounds check.
	keys [256]uint64
}

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
// recomputed: the sums and extremes of the series and both halves (one
// pass), the moment sums around each of their means that var, std,
// skewness and kurtosis divide (one pass), one pass for everything
// compared against the mean, and one ordering. The ordering sorts the
// two halves (their medians need that anyway) and merges them into the
// sorted series; the MAD's deviations |x - median| come out of that
// order as two sorted runs, merged rather than sorted.
//
// Which sort a half takes depends on the series. An exact series (no
// NaN, no ±Inf, not both +0 and -0) sorts each half of up to maxNetwork
// samples — every served window's, 31 and 32 — through a sorting
// network, and longer halves through sort.Float64s. A series holding NaN
// or both signed zeros has ties sort.Float64s orders in a way only it
// reproduces, and ±Inf can make a deviation NaN; such a series sorts its
// halves, then itself whole, and its deviations with sort.Float64s, as
// the stats functions do.
//
//albacheck:hotpath
func (Extractor) Append(dst, s []float64) []float64 {
	n := len(s)
	nan := math.NaN()
	all, lo, hi := summarize(s)
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
		sortHalf(halves[:h], exact, &sc.keys)
		sortHalf(halves[h:], exact, &sc.keys)
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

// summarize makes two passes over s for three summaries: of s, of its
// first half lo = s[:h] and of its second half hi = s[h:], h = len(s)/2.
// The first pass accumulates the sums and extremes, the second the
// moment sums around each summary's own mean. Each summary starts at its
// slice's first sample and takes the samples in its slice's order, with
// positions counted from that first sample, so it is bitwise what two
// passes over its slice alone compute (hi's sum starts from 0 at s[h]:
// it is not all.sum - lo.sum). The sums live in locals rather than in
// the three structs so that they stay in registers.
func summarize(s []float64) (all, lo, hi summary) {
	h := len(s) / 2
	all, lo, hi = startSummary(s), startSummary(s[:h]), startSummary(s[h:])
	var sumAll, sumLo, sumHi float64
	for i, x := range s[:h] {
		sumAll += x
		sumLo += x
		all.extremes(i, x)
		lo.extremes(i, x)
	}
	for i, x := range s[h:] {
		sumAll += x
		sumHi += x
		all.extremes(h+i, x)
		hi.extremes(i, x)
	}
	all.setMean(sumAll)
	lo.setMean(sumLo)
	hi.setMean(sumHi)

	meanAll, meanLo, meanHi := all.mean, lo.mean, hi.mean
	var s2All, m3All, m4All, s2Lo, m3Lo, m4Lo, s2Hi, m3Hi, m4Hi float64
	for _, x := range s[:h] {
		d := x - meanAll
		d2 := d * d
		s2All += d2
		m3All += d2 * d
		m4All += d2 * d2
		d = x - meanLo
		d2 = d * d
		s2Lo += d2
		m3Lo += d2 * d
		m4Lo += d2 * d2
	}
	for _, x := range s[h:] {
		d := x - meanAll
		d2 := d * d
		s2All += d2
		m3All += d2 * d
		m4All += d2 * d2
		d = x - meanHi
		d2 = d * d
		s2Hi += d2
		m3Hi += d2 * d
		m4Hi += d2 * d2
	}
	all.s2, all.m3, all.m4 = s2All, m3All, m4All
	lo.s2, lo.m3, lo.m4 = s2Lo, m3Lo, m4Lo
	hi.s2, hi.m3, hi.m4 = s2Hi, m3Hi, m4Hi
	return all, lo, hi
}

// startSummary is the summary of s before any sample is taken in: the
// count, and the extremes at s's first sample (NaN, like the mean, for
// an empty s).
func startSummary(s []float64) summary {
	m := summary{n: float64(len(s)), mean: math.NaN(), min: math.NaN(), max: math.NaN()}
	if len(s) > 0 {
		m.min, m.max = s[0], s[0]
	}
	return m
}

// extremes takes in x, the sample at position i of the summary's slice:
// the first position of a strictly smaller or larger value wins.
func (m *summary) extremes(i int, x float64) {
	if x < m.min {
		m.min, m.argMin = x, i
	}
	if x > m.max {
		m.max, m.argMax = x, i
	}
}

// setMean stores the slice's sum and divides it by the count; an empty
// slice keeps its NaN mean.
func (m *summary) setMean(sum float64) {
	m.sum = sum
	if m.n > 0 {
		m.mean = sum / m.n
	}
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

// maxNetwork is the longest half sortHalf orders through a network.
// Every served window is 64 samples, repaired and differenced to 63, so
// its halves are 31 and 32 long; longer halves (training runs) keep
// sort.Float64s.
const maxNetwork = 64

// exchange is one comparator of a sorting network: afterwards the key at
// lo is the smaller of the two.
type exchange struct{ lo, hi uint8 }

// networks[n] sorts n keys, for n up to maxNetwork; it is built once,
// when the package is initialized.
var networks = func() (t [maxNetwork + 1][]exchange) {
	for n := 2; n <= maxNetwork; n++ {
		t[n] = mergeExchange(n)
	}
	return t
}()

// mergeExchange lists Batcher's merge-exchange network for n >= 2 keys
// (Knuth, TAOCP vol. 3, Sec. 5.2.2, Algorithm M) in the order its
// comparators run.
func mergeExchange(n int) []exchange {
	var net []exchange
	t := bits.Len(uint(n - 1)) // ceil(log2 n)
	for p := 1 << (t - 1); p > 0; p >>= 1 {
		q, r, d := 1<<(t-1), 0, p
		for {
			for i := 0; i+d < n; i++ {
				if i&p == r {
					net = append(net, exchange{uint8(i), uint8(i + d)})
				}
			}
			if q == p {
				break
			}
			d, q, r = q-p, q>>1, p
		}
	}
	return net
}

// sortHalf sorts x, one half of a series, in place. A half of an exact
// series of up to maxNetwork samples runs through networks[len(x)] as
// keys: each comparator is an integer min and max, with no branch on
// the data. Any other half takes sort.Float64s.
func sortHalf(x []float64, exact bool, keys *[256]uint64) {
	if !exact || len(x) > maxNetwork {
		sort.Float64s(x)
		return
	}
	for i, v := range x {
		keys[i] = key(v)
	}
	for _, e := range networks[len(x)] {
		a, b := keys[e.lo], keys[e.hi]
		keys[e.lo], keys[e.hi] = min(a, b), max(a, b)
	}
	for i := range x {
		x[i] = unkey(keys[i])
	}
}

// key maps a non-NaN x to bits whose unsigned order is x's numeric
// order. It is a bijection: -0 keeps a key of its own, just below +0's,
// and unkey maps every key back to the bits it came from. (ml's sortKey
// folds -0 into +0 and cannot stand in for it.)
func key(x float64) uint64 {
	b := math.Float64bits(x)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// unkey inverts key.
func unkey(k uint64) float64 {
	return math.Float64frombits(k ^ (k>>63 - 1 | 1<<63))
}
