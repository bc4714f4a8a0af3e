// Package tsfresh reimplements the TSFRESH feature extractor used by the
// paper (Christ et al., Neurocomputing 2018) as a richer superset of the
// MVTS features: ~139 features per metric including approximate/sample
// entropy, Welch power-spectral-density aggregates, FFT coefficients,
// autocorrelation structure, non-linearity statistics (c3, cid_ce, time
// reversal asymmetry), energy-ratio chunking, and index-mass quantiles
// (Sec. III-A explicitly calls out approximate entropy, power spectral
// density, and variation coefficients).
//
// The original toolkit computes 794 features per metric, most of which are
// parameter sweeps of the same characterization methods; this
// implementation keeps every method family with a representative parameter
// set, preserving the "rich vs. simple feature space" comparison the paper
// makes between TSFRESH and MVTS. Quadratic-time entropy estimators run on
// a stride-decimated view capped at 128 points so paper-scale series stay
// tractable.
package tsfresh

import (
	"fmt"
	"math"

	"albadross/internal/features/mvts"
	"albadross/internal/fft"
	"albadross/internal/stats"
)

// entropyCap bounds the series length used for the O(n^2) entropy
// estimators; longer series are stride-decimated to at most this length.
const entropyCap = 128

// welchSegment is the Welch PSD segment length.
const welchSegment = 64

// Extractor computes the TSFRESH-style feature set per metric. The zero
// value is ready to use; it embeds the 48 MVTS features and appends the
// advanced families.
type Extractor struct{}

// Name returns "tsfresh".
func (Extractor) Name() string { return "tsfresh" }

var featureNames = buildNames()

func buildNames() []string {
	names := append([]string{}, mvts.Extractor{}.FeatureNames()...)
	add := func(format string, args ...interface{}) {
		names = append(names, fmt.Sprintf(format, args...))
	}
	for lag := 1; lag <= 10; lag++ {
		add("autocorr_lag%d", lag)
	}
	for lag := 1; lag <= 5; lag++ {
		add("pacf_lag%d", lag)
	}
	for lag := 1; lag <= 3; lag++ {
		add("c3_lag%d", lag)
	}
	add("cid_ce_raw")
	add("cid_ce_norm")
	for lag := 1; lag <= 3; lag++ {
		add("time_reversal_asym_lag%d", lag)
	}
	add("binned_entropy_5")
	add("binned_entropy_20")
	add("approximate_entropy")
	add("sample_entropy")
	add("spectral_centroid")
	add("spectral_variance")
	add("spectral_skew")
	add("spectral_kurtosis")
	add("psd_max")
	add("psd_argmax_freq")
	add("psd_total")
	for b := 0; b < 4; b++ {
		add("psd_band%d", b)
	}
	for k := 0; k < 8; k++ {
		add("fft_coeff_abs_%d", k)
	}
	for q := 1; q <= 9; q++ {
		add("quantile_q%d0", q)
	}
	for _, r := range []string{"05", "10", "15", "20", "25", "30"} {
		add("ratio_beyond_r%s_sigma", r)
	}
	add("crossings_q25")
	add("crossings_q75")
	add("num_peaks_1")
	add("num_peaks_5")
	add("num_peaks_10")
	add("pct_reoccurring")
	add("sum_reoccurring")
	add("has_duplicate_max")
	add("has_duplicate_min")
	add("strike_above_median")
	add("strike_below_median")
	for c := 0; c < 10; c++ {
		add("energy_ratio_chunk%d", c)
	}
	add("index_mass_q25")
	add("index_mass_q50")
	add("index_mass_q75")
	add("last_loc_max_ratio")
	add("last_loc_min_ratio")
	add("zero_fraction")
	add("variance_larger_than_std")
	add("large_std")
	add("symmetry_looking")
	return names
}

// FeatureNames returns the per-metric feature names in extraction order.
func (Extractor) FeatureNames() []string { return featureNames }

// decimate returns the series stride-subsampled to at most cap points.
func decimate(s []float64, maxLen int) []float64 {
	if len(s) <= maxLen {
		return s
	}
	stride := (len(s) + maxLen - 1) / maxLen
	out := make([]float64, 0, maxLen)
	for i := 0; i < len(s); i += stride {
		out = append(out, s[i])
	}
	return out
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Extract computes the feature vector of one series into a new slice.
func (e Extractor) Extract(s []float64) []float64 {
	return e.Append(make([]float64, 0, len(featureNames)), s)
}

// Append computes the features of one series and appends them to dst:
// the 48 mvts features (mvts.Extractor.Append), then the advanced
// families.
func (e Extractor) Append(dst, s []float64) []float64 {
	start := len(dst)
	dst = mvts.Extractor{}.Append(dst, s)

	for lag := 1; lag <= 10; lag++ {
		dst = append(dst, stats.Autocorrelation(s, lag))
	}
	for lag := 1; lag <= 5; lag++ {
		dst = append(dst, stats.PartialAutocorrelation(s, lag))
	}
	for lag := 1; lag <= 3; lag++ {
		dst = append(dst, stats.C3(s, lag))
	}
	dst = append(dst, stats.CidCE(s, false), stats.CidCE(s, true))
	for lag := 1; lag <= 3; lag++ {
		dst = append(dst, stats.TimeReversalAsymmetry(s, lag))
	}
	dst = append(dst, stats.BinnedEntropy(s, 5), stats.BinnedEntropy(s, 20))

	dec := decimate(s, entropyCap)
	sd := stats.Std(dec)
	dst = append(dst, stats.ApproximateEntropy(dec, 2, 0.2*sd))
	se := stats.SampleEntropy(dec, 2, 0.2*sd)
	if math.IsInf(se, 0) {
		se = math.NaN() // undefined (no m+1 matches); treated like other NaNs
	}
	dst = append(dst, se)

	// Spectral features via Welch's method (1 Hz sampling).
	freqs, psd := fft.Welch(s, 1, welchSegment)
	if len(psd) == 0 {
		for i := 0; i < 11; i++ {
			dst = append(dst, math.NaN())
		}
	} else {
		c, v, sk, ku := fft.SpectralMoments(freqs, psd)
		dst = append(dst, c, v, sk, ku)
		arg := stats.ArgMax(psd)
		dst = append(dst, stats.Max(psd), freqs[arg], stats.Sum(psd))
		// Power split into four equal frequency bands.
		quarter := (len(psd) + 3) / 4
		for b := 0; b < 4; b++ {
			lo := b * quarter
			hi := lo + quarter
			if hi > len(psd) {
				hi = len(psd)
			}
			if lo >= hi {
				dst = append(dst, 0)
				continue
			}
			dst = append(dst, stats.Sum(psd[lo:hi]))
		}
	}

	// Leading FFT coefficient magnitudes of the mean-removed series.
	if len(s) >= 2 {
		m := stats.Mean(s)
		centered := make([]float64, len(s))
		for i, v := range s {
			centered[i] = v - m
		}
		spec := fft.FFTReal(centered)
		for k := 0; k < 8; k++ {
			if k < len(spec) {
				re, im := real(spec[k]), imag(spec[k])
				dst = append(dst, math.Sqrt(re*re+im*im))
			} else {
				dst = append(dst, math.NaN())
			}
		}
	} else {
		for k := 0; k < 8; k++ {
			dst = append(dst, math.NaN())
		}
	}

	qs := stats.QuantilesSorted(s, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
	dst = append(dst, qs...)
	for _, r := range []float64{0.5, 1.0, 1.5, 2.0, 2.5, 3.0} {
		dst = append(dst, stats.RatioBeyondRSigma(s, r))
	}
	q25 := stats.Quantile(s, 0.25)
	q75 := stats.Quantile(s, 0.75)
	dst = append(dst,
		float64(stats.CrossingCount(s, q25)),
		float64(stats.CrossingCount(s, q75)),
		float64(stats.NumberPeaks(s, 1)),
		float64(stats.NumberPeaks(s, 5)),
		float64(stats.NumberPeaks(s, 10)),
		stats.PercentageReoccurring(s),
		stats.SumOfReoccurringValues(s),
		b2f(stats.HasDuplicateMax(s)),
		b2f(stats.HasDuplicateMin(s)),
	)
	med := stats.Median(s)
	dst = append(dst,
		float64(stats.LongestStrikeAbove(s, med)),
		float64(stats.LongestStrikeBelow(s, med)),
	)

	// Energy ratio by 10 chunks.
	total := stats.AbsEnergy(s)
	n := len(s)
	for c := 0; c < 10; c++ {
		if n == 0 || total == 0 {
			dst = append(dst, math.NaN())
			continue
		}
		lo := c * n / 10
		hi := (c + 1) * n / 10
		dst = append(dst, stats.AbsEnergy(s[lo:hi])/total)
	}

	// Index mass quantiles: relative index where the cumulative |x| mass
	// passes q.
	absMass := 0.0
	for _, v := range s {
		absMass += math.Abs(v)
	}
	for _, q := range []float64{0.25, 0.5, 0.75} {
		if n == 0 || absMass == 0 {
			dst = append(dst, math.NaN())
			continue
		}
		cum := 0.0
		idx := n - 1
		for i, v := range s {
			cum += math.Abs(v)
			if cum >= q*absMass {
				idx = i
				break
			}
		}
		dst = append(dst, float64(idx+1)/float64(n))
	}

	// Last locations of extrema.
	if n > 0 {
		mx, mn := stats.Max(s), stats.Min(s)
		lastMax, lastMin := 0, 0
		zeros := 0
		for i, v := range s {
			if v == mx { //albacheck:ignore floatsafe exact match against the series' own Max locates extremum positions
				lastMax = i
			}
			if v == mn { //albacheck:ignore floatsafe exact match against the series' own Min locates extremum positions
				lastMin = i
			}
			if v == 0 {
				zeros++
			}
		}
		dst = append(dst,
			float64(lastMax+1)/float64(n),
			float64(lastMin+1)/float64(n),
			float64(zeros)/float64(n),
		)
	} else {
		dst = append(dst, math.NaN(), math.NaN(), math.NaN())
	}

	variance := stats.Var(s)
	dst = append(dst,
		b2f(variance > math.Sqrt(variance)), // variance_larger_than_std
		b2f(stats.Std(s) > 0.25*stats.Range(s)),
	)
	// symmetry_looking: |mean - median| < 0.05 * range.
	dst = append(dst, b2f(math.Abs(stats.Mean(s)-med) < 0.05*stats.Range(s)))

	// Overflow guard: products of extreme magnitudes (c3's cubes, energy
	// sums) can overflow float64 even on finite input. The extractor's
	// contract is finite-or-NaN — an infinity is an undefined feature,
	// not a value.
	for i, v := range dst[start:] {
		if math.IsInf(v, 0) {
			dst[start+i] = math.NaN()
		}
	}
	return dst
}
