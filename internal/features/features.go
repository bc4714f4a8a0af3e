// Package features defines the statistical feature-extraction stage of the
// ALBADross pipeline (Sec. III-A of the paper) and utilities for applying
// an extractor to whole multivariate samples.
//
// The paper uses two open-source toolkits — MVTS (48 features per metric)
// and TSFRESH (794 features per metric) — re-implemented here as the
// sub-packages features/mvts and features/tsfresh. Both satisfy Extractor.
package features

import (
	"fmt"
	"math"

	"albadross/internal/obs"
	"albadross/internal/ts"
)

// Extractor turns one metric's (cleaned) time series into a fixed-length
// vector of statistical features.
type Extractor interface {
	// Name identifies the toolkit ("mvts" or "tsfresh").
	Name() string
	// FeatureNames lists the per-metric feature names, in the order
	// Append emits them.
	FeatureNames() []string
	// Append computes the features of one series and appends them to
	// dst, returning the extended slice: always len(FeatureNames())
	// entries, undefined features NaN. s is only read. Appending lets a
	// caller extract a whole sample into one presized vector; scratch an
	// implementation needs is its own, not the caller's (mvts pools it).
	Append(dst, s []float64) []float64
}

// VectorNames returns the feature names of a full sample vector: the cross
// product of metric names and per-metric feature names, in extraction
// order ("metricName::featureName").
func VectorNames(e Extractor, metricNames []string) []string {
	fn := e.FeatureNames()
	out := make([]string, 0, len(metricNames)*len(fn))
	for _, m := range metricNames {
		for _, f := range fn {
			out = append(out, fmt.Sprintf("%s::%s", m, f))
		}
	}
	return out
}

// Sanitize replaces every NaN or infinite entry of a feature vector with
// 0 in place and returns the number of replaced entries. Extractors mark
// undefined features (skewness of a constant series, trends of an
// all-NaN window) as NaN by design; consumers that feed models directly —
// the streaming path, chiefly — sanitize so a degraded window yields a
// finite vector instead of NaN-poisoning the classifier.
func Sanitize(v []float64) int {
	n := 0
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			v[i] = 0
			n++
		}
	}
	if n > 0 {
		sanitizedTotal.Add(uint64(n))
	}
	return n
}

// ExtractSample computes the feature vector of one multivariate sample by
// appending per-metric features in metric order into one presized,
// freshly allocated vector the caller owns. It is where every window and
// run is extracted, so features_extract_seconds observes it once per
// sample.
func ExtractSample(e Extractor, m *ts.Multivariate) []float64 {
	defer obs.StartSpan(extractLatency).End()
	per := len(e.FeatureNames())
	out := make([]float64, 0, per*len(m.Metrics))
	for _, s := range m.Metrics {
		before := len(out)
		out = e.Append(out, s)
		if got := len(out) - before; got != per {
			panic(fmt.Sprintf("features: extractor %s appended %d features, declared %d", e.Name(), got, per))
		}
	}
	return out
}
