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
	// Extract emits them.
	FeatureNames() []string
	// Extract computes the features of one series. The result always has
	// len(FeatureNames()) entries; undefined features are NaN.
	Extract(s []float64) []float64
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
// concatenating per-metric features in metric order.
func ExtractSample(e Extractor, m *ts.Multivariate) []float64 {
	defer obs.StartSpan(extractLatency).End()
	per := len(e.FeatureNames())
	out := make([]float64, 0, per*len(m.Metrics))
	for _, s := range m.Metrics {
		v := e.Extract(s)
		if len(v) != per {
			panic(fmt.Sprintf("features: extractor %s returned %d features, declared %d", e.Name(), len(v), per))
		}
		out = append(out, v...)
	}
	return out
}
