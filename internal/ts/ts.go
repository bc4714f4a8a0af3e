// Package ts provides the time-series data-preparation primitives of the
// ALBADross pipeline (Sec. IV-E-1 of the paper): multivariate series
// containers, linear interpolation over missing samples, differencing of
// cumulative counters, trimming of application init/teardown phases, and
// min-max / z-score scaling.
//
// Missing samples are represented as NaN, matching how gaps appear after
// aligning LDMS samples onto a fixed 1 Hz grid.
package ts

import (
	"errors"
	"fmt"
	"math"
)

// Series is a single metric's time series on a fixed sampling grid.
// Missing observations are NaN.
type Series []float64

// Clone returns a deep copy of the series.
func (s Series) Clone() Series {
	cp := make(Series, len(s))
	copy(cp, s)
	return cp
}

// Multivariate is the telemetry collected on one compute node during one
// application run: one equally-long Series per metric, indexed in parallel
// with a metric-name table kept by the caller.
type Multivariate struct {
	// Metrics[m][t] is metric m at timestep t.
	Metrics []Series
}

// NewMultivariate allocates an all-zero multivariate block of the given
// shape.
func NewMultivariate(nMetrics, nSteps int) *Multivariate {
	m := &Multivariate{Metrics: make([]Series, nMetrics)}
	for i := range m.Metrics {
		m.Metrics[i] = make(Series, nSteps)
	}
	return m
}

// Steps returns the number of timesteps (0 for an empty block).
func (m *Multivariate) Steps() int {
	if len(m.Metrics) == 0 {
		return 0
	}
	return len(m.Metrics[0])
}

// Validate checks that every metric series has the same length.
func (m *Multivariate) Validate() error {
	if len(m.Metrics) == 0 {
		return nil
	}
	n := len(m.Metrics[0])
	for i, s := range m.Metrics {
		if len(s) != n {
			return fmt.Errorf("ts: metric %d has %d steps, expected %d", i, len(s), n)
		}
	}
	return nil
}

// Clone deep-copies the block.
func (m *Multivariate) Clone() *Multivariate {
	out := &Multivariate{Metrics: make([]Series, len(m.Metrics))}
	for i, s := range m.Metrics {
		out.Metrics[i] = s.Clone()
	}
	return out
}

// Interpolate fills NaN gaps in place by linear interpolation between the
// nearest finite neighbours. Leading and trailing gaps are filled by
// propagating the first/last finite value. A series with no finite values
// becomes all zeros. It returns the number of filled samples.
func Interpolate(s Series) int {
	n := len(s)
	filled := 0
	// Find first finite.
	first := -1
	for i, v := range s {
		if !math.IsNaN(v) {
			first = i
			break
		}
	}
	if first == -1 {
		for i := range s {
			s[i] = 0
		}
		return n
	}
	for i := 0; i < first; i++ {
		s[i] = s[first]
		filled++
	}
	last := first
	for i := first + 1; i < n; i++ {
		if math.IsNaN(s[i]) {
			continue
		}
		if i > last+1 {
			// Interpolate the gap (last, i).
			span := float64(i - last)
			for j := last + 1; j < i; j++ {
				frac := float64(j-last) / span
				s[j] = s[last]*(1-frac) + s[i]*frac
				filled++
			}
		}
		last = i
	}
	for i := last + 1; i < n; i++ {
		s[i] = s[last]
		filled++
	}
	return filled
}

// HoldLast fills NaN gaps in place by propagating the most recent finite
// value forward (sample-and-hold) — the conservative gap policy for live
// streams where the future neighbour interpolation needs has not arrived
// yet. Leading gaps are backfilled from the first finite value; a series
// with no finite values becomes all zeros. It returns the number of
// filled samples.
func HoldLast(s Series) int {
	filled := 0
	first := -1
	for i, v := range s {
		if !math.IsNaN(v) {
			first = i
			break
		}
	}
	if first == -1 {
		for i := range s {
			s[i] = 0
		}
		return len(s)
	}
	for i := 0; i < first; i++ {
		s[i] = s[first]
		filled++
	}
	last := s[first]
	for i := first + 1; i < len(s); i++ {
		if math.IsNaN(s[i]) {
			s[i] = last
			filled++
		} else {
			last = s[i]
		}
	}
	return filled
}

// HoldLastAll applies HoldLast to every metric of the block in place and
// returns the total number of filled samples.
func HoldLastAll(m *Multivariate) int {
	total := 0
	for _, s := range m.Metrics {
		total += HoldLast(s)
	}
	return total
}

// CountNaN returns the number of NaN samples in the block.
func CountNaN(m *Multivariate) int {
	n := 0
	for _, s := range m.Metrics {
		for _, v := range s {
			if math.IsNaN(v) {
				n++
			}
		}
	}
	return n
}

// InterpolateAll interpolates every metric of the block in place and
// returns the total number of filled samples.
func InterpolateAll(m *Multivariate) int {
	total := 0
	for _, s := range m.Metrics {
		total += Interpolate(s)
	}
	return total
}

// diffInPlace replaces a cumulative counter with per-step deltas,
// out[t] = s[t+1] - s[t], over s's own storage: each delta overwrites
// the earlier of its two samples, which no later delta reads. The result
// is one element shorter. Negative deltas (counter wrap or reset) are
// clamped to zero, which is what LDMS post-processing does for wrapping
// counters.
func diffInPlace(s Series) Series {
	if len(s) < 2 {
		return s[:0]
	}
	for i := 1; i < len(s); i++ {
		d := s[i] - s[i-1]
		if d < 0 {
			d = 0
		}
		s[i-1] = d
	}
	return s[:len(s)-1]
}

// DiffCounters differences the metrics flagged cumulative and drops the
// first sample of the remaining metrics so all series stay aligned. It
// works in place: counters are differenced over their own storage and
// gauges are resliced, so the block's series alias (and overwrite) the
// storage they had before. cumulative[i] corresponds to m.Metrics[i]. It
// returns an error if the flag slice length mismatches.
func DiffCounters(m *Multivariate, cumulative []bool) error {
	if len(cumulative) != len(m.Metrics) {
		return fmt.Errorf("ts: %d cumulative flags for %d metrics", len(cumulative), len(m.Metrics))
	}
	if m.Steps() < 2 {
		return errors.New("ts: need at least 2 steps to difference")
	}
	for i, s := range m.Metrics {
		if cumulative[i] {
			m.Metrics[i] = diffInPlace(s)
		} else {
			m.Metrics[i] = s[1:]
		}
	}
	return nil
}

// Trim removes head samples and tail samples from every metric, dropping
// application initialization and termination transients. Like
// DiffCounters it works in place: the series are resliced, so they alias
// the storage they had before. It returns an error if fewer than one
// sample would remain.
func Trim(m *Multivariate, head, tail int) error {
	if head < 0 || tail < 0 {
		return errors.New("ts: negative trim")
	}
	n := m.Steps()
	if n-head-tail < 1 {
		return fmt.Errorf("ts: trim(%d,%d) leaves no samples of %d", head, tail, n)
	}
	for i, s := range m.Metrics {
		m.Metrics[i] = s[head : n-tail]
	}
	return nil
}

// MinMaxScaler rescales feature columns to [0, 1] using bounds learned from
// a training matrix, mirroring sklearn.preprocessing.MinMaxScaler. Columns
// that are constant in the training data map to 0.
type MinMaxScaler struct {
	Min   []float64 // per-column minimum seen during Fit
	Range []float64 // per-column max-min (0 for constant columns)
}

// FitMinMax learns column bounds from the rows of x. All rows must have
// equal length. NaN entries are ignored while fitting.
func FitMinMax(x [][]float64) (*MinMaxScaler, error) {
	if len(x) == 0 {
		return nil, errors.New("ts: cannot fit scaler on empty matrix")
	}
	d := len(x[0])
	sc := &MinMaxScaler{Min: make([]float64, d), Range: make([]float64, d)}
	maxs := make([]float64, d)
	for j := 0; j < d; j++ {
		sc.Min[j] = math.Inf(1)
		maxs[j] = math.Inf(-1)
	}
	for i, row := range x {
		if len(row) != d {
			return nil, fmt.Errorf("ts: row %d has %d cols, expected %d", i, len(row), d)
		}
		for j, v := range row {
			if math.IsNaN(v) {
				continue
			}
			if v < sc.Min[j] {
				sc.Min[j] = v
			}
			if v > maxs[j] {
				maxs[j] = v
			}
		}
	}
	for j := 0; j < d; j++ {
		if math.IsInf(sc.Min[j], 1) { // all-NaN column
			sc.Min[j], maxs[j] = 0, 0
		}
		sc.Range[j] = maxs[j] - sc.Min[j]
	}
	return sc, nil
}

// Transform scales rows in place using the learned bounds. Values outside
// the training range extrapolate beyond [0,1], as sklearn does. NaNs map
// to 0 so downstream models never see NaN features.
func (sc *MinMaxScaler) Transform(x [][]float64) error {
	for i, row := range x {
		if len(row) != len(sc.Min) {
			return fmt.Errorf("ts: row %d has %d cols, scaler expects %d", i, len(row), len(sc.Min))
		}
		for j, v := range row {
			switch {
			case math.IsNaN(v):
				row[j] = 0
			case sc.Range[j] == 0:
				row[j] = 0
			default:
				row[j] = (v - sc.Min[j]) / sc.Range[j]
			}
		}
	}
	return nil
}

// ZScore standardizes a single series (mean 0, std 1) and returns a new
// slice; a constant series returns all zeros.
func ZScore(s Series) Series {
	out := make(Series, len(s))
	if len(s) == 0 {
		return out
	}
	mean := 0.0
	for _, v := range s {
		mean += v
	}
	mean /= float64(len(s))
	variance := 0.0
	for _, v := range s {
		d := v - mean
		variance += d * d
	}
	variance /= float64(len(s))
	sd := math.Sqrt(variance)
	if sd == 0 {
		return out
	}
	for i, v := range s {
		out[i] = (v - mean) / sd
	}
	return out
}
