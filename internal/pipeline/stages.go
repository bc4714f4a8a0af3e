package pipeline

// Concrete stage implementations. Each wraps the single shared
// implementation in internal/stream — never a reimplementation — so
// chains and the other consumers of those seams cannot drift apart
// numerically.

import (
	"errors"
	"fmt"

	"albadross/internal/features"
	"albadross/internal/stream"
	"albadross/internal/telemetry"
)

// BatchFeatures is the from-scratch window path: each completed window
// is repaired under the gap policy, counter-differenced and extracted
// whole via stream.BatchVector (stream.BlockVector over the ring's
// rows). It holds no state between windows.
type BatchFeatures struct {
	// Schema describes the incoming metric vector (order matters).
	Schema []telemetry.Metric
	// Gap selects the repair applied inside each window.
	Gap stream.GapPolicy
	// Extractor computes per-metric features on each window.
	Extractor features.Extractor
}

// Vector repairs and extracts one window from scratch.
func (b BatchFeatures) Vector(rows [][]float64) ([]float64, error) {
	return stream.BatchVector(rows, b.Schema, b.Gap, b.Extractor)
}

// Reset is a no-op: the batch path is stateless between windows.
func (b BatchFeatures) Reset() {}

// RollingFeatures is the incremental path: per-metric rolling state
// advances once per committed row (it implements CommitObserver) and
// windows are rendered from that state at each stride boundary, instead
// of re-extracting every feature from the whole window at each stride.
//
// Repair semantics are stream-global hold-last: a missing reading
// repeats the metric's last delivered value even when that value
// precedes the current window (0 before the first delivery). The batch
// path repairs each window in isolation, so the two paths agree exactly
// on windows without missing cells and differ only in how cells near
// the edge of a gappy window are filled. Counter differencing is
// per-step (d = max(0, x[t] - x[t-1])), identical to the batch path's
// ts.DiffCounters.
type RollingFeatures struct {
	state *stream.IncrementalState
}

// NewRollingFeatures builds rolling state for the schema over windows
// of the given length; the extractor must implement
// features.Incremental and the gap policy must be causal (GapHoldLast
// or GapAbstain) — GapInterpolate reads future samples inside the
// window, which an incremental path cannot do.
func NewRollingFeatures(ex features.Extractor, schema []telemetry.Metric, window int, gap stream.GapPolicy) (*RollingFeatures, error) {
	inc, ok := ex.(features.Incremental)
	if !ok {
		return nil, fmt.Errorf("pipeline: extractor %q does not implement features.Incremental", ex.Name())
	}
	if gap == stream.GapInterpolate {
		return nil, errors.New("pipeline: rolling features require a causal gap policy (GapHoldLast or GapAbstain)")
	}
	return &RollingFeatures{state: stream.NewIncrementalState(inc, schema, window)}, nil
}

// FeaturesFor picks the feature stage for one extractor: the
// incremental RollingFeatures when rolling is set, the from-scratch
// BatchFeatures otherwise.
func FeaturesFor(ex features.Extractor, schema []telemetry.Metric, window int, gap stream.GapPolicy, rolling bool) (FeatureStage, error) {
	if rolling {
		return NewRollingFeatures(ex, schema, window, gap)
	}
	return BatchFeatures{Schema: schema, Gap: gap, Extractor: ex}, nil
}

// Observe advances the rolling state by one committed row.
func (r *RollingFeatures) Observe(row []float64) { r.state.Observe(row) }

// Vector renders the current rolling feature vector; the window rows
// are ignored because the state already absorbed every commit.
func (r *RollingFeatures) Vector([][]float64) ([]float64, error) {
	return r.state.Vector(), nil
}

// Reset empties the rolling state.
func (r *RollingFeatures) Reset() { r.state.Reset() }

// PredictFunc adapts a bare function — turning a sanitized, otherwise
// untransformed feature vector into a (label, confidence) pair — into a
// PredictStage; core.Framework.DiagnoseVector and
// core.Deployment.Diagnose both adapt trivially.
type PredictFunc func(vec []float64) (label string, confidence float64, err error)

// Predict classifies one sanitized feature vector.
func (f PredictFunc) Predict(vec []float64) (string, float64, error) { return f(vec) }

// Collector is a Sink that accumulates every diagnosis in emission
// order.
type Collector struct {
	// Diagnoses holds everything emitted so far.
	Diagnoses []stream.Diagnosis
}

// Emit appends one diagnosis.
func (c *Collector) Emit(d stream.Diagnosis) error {
	c.Diagnoses = append(c.Diagnoses, d)
	return nil
}

// Event is one timestamped arrival of a SliceSource shard.
type Event struct {
	// T is the claimed timestep.
	T int
	// Values is the raw reading (NaN marks missing metrics).
	Values []float64
}

// SliceSource is an in-memory Source: one arrival sequence per shard.
type SliceSource [][]Event

// Shards reports the number of shard sequences.
func (s SliceSource) Shards() int { return len(s) }

// Feed pushes one shard's arrivals in order.
func (s SliceSource) Feed(shard int, push func(t int, values []float64) error) error {
	for _, e := range s[shard] {
		if err := push(e.T, e.Values); err != nil {
			return err
		}
	}
	return nil
}
