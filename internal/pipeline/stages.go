package pipeline

// Concrete stage implementations. Each wraps the single shared
// implementation in internal/stream — never a reimplementation — so
// chains and the other consumers of those seams cannot drift apart
// numerically.

import (
	"albadross/internal/features"
	"albadross/internal/stream"
	"albadross/internal/telemetry"
)

// BatchFeatures is the window path: each completed window is repaired
// under the gap policy, counter-differenced and extracted whole via
// stream.BatchVector (stream.BlockVector over the ring's rows). It
// holds no state between windows.
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
