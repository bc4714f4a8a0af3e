package pipeline

import (
	"errors"
	"math"
	"testing"

	"albadross/internal/features"
	"albadross/internal/stream"
	"albadross/internal/telemetry"
	"albadross/internal/wal"
)

// chainSpec describes one test chain: schema, extractor and predictor,
// and the window geometry.
type chainSpec struct {
	Schema     []telemetry.Metric
	Extractor  features.Extractor
	Diagnose   PredictFunc
	Window     int
	Stride     int
	Reorder    int
	MaxJump    int
	Gap        stream.GapPolicy
	MaxMissing float64
}

// chain composes the spec into a Chain with the given sink and
// (optional) journal; pred overrides the spec's Diagnose when non-nil.
func (cs chainSpec) chain(pred PredictStage, sink Sink, journal *wal.Log) (*Chain, error) {
	if pred == nil && cs.Diagnose != nil {
		pred = cs.Diagnose
	}
	return NewChain(ChainConfig{
		Metrics:    len(cs.Schema),
		Window:     cs.Window,
		Stride:     cs.Stride,
		Reorder:    cs.Reorder,
		MaxJump:    cs.MaxJump,
		Gap:        cs.Gap,
		MaxMissing: cs.MaxMissing,
		Features:   BatchFeatures{Schema: cs.Schema, Gap: cs.Gap, Extractor: cs.Extractor},
		Predict:    pred,
		Sink:       sink,
		Journal:    journal,
	})
}

// buildChainJournaled assembles the spec's chain with a write-ahead
// journal attached (nil for none).
func buildChainJournaled(t *testing.T, cfg chainSpec, sink Sink, journal *wal.Log) *Chain {
	t.Helper()
	c, err := cfg.chain(nil, sink, journal)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// buildChain assembles the spec's chain without a journal.
func buildChain(t *testing.T, cfg chainSpec, sink Sink) *Chain {
	t.Helper()
	return buildChainJournaled(t, cfg, sink, nil)
}

// testChain couples a Chain with its Collector so a test can read what
// each individual push emitted.
type testChain struct {
	*Chain
	sink *Collector
	next int // next timestamp push hands out
}

// newTestChain builds the spec's chain over a fresh Collector.
func newTestChain(cfg chainSpec) (*testChain, error) {
	tc := &testChain{sink: &Collector{}}
	c, err := cfg.chain(nil, tc.sink, nil)
	if err != nil {
		return nil, err
	}
	tc.Chain = c
	return tc, nil
}

// mustTestChain is newTestChain for specs that must be valid.
func mustTestChain(t *testing.T, cfg chainSpec) *testChain {
	t.Helper()
	tc, err := newTestChain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tc
}

// emittedBy runs one delivery call and returns the diagnoses it added
// to the collector.
func (c *testChain) emittedBy(call func() error) ([]stream.Diagnosis, error) {
	before := len(c.sink.Diagnoses)
	err := call()
	return c.sink.Diagnoses[before:], err
}

// push delivers one reading at the next in-order timestamp — the
// arrival-order feed of a clean source.
func (c *testChain) push(values []float64) ([]stream.Diagnosis, error) {
	t := c.next
	c.next++
	return c.pushAt(t, values)
}

// pushAt delivers one timestamped reading and returns what it emitted.
func (c *testChain) pushAt(t int, values []float64) ([]stream.Diagnosis, error) {
	return c.emittedBy(func() error { return c.PushAt(t, values) })
}

// flush drains the reordering buffer and returns what the tail emitted.
func (c *testChain) flush() ([]stream.Diagnosis, error) {
	return c.emittedBy(c.Flush)
}

// countingDiagnoser records calls and returns a fixed label. It keeps
// the previous vector itself — the predict stage owns what it is handed
// — and notes when the next one shares its backing array.
type countingDiagnoser struct {
	calls   int
	dims    []int
	last    []float64
	aliased bool
}

func (c *countingDiagnoser) diagnose(v []float64) (string, float64, error) {
	c.calls++
	c.dims = append(c.dims, len(v))
	if c.last != nil && &c.last[0] == &v[0] {
		c.aliased = true
	}
	c.last = v
	for _, x := range v {
		if math.IsInf(x, 0) {
			return "", 0, errors.New("inf feature")
		}
	}
	return "healthy", 0.9, nil
}
