// Package pipeline is the online diagnosis path: explicit, individually
// pluggable stages — Source → stream (windowing) → FeatureStage →
// PredictStage → Sink — composed by Chain, the repository's ONE
// window-decision loop (abstain gate → feature vector → sanitation →
// prediction → non-finite-confidence abstention). Every consumer — the
// fleet's per-node streams behind /api/ingest and /api/ingest/bulk, the
// experiments, the examples — runs a Chain over the shared seams in
// internal/stream (stream.Windower, stream.BatchVector); the pr9_replay
// golden fixture pins its output bitwise.
//
// A Chain optionally journals every width-valid arrival to a per-shard
// write-ahead log (internal/wal) BEFORE the row mutates stream state.
// Replay feeds a recovered log back through a fresh chain, rebuilding
// reordering buffers and window rings bitwise-identically — crash
// recovery, shadow-model replay and record/replay debugging all reduce
// to the same operation. Graph runs one chain per shard under the
// internal/runner determinism contract, so any worker count yields
// byte-identical per-shard outputs.
package pipeline

import (
	"errors"
	"fmt"
	"math"

	"albadross/internal/features"
	"albadross/internal/obs"
	"albadross/internal/stream"
	"albadross/internal/wal"
)

// FeatureStage renders one completed window into a raw (unsanitized)
// feature vector.
type FeatureStage interface {
	// Vector renders the feature vector for the window whose raw rows
	// are given; rows is the live window ring and must not be retained.
	// The returned slice is freshly allocated on every call and owned by
	// the caller: the chain sanitizes it in place and hands it to the
	// predict stage, which may keep it.
	Vector(rows [][]float64) ([]float64, error)
}

// PredictStage classifies one feature vector.
type PredictStage interface {
	// Predict returns the diagnosed label and its confidence for a
	// sanitized feature vector. Ownership of vec passes to the stage: the
	// chain never touches it again, so the stage may keep it (the
	// server's lifecycle queue does, when no preprocessor copies it into
	// model space first).
	Predict(vec []float64) (label string, confidence float64, err error)
}

// Sink receives every diagnosis a chain emits, in window order.
type Sink interface {
	// Emit delivers one diagnosis; an error aborts the push that
	// completed the window.
	Emit(d stream.Diagnosis) error
}

// Source yields per-shard arrival sequences for Graph.Run. Feed must
// deliver shard-local arrivals in their original order; shards are
// independent and may be fed concurrently.
type Source interface {
	// Shards reports how many shard sequences the source holds.
	Shards() int
	// Feed pushes every arrival of one shard, in order, through push.
	Feed(shard int, push func(t int, values []float64) error) error
}

// ChainConfig assembles one node stream's stage chain. Window geometry
// fields are the identically named stream.WindowerConfig knobs.
type ChainConfig struct {
	// Metrics is the reading width (number of metrics per row).
	Metrics int
	// Window is the diagnosis window length in samples (>= 8).
	Window int
	// Stride is the hop between diagnoses; 0 defaults to Window.
	Stride int
	// Reorder is the reordering-buffer horizon for PushAt.
	Reorder int
	// MaxJump bounds the plausible forward timestamp jump; 0 defaults to
	// 4*Window+Reorder.
	MaxJump int
	// Gap selects the missing-data repair policy. The chain only applies
	// the GapAbstain missing-fraction gate itself; repair happens inside
	// the feature stage, which must be built for the same policy.
	Gap stream.GapPolicy
	// MaxMissing is the largest missing fraction GapAbstain tolerates; 0
	// defaults to 0.5.
	MaxMissing float64
	// Features renders completed windows into feature vectors.
	Features FeatureStage
	// Predict classifies sanitized feature vectors.
	Predict PredictStage
	// Sink receives every diagnosis. Required.
	Sink Sink
	// Journal, when non-nil, records every width-valid PushAt arrival
	// before it mutates stream state, enabling bitwise replay.
	Journal *wal.Log
}

// Chain is one shard's composed pipeline: windowing, feature
// extraction, prediction and the sink, with optional write-ahead
// journaling. Not safe for concurrent use; callers own the locking.
type Chain struct {
	cfg       ChainConfig
	win       *stream.Windower
	abstained int
	replaying bool
}

// NewChain validates the configuration and composes the stages.
func NewChain(cfg ChainConfig) (*Chain, error) {
	if cfg.Features == nil || cfg.Predict == nil || cfg.Sink == nil {
		return nil, errors.New("pipeline: Features, Predict and Sink are required")
	}
	if cfg.MaxMissing < 0 || cfg.MaxMissing > 1 {
		return nil, fmt.Errorf("pipeline: MaxMissing %v outside [0,1]", cfg.MaxMissing)
	}
	if cfg.MaxMissing == 0 {
		cfg.MaxMissing = 0.5
	}
	c := &Chain{cfg: cfg}
	win, err := stream.NewWindower(stream.WindowerConfig{
		Metrics: cfg.Metrics,
		Window:  cfg.Window,
		Stride:  cfg.Stride,
		Reorder: cfg.Reorder,
		MaxJump: cfg.MaxJump,
	}, nil, c.window)
	if err != nil {
		return nil, err
	}
	c.win = win
	c.cfg.Stride = win.Config().Stride
	c.cfg.MaxJump = win.Config().MaxJump
	return c, nil
}

// PushAt delivers one timestamped arrival: journaled first (when a
// journal is attached and the chain is not replaying), then sequenced
// through the reordering buffer (stream.Windower.PushAt): readings may
// arrive out of order within the Reorder horizon; duplicates, readings
// older than the committed frontier and readings claiming a timestamp
// more than MaxJump ahead of it are dropped with accounting, and the
// first accepted reading anchors the timestamp origin, so a constant
// clock skew shifts nothing. A single call can release several buffered
// readings and so complete several windows. A journal failure refuses
// the row before any stream state changes — the write-ahead guarantee
// replay correctness rests on.
func (c *Chain) PushAt(t int, values []float64) error {
	if len(values) != c.cfg.Metrics {
		return fmt.Errorf("pipeline: reading has %d metrics, schema %d", len(values), c.cfg.Metrics)
	}
	if c.cfg.Journal != nil && !c.replaying {
		if err := c.cfg.Journal.Append(wal.Record{T: int64(t), Values: values}); err != nil {
			return err
		}
	}
	eventsTotal.Inc()
	return c.win.PushAt(t, values)
}

// Flush drains the reordering buffer at end-of-stream, filling any
// remaining gaps. Flush is not journaled: replay reaches the same state
// by flushing after the last record.
func (c *Chain) Flush() error { return c.win.Flush() }

// window is the Windower's boundary callback and the decision loop:
// the GapAbstain gate, feature rendering, sanitation, prediction and
// the non-finite confidence abstention. Every completed window yields a
// diagnosis or an explicit abstention; feature vectors are sanitized so
// degraded windows (all-NaN or constant series) stay finite.
//
//albacheck:coldpath per-window work, stride-amortized over pushes
func (c *Chain) window(rows [][]float64, end int) error {
	defer obs.StartSpan(windowLatency).End()
	missing := stream.MissingFraction(rows)
	if c.cfg.Gap == stream.GapAbstain && missing > c.cfg.MaxMissing {
		return c.abstain(missing, end)
	}
	vec, err := c.cfg.Features.Vector(rows)
	if err != nil {
		return err
	}
	features.Sanitize(vec)
	label, conf, err := c.cfg.Predict.Predict(vec)
	if err != nil {
		return err
	}
	if math.IsNaN(conf) || math.IsInf(conf, 0) {
		return c.abstain(missing, end)
	}
	return c.cfg.Sink.Emit(stream.Diagnosis{
		Label: label, Confidence: conf,
		WindowEnd: end, MissingFrac: missing,
	})
}

// abstain emits the explicit refusal diagnosis for one window.
func (c *Chain) abstain(missing float64, end int) error {
	c.abstained++
	abstainedTotal.Inc()
	return c.cfg.Sink.Emit(stream.Diagnosis{
		Label: stream.AbstainLabel, Abstained: true,
		MissingFrac: missing, WindowEnd: end,
	})
}

// Committed reports how many rows have been committed to the window
// sequence.
func (c *Chain) Committed() int { return c.win.Committed() }

// PendingDepth reports how many accepted rows await commit in the
// reordering buffer — the journal's replay lag for this shard.
func (c *Chain) PendingDepth() int { return c.win.PendingDepth() }

// Stats returns the chain's delivery and diagnosis accounting.
func (c *Chain) Stats() stream.Stats {
	st := c.win.Stats()
	st.Abstained = c.abstained
	return st
}

// Reset clears windowing and accounting. The journal is left
// untouched.
func (c *Chain) Reset() {
	c.win.Reset()
	c.abstained = 0
}
