// Package stream holds the shared seams of online, sliding-window
// anomaly diagnosis — the deployment mode of the paper's future work
// (Sec. VI): instead of diagnosing a completed application run, a
// deployed instance consumes the node's telemetry as it arrives and
// emits a diagnosis every stride while the application is still
// running.
//
// Production telemetry does not arrive clean: samples are lost, delivered
// twice, or delivered out of order. The Windower (window.go) accepts
// timestamped readings through a bounded reordering buffer that
// re-sequences late arrivals, drops duplicates, and synthesizes explicit
// gap rows for samples that never arrive. The extraction layer
// (extract.go) then applies the same preparation the offline pipeline
// uses on whole runs (repair of missing readings under a GapPolicy and
// differencing of cumulative counters — there are no init/teardown
// transients to trim inside a steady-state window) and extracts
// features from scratch over each completed window (BlockVector, or
// BatchVector over ring rows).
//
// The decision loop that composes them — abstain gate, feature vector,
// sanitation, prediction, non-finite-confidence abstention — lives in
// exactly one place, internal/pipeline.Chain; this package keeps only
// the pieces every consumer of that loop (the chain, the benchmark's
// traced replay) must share to stay bitwise identical, plus the result
// types they exchange.
package stream

import "fmt"

// AbstainLabel is the label of a window the decision loop declined to
// diagnose because too much telemetry was missing (GapAbstain policy) or
// the classifier returned a non-finite confidence.
const AbstainLabel = "abstain"

// GapPolicy selects how missing samples inside a window are repaired
// before feature extraction.
type GapPolicy int

const (
	// GapInterpolate linearly interpolates gaps (offline-pipeline
	// parity; the default).
	GapInterpolate GapPolicy = iota
	// GapHoldLast propagates the last finite reading forward — the
	// causal repair a live deployment can actually compute.
	GapHoldLast
	// GapAbstain interpolates when the window's missing fraction is at
	// most MaxMissing and otherwise emits an explicit abstain diagnosis
	// instead of guessing on mostly-absent data.
	GapAbstain
)

// String names the policy.
func (g GapPolicy) String() string {
	switch g {
	case GapInterpolate:
		return "interpolate"
	case GapHoldLast:
		return "hold-last"
	case GapAbstain:
		return "abstain"
	default:
		return fmt.Sprintf("gap-policy(%d)", int(g))
	}
}

// Diagnosis is the result of one completed window; the JSON shape is
// the one /api/ingest answers with and the replay golden fixture pins.
type Diagnosis struct {
	// Label is the diagnosed class, or AbstainLabel.
	Label string `json:"label"`
	// Confidence is the winning class probability (0 when abstained).
	Confidence float64 `json:"confidence"`
	// WindowEnd is the timestep index (since stream start) of the last
	// sample in the diagnosed window.
	WindowEnd int `json:"window_end"`
	// Abstained marks a window the decision loop refused to classify.
	Abstained bool `json:"abstained"`
	// MissingFrac is the fraction of window cells that were missing
	// before repair.
	MissingFrac float64 `json:"missing_frac"`
}

// Stats counts what one node stream absorbed from an imperfect feed.
type Stats struct {
	// Pushed counts readings accepted into the sequence (gap fills not
	// included).
	Pushed int
	// Duplicates counts readings dropped because their timestamp was
	// already delivered.
	Duplicates int
	// Late counts readings dropped because they arrived after their
	// slot had been committed (beyond the reorder horizon).
	Late int
	// Implausible counts readings dropped because their claimed
	// timestamp jumped more than MaxJump past the commit frontier
	// (corrupt clock or bit-flipped timestamp). The cap trades outage
	// length for corruption immunity: a feed resuming after a real gap
	// longer than MaxJump keeps being dropped (visible as a growing
	// Implausible count) until the stream is Reset or configured with a
	// larger cap.
	Implausible int
	// GapsFilled counts all-NaN rows synthesized for timestamps that
	// never arrived.
	GapsFilled int
	// Windows counts completed windows (diagnosed + abstained).
	Windows int
	// Abstained counts windows refused under GapAbstain or on a
	// non-finite classifier confidence.
	Abstained int
}
