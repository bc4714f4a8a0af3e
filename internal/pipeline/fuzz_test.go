package pipeline

import (
	"math"
	"testing"

	"albadross/internal/stream"
	"albadross/internal/telemetry"
)

// fuzzExtractor is a minimal features.Extractor: one mean feature per
// metric, cheap enough to run inside the fuzz loop.
type fuzzExtractor struct{}

func (fuzzExtractor) Name() string           { return "fuzzmean" }
func (fuzzExtractor) FeatureNames() []string { return []string{"mean"} }
func (fuzzExtractor) Append(dst, s []float64) []float64 {
	sum, n := 0.0, 0
	for _, v := range s {
		if !math.IsNaN(v) {
			sum += v
			n++
		}
	}
	if n == 0 {
		return append(dst, math.NaN())
	}
	return append(dst, sum/float64(n))
}

// FuzzPushAt drives the timestamped ingest path with arbitrary
// timestamp jumps, reorderings, duplicates and missing values, checking
// the chain's accounting invariants instead of exact outputs:
// every accepted call lands in exactly one of the pushed/duplicate/
// late/implausible counters, and the chain never panics or returns
// an unexpected error.
func FuzzPushAt(f *testing.F) {
	// Each reading is 3 bytes: signed timestamp delta, value seed, flags
	// (bit 0: NaN the first metric, bit 1: NaN the second).
	f.Add([]byte{1, 10, 0, 1, 20, 0, 1, 30, 0, 1, 40, 0})            // clean in-order feed
	f.Add([]byte{1, 10, 0, 0, 11, 0, 1, 12, 0})                      // duplicate timestamp
	f.Add([]byte{3, 10, 0, 253, 20, 0, 255, 30, 0})                  // reorder within horizon
	f.Add([]byte{1, 10, 0, 120, 20, 0, 1, 30, 0})                    // MaxJump overshoot
	f.Add([]byte{1, 10, 0, 246, 20, 0})                              // far-backward (late)
	f.Add([]byte{1, 10, 1, 1, 20, 2, 1, 30, 3, 1, 40, 3})            // missing cells
	f.Add([]byte{5, 1, 0, 255, 2, 0, 255, 3, 0, 255, 4, 0, 5, 5, 0}) // gap then backfill

	f.Fuzz(func(t *testing.T, data []byte) {
		st := mustTestChain(t, chainSpec{
			Schema: []telemetry.Metric{
				{Name: "m0"}, {Name: "m1", Cumulative: true},
			},
			Extractor: fuzzExtractor{},
			Diagnose: func(features []float64) (string, float64, error) {
				return "healthy", 0.9, nil
			},
			Window:  8,
			Stride:  4,
			Reorder: 3,
			MaxJump: 40,
		})
		ts := 0
		for i := 0; i+2 < len(data); i += 3 {
			ts += int(int8(data[i]))
			v := float64(data[i+1])
			vals := []float64{v, v * 2}
			if data[i+2]&1 != 0 {
				vals[0] = math.NaN()
			}
			if data[i+2]&2 != 0 {
				vals[1] = math.NaN()
			}
			before := st.Stats()
			beforeAccounted := before.Pushed + before.Duplicates + before.Late + before.Implausible
			diags, err := st.pushAt(ts, vals)
			if err != nil {
				t.Fatalf("PushAt(%d, %v) after %d readings: %v", ts, vals, i/3, err)
			}
			after := st.Stats()
			afterAccounted := after.Pushed + after.Duplicates + after.Late + after.Implausible
			if afterAccounted != beforeAccounted+1 {
				t.Fatalf("PushAt(%d) accounted for %d readings, want exactly 1 (stats %+v -> %+v)",
					ts, afterAccounted-beforeAccounted, before, after)
			}
			for _, d := range diags {
				if d.Abstained != (d.Label == stream.AbstainLabel) {
					t.Fatalf("abstain flag and label disagree: %+v", d)
				}
				if !d.Abstained {
					if d.Label == "" {
						t.Fatalf("diagnosed window with empty label: %+v", d)
					}
					if math.IsNaN(d.Confidence) || math.IsInf(d.Confidence, 0) {
						t.Fatalf("non-finite confidence: %+v", d)
					}
				}
				if d.MissingFrac < 0 || d.MissingFrac > 1 {
					t.Fatalf("MissingFrac %v outside [0,1]", d.MissingFrac)
				}
			}
			// The commit frontier never retreats and gap synthesis stays
			// bounded by MaxJump per accepted reading.
			if after.GapsFilled < before.GapsFilled {
				t.Fatalf("GapsFilled went backward: %d -> %d", before.GapsFilled, after.GapsFilled)
			}
			if grew := after.GapsFilled - before.GapsFilled; grew > 40+3 {
				t.Fatalf("one PushAt synthesized %d gap rows, above the MaxJump+Reorder bound", grew)
			}
		}
	})
}
