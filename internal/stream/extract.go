package stream

// Window feature extraction, shared by every consumer of completed
// windows (the internal/pipeline feature stages, the server's
// /api/diagnose window mode, the benchmark's traced replay). All of them must produce bitwise-identical vectors for the
// same committed rows — the record/replay golden fixture gates that —
// so the batch repair pipeline and the incremental rolling state live
// here, in exactly one place, instead of being reimplemented per
// consumer.

import (
	"math"

	"albadross/internal/features"
	"albadross/internal/telemetry"
	"albadross/internal/ts"
)

// MissingFraction reports the fraction of NaN cells across the rows of
// a completed window, before any repair.
func MissingFraction(rows [][]float64) float64 {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return 0
	}
	nan := 0
	for _, row := range rows {
		for _, v := range row {
			if math.IsNaN(v) {
				nan++
			}
		}
	}
	return float64(nan) / float64(len(rows)*len(rows[0]))
}

// BlockVector is the one window → raw feature vector step: it repairs,
// differences and feature-extracts one completed window held as a
// metric-major block. The gap policy fills missing cells (GapAbstain
// repairs like GapInterpolate — the abstention decision belongs to the
// caller), cumulative counters are differenced, and the extractor runs
// over every metric. block is consumed: repair and differencing rewrite
// its series. The result is freshly allocated and NOT sanitized; callers
// apply features.Sanitize so degraded windows stay finite.
func BlockVector(block *ts.Multivariate, schema []telemetry.Metric, gap GapPolicy, ex features.Extractor) ([]float64, error) {
	if gap == GapHoldLast {
		ts.HoldLastAll(block)
	} else {
		ts.InterpolateAll(block)
	}
	if err := ts.DiffCounters(block, telemetry.CumulativeFlags(schema)); err != nil {
		return nil, err
	}
	return features.ExtractSample(ex, block), nil
}

// BatchVector is BlockVector over the time-major rows of a window ring:
// the non-rolling window path. rows is only read.
func BatchVector(rows [][]float64, schema []telemetry.Metric, gap GapPolicy, ex features.Extractor) ([]float64, error) {
	nM := len(schema)
	block := ts.NewMultivariate(nM, len(rows))
	for t, row := range rows {
		for m := 0; m < nM; m++ {
			block.Metrics[m][t] = row[m]
		}
	}
	return BlockVector(block, schema, gap, ex)
}

// IncrementalState is the rolling-extraction state of one shard's
// stream: per-metric rolling windows over the causally-prepared series
// (stream-global hold-last repair plus per-step counter differencing).
// Observe advances it by one committed row; Vector renders the current
// feature vector. Window length per roller is window-1 because counter
// differencing consumes one sample — each roller holds exactly window-1
// prepared values when the raw ring holds window readings.
type IncrementalState struct {
	roll []features.Rolling
	per  int // features per metric
	// cum caches telemetry.CumulativeFlags(schema).
	cum []bool
	// lastRep is the last delivered (non-NaN) value per metric, the
	// causal hold-last repair source; starts at 0, matching
	// ts.HoldLast's all-missing fallback.
	lastRep []float64
	// prevRep is the previous repaired reading per metric, the
	// differencing base; valid once havePrev is set.
	prevRep  []float64
	havePrev bool
}

// NewIncrementalState builds rolling state for every metric of the
// schema over a raw window of the given length.
func NewIncrementalState(inc features.Incremental, schema []telemetry.Metric, window int) *IncrementalState {
	nM := len(schema)
	st := &IncrementalState{
		roll:    make([]features.Rolling, nM),
		per:     len(inc.FeatureNames()),
		cum:     telemetry.CumulativeFlags(schema),
		lastRep: make([]float64, nM),
		prevRep: make([]float64, nM),
	}
	for m := range st.roll {
		st.roll[m] = inc.NewRolling(window - 1)
	}
	return st
}

// Observe advances the state by one committed reading: causal hold-last
// repair, per-step counter differencing (d = max(0, x[t] - x[t-1]),
// identical to ts.DiffCounters), then one Push per metric roller. The
// first reading only seeds the differencing base.
func (st *IncrementalState) Observe(row []float64) {
	for m, v := range row {
		if math.IsNaN(v) {
			v = st.lastRep[m]
		} else {
			st.lastRep[m] = v
		}
		if st.havePrev {
			d := v
			if st.cum[m] {
				d = v - st.prevRep[m]
				if d < 0 {
					d = 0 // counter wrap/reset, as in ts.Diff
				}
			}
			st.roll[m].Push(d)
		}
		st.prevRep[m] = v
	}
	st.havePrev = true
}

// Vector renders the current feature vector from the per-metric
// rollers, concatenated in metric order like features.ExtractSample.
// The result is NOT sanitized.
func (st *IncrementalState) Vector() []float64 {
	vec := make([]float64, len(st.roll)*st.per)
	for m := range st.roll {
		st.roll[m].Features(vec[m*st.per : (m+1)*st.per])
	}
	return vec
}

// Reset empties every roller and the repair state without releasing
// buffers.
func (st *IncrementalState) Reset() {
	for m := range st.roll {
		st.roll[m].Reset()
	}
	for m := range st.lastRep {
		st.lastRep[m] = 0
		st.prevRep[m] = 0
	}
	st.havePrev = false
}
