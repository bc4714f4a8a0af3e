package stream

// Window feature extraction, shared by every consumer of completed
// windows: the internal/pipeline feature stage, the server's
// /api/diagnose window mode and the benchmark's traced replay. All of
// them must produce bitwise-identical vectors for the same committed
// rows — the record/replay golden fixture gates that — so the repair →
// difference → extract sequence lives here, in exactly one place,
// instead of being reimplemented per consumer.

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

// BatchVector is BlockVector over the time-major rows of a window
// ring. rows is only read.
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
