package stream

// Telemetry → raw feature vector, shared by every consumer: training
// runs (core.RunVector), the internal/pipeline feature stage, the
// server's /api/diagnose window mode and the benchmark's traced replay.
// A deployed model is only right if each served window is prepared the
// way its training runs were, and the record/replay golden fixture gates
// bitwise-identical vectors for the same committed rows, so the repair →
// trim → difference → extract sequence lives here, in exactly one place,
// instead of being reimplemented per consumer.

import (
	"math"
	"sync"

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

// BlockVector is the one telemetry → raw feature vector step: it
// repairs, trims, differences and feature-extracts one metric-major
// block, in that order. The gap policy fills missing cells (GapAbstain
// repairs like GapInterpolate — the abstention decision belongs to the
// caller); trim samples then come off each end (a whole run's
// init/teardown transients; windows pass 0); the metrics flagged
// cumulative (telemetry.CumulativeFlags builds the mask from a schema)
// are differenced; and the extractor runs over every metric. Repairing
// before trimming lets a gap at the first kept step interpolate from
// the transient it borders. block is consumed: repair, trimming and
// differencing rewrite its series in place, and it is left holding the
// prepared series. The result is freshly allocated, owned by the caller,
// and NOT sanitized; callers apply features.Sanitize so degraded windows
// stay finite.
func BlockVector(block *ts.Multivariate, cumulative []bool, gap GapPolicy, trim int, ex features.Extractor) ([]float64, error) {
	if gap == GapHoldLast {
		ts.HoldLastAll(block)
	} else {
		ts.InterpolateAll(block)
	}
	if err := ts.Trim(block, trim, trim); err != nil {
		return nil, err
	}
	if err := ts.DiffCounters(block, cumulative); err != nil {
		return nil, err
	}
	return features.ExtractSample(ex, block), nil
}

// BatchVector is BlockVector over the time-major rows of a window
// ring. rows is only read; the metric-major block they are transposed
// into comes from a pool and goes back to it once the vector is
// extracted, so the one allocation per window is the returned vector.
func BatchVector(rows [][]float64, schema []telemetry.Metric, gap GapPolicy, ex features.Extractor) ([]float64, error) {
	pb := blockPool.Get().(*pooledBlock)
	defer blockPool.Put(pb)
	block := pb.shape(schema, len(rows))
	for t, row := range rows {
		for m, series := range block.Metrics {
			series[t] = row[m]
		}
	}
	return BlockVector(block, pb.cumulative, gap, 0, ex)
}

// blockPool recycles BatchVector's blocks across windows (and across
// the nodes a shard worker serves in turn). The transpose rewrites every
// cell of the shaped block, so nothing carries over from the previous
// window, whatever its metric count or length.
var blockPool = sync.Pool{New: func() any { return new(pooledBlock) }}

// pooledBlock is one metric-major block over a single flat buffer, and
// the schema's cumulative mask.
type pooledBlock struct {
	buf        []float64
	block      ts.Multivariate
	cumulative []bool
}

// shape lays one series per schema metric, of the given length, over
// the buffer, growing it only past the largest window it has held, and
// fills the cumulative mask. Repair and counter differencing rewrite the
// series headers in place, so they are re-laid on every use.
func (pb *pooledBlock) shape(schema []telemetry.Metric, steps int) *ts.Multivariate {
	nMetrics := len(schema)
	if cap(pb.cumulative) < nMetrics {
		pb.cumulative = make([]bool, nMetrics)
	}
	pb.cumulative = pb.cumulative[:nMetrics]
	for m, metric := range schema {
		pb.cumulative[m] = metric.Cumulative
	}
	if cap(pb.buf) < nMetrics*steps {
		pb.buf = make([]float64, nMetrics*steps)
	}
	if cap(pb.block.Metrics) < nMetrics {
		pb.block.Metrics = make([]ts.Series, nMetrics)
	}
	pb.block.Metrics = pb.block.Metrics[:nMetrics]
	for m := range pb.block.Metrics {
		pb.block.Metrics[m] = pb.buf[m*steps : (m+1)*steps : (m+1)*steps]
	}
	return &pb.block
}
