package stream

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"albadross/internal/features/mvts"
	"albadross/internal/telemetry"
	"albadross/internal/ts"
)

// raceEnabled is set by race_test.go: sync.Pool drops a random share of
// Puts under the race detector, so allocation gates only hold without
// it (./verify.sh runs them in a separate, race-free step).
var raceEnabled bool

// windowRows draws a time-major window with a sprinkling of missing
// cells; every other metric is a cumulative counter.
func windowRows(rng *rand.Rand, nMetrics, steps int) ([][]float64, []telemetry.Metric) {
	schema := make([]telemetry.Metric, nMetrics)
	for m := range schema {
		schema[m] = telemetry.Metric{Name: fmt.Sprintf("m%d", m), Cumulative: m%2 == 1}
	}
	rows := make([][]float64, steps)
	level := make([]float64, nMetrics)
	for t := range rows {
		rows[t] = make([]float64, nMetrics)
		for m := range rows[t] {
			level[m] += rng.Float64() * float64(m+1)
			rows[t][m] = level[m]
			if rng.Intn(9) == 0 {
				rows[t][m] = math.NaN()
			}
		}
	}
	return rows, schema
}

// transpose builds a fresh metric-major block of rows.
func transpose(rows [][]float64) *ts.Multivariate {
	block := ts.NewMultivariate(len(rows[0]), len(rows))
	for t, row := range rows {
		for m, v := range row {
			block.Metrics[m][t] = v
		}
	}
	return block
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestBatchVectorEqualsBlockVector pins BatchVector to BlockVector over
// a freshly transposed block, bit for bit, under both repair policies —
// across a sequence of window shapes, so a pooled block that once held
// a wider, longer or shorter window must carry none of it into the
// next. BatchVector must also leave its rows untouched.
func TestBatchVectorEqualsBlockVector(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := [][2]int{{6, 16}, {3, 24}, {9, 8}, {6, 16}, {1, 2}, {12, 33}, {4, 5}}
	for _, gap := range []GapPolicy{GapInterpolate, GapHoldLast} {
		for _, shape := range shapes {
			rows, schema := windowRows(rng, shape[0], shape[1])
			fresh, err := BlockVector(transpose(rows), telemetry.CumulativeFlags(schema), gap, 0, mvts.Extractor{})
			if err != nil {
				t.Fatal(err)
			}
			before := make([][]float64, len(rows))
			for i, row := range rows {
				before[i] = append([]float64(nil), row...)
			}
			got, err := BatchVector(rows, schema, gap, mvts.Extractor{})
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(got, fresh) {
				t.Fatalf("gap %v, %d metrics x %d steps: BatchVector differs from BlockVector over a fresh block", gap, shape[0], shape[1])
			}
			for ti, row := range rows {
				if !sameBits(row, before[ti]) {
					t.Fatalf("gap %v: BatchVector wrote its rows", gap)
				}
			}
		}
	}
	if _, err := BatchVector([][]float64{{1, 2}}, []telemetry.Metric{{Name: "a"}, {Name: "b"}}, GapInterpolate, mvts.Extractor{}); err == nil {
		t.Fatal("a one-row window cannot be differenced and must be refused")
	}
}

// TestBatchVectorAllocatesOnlyItsResult is the steady-state gate: with
// the block and mvts scratch pools warm, a window allocates exactly the
// vector it returns.
func TestBatchVectorAllocatesOnlyItsResult(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	rows, schema := windowRows(rand.New(rand.NewSource(12)), 40, 64)
	if _, err := BatchVector(rows, schema, GapInterpolate, mvts.Extractor{}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := BatchVector(rows, schema, GapInterpolate, mvts.Extractor{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("warm BatchVector allocates %v times per window, want 1 (the returned vector)", allocs)
	}
}
