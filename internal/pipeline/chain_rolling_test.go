package pipeline

import (
	"math"
	"math/rand"
	"testing"

	"albadross/internal/features"
	"albadross/internal/features/mvts"
	"albadross/internal/features/rolling"
	"albadross/internal/stream"
	"albadross/internal/telemetry"
)

// vecRecorder captures every feature vector handed to Diagnose. It
// keeps the previous vector itself — the predict stage owns what it is
// handed — and notes when the next one shares its backing array.
type vecRecorder struct {
	vecs    [][]float64
	last    []float64
	aliased bool
}

func (r *vecRecorder) diagnose(v []float64) (string, float64, error) {
	r.vecs = append(r.vecs, append([]float64(nil), v...))
	if r.last != nil && &r.last[0] == &v[0] {
		r.aliased = true
	}
	r.last = v
	return "healthy", 0.9, nil
}

// feedReadings pushes n synthetic readings (metric m at step i gets a
// mix of trend, periodicity and noise; cumulative metrics grow) and
// optionally blanks cells to NaN with probability pMiss.
func feedReadings(t *testing.T, s *testChain, schema []telemetry.Metric, n int, pMiss float64, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cum := telemetry.CumulativeFlags(schema)
	acc := make([]float64, len(schema))
	reading := make([]float64, len(schema))
	for i := 0; i < n; i++ {
		for m := range reading {
			v := 10*math.Sin(float64(i)/5+float64(m)) + rng.NormFloat64()
			if cum[m] {
				acc[m] += math.Abs(v)
				v = acc[m]
			}
			if pMiss > 0 && rng.Float64() < pMiss {
				v = math.NaN()
			}
			reading[m] = v
		}
		if _, err := s.push(reading); err != nil {
			t.Fatal(err)
		}
	}
}

// assertVecsClose compares two captured vector streams within tol
// relative to each value's magnitude (at least 1).
func assertVecsClose(t *testing.T, ctx string, got, want [][]float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d windows vs %d", ctx, len(got), len(want))
	}
	for w := range got {
		if len(got[w]) != len(want[w]) {
			t.Fatalf("%s: window %d: dim %d vs %d", ctx, w, len(got[w]), len(want[w]))
		}
		for j := range got[w] {
			a, b := got[w][j], want[w][j]
			scale := 1.0
			if x := math.Abs(a); x > scale {
				scale = x
			}
			if x := math.Abs(b); x > scale {
				scale = x
			}
			if math.Abs(a-b) > tol*scale {
				t.Fatalf("%s: window %d feature %d: rolling %v, batch %v", ctx, w, j, a, b)
			}
		}
	}
}

// TestRollingMatchesBatchOnCleanFeed is the chain-level golden test:
// on a gap-free feed the incremental path must reproduce the batch
// hold-last path within 1e-9 on every emitted window (with no missing
// cells the causal and per-window repairs are identical, so the only
// difference left is rolling-vs-scratch extraction).
func TestRollingMatchesBatchOnCleanFeed(t *testing.T) {
	schema := telemetry.BuildSchema(9)
	build := func(roll bool) (*testChain, *vecRecorder) {
		rec := &vecRecorder{}
		return mustTestChain(t, chainSpec{
			Schema:    schema,
			Extractor: rolling.Extractor{},
			Diagnose:  rec.diagnose,
			Window:    32,
			Stride:    8,
			Gap:       stream.GapHoldLast,
			Rolling:   roll,
		}), rec
	}
	sRoll, recRoll := build(true)
	sBatch, recBatch := build(false)
	feedReadings(t, sRoll, schema, 200, 0, 99)
	feedReadings(t, sBatch, schema, 200, 0, 99)
	if len(recRoll.vecs) == 0 {
		t.Fatal("no windows emitted")
	}
	assertVecsClose(t, "clean feed", recRoll.vecs, recBatch.vecs, 1e-9)
	// FeatureStage.Vector's ownership contract, for both stage kinds.
	if recRoll.aliased || recBatch.aliased {
		t.Fatalf("consecutive Vector calls share a backing array (rolling %v, batch %v)", recRoll.aliased, recBatch.aliased)
	}
}

// TestRollingWithGapsMatchesCausalReference checks the gappy case
// against an explicit causal reference: hold-last repair over the whole
// stream, per-step counter differencing, then from-scratch extraction
// over each emitted window of the prepared series.
func TestRollingWithGapsMatchesCausalReference(t *testing.T) {
	schema := telemetry.BuildSchema(6)
	rec := &vecRecorder{}
	window, stride := 24, 6
	s := mustTestChain(t, chainSpec{
		Schema:    schema,
		Extractor: rolling.Extractor{},
		Diagnose:  rec.diagnose,
		Window:    window,
		Stride:    stride,
		Gap:       stream.GapHoldLast,
		Rolling:   true,
	})
	// Replay the same pseudo-random feed twice: once into the chain,
	// once into the reference preparation below.
	const n, seed = 150, 1234
	feedReadings(t, s, schema, n, 0.15, seed)

	rng := rand.New(rand.NewSource(seed))
	cum := telemetry.CumulativeFlags(schema)
	acc := make([]float64, len(schema))
	raw := make([][]float64, len(schema)) // [metric][step]
	for i := 0; i < n; i++ {
		for m := range schema {
			v := 10*math.Sin(float64(i)/5+float64(m)) + rng.NormFloat64()
			if cum[m] {
				acc[m] += math.Abs(v)
				v = acc[m]
			}
			if rng.Float64() < 0.15 {
				v = math.NaN()
			}
			raw[m] = append(raw[m], v)
		}
	}
	// Causal preparation: hold-last from 0, then per-step diffs for
	// cumulative metrics; prepared[c] pairs raw steps (c, c+1).
	ext := rolling.Extractor{}
	per := len(ext.FeatureNames())
	prepared := make([][]float64, len(schema))
	for m := range raw {
		last := 0.0
		rep := make([]float64, n)
		for i, v := range raw[m] {
			if !math.IsNaN(v) {
				last = v
			}
			rep[i] = last
		}
		p := make([]float64, n-1)
		for i := 1; i < n; i++ {
			if cum[m] {
				d := rep[i] - rep[i-1]
				if d < 0 {
					d = 0
				}
				p[i-1] = d
			} else {
				p[i-1] = rep[i]
			}
		}
		prepared[m] = p
	}
	var want [][]float64
	for end := window; end <= n; end += stride {
		vec := make([]float64, 0, per*len(schema))
		for m := range schema {
			vec = append(vec, ext.Extract(prepared[m][end-window:end-1])...)
		}
		features.Sanitize(vec)
		want = append(want, vec)
	}
	assertVecsClose(t, "gappy feed", rec.vecs, want, 1e-9)
}

// TestRollingConfigValidation pins the two Rolling preconditions: an
// incremental extractor and a causal gap policy.
func TestRollingConfigValidation(t *testing.T) {
	schema := telemetry.BuildSchema(4)
	diag := func([]float64) (string, float64, error) { return "x", 1, nil }
	if _, err := newTestChain(chainSpec{
		Schema: schema, Extractor: mvts.Extractor{}, Diagnose: diag,
		Window: 16, Gap: stream.GapHoldLast, Rolling: true,
	}); err == nil {
		t.Fatal("Rolling with a non-incremental extractor must be rejected")
	}
	if _, err := newTestChain(chainSpec{
		Schema: schema, Extractor: rolling.Extractor{}, Diagnose: diag,
		Window: 16, Gap: stream.GapInterpolate, Rolling: true,
	}); err == nil {
		t.Fatal("Rolling with GapInterpolate must be rejected")
	}
	if _, err := newTestChain(chainSpec{
		Schema: schema, Extractor: rolling.Extractor{}, Diagnose: diag,
		Window: 16, Gap: stream.GapAbstain, Rolling: true,
	}); err != nil {
		t.Fatalf("Rolling with GapAbstain should work: %v", err)
	}
}

// TestRollingAbstainAndReset checks the abstain accounting and Reset
// still behave on the rolling path.
func TestRollingAbstainAndReset(t *testing.T) {
	schema := telemetry.BuildSchema(4)
	rec := &vecRecorder{}
	s := mustTestChain(t, chainSpec{
		Schema: schema, Extractor: rolling.Extractor{}, Diagnose: rec.diagnose,
		Window: 16, Stride: 16, Gap: stream.GapAbstain, MaxMissing: 0.3, Rolling: true,
	})
	reading := make([]float64, len(schema))
	for i := 0; i < 16; i++ {
		for m := range reading {
			reading[m] = math.NaN() // fully missing window
		}
		ds, derr := s.push(reading)
		if derr != nil {
			t.Fatal(derr)
		}
		if i == 15 {
			if len(ds) != 1 || !ds[0].Abstained {
				t.Fatalf("fully-missing window should abstain, got %+v", ds)
			}
		}
	}
	s.Reset()
	if s.Committed() != 0 {
		t.Fatalf("Committed after Reset = %d", s.Committed())
	}
	feedReadings(t, s, schema, 32, 0, 5)
	if got := s.Stats().Windows; got != 2 {
		t.Fatalf("windows after reset+refeed = %d, want 2", got)
	}
}
