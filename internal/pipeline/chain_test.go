package pipeline

import (
	"errors"
	"math"
	"testing"

	"albadross/internal/features/mvts"
	"albadross/internal/stream"
	"albadross/internal/telemetry"
)

func newChain(t *testing.T, window, stride int) (*testChain, *countingDiagnoser, []telemetry.Metric) {
	t.Helper()
	schema := telemetry.BuildSchema(27)
	cd := &countingDiagnoser{}
	c := mustTestChain(t, chainSpec{
		Schema:    schema,
		Extractor: mvts.Extractor{},
		Diagnose:  cd.diagnose,
		Window:    window,
		Stride:    stride,
	})
	return c, cd, schema
}

func TestChainEmitsPerStride(t *testing.T) {
	c, cd, schema := newChain(t, 20, 10)
	reading := make([]float64, len(schema))
	emitted := 0
	for i := 0; i < 60; i++ {
		for m := range reading {
			reading[m] = float64(i + m)
		}
		ds, err := c.push(reading)
		if err != nil {
			t.Fatal(err)
		}
		if len(ds) > 1 {
			t.Fatalf("one in-order push emitted %d diagnoses", len(ds))
		}
		for _, d := range ds {
			emitted++
			if d.Label != "healthy" || d.Confidence != 0.9 {
				t.Fatalf("bad diagnosis: %+v", d)
			}
			if d.WindowEnd != i {
				t.Fatalf("window end = %d, want %d", d.WindowEnd, i)
			}
		}
	}
	// First window completes at sample 20, then every 10: 20,30,40,50,60 -> 5 by 60 samples.
	if emitted != 5 {
		t.Fatalf("emitted = %d, want 5", emitted)
	}
	if cd.calls != emitted {
		t.Fatalf("diagnose calls = %d", cd.calls)
	}
	// Feature vector has 48 features per metric.
	if cd.dims[0] != 48*len(schema) {
		t.Fatalf("feature dim = %d", cd.dims[0])
	}
	// FeatureStage.Vector's ownership contract: fresh per call.
	if cd.aliased {
		t.Fatal("consecutive Vector calls share a backing array")
	}
}

func TestChainTumblingDefault(t *testing.T) {
	c, cd, schema := newChain(t, 16, 0)
	reading := make([]float64, len(schema))
	for i := 0; i < 48; i++ {
		if _, err := c.push(reading); err != nil {
			t.Fatal(err)
		}
	}
	if cd.calls != 3 {
		t.Fatalf("tumbling windows: %d diagnoses, want 3", cd.calls)
	}
}

func TestChainHandlesMissingReadings(t *testing.T) {
	c, cd, schema := newChain(t, 16, 16)
	reading := make([]float64, len(schema))
	for i := 0; i < 16; i++ {
		for m := range reading {
			if (i+m)%5 == 0 {
				reading[m] = math.NaN()
			} else {
				reading[m] = float64(i)
			}
		}
		if _, err := c.push(reading); err != nil {
			t.Fatal(err)
		}
	}
	if cd.calls != 1 {
		t.Fatalf("calls = %d", cd.calls)
	}
}

func TestChainValidation(t *testing.T) {
	schema := telemetry.BuildSchema(27)
	diag := func([]float64) (string, float64, error) { return "", 0, nil }
	if _, err := newTestChain(chainSpec{Extractor: mvts.Extractor{}, Diagnose: diag, Window: 16}); err == nil {
		t.Fatal("empty schema should error")
	}
	if _, err := NewChain(ChainConfig{Metrics: len(schema), Window: 16}); err == nil {
		t.Fatal("missing feature/predict stages and sink should error")
	}
	if _, err := newTestChain(chainSpec{Schema: schema, Extractor: mvts.Extractor{}, Window: 16}); err == nil {
		t.Fatal("missing predictor should error")
	}
	if _, err := newTestChain(chainSpec{Schema: schema, Extractor: mvts.Extractor{}, Diagnose: diag, Window: 2}); err == nil {
		t.Fatal("tiny window should error")
	}
	if _, err := newTestChain(chainSpec{Schema: schema, Extractor: mvts.Extractor{}, Diagnose: diag, Window: 16, MaxMissing: 1.5}); err == nil {
		t.Fatal("MaxMissing outside [0,1] should error")
	}
	c, _, _ := newChain(t, 16, 8)
	if _, err := c.push([]float64{1, 2}); err == nil {
		t.Fatal("wrong reading width should error")
	}
}

// TestChainOverGeneratedRun feeds a simulated node run through a chain
// sample by sample — the way a deployment is validated against
// recorded telemetry.
func TestChainOverGeneratedRun(t *testing.T) {
	sys := telemetry.Volta(27)
	samples, err := sys.GenerateRun(telemetry.RunConfig{
		App: sys.App("CG"), Input: 0, Nodes: 1, Steps: 200, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	cd := &countingDiagnoser{}
	c := mustTestChain(t, chainSpec{
		Schema:    sys.Metrics,
		Extractor: mvts.Extractor{},
		Diagnose:  cd.diagnose,
		Window:    50,
		Stride:    25,
	})
	data := samples[0].Data
	reading := make([]float64, len(data.Metrics))
	for step := 0; step < data.Steps(); step++ {
		for m := range data.Metrics {
			reading[m] = data.Metrics[m][step]
		}
		if _, err := c.push(reading); err != nil {
			t.Fatal(err)
		}
	}
	out := c.sink.Diagnoses
	// Windows complete at samples 50, 75, 100, ..., 200 -> 7 diagnoses.
	if len(out) != 7 {
		t.Fatalf("diagnoses = %d, want 7", len(out))
	}
	if out[0].WindowEnd != 49 || out[1].WindowEnd != 74 {
		t.Fatalf("window ends: %d, %d", out[0].WindowEnd, out[1].WindowEnd)
	}
}

// errSink fails every Emit.
type errSink struct{ err error }

func (s errSink) Emit(stream.Diagnosis) error { return s.err }

// TestChainDecisionEdges pins the edges of the one decision sequence:
// the abstain gate is strict (missing == MaxMissing still diagnoses),
// a non-finite confidence abstains, and predictor and sink failures
// abort the push that completed the window.
func TestChainDecisionEdges(t *testing.T) {
	schema := []telemetry.Metric{{Name: "a"}, {Name: "b"}, {Name: "c"}, {Name: "d", Cumulative: true}}
	const window = 8 // 32 cells per window
	boom := errors.New("boom")
	healthy := func([]float64) (string, float64, error) { return "healthy", 0.9, nil }
	cases := []struct {
		name        string
		missingRows int // leading all-NaN rows: missing fraction = missingRows/window
		maxMissing  float64
		predict     PredictFunc
		sink        Sink // nil: collect
		wantErr     error
		wantAbstain bool // the emitted diagnosis is an abstention
		wantCalls   int  // predictor invocations
	}{
		{name: "missing equals MaxMissing diagnoses", missingRows: 2, maxMissing: 0.25, predict: healthy, wantCalls: 1},
		{name: "missing just above MaxMissing abstains", missingRows: 3, maxMissing: 0.25, predict: healthy, wantAbstain: true},
		{name: "NaN confidence abstains", maxMissing: 0.25, wantAbstain: true, wantCalls: 1,
			predict: func([]float64) (string, float64, error) { return "cpuoccupy", math.NaN(), nil }},
		{name: "infinite confidence abstains", maxMissing: 0.25, wantAbstain: true, wantCalls: 1,
			predict: func([]float64) (string, float64, error) { return "cpuoccupy", math.Inf(1), nil }},
		{name: "predict error propagates", maxMissing: 0.25, wantErr: boom, wantCalls: 1,
			predict: func([]float64) (string, float64, error) { return "", 0, boom }},
		{name: "sink error aborts the push", maxMissing: 0.25, predict: healthy, sink: errSink{boom}, wantErr: boom, wantCalls: 1},
		{name: "sink error aborts an abstention too", missingRows: 8, maxMissing: 0.25, predict: healthy, sink: errSink{boom}, wantErr: boom},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			calls := 0
			collect := &Collector{}
			sink := tc.sink
			if sink == nil {
				sink = collect
			}
			c, err := chainSpec{
				Schema: schema, Extractor: mvts.Extractor{}, Window: window,
				Gap: stream.GapAbstain, MaxMissing: tc.maxMissing,
			}.chain(PredictFunc(func(v []float64) (string, float64, error) {
				calls++
				for _, x := range v {
					if math.IsNaN(x) || math.IsInf(x, 0) {
						t.Errorf("unsanitized feature %v reached the predictor", x)
					}
				}
				return tc.predict(v)
			}), sink, nil)
			if err != nil {
				t.Fatal(err)
			}
			var pushErr error
			for i := 0; i < window; i++ {
				row := []float64{float64(i), 1, float64(i % 3), 2}
				if i < tc.missingRows {
					for m := range row {
						row[m] = math.NaN()
					}
				}
				if pushErr = c.PushAt(i, row); pushErr != nil {
					if i != window-1 {
						t.Fatalf("push %d failed before the window boundary: %v", i, pushErr)
					}
				}
			}
			if !errors.Is(pushErr, tc.wantErr) {
				t.Fatalf("closing push returned %v, want %v", pushErr, tc.wantErr)
			}
			if calls != tc.wantCalls {
				t.Fatalf("predictor called %d times, want %d", calls, tc.wantCalls)
			}
			st := c.Stats()
			if st.Windows != 1 {
				t.Fatalf("windows = %d, want 1", st.Windows)
			}
			// The gate counts an abstention before the sink sees it.
			if gated := float64(tc.missingRows)/window > tc.maxMissing; (st.Abstained == 1) != (tc.wantAbstain || gated) {
				t.Fatalf("stats.Abstained = %d (gated %v, want abstain %v)", st.Abstained, gated, tc.wantAbstain)
			}
			if tc.wantErr != nil {
				if len(collect.Diagnoses) != 0 {
					t.Fatalf("a failed window still emitted %+v", collect.Diagnoses)
				}
				return
			}
			if len(collect.Diagnoses) != 1 {
				t.Fatalf("emitted %d diagnoses, want 1", len(collect.Diagnoses))
			}
			d := collect.Diagnoses[0]
			wantMissing := float64(tc.missingRows) / window
			if d.MissingFrac != wantMissing || d.WindowEnd != window-1 {
				t.Fatalf("diagnosis %+v, want missing %v ending at %d", d, wantMissing, window-1)
			}
			if d.Abstained != tc.wantAbstain {
				t.Fatalf("abstained = %v, want %v: %+v", d.Abstained, tc.wantAbstain, d)
			}
			if tc.wantAbstain && (d.Label != stream.AbstainLabel || d.Confidence != 0) {
				t.Fatalf("abstention carries label %q confidence %v", d.Label, d.Confidence)
			}
			if !tc.wantAbstain && (d.Label != "healthy" || d.Confidence != 0.9) {
				t.Fatalf("diagnosis = %+v", d)
			}
		})
	}
}
