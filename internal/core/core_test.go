package core

import (
	"math"
	"reflect"
	"testing"

	"albadross/internal/active"
	"albadross/internal/dataset"
	"albadross/internal/features/mvts"
	"albadross/internal/hpas"
	"albadross/internal/ml/forest"
	"albadross/internal/telemetry"
)

// tinyData generates a small raw-feature dataset for pipeline tests.
func tinyData(t *testing.T, runs int) *dataset.Dataset {
	t.Helper()
	sys := telemetry.Volta(27)
	d, err := GenerateDataset(DataConfig{
		System:          sys,
		Extractor:       mvts.Extractor{},
		RunsPerAppInput: runs,
		Steps:           120,
		Seed:            1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRunVector(t *testing.T) {
	sys := telemetry.Volta(27)
	samples, err := sys.GenerateRun(telemetry.RunConfig{
		App: sys.App("CG"), Input: 0, Nodes: 1, Steps: 200, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := samples[0]
	before := s.Data.Steps()
	vec, err := RunVector(s, telemetry.CumulativeFlags(sys.Metrics), mvts.Extractor{})
	if err != nil {
		t.Fatal(err)
	}
	if width := len(sys.Metrics) * len(mvts.Extractor{}.FeatureNames()); len(vec) != width {
		t.Fatalf("vector width = %d, want %d", len(vec), width)
	}
	trim := telemetry.TransientSteps(before)
	want := before - 2*trim - 1 // trim both ends, differencing drops one
	if s.Data.Steps() != want {
		t.Fatalf("steps = %d, want %d", s.Data.Steps(), want)
	}
	for mi := range s.Data.Metrics {
		for _, v := range s.Data.Metrics[mi] {
			if math.IsNaN(v) {
				t.Fatal("NaN survived preprocessing")
			}
		}
	}
	if _, err := RunVector(nil, nil, mvts.Extractor{}); err == nil {
		t.Fatal("nil sample should error")
	}
}

func TestGenerateDatasetShapeAndCoverage(t *testing.T) {
	d := tinyData(t, 10)
	// 11 apps x 3 inputs x 10 runs x 4 nodes.
	if d.Len() != 11*3*10*4 {
		t.Fatalf("samples = %d, want %d", d.Len(), 11*3*10*4)
	}
	if len(d.Classes) != 6 {
		t.Fatalf("classes = %v", d.Classes)
	}
	// Every (app, anomaly) pair must appear (needed for the initial
	// labeled set).
	pairs := map[string]bool{}
	for i := range d.Meta {
		if d.Y[i] != 0 {
			pairs[d.Meta[i].App+"#"+d.Classes[d.Y[i]]] = true
		}
	}
	if len(pairs) != 11*5 {
		t.Fatalf("app-anomaly pairs covered = %d, want 55", len(pairs))
	}
	// Feature names present and consistent.
	if len(d.FeatureNames) != d.Dim() {
		t.Fatalf("%d names for %d features", len(d.FeatureNames), d.Dim())
	}
	// Anomalous samples only on node 0.
	for i := range d.Meta {
		if d.Y[i] != 0 && d.Meta[i].Node != 0 {
			t.Fatal("anomaly on a non-first node")
		}
	}
}

func TestGenerateDatasetValidation(t *testing.T) {
	if _, err := GenerateDataset(DataConfig{}); err == nil {
		t.Fatal("nil system should error")
	}
	if _, err := GenerateDataset(DataConfig{System: telemetry.Volta(27)}); err == nil {
		t.Fatal("nil extractor should error")
	}
	if _, err := GenerateDataset(DataConfig{System: telemetry.Volta(27), Extractor: mvts.Extractor{}, RunsPerAppInput: 0}); err == nil {
		t.Fatal("zero runs should error")
	}
}

// TestRunsDatasetEqualsGenerateDataset pins the two ways to build the
// campaign's dataset — streaming in GenerateDataset, or GenerateRuns
// then RunsDataset — bitwise to each other, and checks RunsDataset
// leaves the raw telemetry unconsumed.
func TestRunsDatasetEqualsGenerateDataset(t *testing.T) {
	for _, sys := range []*telemetry.SystemSpec{telemetry.Volta(9), telemetry.Eclipse(9)} {
		cfg := DataConfig{System: sys, Extractor: mvts.Extractor{}, RunsPerAppInput: 2, Steps: 60, Seed: 4, Workers: 2}
		want, err := GenerateDataset(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runs, err := GenerateRuns(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunsDataset(cfg, runs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.FeatureNames, want.FeatureNames) || !reflect.DeepEqual(got.Y, want.Y) ||
			!reflect.DeepEqual(got.Meta, want.Meta) || !reflect.DeepEqual(got.Classes, want.Classes) {
			t.Fatalf("%s: RunsDataset's names, labels, classes or provenance differ from GenerateDataset's", sys.Name)
		}
		for i := range want.X {
			if _, ok := sameBits(got.X[i], want.X[i]); !ok {
				t.Fatalf("%s: row %d differs", sys.Name, i)
			}
		}
		if runs[0].Data == nil || runs[0].Data.Steps() != 60 {
			t.Fatalf("%s: RunsDataset consumed the raw telemetry", sys.Name)
		}
	}
}

func TestPreprocessorPipeline(t *testing.T) {
	d := tinyData(t, 4)
	trainIdx := make([]int, 0, d.Len()/2)
	for i := 0; i < d.Len(); i += 2 {
		trainIdx = append(trainIdx, i)
	}
	p, err := FitPreprocessor(d, trainIdx, 50)
	if err != nil {
		t.Fatal(err)
	}
	if p.Dim() != 50 {
		t.Fatalf("dim = %d, want 50", p.Dim())
	}
	if len(p.Names) != 50 {
		t.Fatalf("names = %d", len(p.Names))
	}
	tr, err := p.Transform(d)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != d.Len() || tr.Dim() != 50 {
		t.Fatalf("transformed shape %dx%d", tr.Len(), tr.Dim())
	}
	// Training rows land in [0,1]; all rows in the clipped [-1,2].
	for _, i := range trainIdx {
		for _, v := range tr.X[i] {
			if v < 0 || v > 1 {
				t.Fatalf("train row value %v outside [0,1]", v)
			}
		}
	}
	for i := range tr.X {
		for _, v := range tr.X[i] {
			if v < -1 || v > 2 || math.IsNaN(v) {
				t.Fatalf("transformed value %v outside clip range", v)
			}
		}
	}
}

func TestFitPreprocessorValidation(t *testing.T) {
	d := tinyData(t, 2)
	if _, err := FitPreprocessor(d, nil, 10); err == nil {
		t.Fatal("empty train rows should error")
	}
	if _, err := FitPreprocessor(d, []int{0, 1}, 0); err == nil {
		t.Fatal("topK=0 should error")
	}
}

func TestFrameworkEndToEnd(t *testing.T) {
	d := tinyData(t, 10)
	fw, err := New(Config{
		TopK:       60,
		Factory:    forest.NewFactory(forest.Config{NEstimators: 12, MaxDepth: 8, Seed: 3}),
		Strategy:   active.Uncertainty{},
		MaxQueries: 25,
		Seed:       4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Fit(d); err != nil {
		t.Fatal(err)
	}
	recs := fw.Result.Records
	if len(recs) == 0 {
		t.Fatal("no trajectory")
	}
	first, last := recs[0], recs[len(recs)-1]
	if !(last.F1 > first.F1) {
		t.Fatalf("active learning did not improve F1: %v -> %v", first.F1, last.F1)
	}
	if !(last.FalseAlarmRate < first.FalseAlarmRate) {
		t.Fatalf("FAR did not drop: %v -> %v (initial model has never seen healthy)",
			first.FalseAlarmRate, last.FalseAlarmRate)
	}
	// Diagnose a raw vector through the deployment path.
	diag, err := fw.DiagnoseVector(d.X[0])
	if err != nil {
		t.Fatal(err)
	}
	if diag.Confidence <= 0 || diag.Confidence > 1 {
		t.Fatalf("confidence = %v", diag.Confidence)
	}
	found := false
	for _, c := range fw.Classes {
		if c == diag.Label {
			found = true
		}
	}
	if !found {
		t.Fatalf("diagnosis label %q not a known class", diag.Label)
	}
	if len(diag.Probs) != len(fw.Classes) {
		t.Fatal("probs length mismatch")
	}
}

func TestFrameworkDiagnoseRun(t *testing.T) {
	d := tinyData(t, 10)
	fw, err := New(Config{
		TopK:       40,
		Factory:    forest.NewFactory(forest.Config{NEstimators: 10, MaxDepth: 6, Seed: 5}),
		Strategy:   active.Margin{},
		MaxQueries: 15,
		Seed:       6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Fit(d); err != nil {
		t.Fatal(err)
	}
	// Fresh telemetry, online path.
	sys := telemetry.Volta(27)
	inj, _ := hpas.New(hpas.MemLeak)
	samples, err := sys.GenerateRun(telemetry.RunConfig{
		App: sys.App("Kripke"), Input: 0, Nodes: 2, Steps: 120,
		Injector: inj, Intensity: 1, AnomalyNode: 0, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	diag, err := fw.DiagnoseRun(samples[0], sys, mvtsExtractor())
	if err != nil {
		t.Fatal(err)
	}
	if diag.Label == "" {
		t.Fatal("empty diagnosis")
	}
	// The original sample must not be mutated by the online path.
	if samples[0].Data.Steps() != 120 {
		t.Fatal("DiagnoseRun mutated the caller's sample")
	}
}

func mvtsExtractor() mvts.Extractor { return mvts.Extractor{} }

func TestFrameworkValidation(t *testing.T) {
	if _, err := New(Config{Strategy: active.Random{}}); err == nil {
		t.Fatal("missing factory should error")
	}
	if _, err := New(Config{Factory: forest.NewFactory(forest.Config{})}); err == nil {
		t.Fatal("missing strategy should error")
	}
	fw, err := New(Config{
		Factory:  forest.NewFactory(forest.Config{NEstimators: 2}),
		Strategy: active.Random{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Fit(nil); err == nil {
		t.Fatal("nil dataset should error")
	}
	if _, err := fw.DiagnoseVector([]float64{1}); err == nil {
		t.Fatal("diagnose before fit should error")
	}
}
