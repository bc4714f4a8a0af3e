package core

import (
	"math"
	"math/rand"
	"testing"

	"albadross/internal/active"
	"albadross/internal/dataset"
	"albadross/internal/features/mvts"
	"albadross/internal/ml/forest"
	"albadross/internal/telemetry"
	"albadross/internal/ts"
)

// TestPipelineSurvivesHeavyMissingness injects far more missing samples
// than the simulator's default and checks the pipeline still produces
// finite features.
func TestPipelineSurvivesHeavyMissingness(t *testing.T) {
	sys := telemetry.Volta(27)
	samples, err := sys.GenerateRun(telemetry.RunConfig{
		App: sys.App("MG"), Input: 0, Nodes: 1, Steps: 200, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := samples[0]
	// Knock out 30% of every series.
	rng := rand.New(rand.NewSource(4))
	for mi := range s.Data.Metrics {
		for ti := range s.Data.Metrics[mi] {
			if rng.Float64() < 0.3 {
				s.Data.Metrics[mi][ti] = math.NaN()
			}
		}
	}
	vec, err := RunVector(s, telemetry.CumulativeFlags(sys.Metrics), mvts.Extractor{})
	if err != nil {
		t.Fatal(err)
	}
	finite := 0
	for _, v := range vec {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			finite++
		}
	}
	if finite < len(vec)*8/10 {
		t.Fatalf("only %d/%d features finite after heavy missingness", finite, len(vec))
	}
}

// TestLoopSurvivesNoisyAnnotator checks the query loop tolerates an
// annotator that mislabels a fraction of queries — the realistic
// human-error case — without erroring or collapsing.
func TestLoopSurvivesNoisyAnnotator(t *testing.T) {
	d := tinyData(t, 10)
	split, err := dataset.MakeALSplit(d, dataset.ALSplitConfig{
		TestFraction: 0.3, AnomalyRatio: 0.10, HealthyClass: 0, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	prep, err := FitPreprocessor(d, append(append([]int{}, split.Initial...), split.Pool...), 60)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := prep.Transform(d)
	if err != nil {
		t.Fatal(err)
	}
	noisy := &noisyAnnotator{d: tr, rng: rand.New(rand.NewSource(6)), rate: 0.2}
	loop := &active.Loop{
		Factory:   forest.NewFactory(forest.Config{NEstimators: 10, MaxDepth: 6, Seed: 1}),
		Strategy:  active.Uncertainty{},
		Annotator: noisy,
		Seed:      7,
	}
	res, err := loop.Run(tr, split.Initial, split.Pool, tr.Subset(split.Test), active.RunConfig{MaxQueries: 20})
	if err != nil {
		t.Fatal(err)
	}
	last := res.Records[len(res.Records)-1]
	if last.F1 <= res.Records[0].F1-0.05 {
		t.Fatalf("20%% label noise should not collapse learning: %v -> %v",
			res.Records[0].F1, last.F1)
	}
	if noisy.typos == 0 {
		t.Fatal("noise was never injected; test is vacuous")
	}
}

type noisyAnnotator struct {
	d     *dataset.Dataset
	rng   *rand.Rand
	rate  float64
	typos int
}

func (n *noisyAnnotator) Label(i int) int {
	if n.rng.Float64() < n.rate {
		n.typos++
		return n.rng.Intn(len(n.d.Classes))
	}
	return n.d.Y[i]
}

// TestRunVectorRejectsRaggedBlock checks validation on malformed
// telemetry.
func TestRunVectorRejectsRaggedBlock(t *testing.T) {
	s := &telemetry.NodeSample{Data: &ts.Multivariate{Metrics: []ts.Series{
		make(ts.Series, 100),
		make(ts.Series, 50),
	}}}
	if _, err := RunVector(s, []bool{false, false}, mvts.Extractor{}); err == nil {
		t.Fatal("ragged telemetry should be rejected")
	}
}

// TestTransformRowWidthMismatch checks the deployment path rejects
// vectors of the wrong width instead of panicking.
func TestTransformRowWidthMismatch(t *testing.T) {
	d := tinyData(t, 4)
	idx := []int{0, 1, 2, 3, 4, 5, 6, 7}
	p, err := FitPreprocessor(d, idx, 20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.TransformRow([]float64{1, 2, 3}); err == nil {
		t.Fatal("short row should be rejected")
	}
}
