package active

import (
	"math/rand"
	"testing"

	"albadross/internal/ml"
	"albadross/internal/ml/forest"
	"albadross/internal/telemetry"
)

// splitCommittee is a two-member committee disagreeing only on sample 1.
type splitCommittee struct{}

func (splitCommittee) Fit([][]float64, []int, int) error { return nil }
func (splitCommittee) NumClasses() int                   { return 2 }
func (splitCommittee) PredictProba(x []float64) []float64 {
	return []float64{0.5, 0.5}
}
func (splitCommittee) MemberProbas(x []float64) [][]float64 {
	if x[0] == 1 {
		// Members disagree: one votes class 0, the other class 1.
		return [][]float64{{0.9, 0.1}, {0.1, 0.9}}
	}
	// Unanimous.
	return [][]float64{{0.9, 0.1}, {0.8, 0.2}}
}

func TestQueryByCommitteePicksDisagreement(t *testing.T) {
	poolX := [][]float64{{0}, {1}, {2}}
	probs := [][]float64{{0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}}
	ctx := &QueryContext{
		Probs: probs, PoolX: poolX,
		Meta:  make([]telemetry.RunMeta, 3),
		Rng:   rand.New(rand.NewSource(1)),
		Model: splitCommittee{},
	}
	if got := (QueryByCommittee{}).Next(ctx); got != 1 {
		t.Fatalf("picked %d, want the disagreement sample 1", got)
	}
}

// flatModel is not a Committee: the strategy must fall back to entropy.
type flatModel struct{}

func (flatModel) Fit([][]float64, []int, int) error { return nil }
func (flatModel) NumClasses() int                   { return 2 }
func (flatModel) PredictProba([]float64) []float64  { return []float64{0.5, 0.5} }

func TestQueryByCommitteeFallsBackToEntropy(t *testing.T) {
	probs := [][]float64{{0.95, 0.05}, {0.5, 0.5}}
	ctx := &QueryContext{
		Probs: probs,
		PoolX: [][]float64{{0}, {1}},
		Meta:  make([]telemetry.RunMeta, 2),
		Rng:   rand.New(rand.NewSource(2)),
		Model: flatModel{},
	}
	if got := (QueryByCommittee{}).Next(ctx); got != 1 {
		t.Fatalf("entropy fallback picked %d, want 1", got)
	}
}

func TestQueryByCommitteeInLoopWithForest(t *testing.T) {
	d, initial, pool, test := buildALProblem(t, 91)
	loop := &Loop{
		Factory:   forest.NewFactory(forest.Config{NEstimators: 10, MaxDepth: 5, Seed: 1}),
		Strategy:  QueryByCommittee{},
		Annotator: Oracle{D: d},
		Seed:      92,
	}
	res, err := loop.Run(d, initial, pool, test, RunConfig{MaxQueries: 15})
	if err != nil {
		t.Fatal(err)
	}
	first, last := res.Records[0], res.Records[len(res.Records)-1]
	if !(last.F1 >= first.F1) {
		t.Fatalf("QBC degraded F1: %v -> %v", first.F1, last.F1)
	}
}

// TestQueryByCommitteeWorkerParity asserts the parallel pool scan picks
// the same sample as the serial one: scores are computed per cell and
// the argmax stays a serial first-max scan.
func TestQueryByCommitteeWorkerParity(t *testing.T) {
	d, initial, pool, _ := buildALProblem(t, 191)
	f := forest.New(forest.Config{NEstimators: 12, MaxDepth: 5, Seed: 5})
	var x [][]float64
	var y []int
	for _, i := range initial {
		x = append(x, d.X[i])
		y = append(y, d.Y[i])
	}
	if err := f.Fit(x, y, len(d.Classes)); err != nil {
		t.Fatal(err)
	}
	poolX := make([][]float64, len(pool))
	for k, i := range pool {
		poolX[k] = d.X[i]
	}
	ctx := &QueryContext{
		PoolX: poolX,
		Meta:  make([]telemetry.RunMeta, len(pool)),
		Rng:   rand.New(rand.NewSource(7)),
		Model: f,
	}
	want := (QueryByCommittee{Workers: 1}).Next(ctx)
	for _, workers := range []int{0, 2, 8} {
		if got := (QueryByCommittee{Workers: workers}).Next(ctx); got != want {
			t.Fatalf("Workers=%d picked %d, Workers=1 picked %d", workers, got, want)
		}
	}
}

func TestForestIsACommittee(t *testing.T) {
	var _ Committee = &forest.Forest{}
	var _ ml.Classifier = &forest.Forest{}
	s, ok := ByName("committee")
	if !ok || s.Name() != "committee" {
		t.Fatal("committee strategy not registered")
	}
	if !s.NeedsProbs() {
		t.Fatal("committee should request probs for its fallback")
	}
	if ma, ok := s.(ModelAware); !ok || !ma.NeedsModel() {
		t.Fatal("committee should request the model")
	}
}
