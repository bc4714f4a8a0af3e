package active

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"albadross/internal/ml"
	"albadross/internal/ml/forest"
	"albadross/internal/ml/linear"
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

// TestTrainedCommitteeWorkerParity asserts member training is identical
// for any worker count: each member's bootstrap rng is seeded purely
// from its index.
func TestTrainedCommitteeWorkerParity(t *testing.T) {
	d, initial, _, _ := buildALProblem(t, 192)
	var x [][]float64
	var y []int
	for _, i := range initial {
		x = append(x, d.X[i])
		y = append(y, d.Y[i])
	}
	fit := func(workers int) *TrainedCommittee {
		c := NewCommittee(
			forest.NewFactory(forest.Config{NEstimators: 5, MaxDepth: 4, Seed: 3}),
			CommitteeConfig{Members: 4, Workers: workers, Seed: 55},
		)
		if err := c.Fit(x, y, len(d.Classes)); err != nil {
			t.Fatal(err)
		}
		return c
	}
	ref := fit(1)
	for _, workers := range []int{0, 8} {
		got := fit(workers)
		for _, row := range x {
			rp, gp := ref.MemberProbas(row), got.MemberProbas(row)
			for m := range rp {
				for c := range rp[m] {
					if rp[m][c] != gp[m][c] {
						t.Fatalf("Workers=%d: member %d class %d proba %v, want %v (bitwise)",
							workers, m, c, gp[m][c], rp[m][c])
					}
				}
			}
		}
	}
}

// TestTrainedCommitteeWithNonEnsembleModel runs query-by-committee over
// logistic-regression members — a model with no committee of its own —
// end to end through the loop.
func TestTrainedCommitteeWithNonEnsembleModel(t *testing.T) {
	d, initial, pool, test := buildALProblem(t, 193)
	loop := &Loop{
		Factory: NewCommitteeFactory(
			linear.NewFactory(linear.Config{C: 1, MaxIter: 40}),
			CommitteeConfig{Members: 3, Seed: 31},
		),
		Strategy:  QueryByCommittee{},
		Annotator: Oracle{D: d},
		Seed:      94,
	}
	res, err := loop.Run(d, initial, pool, test, RunConfig{MaxQueries: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 9 {
		t.Fatalf("expected 9 records, got %d", len(res.Records))
	}
	cm, ok := res.Model.(*TrainedCommittee)
	if !ok {
		t.Fatalf("final model is %T, want *TrainedCommittee", res.Model)
	}
	if len(cm.Members) != 3 {
		t.Fatalf("committee kept %d members, want 3", len(cm.Members))
	}
	p := cm.PredictProba(d.X[0])
	sum := 0.0
	for _, v := range p {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("soft vote is not a distribution: %v", p)
	}
}

// failingClassifier errors from Fit, for exercising the committee's
// member-training error path.
type failingClassifier struct{}

func (failingClassifier) Fit([][]float64, []int, int) error {
	return errFailingFit
}
func (failingClassifier) NumClasses() int                    { return 0 }
func (failingClassifier) PredictProba(x []float64) []float64 { return nil }

var errFailingFit = fmt.Errorf("synthetic fit failure")

// TestTrainedCommitteeEdgeCases pins the committee's defaulting and
// error behavior: Members defaults to 5, invalid training input and a
// failing member both surface errors, NumClasses reflects the fit, and
// predicting before Fit panics.
func TestTrainedCommitteeEdgeCases(t *testing.T) {
	c := NewCommittee(
		forest.NewFactory(forest.Config{NEstimators: 2, MaxDepth: 2, Seed: 1}),
		CommitteeConfig{Seed: 7},
	)
	if c.Cfg.Members != 5 {
		t.Fatalf("Members defaulted to %d, want 5", c.Cfg.Members)
	}
	if c.NumClasses() != 0 {
		t.Fatalf("NumClasses before Fit = %d, want 0", c.NumClasses())
	}
	if err := c.Fit(nil, nil, 2); err == nil {
		t.Fatal("Fit with no samples should error")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("PredictProba before Fit should panic")
			}
		}()
		c.PredictProba([]float64{0})
	}()
	x := [][]float64{{0, 1}, {1, 0}, {0.2, 0.8}, {0.9, 0.1}}
	y := []int{0, 1, 0, 1}
	if err := c.Fit(x, y, 2); err != nil {
		t.Fatal(err)
	}
	if c.NumClasses() != 2 {
		t.Fatalf("NumClasses after Fit = %d, want 2", c.NumClasses())
	}
	bad := NewCommittee(
		func() ml.Classifier { return failingClassifier{} },
		CommitteeConfig{Members: 2, Seed: 7},
	)
	if err := bad.Fit(x, y, 2); err == nil || !strings.Contains(err.Error(), "committee member") {
		t.Fatalf("failing member should surface a wrapped error, got %v", err)
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
