package active

import (
	"math"
	"math/rand"
	"testing"

	"albadross/internal/dataset"
	"albadross/internal/ml/forest"
	"albadross/internal/telemetry"
)

func TestUncertaintyPicksExample(t *testing.T) {
	// The worked example from Sec. III-D of the paper.
	probs := [][]float64{
		{0.1, 0.85, 0.05},
		{0.6, 0.3, 0.1},
		{0.39, 0.61, 0.0},
	}
	ctx := &QueryContext{Probs: probs, Meta: make([]telemetry.RunMeta, 3)}
	if got := (Uncertainty{}).Next(ctx); got != 1 {
		t.Fatalf("uncertainty picked %d, paper says sample 2 (index 1)", got)
	}
	if got := (Margin{}).Next(ctx); got != 2 {
		t.Fatalf("margin picked %d, paper says sample 3 (index 2)", got)
	}
	if got := (Entropy{}).Next(ctx); got != 1 {
		t.Fatalf("entropy picked %d, paper's H = [0.52, 0.90, 0.67] peaks at sample 2 (index 1)", got)
	}
}

func TestStrategyFlags(t *testing.T) {
	for _, s := range []Strategy{Uncertainty{}, Margin{}, Entropy{}} {
		if !s.NeedsProbs() {
			t.Fatalf("%s should need probabilities", s.Name())
		}
	}
	for _, s := range []Strategy{Random{}, EqualApp{}} {
		if s.NeedsProbs() {
			t.Fatalf("%s should not need probabilities", s.Name())
		}
	}
}

func TestByName(t *testing.T) {
	for _, n := range StrategyNames() {
		s, ok := ByName(n)
		if !ok || s.Name() != n {
			t.Fatalf("ByName(%q) failed", n)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("unknown strategy should fail")
	}
}

func TestRandomUsesRng(t *testing.T) {
	meta := make([]telemetry.RunMeta, 50)
	rng := rand.New(rand.NewSource(1))
	seen := map[int]bool{}
	for q := 0; q < 30; q++ {
		ctx := &QueryContext{Meta: meta, Rng: rng, Query: q}
		seen[(Random{}).Next(ctx)] = true
	}
	if len(seen) < 10 {
		t.Fatalf("random strategy hit only %d distinct positions", len(seen))
	}
}

func TestEqualAppRotates(t *testing.T) {
	meta := []telemetry.RunMeta{
		{App: "BT"}, {App: "CG"}, {App: "BT"}, {App: "FT"}, {App: "CG"},
	}
	rng := rand.New(rand.NewSource(2))
	s := EqualApp{}
	// Rotation order is sorted: BT, CG, FT.
	wantApps := []string{"BT", "CG", "FT", "BT", "CG", "FT"}
	for q, want := range wantApps {
		ctx := &QueryContext{Meta: meta, Rng: rng, Query: q}
		pos := s.Next(ctx)
		if meta[pos].App != want {
			t.Fatalf("query %d picked app %s, want %s", q, meta[pos].App, want)
		}
	}
}

func TestEqualAppFallsBackWhenAppMissing(t *testing.T) {
	meta := []telemetry.RunMeta{{App: "BT"}, {App: "BT"}}
	rng := rand.New(rand.NewSource(3))
	s := EqualApp{Apps: []string{"BT", "ZZ"}}
	ctx := &QueryContext{Meta: meta, Rng: rng, Query: 1} // ZZ's turn
	pos := s.Next(ctx)
	if pos < 0 || pos >= len(meta) {
		t.Fatalf("fallback position %d out of range", pos)
	}
}

// buildALProblem builds a small synthetic AL problem where class signal
// lives in one feature per class, with a large healthy-dominated pool.
func buildALProblem(t *testing.T, seed int64) (d *dataset.Dataset, initial, pool []int, test *dataset.Dataset) {
	t.Helper()
	classes := []string{"healthy", "a1", "a2"}
	rng := rand.New(rand.NewSource(seed))
	apps := []string{"BT", "CG"}
	mk := func(n int, anomFrac float64) *dataset.Dataset {
		ds := dataset.New(classes)
		for i := 0; i < n; i++ {
			label := 0
			if rng.Float64() < anomFrac {
				label = 1 + rng.Intn(2)
			}
			x := []float64{rng.NormFloat64() * 0.3, rng.NormFloat64() * 0.3, rng.NormFloat64() * 0.3}
			if label > 0 {
				x[label] += 2.5
			}
			meta := telemetry.RunMeta{App: apps[rng.Intn(2)], Anomaly: classes[label]}
			if err := ds.Add(x, classes[label], meta); err != nil {
				t.Fatal(err)
			}
		}
		return ds
	}
	d = mk(400, 0.15)
	test = mk(200, 0.3)
	split, err := dataset.MakeALSplit(d, dataset.ALSplitConfig{
		TestFraction: 0.2, AnomalyRatio: 0.10, HealthyClass: 0, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d, split.Initial, split.Pool, test
}

func TestLoopRunsAndImproves(t *testing.T) {
	d, initial, pool, test := buildALProblem(t, 4)
	loop := &Loop{
		Factory:   forest.NewFactory(forest.Config{NEstimators: 10, MaxDepth: 6, Seed: 1}),
		Strategy:  Uncertainty{},
		Annotator: Oracle{D: d},
		Seed:      5,
	}
	res, err := loop.Run(d, initial, pool, test, RunConfig{MaxQueries: 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 31 {
		t.Fatalf("records = %d, want 31", len(res.Records))
	}
	first, last := res.Records[0], res.Records[len(res.Records)-1]
	if !(last.F1 >= first.F1) {
		t.Fatalf("F1 did not improve: %v -> %v", first.F1, last.F1)
	}
	// Initial model has never seen healthy: FAR starts high and must drop.
	if !(last.FalseAlarmRate < first.FalseAlarmRate) {
		t.Fatalf("FAR did not drop: %v -> %v", first.FalseAlarmRate, last.FalseAlarmRate)
	}
	if len(res.labeled) != len(initial)+30 {
		t.Fatalf("labeled = %d", len(res.labeled))
	}
	if res.Model == nil {
		t.Fatal("no final model")
	}
}

func TestLoopTargetF1StopsEarly(t *testing.T) {
	d, initial, pool, test := buildALProblem(t, 6)
	loop := &Loop{
		Factory:   forest.NewFactory(forest.Config{NEstimators: 10, MaxDepth: 6, Seed: 1}),
		Strategy:  Uncertainty{},
		Annotator: Oracle{D: d},
		Seed:      7,
	}
	res, err := loop.Run(d, initial, pool, test, RunConfig{MaxQueries: 200, TargetF1: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	last := res.Records[len(res.Records)-1]
	if last.F1 < 0.8 {
		t.Fatalf("stopped below target: %v", last.F1)
	}
	if last.Queried >= 200 {
		t.Fatal("target stop did not trigger before the budget")
	}
	if res.QueriesTo(0.8) != last.Queried {
		t.Fatalf("QueriesTo inconsistent: %d vs %d", res.QueriesTo(0.8), last.Queried)
	}
	if res.QueriesTo(2.0) != -1 {
		t.Fatal("unreachable target should be -1")
	}
}

func TestLoopUncertaintyBeatsRandom(t *testing.T) {
	// The paper's core claim, in miniature: with a healthy-dominated pool,
	// uncertainty reaches a target F1 with fewer queries than random
	// (averaged over seeds to avoid flakiness).
	const target = 0.9
	var uncTotal, rndTotal int
	for seed := int64(0); seed < 5; seed++ {
		d, initial, pool, test := buildALProblem(t, 40+seed)
		run := func(s Strategy) int {
			loop := &Loop{
				Factory:   forest.NewFactory(forest.Config{NEstimators: 10, MaxDepth: 6, Seed: 1}),
				Strategy:  s,
				Annotator: Oracle{D: d},
				Seed:      8 + seed,
			}
			res, err := loop.Run(d, initial, pool, test, RunConfig{MaxQueries: 60, TargetF1: target})
			if err != nil {
				t.Fatal(err)
			}
			q := res.QueriesTo(target)
			if q == -1 {
				q = 61
			}
			return q
		}
		uncTotal += run(Uncertainty{})
		rndTotal += run(Random{})
	}
	// Allow slack: on this miniature problem both converge fast; the
	// full-pipeline shape test lives in internal/experiments.
	if uncTotal > rndTotal+5 {
		t.Fatalf("uncertainty (%d total queries) should not need clearly more than random (%d)", uncTotal, rndTotal)
	}
}

func TestLoopEvalEvery(t *testing.T) {
	d, initial, pool, test := buildALProblem(t, 9)
	loop := &Loop{
		Factory:   forest.NewFactory(forest.Config{NEstimators: 5, MaxDepth: 4, Seed: 1}),
		Strategy:  Random{},
		Annotator: Oracle{D: d},
		Seed:      10,
		EvalEvery: 5,
	}
	res, err := loop.Run(d, initial, pool, test, RunConfig{MaxQueries: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Records between evaluations repeat the previous score.
	if res.Records[1].F1 != res.Records[0].F1 && res.Records[1].F1 != res.Records[5].F1 {
		// Record 1 must carry either the initial or (if evaluated) its own
		// score; with EvalEvery=5 it carries the initial.
		if math.Abs(res.Records[1].F1-res.Records[0].F1) > 1e-12 {
			t.Fatalf("record 1 should reuse the last score")
		}
	}
}

func TestLoopValidation(t *testing.T) {
	d, initial, pool, test := buildALProblem(t, 11)
	base := Loop{
		Factory:   forest.NewFactory(forest.Config{NEstimators: 2, Seed: 1}),
		Strategy:  Random{},
		Annotator: Oracle{D: d},
	}
	l := base
	l.Factory = nil
	if _, err := l.Run(d, initial, pool, test, RunConfig{MaxQueries: 1}); err == nil {
		t.Fatal("missing factory should error")
	}
	if _, err := base.Run(d, nil, pool, test, RunConfig{MaxQueries: 1}); err == nil {
		t.Fatal("empty initial should error")
	}
	if _, err := base.Run(d, initial, pool, nil, RunConfig{MaxQueries: 1}); err == nil {
		t.Fatal("missing test set should error")
	}
	if _, err := base.Run(d, initial, pool, test, RunConfig{MaxQueries: -1}); err == nil {
		t.Fatal("negative budget should error")
	}
}

func TestLoopExhaustsPoolGracefully(t *testing.T) {
	d, initial, pool, test := buildALProblem(t, 12)
	small := pool[:3]
	loop := &Loop{
		Factory:   forest.NewFactory(forest.Config{NEstimators: 3, MaxDepth: 3, Seed: 1}),
		Strategy:  Uncertainty{},
		Annotator: Oracle{D: d},
		Seed:      13,
	}
	res, err := loop.Run(d, initial, small, test, RunConfig{MaxQueries: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 4 { // initial + 3 pool samples
		t.Fatalf("records = %d, want 4", len(res.Records))
	}
}
