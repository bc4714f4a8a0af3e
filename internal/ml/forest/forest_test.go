package forest

import (
	"math"
	"testing"

	"albadross/internal/ml"
	"albadross/internal/ml/testutil"
)

func TestForestLearnsBlobs(t *testing.T) {
	x, y, _ := testutil.Blobs(300, 6, 3, 4, 1)
	f := New(Config{NEstimators: 30, MaxDepth: 8, Seed: 2})
	if err := f.Fit(x, y, 3); err != nil {
		t.Fatal(err)
	}
	acc := testutil.Accuracy(ml.PredictBatch(f, x), y)
	if acc < 0.95 {
		t.Fatalf("training accuracy = %v, want >= 0.95", acc)
	}
	if f.NumClasses() != 3 {
		t.Fatal("NumClasses wrong")
	}
}

func TestForestProbabilitySimplex(t *testing.T) {
	x, y, _ := testutil.Blobs(120, 4, 4, 2, 3)
	f := New(Config{NEstimators: 15, MaxDepth: 5, Seed: 1})
	if err := f.Fit(x, y, 4); err != nil {
		t.Fatal(err)
	}
	for _, row := range x {
		p := f.PredictProba(row)
		sum := 0.0
		for _, v := range p {
			if v < -1e-12 || v > 1+1e-12 {
				t.Fatalf("probability out of range: %v", p)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("probabilities sum to %v", sum)
		}
	}
}

func TestForestDeterministicAcrossWorkerCounts(t *testing.T) {
	x, y, _ := testutil.Blobs(200, 5, 2, 3, 4)
	probs := func(workers int) [][]float64 {
		f := New(Config{NEstimators: 12, MaxDepth: 6, Seed: 9, Workers: workers})
		if err := f.Fit(x, y, 2); err != nil {
			t.Fatal(err)
		}
		return ml.ProbaBatch(f, x[:20])
	}
	a := probs(1)
	b := probs(8)
	for i := range a {
		for c := range a[i] {
			if a[i][c] != b[i][c] {
				t.Fatalf("parallel training not deterministic at %d,%d", i, c)
			}
		}
	}
	// A refit that keeps some of the previous forest's trees is as
	// deterministic: one worker refitting a one-worker forest and eight
	// refitting an eight-worker one predict the same.
	refit := func(workers int) [][]float64 {
		c, err := ml.NewColumns(x[:150], workers)
		if err != nil {
			t.Fatal(err)
		}
		prev := New(Config{NEstimators: 12, MaxDepth: 6, Seed: 9, Workers: workers})
		if err := prev.FitColumns(c, y[:150], 2, nil); err != nil {
			t.Fatal(err)
		}
		for _, row := range x[150:] {
			if err := c.Append(row); err != nil {
				t.Fatal(err)
			}
			f := New(Config{NEstimators: 12, MaxDepth: 6, Seed: 9, Workers: workers})
			if err := f.FitColumns(c, y[:c.Len()], 2, prev); err != nil {
				t.Fatal(err)
			}
			prev = f
		}
		return ml.ProbaBatch(prev, x[:20])
	}
	ra, rb := refit(1), refit(8)
	for i := range ra {
		for c := range ra[i] {
			if ra[i][c] != rb[i][c] || ra[i][c] != a[i][c] {
				t.Fatalf("refit not deterministic at %d,%d: %v (1 worker), %v (8), fresh fit %v", i, c, ra[i][c], rb[i][c], a[i][c])
			}
		}
	}
}

func TestForestBeatsSingleTreeOnNoisyData(t *testing.T) {
	// With heavy noise, the ensemble's held-out accuracy should not be
	// worse than a single tree's. Train and test halves come from one
	// draw: Blobs draws its cluster centers from the seed, so two seeds
	// would be two different problems.
	x, y, _ := testutil.Blobs(600, 8, 3, 1.2, 5)
	xTrain, yTrain, xTest, yTest := x[:300], y[:300], x[300:], y[300:]
	single := New(Config{NEstimators: 1, MaxDepth: 10, Seed: 7})
	big := New(Config{NEstimators: 60, MaxDepth: 10, Seed: 7})
	if err := single.Fit(xTrain, yTrain, 3); err != nil {
		t.Fatal(err)
	}
	if err := big.Fit(xTrain, yTrain, 3); err != nil {
		t.Fatal(err)
	}
	accS := testutil.Accuracy(ml.PredictBatch(single, xTest), yTest)
	accB := testutil.Accuracy(ml.PredictBatch(big, xTest), yTest)
	if accB+0.02 < accS {
		t.Fatalf("forest (%v) much worse than single tree (%v)", accB, accS)
	}
}

func TestForestValidation(t *testing.T) {
	f := New(Config{NEstimators: 2})
	if err := f.Fit(nil, nil, 2); err == nil {
		t.Fatal("empty input should error")
	}
}

func TestForestFactory(t *testing.T) {
	fac := NewFactory(Config{NEstimators: 3, Seed: 1})
	c := fac()
	if _, ok := c.(*Forest); !ok {
		t.Fatal("factory should build a Forest")
	}
	x, y, _ := testutil.Blobs(60, 3, 2, 3, 8)
	if err := c.Fit(x, y, 2); err != nil {
		t.Fatal(err)
	}
}

func TestPredictBeforeFitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{}).PredictProba([]float64{1})
}
