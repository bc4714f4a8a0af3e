package eval

import (
	"math"
	"testing"

	"albadross/internal/ml"
	"albadross/internal/ml/forest"
	"albadross/internal/ml/testutil"
)

func TestEvaluatePerfect(t *testing.T) {
	y := []int{0, 1, 2, 0, 1, 2}
	r, err := Evaluate(y, y, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.MacroF1 != 1 || r.Accuracy != 1 {
		t.Fatalf("perfect predictions: f1=%v acc=%v", r.MacroF1, r.Accuracy)
	}
	if r.FalseAlarmRate != 0 || r.AnomalyMissRate != 0 {
		t.Fatal("perfect predictions should have zero FAR/AMR")
	}
}

func TestEvaluateHandComputed(t *testing.T) {
	// 3 classes; class 0 healthy.
	yTrue := []int{0, 0, 0, 0, 1, 1, 2, 2}
	yPred := []int{0, 0, 1, 2, 1, 0, 2, 2}
	r, err := Evaluate(yTrue, yPred, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Healthy: 4 true, 2 predicted wrong -> FAR = 0.5.
	if math.Abs(r.FalseAlarmRate-0.5) > 1e-12 {
		t.Fatalf("FAR = %v, want 0.5", r.FalseAlarmRate)
	}
	// Anomalous: 4 true, 1 predicted healthy -> AMR = 0.25.
	if math.Abs(r.AnomalyMissRate-0.25) > 1e-12 {
		t.Fatalf("AMR = %v, want 0.25", r.AnomalyMissRate)
	}
	// Class 1: tp=1 fp=1 fn=1 -> precision=recall=f1=0.5.
	if math.Abs(r.F1[1]-0.5) > 1e-12 {
		t.Fatalf("F1[1] = %v, want 0.5", r.F1[1])
	}
	// Class 2: tp=2 fp=1 fn=0 -> p=2/3, r=1, f1=0.8.
	if math.Abs(r.F1[2]-0.8) > 1e-12 {
		t.Fatalf("F1[2] = %v, want 0.8", r.F1[2])
	}
	// Accuracy = 5/8.
	if math.Abs(r.Accuracy-0.625) > 1e-12 {
		t.Fatalf("accuracy = %v", r.Accuracy)
	}
	// Confusion row sums match class counts.
	if r.Confusion[0][0] != 2 || r.Confusion[0][1] != 1 || r.Confusion[0][2] != 1 {
		t.Fatalf("confusion row 0 = %v", r.Confusion[0])
	}
}

func TestEvaluateZeroDivision(t *testing.T) {
	// Class 2 never appears and is never predicted: its F1 counts as 0
	// in the macro average (sklearn zero_division=0).
	yTrue := []int{0, 0, 1, 1}
	yPred := []int{0, 0, 1, 1}
	r, err := Evaluate(yTrue, yPred, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := 2.0 / 3.0
	if math.Abs(r.MacroF1-want) > 1e-12 {
		t.Fatalf("macro F1 = %v, want %v", r.MacroF1, want)
	}
}

func TestEvaluateValidation(t *testing.T) {
	if _, err := Evaluate(nil, nil, 2, 0); err == nil {
		t.Fatal("empty should error")
	}
	if _, err := Evaluate([]int{0}, []int{0, 1}, 2, 0); err == nil {
		t.Fatal("length mismatch should error")
	}
	if _, err := Evaluate([]int{0}, []int{5}, 2, 0); err == nil {
		t.Fatal("out-of-range prediction should error")
	}
	if _, err := Evaluate([]int{0}, []int{0}, 2, 7); err == nil {
		t.Fatal("bad healthy class should error")
	}
}

func TestCrossValidate(t *testing.T) {
	x, y, _ := testutil.Blobs(250, 5, 3, 4, 1)
	fac := forest.NewFactory(forest.Config{NEstimators: 10, MaxDepth: 6, Seed: 2})
	cv, err := CrossValidate(fac, x, y, 3, 0, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cv.FoldF1) != 5 {
		t.Fatalf("folds = %d", len(cv.FoldF1))
	}
	if cv.MeanF1 < 0.9 {
		t.Fatalf("CV mean F1 = %v on separable blobs", cv.MeanF1)
	}
	if cv.StdF1 < 0 || math.IsNaN(cv.StdF1) {
		t.Fatalf("bad std: %v", cv.StdF1)
	}
}

func TestGridSearchOrdersBestFirst(t *testing.T) {
	x, y, _ := testutil.Blobs(200, 6, 2, 2, 4)
	cands := []Candidate{
		{Params: map[string]string{"n_estimators": "1", "max_depth": "1"},
			Factory: forest.NewFactory(forest.Config{NEstimators: 1, MaxDepth: 1, Seed: 5})},
		{Params: map[string]string{"n_estimators": "25", "max_depth": "8"},
			Factory: forest.NewFactory(forest.Config{NEstimators: 25, MaxDepth: 8, Seed: 5})},
	}
	results, err := GridSearchParallel(cands, x, y, 2, 0, 4, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].CV.MeanF1 < results[1].CV.MeanF1 {
		t.Fatal("results not sorted best-first")
	}
	if results[0].Candidate.Params["n_estimators"] != "25" {
		t.Fatalf("expected the deeper forest to win, got %v", results[0].Candidate.Params)
	}
	if _, err := GridSearchParallel(nil, x, y, 2, 0, 4, 6, 1); err == nil {
		t.Fatal("empty grid should error")
	}
}

func TestCandidateParamString(t *testing.T) {
	c := Candidate{Params: map[string]string{"b": "2", "a": "1"}}
	if c.ParamString() != "a=1, b=2" {
		t.Fatalf("ParamString = %q", c.ParamString())
	}
}

func TestEvaluateModel(t *testing.T) {
	x, y, _ := testutil.Blobs(120, 4, 2, 4, 7)
	f := forest.New(forest.Config{NEstimators: 10, MaxDepth: 5, Seed: 8})
	if err := f.Fit(x, y, 2); err != nil {
		t.Fatal(err)
	}
	r, err := EvaluateModel(f, x, y, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.MacroF1 < 0.95 {
		t.Fatalf("training macro F1 = %v", r.MacroF1)
	}
	var _ ml.Classifier = f
}
