package ml

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSoftmaxBasics(t *testing.T) {
	p := Softmax([]float64{0, 0, 0}, nil)
	for _, v := range p {
		if math.Abs(v-1.0/3) > 1e-12 {
			t.Fatalf("uniform softmax = %v", p)
		}
	}
	// Stability under huge logits.
	p = Softmax([]float64{1000, 999}, nil)
	if math.IsNaN(p[0]) || p[0] < p[1] {
		t.Fatalf("unstable softmax: %v", p)
	}
	// Reuse of the out buffer.
	buf := make([]float64, 2)
	p2 := Softmax([]float64{1, 2}, buf)
	if &p2[0] != &buf[0] {
		t.Fatal("softmax should reuse the provided buffer")
	}
}

func TestQuickSoftmaxSimplex(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		logits := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			logits[i] = math.Mod(v, 100)
		}
		p := Softmax(logits, nil)
		sum := 0.0
		for _, v := range p {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestArgmax(t *testing.T) {
	if Argmax([]float64{0.1, 0.7, 0.2}) != 1 {
		t.Fatal("argmax wrong")
	}
	if Argmax([]float64{0.5, 0.5}) != 0 {
		t.Fatal("tie should break low")
	}
}

func TestValidateTrainingInput(t *testing.T) {
	ok := [][]float64{{1, 2}, {3, 4}}
	if err := ValidateTrainingInput(ok, []int{0, 1}, 2); err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		x [][]float64
		y []int
		k int
	}{
		{nil, nil, 2},
		{ok, []int{0}, 2},
		{ok, []int{0, 1}, 1},
		{[][]float64{{1}, {2, 3}}, []int{0, 1}, 2},
		{[][]float64{{math.NaN()}, {1}}, []int{0, 1}, 2},
		{ok, []int{0, 5}, 2},
	}
	for i, c := range bad {
		if err := ValidateTrainingInput(c.x, c.y, c.k); err == nil {
			t.Fatalf("case %d should error", i)
		}
	}
}

// stub classifier for the helper tests.
type stub struct{ k int }

func (s stub) Fit(x [][]float64, y []int, n int) error { return nil }
func (s stub) NumClasses() int                         { return s.k }
func (s stub) PredictProba(x []float64) []float64 {
	// Probability mass on the class equal to int(x[0]) % k.
	p := make([]float64, s.k)
	p[int(x[0])%s.k] = 1
	return p
}

func TestPredictHelpers(t *testing.T) {
	c := stub{k: 3}
	preds := PredictBatch(c, [][]float64{{0}, {1}, {2}})
	if preds[0] != 0 || preds[1] != 1 || preds[2] != 2 {
		t.Fatalf("PredictBatch = %v", preds)
	}
	probs := ProbaBatch(c, [][]float64{{1}})
	if probs[0][1] != 1 {
		t.Fatalf("ProbaBatch = %v", probs)
	}
}
