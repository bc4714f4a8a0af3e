package linear

import (
	"math"
	"testing"

	"albadross/internal/ml"
	"albadross/internal/ml/testutil"
)

func TestLRLearnsBlobs(t *testing.T) {
	x, y, _ := testutil.Blobs(300, 5, 3, 4, 1)
	m := New(Config{Penalty: L2, C: 1, MaxIter: 300})
	if err := m.Fit(x, y, 3); err != nil {
		t.Fatal(err)
	}
	acc := testutil.Accuracy(ml.PredictBatch(m, x), y)
	if acc < 0.95 {
		t.Fatalf("training accuracy = %v", acc)
	}
}

func TestLRProbabilitySimplex(t *testing.T) {
	x, y, _ := testutil.Blobs(100, 4, 4, 2, 2)
	m := New(Config{C: 1, MaxIter: 100})
	if err := m.Fit(x, y, 4); err != nil {
		t.Fatal(err)
	}
	for _, row := range x {
		p := m.PredictProba(row)
		sum := 0.0
		for _, v := range p {
			if v < 0 || v > 1 {
				t.Fatalf("probability out of range: %v", p)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("sum = %v", sum)
		}
	}
}

// sparsity returns the fraction of m's weights that are exactly zero.
func sparsity(m *Model) float64 {
	zeros, total := 0, 0
	for _, row := range m.W {
		for _, w := range row {
			total++
			if w == 0 {
				zeros++
			}
		}
	}
	return float64(zeros) / float64(total)
}

func TestL1ProducesSparserWeightsThanL2(t *testing.T) {
	// Add pure-noise features; L1 should zero more of them out.
	x, y, _ := testutil.Blobs(200, 2, 2, 5, 3)
	for i := range x {
		for j := 0; j < 10; j++ {
			x[i] = append(x[i], math.Sin(float64(i*j+7))*0.01)
		}
	}
	l1 := New(Config{Penalty: L1, C: 0.05, MaxIter: 400})
	l2 := New(Config{Penalty: L2, C: 0.05, MaxIter: 400})
	if err := l1.Fit(x, y, 2); err != nil {
		t.Fatal(err)
	}
	if err := l2.Fit(x, y, 2); err != nil {
		t.Fatal(err)
	}
	if !(sparsity(l1) > sparsity(l2)) {
		t.Fatalf("L1 sparsity %v not above L2 %v", sparsity(l1), sparsity(l2))
	}
	if sparsity(l1) == 0 {
		t.Fatal("L1 should reach exact zeros")
	}
}

func TestStrongerRegularizationShrinksWeights(t *testing.T) {
	x, y, _ := testutil.Blobs(150, 4, 2, 3, 4)
	norm := func(c float64) float64 {
		m := New(Config{Penalty: L2, C: c, MaxIter: 300})
		if err := m.Fit(x, y, 2); err != nil {
			t.Fatal(err)
		}
		s := 0.0
		for _, row := range m.W {
			for _, w := range row {
				s += w * w
			}
		}
		return math.Sqrt(s)
	}
	if !(norm(0.001) < norm(10)) {
		t.Fatalf("C=0.001 norm %v should be below C=10 norm %v", norm(0.001), norm(10))
	}
}

func TestPenaltyNamesAndFitValidation(t *testing.T) {
	if L1.String() != "l1" || L2.String() != "l2" {
		t.Fatal("penalty names wrong")
	}
}

func TestLRValidationAndPanic(t *testing.T) {
	if err := New(Config{}).Fit(nil, nil, 2); err == nil {
		t.Fatal("empty input should error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{}).PredictProba([]float64{1})
}

func TestLRFactoryAndNumClasses(t *testing.T) {
	c := NewFactory(Config{C: 1, MaxIter: 10})()
	x, y, _ := testutil.Blobs(40, 2, 2, 3, 5)
	if err := c.Fit(x, y, 2); err != nil {
		t.Fatal(err)
	}
	if c.NumClasses() != 2 {
		t.Fatal("NumClasses wrong")
	}
}
