package proctor

import (
	"math"
	"math/rand"
	"testing"

	"albadross/internal/ml"
)

// problem builds features on a low-dimensional manifold with class
// structure, the regime autoencoder+head is meant for.
func problem(n int, seed int64) (x [][]float64, y []int) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		c := i % 3
		a := rng.NormFloat64()*0.4 + float64(c)*2
		b := rng.NormFloat64() * 0.4
		x = append(x, []float64{a, b, a + b, a - b, 0.5 * a, 0.3 * b})
		y = append(y, c)
	}
	return x, y
}

func TestProctorEndToEnd(t *testing.T) {
	xPool, _ := problem(300, 1)
	xLab, yLab := problem(60, 2)
	p := New(Config{Encoder: []int{8, 4}, Epochs: 40, Seed: 3})
	if err := p.FitRepresentation(xPool); err != nil {
		t.Fatal(err)
	}
	clf := p.Factory()()
	if err := clf.Fit(xLab, yLab, 3); err != nil {
		t.Fatal(err)
	}
	xTest, yTest := problem(150, 4)
	correct := 0
	for i := range xTest {
		if ml.Argmax(clf.PredictProba(xTest[i])) == yTest[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(len(xTest))
	if acc < 0.85 {
		t.Fatalf("proctor accuracy = %v", acc)
	}
	if clf.NumClasses() != 3 {
		t.Fatal("NumClasses wrong")
	}
}

func TestProctorProbabilitySimplex(t *testing.T) {
	xPool, _ := problem(200, 5)
	xLab, yLab := problem(60, 6)
	p := New(Config{Encoder: []int{6, 3}, Epochs: 20, Seed: 7})
	if err := p.FitRepresentation(xPool); err != nil {
		t.Fatal(err)
	}
	clf := p.Factory()()
	if err := clf.Fit(xLab, yLab, 3); err != nil {
		t.Fatal(err)
	}
	probs := clf.PredictProba(xLab[0])
	sum := 0.0
	for _, v := range probs {
		if v < 0 || v > 1 {
			t.Fatalf("probability out of range: %v", probs)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("sum = %v", sum)
	}
}

func TestProctorHeadWithoutRepresentationErrors(t *testing.T) {
	p := New(Config{})
	clf := p.Factory()()
	if err := clf.Fit([][]float64{{1}, {2}}, []int{0, 1}, 2); err == nil {
		t.Fatal("fit before FitRepresentation should error")
	}
}

func TestProctorEmptyRepresentationErrors(t *testing.T) {
	p := New(Config{})
	if err := p.FitRepresentation(nil); err == nil {
		t.Fatal("empty representation set should error")
	}
}

func TestProctorDefaults(t *testing.T) {
	p := New(Config{})
	if len(p.Cfg.Encoder) == 0 || p.Cfg.Epochs == 0 || p.Cfg.Classifier.MaxIter == 0 {
		t.Fatalf("defaults not applied: %+v", p.Cfg)
	}
}
