package neural

import (
	"math"
	"math/rand"
	"testing"

	"albadross/internal/ml"
	"albadross/internal/ml/testutil"
)

func TestMLPLearnsBlobs(t *testing.T) {
	x, y, _ := testutil.Blobs(300, 5, 3, 4, 1)
	m := NewMLP(MLPConfig{HiddenLayerSizes: []int{32}, MaxIter: 60, Optimizer: Adam, Seed: 2})
	if err := m.Fit(x, y, 3); err != nil {
		t.Fatal(err)
	}
	acc := testutil.Accuracy(ml.PredictBatch(m, x), y)
	if acc < 0.95 {
		t.Fatalf("training accuracy = %v", acc)
	}
	if m.NumClasses() != 3 {
		t.Fatal("NumClasses wrong")
	}
}

func TestMLPLearnsXOR(t *testing.T) {
	// XOR is not linearly separable; a hidden layer must solve it.
	var x [][]float64
	var y []int
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 400; i++ {
		a, b := rng.Float64(), rng.Float64()
		x = append(x, []float64{a, b})
		if (a > 0.5) != (b > 0.5) {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	m := NewMLP(MLPConfig{HiddenLayerSizes: []int{16, 16}, MaxIter: 150, LearningRate: 5e-3, Optimizer: Adam, Seed: 4})
	if err := m.Fit(x, y, 2); err != nil {
		t.Fatal(err)
	}
	acc := testutil.Accuracy(ml.PredictBatch(m, x), y)
	if acc < 0.9 {
		t.Fatalf("XOR accuracy = %v, a linear model would get ~0.5", acc)
	}
}

func TestMLPProbabilitySimplex(t *testing.T) {
	x, y, _ := testutil.Blobs(100, 4, 4, 2, 5)
	m := NewMLP(MLPConfig{HiddenLayerSizes: []int{8}, MaxIter: 20, Optimizer: Adam, Seed: 6})
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

func TestMLPAllOptimizers(t *testing.T) {
	x, y, _ := testutil.Blobs(200, 4, 2, 4, 7)
	for _, opt := range []OptimizerKind{SGD, Adam, Adadelta} {
		lr := 1e-3
		if opt == SGD {
			lr = 1e-2
		}
		m := NewMLP(MLPConfig{HiddenLayerSizes: []int{16}, MaxIter: 120, LearningRate: lr, Optimizer: opt, Seed: 8})
		if err := m.Fit(x, y, 2); err != nil {
			t.Fatalf("%v: %v", opt, err)
		}
		acc := testutil.Accuracy(ml.PredictBatch(m, x), y)
		if acc < 0.9 {
			t.Fatalf("%v: accuracy = %v", opt, acc)
		}
	}
}

func TestMLPDeterministic(t *testing.T) {
	x, y, _ := testutil.Blobs(80, 3, 2, 3, 9)
	run := func() []float64 {
		m := NewMLP(MLPConfig{HiddenLayerSizes: []int{8}, MaxIter: 15, Optimizer: Adam, Seed: 10})
		if err := m.Fit(x, y, 2); err != nil {
			t.Fatal(err)
		}
		return m.PredictProba(x[0])
	}
	a, b := run(), run()
	for c := range a {
		if a[c] != b[c] {
			t.Fatal("MLP training not deterministic")
		}
	}
}

func TestAutoencoderReducesReconstructionError(t *testing.T) {
	// Data on a 2D manifold embedded in 8D; an AE with a 2-wide code
	// should reconstruct far better than the untrained network.
	rng := rand.New(rand.NewSource(11))
	var x [][]float64
	for i := 0; i < 300; i++ {
		a, b := rng.Float64(), rng.Float64()
		x = append(x, []float64{a, b, a + b, a - b, 2 * a, 2 * b, a * 0.5, b * 0.5})
	}
	ae := NewAutoencoder(AEConfig{Encoder: []int{8, 2}, Epochs: 80, Optimizer: Adadelta, Seed: 12})
	// Error before training (fresh net): build a second AE with 0 epochs.
	fresh := NewAutoencoder(AEConfig{Encoder: []int{8, 2}, Epochs: 1, Optimizer: Adadelta, Seed: 12})
	if err := fresh.Fit(x[:2]); err != nil { // barely trained
		t.Fatal(err)
	}
	if err := ae.Fit(x); err != nil {
		t.Fatal(err)
	}
	var trained, baseline float64
	for _, row := range x {
		trained += ae.ReconstructionError(row)
		baseline += fresh.ReconstructionError(row)
	}
	if !(trained < baseline*0.5) {
		t.Fatalf("trained error %v not well below baseline %v", trained, baseline)
	}
}

func TestAutoencoderEncodeShape(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x := make([][]float64, 50)
	for i := range x {
		x[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
	}
	ae := NewAutoencoder(AEConfig{Encoder: []int{6, 3}, Epochs: 5, Seed: 14})
	if err := ae.Fit(x); err != nil {
		t.Fatal(err)
	}
	if ae.CodeSize() != 3 {
		t.Fatalf("code size = %d", ae.CodeSize())
	}
	code := ae.Encode(x[0])
	if len(code) != 3 {
		t.Fatalf("encoded length = %d, want 3", len(code))
	}
	batch := ae.EncodeBatch(x[:5])
	if len(batch) != 5 || len(batch[0]) != 3 {
		t.Fatal("EncodeBatch shape wrong")
	}
	if len(ae.Reconstruct(x[0])) != 4 {
		t.Fatal("reconstruction width wrong")
	}
}

func TestAutoencoderValidation(t *testing.T) {
	ae := NewAutoencoder(AEConfig{Encoder: []int{2}})
	if err := ae.Fit(nil); err == nil {
		t.Fatal("empty input should error")
	}
	if err := ae.Fit([][]float64{{1, 2}, {1}}); err == nil {
		t.Fatal("ragged input should error")
	}
}

func TestOptimizerNames(t *testing.T) {
	for name, kind := range map[string]OptimizerKind{"sgd": SGD, "adam": Adam, "adadelta": Adadelta} {
		if kind.String() != name {
			t.Fatalf("String() = %q, want %q", kind.String(), name)
		}
	}
}

func TestActivations(t *testing.T) {
	if ReLU.apply(-3) != 0 || ReLU.apply(2) != 2 {
		t.Fatal("relu wrong")
	}
	if ReLU.derivative(0) != 0 || ReLU.derivative(1) != 1 {
		t.Fatal("relu derivative wrong")
	}
	if math.Abs(Tanh.apply(0)) > 1e-12 || math.Abs(Tanh.derivative(0)-1) > 1e-12 {
		t.Fatal("tanh wrong")
	}
	if math.Abs(Sigmoid.apply(0)-0.5) > 1e-12 {
		t.Fatal("sigmoid wrong")
	}
	if Identity.apply(7) != 7 || Identity.derivative(7) != 1 {
		t.Fatal("identity wrong")
	}
}

func TestMLPValidationAndPanic(t *testing.T) {
	if err := NewMLP(MLPConfig{}).Fit(nil, nil, 2); err == nil {
		t.Fatal("empty input should error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMLP(MLPConfig{}).PredictProba([]float64{1})
}

func TestGradientNumericalCheck(t *testing.T) {
	// Finite-difference check of backprop on a tiny network and MSE-like
	// loss through the identity output.
	rng := rand.New(rand.NewSource(15))
	nw := newNetwork([]int{3, 4, 2}, []Activation{Tanh, Identity}, rng)
	x := []float64{0.3, -0.7, 0.5}
	target := []float64{1, -1}
	loss := func() float64 {
		outs := nw.forward(x, nil)
		out := outs[len(outs)-1]
		s := 0.0
		for i := range out {
			d := out[i] - target[i]
			s += d * d
		}
		return s / 2
	}
	// Analytic gradient.
	g := newGrads(nw)
	outs := nw.forward(x, nil)
	out := outs[len(outs)-1]
	delta := make([]float64, len(out))
	for i := range out {
		delta[i] = out[i] - target[i]
	}
	nw.backward(outs, delta, g)
	// Numeric gradient on a few sampled weights.
	const eps = 1e-6
	for _, probe := range [][3]int{{0, 1, 2}, {0, 3, 0}, {1, 0, 1}, {1, 1, 3}} {
		l, o, j := probe[0], probe[1], probe[2]
		orig := nw.Layers[l].W[o][j]
		nw.Layers[l].W[o][j] = orig + eps
		up := loss()
		nw.Layers[l].W[o][j] = orig - eps
		down := loss()
		nw.Layers[l].W[o][j] = orig
		numeric := (up - down) / (2 * eps)
		analytic := g.W[l][o][j]
		if math.Abs(numeric-analytic) > 1e-4*(1+math.Abs(numeric)) {
			t.Fatalf("gradient mismatch at %v: numeric %v analytic %v", probe, numeric, analytic)
		}
	}
}
