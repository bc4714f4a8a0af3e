// Package linear implements multinomial logistic regression with L1 or L2
// regularization (Table IV "LR": penalty, C), trained by full-batch
// gradient descent with Nesterov momentum; the L1 penalty is handled with
// a proximal (soft-thresholding) step, so exact zeros are reachable.
package linear

import (
	"math"
	"time"

	"albadross/internal/ml"
)

// Penalty selects the regularizer.
type Penalty int

// Regularizers matching sklearn's penalty parameter.
const (
	L2 Penalty = iota
	L1
)

// String returns "l1" or "l2".
func (p Penalty) String() string {
	if p == L1 {
		return "l1"
	}
	return "l2"
}

// Config are the logistic-regression hyperparameters from Table IV.
type Config struct {
	// Penalty is the regularizer (paper grid: l1, l2).
	Penalty Penalty
	// C is the inverse regularization strength (paper grid: 1e-3..10).
	C float64
	// MaxIter bounds the gradient-descent iterations.
	MaxIter int
	// LearningRate is the gradient step size.
	LearningRate float64
	// Tol stops early when the parameter update's max-norm falls below it.
	Tol float64
}

func (c Config) withDefaults() Config {
	if c.C <= 0 {
		c.C = 1
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 300
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.5
	}
	if c.Tol <= 0 {
		c.Tol = 1e-6
	}
	return c
}

// Model is a fitted multinomial logistic regression.
type Model struct {
	Cfg Config
	// W[c][j] are the class weights; B[c] the intercepts.
	W        [][]float64
	B        []float64
	NClasses int
}

// New returns an unfitted model.
func New(cfg Config) *Model { return &Model{Cfg: cfg.withDefaults()} }

// NewFactory adapts the config into an ml.Factory.
func NewFactory(cfg Config) ml.Factory {
	return func() ml.Classifier { return New(cfg) }
}

// NumClasses reports the fitted class count.
func (m *Model) NumClasses() int { return m.NClasses }

// Fit minimizes the softmax cross-entropy plus the configured penalty.
func (m *Model) Fit(x [][]float64, y []int, nClasses int) error {
	start := time.Now()
	defer func() { ml.ObserveFit("linear", time.Since(start)) }()
	if err := ml.ValidateTrainingInput(x, y, nClasses); err != nil {
		return err
	}
	cfg := m.Cfg
	n := len(x)
	d := len(x[0])
	m.NClasses = nClasses
	m.W = make([][]float64, nClasses)
	m.B = make([]float64, nClasses)
	vW := make([][]float64, nClasses) // momentum buffers
	for c := range m.W {
		m.W[c] = make([]float64, d)
		vW[c] = make([]float64, d)
	}
	vB := make([]float64, nClasses)

	// lambda follows sklearn: penalty weight = 1/C, objective averaged
	// over samples.
	lambda := 1 / (cfg.C * float64(n)) //albacheck:ignore floatsafe withDefaults forces C > 0 and ValidateTrainingInput rejects n == 0
	gradW := make([][]float64, nClasses)
	for c := range gradW {
		gradW[c] = make([]float64, d)
	}
	gradB := make([]float64, nClasses)
	logits := make([]float64, nClasses)
	probs := make([]float64, nClasses)
	const mu = 0.9 // momentum

	for iter := 0; iter < cfg.MaxIter; iter++ {
		for c := range gradW {
			for j := range gradW[c] {
				gradW[c][j] = 0
			}
			gradB[c] = 0
		}
		for i, row := range x {
			for c := 0; c < nClasses; c++ {
				z := m.B[c]
				w := m.W[c]
				for j, v := range row {
					z += w[j] * v
				}
				logits[c] = z
			}
			ml.Softmax(logits, probs)
			for c := 0; c < nClasses; c++ {
				diff := probs[c]
				if y[i] == c {
					diff -= 1
				}
				g := gradW[c]
				for j, v := range row {
					g[j] += diff * v
				}
				gradB[c] += diff
			}
		}
		invN := 1 / float64(n) //albacheck:ignore floatsafe n = len(x) > 0 after ValidateTrainingInput
		maxStep := 0.0
		for c := 0; c < nClasses; c++ {
			for j := 0; j < d; j++ {
				g := gradW[c][j] * invN
				if cfg.Penalty == L2 {
					g += lambda * m.W[c][j]
				}
				vW[c][j] = mu*vW[c][j] - cfg.LearningRate*g
				m.W[c][j] += vW[c][j]
				if cfg.Penalty == L1 {
					// Proximal soft-threshold toward zero.
					th := cfg.LearningRate * lambda
					w := m.W[c][j]
					switch {
					case w > th:
						m.W[c][j] = w - th
					case w < -th:
						m.W[c][j] = w + th
					default:
						m.W[c][j] = 0
					}
				}
				if s := math.Abs(vW[c][j]); s > maxStep {
					maxStep = s
				}
			}
			g := gradB[c] * invN
			vB[c] = mu*vB[c] - cfg.LearningRate*g
			m.B[c] += vB[c]
			if s := math.Abs(vB[c]); s > maxStep {
				maxStep = s
			}
		}
		if maxStep < cfg.Tol {
			break
		}
	}
	return nil
}

// PredictProba returns softmax class probabilities for one sample.
func (m *Model) PredictProba(x []float64) []float64 {
	if m.W == nil {
		panic("linear: PredictProba before Fit")
	}
	start := time.Now()
	defer func() { ml.ObservePredict("linear", time.Since(start)) }()
	logits := make([]float64, m.NClasses)
	for c := 0; c < m.NClasses; c++ {
		z := m.B[c]
		w := m.W[c]
		for j, v := range x {
			z += w[j] * v
		}
		logits[c] = z
	}
	return ml.Softmax(logits, nil)
}
