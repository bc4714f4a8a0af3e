package neural

import (
	"math"
)

// OptimizerKind selects the training algorithm.
type OptimizerKind int

// Supported optimizers. Adadelta is what the paper uses for Proctor's
// autoencoder; Adam is the sklearn MLP default.
const (
	SGD OptimizerKind = iota
	Adam
	Adadelta
)

// String returns the lower-case optimizer name.
func (k OptimizerKind) String() string {
	switch k {
	case Adam:
		return "adam"
	case Adadelta:
		return "adadelta"
	default:
		return "sgd"
	}
}

// optimizer updates a flat parameter group from its gradient.
type optimizer interface {
	// step applies one update: params[i] -= f(grads[i]).
	step(params, grads []float64)
}

// newOptimizer builds one optimizer state per parameter group.
func newOptimizer(kind OptimizerKind, lr float64, size int) optimizer {
	switch kind {
	case Adam:
		return &adamState{lr: lr, m: make([]float64, size), v: make([]float64, size)}
	case Adadelta:
		return &adadeltaState{rho: 0.95, eps: 1e-6, eg: make([]float64, size), ex: make([]float64, size)}
	default:
		return &sgdState{lr: lr, mu: 0.9, vel: make([]float64, size)}
	}
}

type sgdState struct {
	lr, mu float64
	vel    []float64
}

func (s *sgdState) step(params, grads []float64) {
	for i := range params {
		s.vel[i] = s.mu*s.vel[i] - s.lr*grads[i]
		params[i] += s.vel[i]
	}
}

type adamState struct {
	lr   float64
	m, v []float64
	t    int
}

func (a *adamState) step(params, grads []float64) {
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	a.t++
	c1 := 1 - math.Pow(beta1, float64(a.t))
	c2 := 1 - math.Pow(beta2, float64(a.t))
	for i := range params {
		g := grads[i]
		a.m[i] = beta1*a.m[i] + (1-beta1)*g
		a.v[i] = beta2*a.v[i] + (1-beta2)*g*g
		mh := a.m[i] / c1 //albacheck:ignore floatsafe c1 = 1-beta1^t >= 1-beta1 > 0 for t >= 1
		vh := a.v[i] / c2 //albacheck:ignore floatsafe c2 = 1-beta2^t >= 1-beta2 > 0 for t >= 1
		//albacheck:ignore floatsafe vh is an EWMA of squared gradients scaled by positive c2, hence nonnegative
		params[i] -= a.lr * mh / (math.Sqrt(vh) + eps)
	}
}

// adadeltaState implements Zeiler's Adadelta; it needs no learning rate,
// matching keras/sklearn semantics the paper relies on.
type adadeltaState struct {
	rho, eps float64
	eg, ex   []float64 // running averages of squared grads and updates
}

func (a *adadeltaState) step(params, grads []float64) {
	for i := range params {
		g := grads[i]
		a.eg[i] = a.rho*a.eg[i] + (1-a.rho)*g*g
		//albacheck:ignore floatsafe eg/ex are EWMAs of squares (nonnegative) and eps > 0, so both radicands are positive
		update := -math.Sqrt(a.ex[i]+a.eps) / math.Sqrt(a.eg[i]+a.eps) * g
		a.ex[i] = a.rho*a.ex[i] + (1-a.rho)*update*update
		params[i] += update
	}
}

// flatten returns one flat slice per layer: all weight rows then biases.
// The returned slices alias the network's parameters.
func flatten(nw *network) [][]float64 {
	var groups [][]float64
	for l := range nw.Layers {
		ly := &nw.Layers[l]
		for o := range ly.W {
			groups = append(groups, ly.W[o])
		}
		groups = append(groups, ly.B)
	}
	return groups
}

// flattenGrads returns gradient slices in the same order as flatten.
func flattenGrads(g *grads) [][]float64 {
	var groups [][]float64
	for l := range g.W {
		for o := range g.W[l] {
			groups = append(groups, g.W[l][o])
		}
		groups = append(groups, g.B[l])
	}
	return groups
}
