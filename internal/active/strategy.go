// Package active implements the active-learning module of ALBADross
// (Sec. III-D): pool-based sampling with the classification-uncertainty,
// classification-margin, and classification-entropy query strategies, the
// Random and Equal App baselines (Sec. IV-D), the annotator abstraction,
// Session — the one implementation of the query step, which the
// annotation server drives over HTTP — and Loop, the offline driver that
// re-trains the supervised model as labels arrive and tracks F1 /
// false-alarm / anomaly-miss trajectories.
package active

import (
	"math"
	"math/rand"

	"albadross/internal/ml"
	"albadross/internal/telemetry"
)

// QueryContext is everything a strategy may consult when choosing the
// next sample to label.
type QueryContext struct {
	// Probs[i] is the model's class-probability vector for pool sample i.
	// It is nil when the strategy reports NeedsProbs() == false.
	Probs [][]float64
	// Meta[i] is the provenance of pool sample i.
	Meta []telemetry.RunMeta
	// Rng is the loop's seeded random source.
	Rng *rand.Rand
	// Query is the 0-based index of this query within the loop.
	Query int
	// PoolX and LabeledX carry the pool's and the labeled set's feature
	// vectors; the loop fills them only for strategies implementing
	// FeatureAware (e.g. UncertaintyDiversity).
	PoolX    [][]float64
	LabeledX [][]float64
	// Model is the currently trained classifier; the loop fills it only
	// for strategies implementing ModelAware (e.g. QueryByCommittee).
	Model ml.Classifier
}

// Strategy picks which pool sample to ask the annotator about.
type Strategy interface {
	// Name identifies the strategy in reports ("uncertainty", ...).
	Name() string
	// NeedsProbs reports whether Next consumes model probabilities; the
	// loop skips batch inference for strategies that do not.
	NeedsProbs() bool
	// Next returns the pool position (0..len(Meta)-1) to query.
	Next(ctx *QueryContext) int
}

// Uncertainty selects the sample whose top prediction is least confident:
// argmax over the pool of U(x) = 1 - P(y|x) (Eq. 1 of the paper).
type Uncertainty struct{}

// Name returns "uncertainty".
func (Uncertainty) Name() string { return "uncertainty" }

// NeedsProbs reports true.
func (Uncertainty) NeedsProbs() bool { return true }

// Next returns the argmax of 1 - max(p).
func (Uncertainty) Next(ctx *QueryContext) int {
	best, bestScore := 0, math.Inf(-1)
	for i, p := range ctx.Probs {
		score := 1 - maxProb(p)
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// Margin selects the sample with the smallest gap between the two most
// likely classes: argmin of M(x) = P(y1|x) - P(y2|x) (Eq. 3).
type Margin struct{}

// Name returns "margin".
func (Margin) Name() string { return "margin" }

// NeedsProbs reports true.
func (Margin) NeedsProbs() bool { return true }

// Next returns the argmin of the top-2 probability gap.
func (Margin) Next(ctx *QueryContext) int {
	best, bestScore := 0, math.Inf(1)
	for i, p := range ctx.Probs {
		first, second := top2(p)
		score := first - second
		if score < bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// Entropy selects the sample with the highest Shannon entropy of its
// class distribution: argmax of H(x) = -sum p log p (Eq. 4).
type Entropy struct{}

// Name returns "entropy".
func (Entropy) Name() string { return "entropy" }

// NeedsProbs reports true.
func (Entropy) NeedsProbs() bool { return true }

// Next returns the argmax of the prediction entropy.
func (Entropy) Next(ctx *QueryContext) int {
	best, bestScore := 0, math.Inf(-1)
	for i, p := range ctx.Probs {
		h := 0.0
		for _, v := range p {
			if v > 0 {
				h -= v * math.Log(v)
			}
		}
		if h > bestScore {
			best, bestScore = i, h
		}
	}
	return best
}

// Random is the standard active-learning baseline: a uniformly random
// pool sample each query (Sec. IV-D).
type Random struct{}

// Name returns "random".
func (Random) Name() string { return "random" }

// NeedsProbs reports false.
func (Random) NeedsProbs() bool { return false }

// Next returns a uniform pool position.
func (Random) Next(ctx *QueryContext) int { return ctx.Rng.Intn(len(ctx.Meta)) }

// EqualApp is the paper's second baseline: it assumes the running
// applications are known and cycles through them, querying one random
// sample of each application type in turn, so every len(apps) queries
// cover every application once.
type EqualApp struct {
	// Apps is the application rotation; when empty it is derived from the
	// pool metadata at each query (sorted for determinism).
	Apps []string
}

// Name returns "equal-app".
func (EqualApp) Name() string { return "equal-app" }

// NeedsProbs reports false.
func (EqualApp) NeedsProbs() bool { return false }

// Next returns a random pool sample of the application whose rotation
// turn it is; when the pool has no sample of that application it falls
// back to uniform random.
func (s EqualApp) Next(ctx *QueryContext) int {
	apps := s.Apps
	if len(apps) == 0 {
		apps = distinctApps(ctx.Meta)
	}
	if len(apps) == 0 {
		return ctx.Rng.Intn(len(ctx.Meta))
	}
	want := apps[ctx.Query%len(apps)]
	var candidates []int
	for i := range ctx.Meta {
		if ctx.Meta[i].App == want {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) == 0 {
		return ctx.Rng.Intn(len(ctx.Meta))
	}
	return candidates[ctx.Rng.Intn(len(candidates))]
}

func distinctApps(meta []telemetry.RunMeta) []string {
	seen := map[string]bool{}
	var out []string
	for i := range meta {
		if !seen[meta[i].App] {
			seen[meta[i].App] = true
			out = append(out, meta[i].App)
		}
	}
	// Deterministic rotation order.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func maxProb(p []float64) float64 {
	m := math.Inf(-1)
	for _, v := range p {
		if v > m {
			m = v
		}
	}
	return m
}

// top2 returns the largest and second-largest probabilities.
func top2(p []float64) (first, second float64) {
	first, second = math.Inf(-1), math.Inf(-1)
	for _, v := range p {
		if v > first {
			second = first
			first = v
		} else if v > second {
			second = v
		}
	}
	if math.IsInf(second, -1) {
		second = 0
	}
	return first, second
}

// ByName returns the built-in strategy with the given name.
func ByName(name string) (Strategy, bool) {
	switch name {
	case "uncertainty":
		return Uncertainty{}, true
	case "margin":
		return Margin{}, true
	case "entropy":
		return Entropy{}, true
	case "random":
		return Random{}, true
	case "equal-app", "equalapp":
		return EqualApp{}, true
	case "uncertainty-diversity":
		return UncertaintyDiversity{}, true
	case "committee":
		return QueryByCommittee{}, true
	default:
		return nil, false
	}
}

// StrategyNames lists the built-in strategy names in canonical order:
// the paper's three query strategies, its two non-ML baselines, and this
// library's extensions (diversity-aware uncertainty and
// query-by-committee).
func StrategyNames() []string {
	return []string{"uncertainty", "margin", "entropy", "random", "equal-app", "uncertainty-diversity", "committee"}
}
