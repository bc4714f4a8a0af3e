package active

import (
	"fmt"
	"math"
	"math/rand"

	"albadross/internal/ml"
	"albadross/internal/runner"
)

// ModelAware is an optional Strategy extension: strategies that inspect
// the trained model itself rather than only its averaged probabilities.
// The loop fills QueryContext.Model for these.
type ModelAware interface {
	// NeedsModel reports whether Next reads QueryContext.Model.
	NeedsModel() bool
}

// Committee is any ensemble exposing its members' individual predictions
// (the random forest does via MemberProbas).
type Committee interface {
	// MemberProbas returns each ensemble member's class-probability
	// vector for one sample.
	MemberProbas(x []float64) [][]float64
}

// QueryByCommittee implements the query-by-committee strategy (Freund,
// Seung, Shamir & Tishby, 1997 — reference [26] of the paper's
// background): each ensemble member votes for its most likely class and
// the sample with the highest vote entropy (greatest committee
// disagreement) is queried. With a random-forest model the trees are the
// committee; for non-ensemble models the strategy degrades to plain
// classification entropy over the averaged probabilities.
type QueryByCommittee struct {
	// Workers bounds the pool-scan parallelism (0 = GOMAXPROCS). The
	// picked sample is identical for any worker count.
	Workers int
}

// Name returns "committee".
func (QueryByCommittee) Name() string { return "committee" }

// NeedsProbs reports true (the fallback path uses them).
func (QueryByCommittee) NeedsProbs() bool { return true }

// NeedsModel reports true.
func (QueryByCommittee) NeedsModel() bool { return true }

// Next returns the pool position with maximal vote entropy. Per-sample
// vote entropies are computed in parallel over contiguous pool chunks;
// the argmax scan stays serial and keeps the first maximum, so the
// result matches the serial implementation exactly.
func (s QueryByCommittee) Next(ctx *QueryContext) int {
	committee, ok := ctx.Model.(Committee)
	if !ok || len(ctx.PoolX) == 0 {
		return Entropy{}.Next(ctx)
	}
	// Probe one sample: a model whose committee view is empty (no
	// ensemble members) falls back to plain entropy, as before.
	if len(committee.MemberProbas(ctx.PoolX[0])) == 0 {
		return Entropy{}.Next(ctx)
	}
	scores := make([]float64, len(ctx.PoolX))
	ml.ParallelRows(len(ctx.PoolX), s.Workers, func(lo, hi int) {
		var votes []float64
		for i := lo; i < hi; i++ {
			members := committee.MemberProbas(ctx.PoolX[i])
			if votes == nil {
				votes = make([]float64, len(members[0]))
			} else {
				for c := range votes {
					votes[c] = 0
				}
			}
			for _, p := range members {
				votes[ml.Argmax(p)]++
			}
			h := 0.0
			n := float64(len(members))
			for _, v := range votes {
				if v > 0 {
					frac := v / n
					h -= frac * math.Log(frac)
				}
			}
			scores[i] = h
		}
	})
	best, bestScore := 0, math.Inf(-1)
	for i, h := range scores {
		if h > bestScore {
			best, bestScore = i, h
		}
	}
	return best
}

// NeedsFeatures reports true: vote counting runs on the raw vectors.
func (QueryByCommittee) NeedsFeatures() bool { return true }

// CommitteeConfig sizes a TrainedCommittee.
type CommitteeConfig struct {
	// Members is the committee size (default 5).
	Members int
	// Workers bounds member-training parallelism (0 = GOMAXPROCS).
	Workers int
	// Seed derives each member's bootstrap resample. Member m draws from
	// runner.CellSeed(Seed, m) — a pure function of the member index —
	// so the fitted committee is identical for any worker count.
	Seed int64
}

// TrainedCommittee turns any model factory into a committee: Fit trains
// Members copies of the factory's model on seeded bootstrap resamples
// of the labeled set, in parallel. It implements ml.Classifier (soft
// vote over members) and the Committee interface, so QueryByCommittee
// works with non-ensemble base models (logistic regression, MLP) too.
type TrainedCommittee struct {
	Cfg     CommitteeConfig
	Factory ml.Factory
	// Members holds the fitted committee after Fit.
	Members  []ml.Classifier
	nClasses int
}

// Fit trains every member on its own bootstrap resample, fanned out
// across Cfg.Workers.
func (t *TrainedCommittee) Fit(x [][]float64, y []int, nClasses int) error {
	if err := ml.ValidateTrainingInput(x, y, nClasses); err != nil {
		return err
	}
	members := make([]ml.Classifier, t.Cfg.Members)
	if err := runner.ForEach(t.Cfg.Members, t.Cfg.Workers, func(mi int) error {
		rng := rand.New(rand.NewSource(runner.CellSeed(t.Cfg.Seed, mi)))
		bx := make([][]float64, len(x))
		by := make([]int, len(x))
		for i := range bx {
			j := rng.Intn(len(x))
			bx[i] = x[j]
			by[i] = y[j]
		}
		m := t.Factory()
		if err := m.Fit(bx, by, nClasses); err != nil {
			return fmt.Errorf("active: committee member %d: %w", mi, err)
		}
		members[mi] = m
		return nil
	}); err != nil {
		return err
	}
	t.Members = members
	t.nClasses = nClasses
	return nil
}

// PredictProba soft-votes the members' probability vectors.
func (t *TrainedCommittee) PredictProba(x []float64) []float64 {
	if len(t.Members) == 0 {
		panic("active: TrainedCommittee.PredictProba before Fit")
	}
	acc := make([]float64, t.nClasses)
	for _, m := range t.Members {
		for c, v := range m.PredictProba(x) {
			acc[c] += v
		}
	}
	inv := 1 / float64(len(t.Members))
	for c := range acc {
		acc[c] *= inv
	}
	return acc
}

// NumClasses reports the fitted class count.
func (t *TrainedCommittee) NumClasses() int { return t.nClasses }

// MemberProbas returns each member's probability vector for one sample.
func (t *TrainedCommittee) MemberProbas(x []float64) [][]float64 {
	out := make([][]float64, len(t.Members))
	for i, m := range t.Members {
		out[i] = m.PredictProba(x)
	}
	return out
}
