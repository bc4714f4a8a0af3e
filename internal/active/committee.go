package active

import (
	"math"

	"albadross/internal/ml"
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
