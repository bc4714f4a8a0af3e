// Package forest implements a random-forest classifier: bagged CART trees
// with per-split feature subsampling and soft-voting over leaf class
// distributions. It is the model the paper's headline results use
// (Table IV "RF": n_estimators, max_depth, criterion).
//
// Bagging is Oza & Russell's online bagging (AISTATS 2001): row i's
// weight in tree t is a Poisson(1) draw, the bootstrap's limit as the
// row count grows, keyed by (tree seed, i) through SplitMix64 rather
// than drawn from a stream. A row keeps its weight when rows are
// appended, so a refit on a grown ranking (FitColumns with the previous
// forest as prev) keeps every tree in which each appended row has
// weight 0, with probability e⁻¹ per tree per appended row. Such a tree
// is exactly the one a fresh fit grows: a weight-0 row is not among the
// tree's active rows, the ranking's dense ranks keep the equality
// pattern among the active ones, and every threshold is placed between
// neighbouring active rows, so the split search sees the same input
// node for node.
package forest

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"albadross/internal/ml"
	"albadross/internal/ml/flat"
	"albadross/internal/ml/tree"
	"albadross/internal/obs"
)

// workerUtilization is the fraction of the last Fit's worker-slot time
// spent training trees (1.0 = every worker busy for the whole fit); see
// docs/OBSERVABILITY.md.
var workerUtilization = obs.NewGauge(obs.Opts{
	Name: "ml_forest_worker_utilization",
	Help: "Busy fraction of the forest's training workers during the last Fit.",
	Unit: "ratio",
})

// Config are the forest hyperparameters from Table IV.
type Config struct {
	// NEstimators is the number of trees (paper grid: 8-200).
	NEstimators int
	// MaxDepth limits each tree (0 = unlimited, sklearn None).
	MaxDepth int
	// Criterion is the split impurity measure.
	Criterion tree.Criterion
	// MaxFeatures candidates per split; 0 uses sqrt(d), the sklearn
	// default for classification.
	MaxFeatures int
	// MinSamplesLeaf is forwarded to each tree.
	MinSamplesLeaf int
	// Workers bounds training parallelism; 0 uses GOMAXPROCS.
	Workers int
	// Seed derives every tree's bagging key and feature-subsampling seed.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.NEstimators <= 0 {
		c.NEstimators = 100
	}
	if c.MaxFeatures == 0 {
		c.MaxFeatures = -1 // sqrt(d)
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Forest is a fitted random forest.
type Forest struct {
	Cfg      Config
	Trees    []*tree.Classifier
	NClasses int
	// flatFore is the flattened SoA copy of every tree behind
	// PredictProbaBatch. Unexported (gob skips it); built by Fit or
	// WarmFlat, immutable afterwards. When nil — a forest decoded from
	// disk and never warmed — the batch path falls back to the pointer
	// walk rather than racing to build it.
	flatFore *flat.Forest
	// fitCols and fitY record what the last FitColumns trained on: the
	// ranking, of which it read the first len(fitY) rows, and a copy of
	// the labels. A later FitColumns that is given this forest as prev
	// checks them before it reuses a tree. Fit, a failed fit and gob
	// decoding leave them nil, and such a forest is never reused.
	fitCols *ml.Columns
	fitY    []int
}

// New returns an unfitted forest.
func New(cfg Config) *Forest { return &Forest{Cfg: cfg.withDefaults()} }

// NewFactory adapts the config into an ml.Factory.
func NewFactory(cfg Config) ml.Factory {
	return func() ml.Classifier { return New(cfg) }
}

// NumClasses reports the fitted class count.
func (f *Forest) NumClasses() int { return f.NClasses }

// Fit trains NEstimators trees on keyed Poisson(1) resamples of (x, y),
// in parallel. It ranks x's columns once (ml.NewColumns, over the
// forest's workers) and every tree grows on that ranking. Training is
// deterministic for a fixed seed regardless of the worker count.
func (f *Forest) Fit(x [][]float64, y []int, nClasses int) error {
	start := time.Now()
	if err := ml.ValidateTrainingInput(x, y, nClasses); err != nil {
		return err
	}
	c, err := ml.NewColumns(x, f.Cfg.Workers)
	if err != nil {
		return err
	}
	return f.fit(start, c, y, nClasses, nil, 0)
}

// FitColumns is Fit on an existing ranking of the rows
// (ml.ColumnFitter): the active-learning session keeps one across
// labels, so a refit pays for no ranking at all. When prev is a forest
// that FitColumns trained on an earlier state of the same ranking, with
// the same configuration (Workers aside), class count and labels for
// the rows it saw, every tree of prev in which all rows appended since
// have weight 0 is kept as it stands; the rest grow afresh. Anything
// else about prev, nil included, makes it a fresh fit. Either way the
// forest is bitwise the one a fresh fit grows. Kept trees are shared
// with prev, which stays valid and may keep predicting concurrently.
func (f *Forest) FitColumns(c *ml.Columns, y []int, nClasses int, prev ml.Classifier) error {
	start := time.Now()
	if err := ml.ValidateColumns(c, y, nClasses); err != nil {
		return err
	}
	old, n0 := f.reusable(prev, c, y, nClasses)
	if err := f.fit(start, c, y, nClasses, old, n0); err != nil {
		return err
	}
	f.fitCols, f.fitY = c, slices.Clone(y)
	return nil
}

// reusable returns prev's trees and the row count they were fit on when
// prev may lend FitColumns trees for (c, y, nClasses), and nil
// otherwise. It reads prev before fit resets anything, so prev may be f.
func (f *Forest) reusable(prev ml.Classifier, c *ml.Columns, y []int, nClasses int) ([]*tree.Classifier, int) {
	p, ok := prev.(*Forest)
	if !ok || p == nil || p.fitCols != c || p.NClasses != nClasses {
		return nil, 0
	}
	cfg := p.Cfg
	cfg.Workers = f.Cfg.Workers
	n0 := len(p.fitY)
	if cfg != f.Cfg || len(p.Trees) != f.Cfg.NEstimators || n0 > len(y) || !slices.Equal(p.fitY, y[:n0]) {
		return nil, 0
	}
	return p.Trees, n0
}

// fit grows the trees on a validated ranking; start is when the public
// call began, for the fit-time and utilization metrics. old, when not
// nil, holds trees fit on the ranking's first n0 rows with the same
// configuration and labels: tree t is kept when every row from n0 on
// has weight 0 in it.
func (f *Forest) fit(start time.Time, c *ml.Columns, y []int, nClasses int, old []*tree.Classifier, n0 int) error {
	cfg := f.Cfg
	n := c.Len()
	f.NClasses = nClasses
	f.flatFore = nil
	f.fitCols, f.fitY = nil, nil
	f.Trees = make([]*tree.Classifier, cfg.NEstimators)
	errs := make([]error, cfg.NEstimators)
	var busy atomic.Int64 // summed per-tree training nanoseconds
	var wg sync.WaitGroup
	sem := make(chan struct{}, cfg.Workers)
	for t := 0; t < cfg.NEstimators; t++ {
		seed := cfg.Seed*1_000_003 + int64(t)
		key := bagKey(seed)
		if old != nil && bagOmits(key, n0, n) {
			f.Trees[t] = old[t]
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(t int) {
			defer wg.Done()
			defer func() { <-sem }()
			treeStart := time.Now()
			defer func() { busy.Add(int64(time.Since(treeStart))) }()
			w := bagWeights(key, n)
			tr := tree.NewClassifier(tree.Config{
				MaxDepth:       cfg.MaxDepth,
				MinSamplesLeaf: cfg.MinSamplesLeaf,
				MaxFeatures:    cfg.MaxFeatures,
				Criterion:      cfg.Criterion,
				Seed:           seed + 17,
			})
			if err := tr.FitWeightedColumns(c, y, w, nClasses); err != nil {
				errs[t] = fmt.Errorf("forest: tree %d: %w", t, err)
				return
			}
			f.Trees[t] = tr
		}(t)
	}
	wg.Wait()
	wall := time.Since(start)
	if slots := wall * time.Duration(cfg.Workers); slots > 0 {
		workerUtilization.Set(float64(busy.Load()) / float64(slots))
	}
	ml.ObserveFit("forest", wall)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	f.WarmFlat()
	return nil
}

// WarmFlat builds the forest's flattened representation if it is
// missing (idempotent, not safe concurrently with prediction). Fit
// calls it after training; models decoded from disk get it from
// ml.Warm when the server publishes them.
func (f *Forest) WarmFlat() {
	if f.flatFore != nil || len(f.Trees) == 0 {
		return
	}
	total := 0
	for _, tr := range f.Trees {
		total += len(tr.Nodes)
	}
	fl := flat.NewForest(f.NClasses, len(f.Trees), total)
	for _, tr := range f.Trees {
		tr.Flatten(fl)
	}
	f.flatFore = fl
}

// poisson1 holds ⌊2⁶⁴·P(X ≤ k)⌋ for X ~ Poisson(1), k = 0..19: a
// uniform 64-bit word u maps to the number of entries at or below it,
// which is k with probability P(X = k) to within 2⁻⁶⁴ (P(X ≥ 20) is
// below 2⁻⁶¹ and lands on 20).
var poisson1 = [...]uint64{
	0x5e2d58d8b3bcdf1a, 0xbc5ab1b16779be35, 0xeb715e1dc1582dc2, 0xfb23979734a252f1,
	0xff1025f59174dc3d, 0xffd90f3ba4055e19, 0xfffa8b71fc72c913, 0xffff540c0914b3c9,
	0xffffed1f4aa8f120, 0xfffffe216e641462, 0xffffffd4d85d3183, 0xfffffffc6da262b4,
	0xffffffffba12d178, 0xfffffffffb07c64c, 0xffffffffffab8ea5, 0xfffffffffffabe22,
	0xffffffffffffb11a, 0xfffffffffffffba1, 0xffffffffffffffc5, 0xfffffffffffffffd,
}

// splitMix64 is SplitMix64's output function (Steele, Lea & Flood,
// OOPSLA 2014): the i-th draw of the stream seeded s is
// splitMix64(s + i·golden).
func splitMix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

const golden = 0x9e3779b97f4a7c15

// bagKey turns a tree seed into the SplitMix64 stream its bag draws
// from, so neighbouring tree seeds do not share a stream shifted by one.
func bagKey(seed int64) uint64 { return splitMix64(uint64(seed) + golden) }

// bagWeight is row i's Poisson(1) multiplicity in the bag keyed key: a
// pure function of (key, i), so it does not move when rows are
// appended.
func bagWeight(key uint64, i int) int {
	u := splitMix64(key + uint64(i+1)*golden)
	k := 0
	for k < len(poisson1) && u >= poisson1[k] {
		k++
	}
	return k
}

// bagWeights returns rows 0..n-1's multiplicities in the bag keyed key.
func bagWeights(key uint64, n int) []int {
	w := make([]int, n)
	for i := range w {
		w[i] = bagWeight(key, i)
	}
	return w
}

// bagOmits reports whether every row in [lo, hi) has weight 0 in the
// bag keyed key.
func bagOmits(key uint64, lo, hi int) bool {
	for i := lo; i < hi; i++ {
		if bagWeight(key, i) != 0 {
			return false
		}
	}
	return true
}

// FeatureImportances returns the forest's mean-decrease-impurity feature
// importances, averaged over trees and normalized to sum to 1 (matching
// sklearn's feature_importances_). It returns nil before Fit.
func (f *Forest) FeatureImportances() []float64 {
	if len(f.Trees) == 0 || len(f.Trees[0].Importances) == 0 {
		return nil
	}
	d := len(f.Trees[0].Importances)
	acc := make([]float64, d)
	for _, tr := range f.Trees {
		for j, v := range tr.Importances {
			acc[j] += v
		}
	}
	total := 0.0
	for _, v := range acc {
		total += v
	}
	if total > 0 {
		for j := range acc {
			acc[j] /= total
		}
	}
	return acc
}

// MemberProbas returns every tree's class distribution for one sample,
// the committee view used by query-by-committee strategies.
func (f *Forest) MemberProbas(x []float64) [][]float64 {
	out := make([][]float64, len(f.Trees))
	for i, tr := range f.Trees {
		out[i] = tr.PredictProba(x)
	}
	return out
}

// PredictProba averages the leaf class distributions of every tree
// (sklearn's soft voting).
func (f *Forest) PredictProba(x []float64) []float64 {
	if len(f.Trees) == 0 {
		panic("forest: PredictProba before Fit")
	}
	start := time.Now()
	defer func() { ml.ObservePredict("forest", time.Since(start)) }()
	acc := make([]float64, f.NClasses)
	f.accumulate(x, acc)
	return acc
}

// accumulate soft-votes every tree into acc (len NClasses, zeroed by
// the caller). It allocates nothing: each tree walk lands on the leaf's
// internal distribution via LeafProbs.
func (f *Forest) accumulate(x []float64, acc []float64) {
	if len(f.Trees) == 0 {
		return
	}
	for _, tr := range f.Trees {
		for c, v := range tr.LeafProbs(x) {
			acc[c] += v
		}
	}
	inv := 1 / float64(len(f.Trees))
	for c := range acc {
		acc[c] *= inv
	}
}

// PredictProbaBatch classifies many rows in one pass (ml.BatchPredictor):
// rows are sharded into contiguous chunks across Cfg.Workers goroutines
// (GOMAXPROCS when unset). When the forest has a flattened
// representation (built by Fit or WarmFlat), each worker sweeps the
// cache-local SoA trees over fixed row blocks; otherwise it soft-votes
// rows through the pointer nodes with zero per-tree allocations. Both paths produce output
// bitwise identical to per-row PredictProba for any worker count.
func (f *Forest) PredictProbaBatch(x [][]float64) [][]float64 {
	if len(f.Trees) == 0 {
		panic("forest: PredictProbaBatch before Fit")
	}
	start := time.Now()
	defer func() { ml.ObservePredictBatch("forest", time.Since(start), len(x)) }()
	out := ml.ProbaMatrix(len(x), f.NClasses)
	if fl := f.flatFore; fl != nil {
		fl.PredictProbaInto(x, out, f.Cfg.Workers)
		return out
	}
	ml.ParallelRows(len(x), f.Cfg.Workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			f.accumulate(x[i], out[i])
		}
	})
	return out
}
