// Package forest implements a random-forest classifier: bagged CART trees
// with per-split feature subsampling and soft-voting over leaf class
// distributions. It is the model the paper's headline results use
// (Table IV "RF": n_estimators, max_depth, criterion).
package forest

import (
	"fmt"
	"math/rand"
	"runtime"
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
	// Seed derives every tree's bootstrap and feature-subsampling seeds.
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
}

// New returns an unfitted forest.
func New(cfg Config) *Forest { return &Forest{Cfg: cfg.withDefaults()} }

// NewFactory adapts the config into an ml.Factory.
func NewFactory(cfg Config) ml.Factory {
	return func() ml.Classifier { return New(cfg) }
}

// NumClasses reports the fitted class count.
func (f *Forest) NumClasses() int { return f.NClasses }

// Fit trains NEstimators trees on bootstrap resamples of (x, y), in
// parallel. It ranks x's columns once (ml.NewColumns, over the forest's
// workers) and every tree grows on that ranking. Training is
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
	return f.fit(start, c, y, nClasses)
}

// FitColumns is Fit on an existing ranking of the rows
// (ml.ColumnFitter): the active-learning session keeps one across
// labels, so a refit pays for no ranking at all.
func (f *Forest) FitColumns(c *ml.Columns, y []int, nClasses int) error {
	start := time.Now()
	if err := ml.ValidateColumns(c, y, nClasses); err != nil {
		return err
	}
	return f.fit(start, c, y, nClasses)
}

// fit grows the trees on a validated ranking; start is when the public
// call began, for the fit-time and utilization metrics.
func (f *Forest) fit(start time.Time, c *ml.Columns, y []int, nClasses int) error {
	cfg := f.Cfg
	f.NClasses = nClasses
	f.flatFore = nil
	f.Trees = make([]*tree.Classifier, cfg.NEstimators)
	errs := make([]error, cfg.NEstimators)
	var busy atomic.Int64 // summed per-tree training nanoseconds
	var wg sync.WaitGroup
	sem := make(chan struct{}, cfg.Workers)
	for t := 0; t < cfg.NEstimators; t++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(t int) {
			defer wg.Done()
			defer func() { <-sem }()
			treeStart := time.Now()
			defer func() { busy.Add(int64(time.Since(treeStart))) }()
			seed := cfg.Seed*1_000_003 + int64(t)
			rng := rand.New(rand.NewSource(seed))
			w := bootstrapWeights(c.Len(), rng)
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

// bootstrapWeights draws n samples with replacement and returns the
// multiplicity of each index.
func bootstrapWeights(n int, rng *rand.Rand) []int {
	w := make([]int, n)
	for i := 0; i < n; i++ {
		w[rng.Intn(n)]++
	}
	return w
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
