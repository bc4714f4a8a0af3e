// Package ml defines the classifier contract shared by the model zoo
// (random forest, gradient-boosted trees, logistic regression, MLP) and
// batch helpers. The paper's active-learning loop only needs two
// operations from a model: fitting on a labeled set and producing
// calibrated-ish class probabilities for query strategies (Sec. III-D).
package ml

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
)

// Classifier is a multiclass probabilistic classifier.
type Classifier interface {
	// Fit trains the model on rows x with class labels y in [0, nClasses).
	// Fit may be called repeatedly; each call retrains from scratch.
	Fit(x [][]float64, y []int, nClasses int) error
	// PredictProba returns the class-probability vector for one sample.
	// The result has nClasses entries summing to 1. Calling it before Fit
	// panics (programmer error).
	PredictProba(x []float64) []float64
	// NumClasses reports the class count the model was fitted with, 0
	// before fitting.
	NumClasses() int
}

// Factory constructs a fresh, unfitted classifier. The active-learning
// loop uses factories to retrain models as the labeled set grows.
type Factory func() Classifier

// Argmax returns the index of the largest probability, breaking ties
// toward the lower index.
func Argmax(p []float64) int {
	best := 0
	for i, v := range p {
		if v > p[best] {
			best = i
		}
	}
	return best
}

// PredictBatch returns the most likely class per row.
func PredictBatch(c Classifier, x [][]float64) []int {
	probs := ProbaBatchParallel(c, x, 0)
	out := make([]int, len(x))
	for i, p := range probs {
		out[i] = Argmax(p)
	}
	return out
}

// ProbaBatch returns the probability matrix for many rows, one
// PredictProba call per row. It is the serial reference path; the
// serving stack uses ProbaBatchParallel.
func ProbaBatch(c Classifier, x [][]float64) [][]float64 {
	out := make([][]float64, len(x))
	for i, row := range x {
		out[i] = c.PredictProba(row)
	}
	return out
}

// BatchPredictor is implemented by classifiers with a native batch
// inference path (tree, forest, gbm). PredictProbaBatch must return
// exactly one NumClasses-length probability row per input row, equal to
// what per-row PredictProba calls would produce.
type BatchPredictor interface {
	// PredictProbaBatch classifies many rows in one pass.
	PredictProbaBatch(x [][]float64) [][]float64
}

// Warmer is implemented by models that precompute serving-time
// acceleration structures from their fitted state — the tree ensembles
// build their flattened SoA node arrays (internal/ml/flat) here. Fit
// warms automatically; WarmFlat exists for models decoded from disk,
// whose unexported caches gob cannot carry. It must be idempotent. It
// is not safe to call concurrently with prediction, so callers warm
// before publishing a model to serving goroutines.
type Warmer interface {
	// WarmFlat builds any missing acceleration structures.
	WarmFlat()
}

// Warm precomputes c's serving-time acceleration structures when it
// implements Warmer and is a no-op otherwise. The server calls it once
// per model at snapshot-publication time, before the model becomes
// visible to concurrent traffic.
func Warm(c Classifier) {
	if w, ok := c.(Warmer); ok {
		w.WarmFlat()
	}
}

// ProbaBatchParallel returns the probability matrix for many rows using
// the fastest available path: the model's native PredictProbaBatch when
// it implements BatchPredictor, and otherwise PredictProba fanned out
// across workers goroutines (workers <= 0 uses runtime.NumCPU()). Row
// order is preserved and the result is deterministic regardless of the
// worker count.
//
//albacheck:coldpath dispatch only: a native batch predictor is reached through the BatchPredictor interface (the flat kernels behind it are hot roots themselves); the per-row fallback serves models without one and allocates its output matrix by contract
func ProbaBatchParallel(c Classifier, x [][]float64, workers int) [][]float64 {
	if bp, ok := c.(BatchPredictor); ok {
		return bp.PredictProbaBatch(x)
	}
	out := make([][]float64, len(x))
	ParallelRows(len(x), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = c.PredictProba(x[i])
		}
	})
	return out
}

// ParallelRows partitions [0, n) into contiguous chunks and runs fn on
// each chunk from its own goroutine, blocking until every chunk is
// done. workers <= 0 uses runtime.NumCPU(); a single worker (or n <= 1)
// runs fn inline with no goroutine overhead. Chunks are disjoint, so fn
// may write to per-row slots of a shared slice without synchronization.
func ParallelRows(n, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) { //albacheck:ignore hotalloc bounded worker fan-out: goroutine, closure and defer amortize across the whole row chunk
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// ProbaMatrix allocates an n-row, k-column probability matrix backed by
// one contiguous allocation — the shape every PredictProbaBatch returns.
// Sharing the backing array keeps a large batch to two allocations
// instead of n+1.
func ProbaMatrix(n, k int) [][]float64 {
	flat := make([]float64, n*k)
	out := make([][]float64, n)
	for i := range out {
		out[i] = flat[i*k : (i+1)*k : (i+1)*k]
	}
	return out
}

// ValidateTrainingInput checks the common Fit preconditions and returns a
// descriptive error: non-empty data, rectangular matrix, matching label
// count, labels in range.
func ValidateTrainingInput(x [][]float64, y []int, nClasses int) error {
	if len(x) == 0 {
		return errors.New("ml: empty training set")
	}
	if len(x) != len(y) {
		return fmt.Errorf("ml: %d rows but %d labels", len(x), len(y))
	}
	if nClasses < 2 {
		return fmt.Errorf("ml: need at least 2 classes, got %d", nClasses)
	}
	d := len(x[0])
	for i, row := range x {
		if len(row) != d {
			return fmt.Errorf("ml: row %d has %d features, row 0 has %d", i, len(row), d)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("ml: non-finite feature at row %d col %d", i, j)
			}
		}
	}
	return validateLabels(y, nClasses)
}

// validateLabels checks that every label lies in [0, nClasses).
func validateLabels(y []int, nClasses int) error {
	for i, c := range y {
		if c < 0 || c >= nClasses {
			return fmt.Errorf("ml: label %d at row %d outside [0,%d)", c, i, nClasses)
		}
	}
	return nil
}

// Softmax writes the softmax of logits into out (allocating when out is
// nil) and returns it. It is numerically stable under large logits.
func Softmax(logits []float64, out []float64) []float64 {
	if out == nil {
		out = make([]float64, len(logits)) //albacheck:ignore hotalloc allocates only when the caller passes nil; the flat kernels pass preallocated buffers
	}
	max := math.Inf(-1)
	for _, v := range logits {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	for i, v := range logits {
		e := math.Exp(v - max)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum //albacheck:ignore floatsafe sum >= 1: the max logit contributes Exp(0) = 1 to it
	}
	return out
}
