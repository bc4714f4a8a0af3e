// Package dataset provides the labeled-sample container of the pipeline
// and the dataset-splitting machinery of Sec. IV-E-2 / Fig. 2 of the
// paper: stratified train/test splits, stratified k-fold cross-validation,
// and the active-learning split that carves the training data into an
// initial labeled set (one sample per application-anomaly pair) and an
// unlabeled pool with a production-like 10% anomaly ratio.
package dataset

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"albadross/internal/telemetry"
)

// Dataset is a feature matrix with class labels and per-sample provenance.
type Dataset struct {
	// X is the feature matrix, one row per sample.
	X [][]float64
	// Y holds class indices into Classes.
	Y []int
	// Classes maps class index to label string; Classes[0] is healthy by
	// convention of the callers.
	Classes []string
	// Meta records each sample's provenance (application, input deck,
	// node, anomaly, ...).
	Meta []telemetry.RunMeta
	// FeatureNames names the columns of X (optional, may be nil).
	FeatureNames []string

	classIdx map[string]int
}

// New creates an empty dataset over the given class label set.
func New(classes []string) *Dataset {
	d := &Dataset{Classes: append([]string{}, classes...), classIdx: map[string]int{}}
	for i, c := range d.Classes {
		d.classIdx[c] = i
	}
	return d
}

// ClassIndex returns the index of a class label.
func (d *Dataset) ClassIndex(label string) (int, bool) {
	if d.classIdx == nil {
		d.rebuildIndex()
	}
	i, ok := d.classIdx[label]
	return i, ok
}

func (d *Dataset) rebuildIndex() {
	d.classIdx = map[string]int{}
	for i, c := range d.Classes {
		d.classIdx[c] = i
	}
}

// Add appends one sample. The label must be one of the dataset's classes.
func (d *Dataset) Add(x []float64, label string, meta telemetry.RunMeta) error {
	ci, ok := d.ClassIndex(label)
	if !ok {
		return fmt.Errorf("dataset: unknown class %q", label)
	}
	if len(d.X) > 0 && len(x) != len(d.X[0]) {
		return fmt.Errorf("dataset: sample has %d features, dataset has %d", len(x), len(d.X[0]))
	}
	d.X = append(d.X, x)
	d.Y = append(d.Y, ci)
	d.Meta = append(d.Meta, meta)
	return nil
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.X) }

// Dim returns the number of features (0 when empty).
func (d *Dataset) Dim() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// ClassCounts returns the number of samples per class index.
func (d *Dataset) ClassCounts() []int {
	counts := make([]int, len(d.Classes))
	for _, y := range d.Y {
		counts[y]++
	}
	return counts
}

// Subset returns a new dataset containing the given sample indices (rows
// are shared, not copied).
func (d *Dataset) Subset(idx []int) *Dataset {
	out := New(d.Classes)
	out.FeatureNames = d.FeatureNames
	for _, i := range idx {
		out.X = append(out.X, d.X[i])
		out.Y = append(out.Y, d.Y[i])
		out.Meta = append(out.Meta, d.Meta[i])
	}
	return out
}

// byClass groups sample indices per class, each group in ascending order.
func byClass(y []int, nClasses int) [][]int {
	groups := make([][]int, nClasses)
	for i, c := range y {
		groups[c] = append(groups[c], i)
	}
	return groups
}

// StratifiedSplit partitions sample indices into train and test sets with
// per-class proportions preserved (each class contributes ~testFrac of its
// samples to test, at least one sample staying in train when possible).
func StratifiedSplit(y []int, nClasses int, testFrac float64, seed int64) (train, test []int, err error) {
	if testFrac <= 0 || testFrac >= 1 {
		return nil, nil, fmt.Errorf("dataset: test fraction %v outside (0,1)", testFrac)
	}
	if len(y) == 0 {
		return nil, nil, errors.New("dataset: empty label slice")
	}
	rng := rand.New(rand.NewSource(seed))
	for _, group := range byClass(y, nClasses) {
		if len(group) == 0 {
			continue
		}
		perm := rng.Perm(len(group))
		nTest := int(float64(len(group))*testFrac + 0.5)
		if nTest >= len(group) {
			nTest = len(group) - 1
		}
		for i, p := range perm {
			if i < nTest {
				test = append(test, group[p])
			} else {
				train = append(train, group[p])
			}
		}
	}
	sort.Ints(train)
	sort.Ints(test)
	return train, test, nil
}

// StratifiedKFold returns k folds of sample indices with per-class
// proportions approximately preserved. Folds are disjoint and cover all
// samples.
func StratifiedKFold(y []int, nClasses, k int, seed int64) ([][]int, error) {
	if k < 2 {
		return nil, fmt.Errorf("dataset: k must be >= 2, got %d", k)
	}
	if len(y) < k {
		return nil, fmt.Errorf("dataset: %d samples for %d folds", len(y), k)
	}
	rng := rand.New(rand.NewSource(seed))
	folds := make([][]int, k)
	for _, group := range byClass(y, nClasses) {
		perm := rng.Perm(len(group))
		for i, p := range perm {
			f := i % k
			folds[f] = append(folds[f], group[p])
		}
	}
	for f := range folds {
		sort.Ints(folds[f])
	}
	return folds, nil
}

// ALSplit is the Fig. 2 dataset split: a small initial labeled set, a
// large unlabeled pool the query strategies draw from, and a withheld test
// set.
type ALSplit struct {
	// Initial holds the initially labeled samples: one per
	// (application, anomaly) pair, per Sec. III-C.
	Initial []int
	// Pool holds the unlabeled samples available for querying.
	Pool []int
	// Test holds the withheld evaluation samples.
	Test []int
}

// ALSplitConfig configures MakeALSplit.
type ALSplitConfig struct {
	// TestFraction of each class goes to the test set.
	TestFraction float64
	// AnomalyRatio is the target anomalous fraction of the active-learning
	// training dataset (initial + pool); the paper caps it at 10%.
	AnomalyRatio float64
	// HealthyClass is the class index of healthy samples (usually 0).
	HealthyClass int
	// InitialFilter, when non-nil, restricts which samples may enter the
	// initial labeled set (the robustness experiments restrict it to the
	// "seen" applications or input decks while the unlabeled pool keeps
	// everything — labels, not telemetry, are what production systems
	// lack). Filtered-out samples remain pool candidates.
	InitialFilter func(telemetry.RunMeta) bool
	// Seed drives all randomized choices.
	Seed int64
}

// MakeALSplit builds the paper's active-learning split. The initial
// labeled set receives one randomly chosen training sample for every
// (application, anomaly-class) combination present in the data — and no
// healthy samples, matching the paper's initial sample counts (e.g.
// 11 apps x 5 anomalies = 55 on Volta). The remaining training anomalies
// are subsampled so the pool+initial anomaly ratio is at most
// AnomalyRatio.
func MakeALSplit(d *Dataset, cfg ALSplitConfig) (*ALSplit, error) {
	if d.Len() == 0 {
		return nil, errors.New("dataset: empty dataset")
	}
	train, test, err := StratifiedSplit(d.Y, len(d.Classes), cfg.TestFraction, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return MakeALSplitFrom(d, train, test, cfg)
}

// MakeALSplitFrom builds the active-learning split from caller-provided
// train/test index sets — the robustness experiments (Sec. V-B) use this
// to hold whole applications or input decks out of the training side.
// The initial labeled set and the ratio-capped pool are carved out of
// train; test passes through unchanged.
func MakeALSplitFrom(d *Dataset, train, test []int, cfg ALSplitConfig) (*ALSplit, error) {
	if d.Len() == 0 {
		return nil, errors.New("dataset: empty dataset")
	}
	if len(train) == 0 {
		return nil, errors.New("dataset: empty training index set")
	}
	if cfg.AnomalyRatio <= 0 || cfg.AnomalyRatio >= 1 {
		return nil, fmt.Errorf("dataset: anomaly ratio %v outside (0,1)", cfg.AnomalyRatio)
	}
	if cfg.HealthyClass < 0 || cfg.HealthyClass >= len(d.Classes) {
		return nil, fmt.Errorf("dataset: healthy class %d out of range", cfg.HealthyClass)
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))

	// Group anomalous training samples by (app, class).
	type pair struct {
		app   string
		class int
	}
	groups := map[pair][]int{}
	var healthyTrain, anomalyTrain []int
	for _, i := range train {
		if d.Y[i] == cfg.HealthyClass {
			healthyTrain = append(healthyTrain, i)
			continue
		}
		anomalyTrain = append(anomalyTrain, i)
		if cfg.InitialFilter != nil && !cfg.InitialFilter(d.Meta[i]) {
			continue
		}
		p := pair{d.Meta[i].App, d.Y[i]}
		groups[p] = append(groups[p], i)
	}
	// Deterministic iteration order over pairs.
	pairs := make([]pair, 0, len(groups))
	for p := range groups {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].app != pairs[b].app {
			return pairs[a].app < pairs[b].app
		}
		return pairs[a].class < pairs[b].class
	})
	initial := make([]int, 0, len(pairs))
	inInitial := map[int]bool{}
	for _, p := range pairs {
		g := groups[p]
		pick := g[rng.Intn(len(g))]
		initial = append(initial, pick)
		inInitial[pick] = true
	}

	// Remaining anomalies, subsampled to the target ratio.
	rest := make([]int, 0, len(anomalyTrain))
	for _, i := range anomalyTrain {
		if !inInitial[i] {
			rest = append(rest, i)
		}
	}
	// Target anomaly count A so that A / (A + H) <= ratio, counting the
	// initial anomalies toward A.
	h := float64(len(healthyTrain))
	maxAnom := int(cfg.AnomalyRatio / (1 - cfg.AnomalyRatio) * h)
	budget := maxAnom - len(initial)
	if budget < 0 {
		budget = 0
	}
	rng.Shuffle(len(rest), func(a, b int) { rest[a], rest[b] = rest[b], rest[a] })
	if budget < len(rest) {
		rest = rest[:budget]
	}
	pool := append(append([]int{}, healthyTrain...), rest...)
	sort.Ints(pool)
	sort.Ints(initial)
	return &ALSplit{Initial: initial, Pool: pool, Test: test}, nil
}

// FilterIndices returns the dataset indices whose metadata satisfies keep.
func (d *Dataset) FilterIndices(keep func(telemetry.RunMeta) bool) []int {
	var out []int
	for i := range d.Meta {
		if keep(d.Meta[i]) {
			out = append(out, i)
		}
	}
	return out
}
