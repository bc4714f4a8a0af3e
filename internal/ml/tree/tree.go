// Package tree implements CART decision trees: a classification tree with
// gini/entropy impurity (the substrate of the random forest, Table IV
// "RF") and a regression tree with variance-reduction splits supporting
// both depth-wise and LightGBM-style leaf-wise growth (the substrate of
// the gradient-boosting machine, Table IV "LGBM").
//
// The classification tree grows on an ml.Columns ranking of its input
// and refuses NaN cells with an error naming the row and column: a NaN
// has no place in the ranking, and left in, it could win a split at
// threshold NaN and collapse the tree into one leaf. The regression
// tree still accepts NaN cells and keeps the sort order its reference
// grower gives them.
//
// The classifier's split search does not score a cut that cannot win.
// A cut between two neighbouring value groups that are both pure in one
// class c differs from its neighbouring cuts only by weight of class c
// moved across, and the weighted child impurity, Gini or entropy, is
// strictly concave in that weight unless the node is pure, and pure
// nodes are leaves. So every cut inside a run of c-pure groups is
// strictly worse than one of the run's two end cuts (Fayyad & Irani,
// Machine Learning 8, 1992; Elomaa & Rousu, Machine Learning 36, 1999).
// A feasible end cut is scored; an end at the node's edge is the
// unsplit node, gain 0, which no scored split falls below; and where
// MinSamplesLeaf puts the first or last feasible cut inside a run, that
// cut is scored in the end's place. The scan therefore picks the cut it
// would pick scoring them all, and the reference grower in tree_test.go,
// which does, checks it node for node.
//
// A threshold sits halfway between the two values it separates, or at
// the lower one where the midpoint rounds up to the upper value or a+b
// overflows (sklearn's rule): x <= thr must send the lower value left
// and the upper one right, else the node would fall back to a leaf.
//
// Below termCap a scored cut costs one pass over the classes, which
// reads a table, and no division unless it wins. Each step below leaves
// every tree bitwise what the reference grower builds:
//
//   - Impurity is base - Σ term(c, T) over the classes, base 1 for Gini
//     and 0 for entropy, with term p·p or p·log2(p) for p = c/T and 0
//     for c = 0. For node totals up to termCap the terms come from a
//     table per criterion. Class counts and node totals are exact
//     integers, so p is the same float64 on every call, and an entry is
//     the rounded product the reference computes before it subtracts.
//     That holds where Go does not fuse the product into the
//     subtraction, which it does not on amd64 at GOAMD64=v1 (the
//     default); where it fuses (arm64, GOAMD64=v3) the reference and
//     the table can differ in the last bit. Larger totals compute each
//     term the same way.
//   - A cut keeps only its left child's class counts. Both children's
//     impurities are summed in one loop over the classes, the right
//     counts as parent - left, each sum in class order, so each is the
//     value a separate pass would give.
//   - The cut's weighted child impurity s = L·li + R·ri is compared
//     with the best so far before it is turned into a gain, and a cut
//     with s >= best is skipped. Correctly rounded division and
//     subtraction are monotone, so s >= best implies parent - s/T <=
//     parent - best/T, the current gain, which the cut would not beat.
//   - The winner's threshold is placed once per node, from the rows on
//     either side of its cut; splitThreshold is a pure function of
//     their values.
package tree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"albadross/internal/ml"
	"albadross/internal/ml/flat"
)

// Criterion selects the impurity measure of the classification tree.
type Criterion int

// Impurity criteria matching sklearn's options.
const (
	Gini Criterion = iota
	Entropy
)

// String returns the sklearn-style criterion name.
func (c Criterion) String() string {
	if c == Entropy {
		return "entropy"
	}
	return "gini"
}

// Config controls tree growth.
type Config struct {
	// MaxDepth limits tree depth; 0 means unlimited (sklearn None).
	MaxDepth int
	// MinSamplesSplit is the minimum node size eligible for splitting.
	MinSamplesSplit int
	// MinSamplesLeaf is the minimum samples each child must keep.
	MinSamplesLeaf int
	// MaxFeatures is the number of random feature candidates per split;
	// 0 considers every feature, -1 uses sqrt(d) (the forest default).
	MaxFeatures int
	// Criterion is the impurity measure (classification only).
	Criterion Criterion
	// MaxLeaves, when positive, grows the tree leaf-wise (best-gain-first)
	// up to this many leaves (regression only; LightGBM's num_leaves).
	MaxLeaves int
	// Seed drives feature subsampling.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.MinSamplesSplit < 2 {
		c.MinSamplesSplit = 2
	}
	if c.MinSamplesLeaf < 1 {
		c.MinSamplesLeaf = 1
	}
	return c
}

// node is one tree node; leaves keep a class distribution or value.
type node struct {
	Feature   int // -1 for leaves
	Threshold float64
	Left      int32
	Right     int32
	// Probs is the leaf class distribution (classification).
	Probs []float64
	// Value is the leaf output (regression).
	Value float64
}

// featurePicker yields the candidate feature set for one split.
type featurePicker struct {
	rng  *rand.Rand
	all  []int
	take int
}

func newFeaturePicker(d, maxFeatures int, rng *rand.Rand) *featurePicker {
	take := d
	switch {
	case maxFeatures == -1:
		take = int(math.Sqrt(float64(d)))
		if take < 1 {
			take = 1
		}
	case maxFeatures > 0 && maxFeatures < d:
		take = maxFeatures
	}
	all := make([]int, d)
	for i := range all {
		all[i] = i
	}
	return &featurePicker{rng: rng, all: all, take: take}
}

// pick returns the features to consider for this split. When subsampling,
// it partially shuffles the shared index slice; callers must consume the
// result before the next pick.
func (p *featurePicker) pick() []int {
	if p.take >= len(p.all) {
		return p.all
	}
	for i := 0; i < p.take; i++ {
		j := i + p.rng.Intn(len(p.all)-i)
		p.all[i], p.all[j] = p.all[j], p.all[i]
	}
	return p.all[:p.take]
}

// ---------------------------------------------------------------------------
// Classification tree

// Classifier is a CART classification tree.
type Classifier struct {
	Cfg      Config
	Nodes    []node
	NClasses int
	// Importances[j] is feature j's accumulated impurity decrease,
	// weighted by the fraction of samples routed through each split
	// (sklearn's mean-decrease-impurity, unnormalized).
	Importances []float64
	// flatFore is the flattened single-tree ensemble behind
	// PredictProbaBatch. Unexported (gob skips it); built by Fit or
	// WarmFlat, never mutated afterwards. When nil — e.g. on a tree
	// decoded from disk and never warmed — the batch path falls back to
	// the pointer walk rather than racing to build it.
	flatFore *flat.Forest
}

// NewClassifier returns an unfitted tree with the given configuration.
func NewClassifier(cfg Config) *Classifier {
	return &Classifier{Cfg: cfg.withDefaults()}
}

// NumClasses reports the fitted class count.
func (t *Classifier) NumClasses() int { return t.NClasses }

// Fit grows the tree on the full input. To train on a bootstrap sample or
// with per-sample weights, use FitWeighted.
func (t *Classifier) Fit(x [][]float64, y []int, nClasses int) error {
	if err := t.FitWeighted(x, y, nil, nClasses); err != nil {
		return err
	}
	t.WarmFlat()
	return nil
}

// FitWeighted grows the tree with optional per-sample integer
// multiplicities (nil means one each; zero drops the row, and weights
// that are all zero grow one leaf that gives every class the same
// probability). Integer weights are how the forest feeds bag counts
// without copying rows, and they keep every class count and node total
// an exact integer, which the impurity term tables rely on. It ranks
// x's columns (ml.NewColumns) and grows on the ranking, so a NaN cell
// is refused with its row and column.
func (t *Classifier) FitWeighted(x [][]float64, y []int, w []int, nClasses int) error {
	if err := validateFitInput(len(x), y, w, nClasses); err != nil {
		return err
	}
	c, err := ml.NewColumns(x, 1)
	if err != nil {
		return err
	}
	return t.FitWeightedColumns(c, y, w, nClasses)
}

// FitWeightedColumns is FitWeighted on an existing ranking of the rows,
// which any number of trees may read at once: the forest ranks its
// input once for all of them, and an active-learning session keeps one
// across labels.
func (t *Classifier) FitWeightedColumns(c *ml.Columns, y []int, w []int, nClasses int) error {
	if err := validateFitInput(c.Len(), y, w, nClasses); err != nil {
		return err
	}
	t.NClasses = nClasses
	t.Nodes = t.Nodes[:0]
	t.flatFore = nil
	t.Importances = make([]float64, c.Dim())
	idx := activeIndices(w, c.Len())
	b := newClsBuilder(t, c, y, w)
	b.rootSize = float64(len(idx))
	b.grow(idx, 1)
	return nil
}

// walkShare sets where bestSplit stops sorting: a node holding at least
// 1/walkShare of the ranked rows walks each candidate column's full row
// order and keeps its own rows, which beats a comparison sort of its
// keys. Measured with BenchmarkForestRefit (root bench_test.go).
const walkShare = 8

// clsBuilder holds shared state while growing a classification tree.
// The scratch buffers are sized once per fit and reused by every node,
// so bestSplit allocates nothing.
type clsBuilder struct {
	t        *Classifier
	cols     *ml.Columns
	x        [][]float64
	y        []int
	w        []int
	picker   *featurePicker
	rootSize float64
	// keys is bestSplit's packed rank<<32 | row scratch, one per row.
	keys []uint64
	// mark[i] == stamp marks row i as a member of the node being walked.
	mark  []int32
	stamp int32
	// leftCounts is bestSplit's running left-child class counts.
	leftCounts []int
	// spill holds the right side during partition.
	spill []int
	// base is the criterion's impurity before any term is taken off and
	// terms its term table (see termTable).
	base  float64
	terms []float64
}

func newClsBuilder(t *Classifier, c *ml.Columns, y []int, w []int) *clsBuilder {
	rng := rand.New(rand.NewSource(t.Cfg.Seed))
	n := c.Len()
	b := &clsBuilder{
		t: t, cols: c, x: c.Rows(), y: y, w: w,
		picker:     newFeaturePicker(c.Dim(), t.Cfg.MaxFeatures, rng),
		keys:       make([]uint64, n),
		mark:       make([]int32, n),
		leftCounts: make([]int, t.NClasses),
		spill:      make([]int, n),
	}
	if t.Cfg.Criterion == Entropy {
		b.terms = entropyTerms()
	} else {
		b.base, b.terms = 1, giniTerms()
	}
	return b
}

func (b *clsBuilder) weight(i int) int {
	if b.w == nil {
		return 1
	}
	return b.w[i]
}

// grow builds the subtree over idx and returns its node index. It
// reorders idx in place: each child grows over its own subrange.
func (b *clsBuilder) grow(idx []int, depth int) int32 {
	t := b.t
	counts := make([]int, t.NClasses)
	total := 0
	for _, i := range idx {
		w := b.weight(i)
		counts[b.y[i]] += w
		total += w
	}
	mkLeaf := func() int32 {
		probs := make([]float64, t.NClasses)
		for c := range probs {
			if total > 0 {
				probs[c] = float64(counts[c]) / float64(total)
			} else {
				// Only a root whose every weight is 0 has no rows: no
				// evidence, so every class is equally likely.
				probs[c] = 1 / float64(t.NClasses) //albacheck:ignore floatsafe validateFitInput refuses fewer than 2 classes
			}
		}
		t.Nodes = append(t.Nodes, node{Feature: -1, Probs: probs})
		return int32(len(t.Nodes) - 1)
	}
	if len(idx) < t.Cfg.MinSamplesSplit || isPure(counts) ||
		(t.Cfg.MaxDepth > 0 && depth > t.Cfg.MaxDepth) {
		return mkLeaf()
	}
	feat, thr, gain := b.bestSplit(idx, counts, total)
	if gain <= 1e-12 || feat < 0 {
		return mkLeaf()
	}
	nl := partition(b.x, idx, b.spill, feat, thr)
	if nl < t.Cfg.MinSamplesLeaf || len(idx)-nl < t.Cfg.MinSamplesLeaf {
		return mkLeaf()
	}
	t.Importances[feat] += gain * float64(len(idx)) / b.rootSize //albacheck:ignore floatsafe rootSize is the root node's total sample weight, positive for any input Fit accepts
	// Reserve this node's slot before growing children.
	t.Nodes = append(t.Nodes, node{Feature: feat, Threshold: thr})
	self := int32(len(t.Nodes) - 1)
	l := b.grow(idx[:nl], depth+1)
	r := b.grow(idx[nl:], depth+1)
	t.Nodes[self].Left = l
	t.Nodes[self].Right = r
	return self
}

// bestSplit scans candidate features for the impurity-minimizing split.
// It reads the ranking only: the class counts, leftN, the gain and the
// threshold at a value boundary do not depend on how ties are ordered,
// so any correct order grows the reference grower's tree, and a
// boundary is where the rank changes. Cells are read only to place the
// winner's threshold.
//
// A cut between two value groups pure in one class is skipped when the
// cuts on both sides of the pair are feasible or the node's edges, and
// a cut whose weighted child impurity does not beat the best so far is
// not turned into a gain; the package comment has both rules and why
// they are exact.
//
//albacheck:hotpath
func (b *clsBuilder) bestSplit(idx []int, parentCounts []int, total int) (feat int, thr, gain float64) {
	t := b.t
	if total <= 0 {
		return -1, 0, 0
	}
	walk := len(idx)*walkShare >= b.cols.Len()
	if walk {
		b.stamp++
		for _, i := range idx {
			b.mark[i] = b.stamp
		}
	}
	parentImp := b.impurity(parentCounts, total)
	feat, gain = -1, 0
	// bestS is the winner's weighted child impurity; lo and hi are the
	// rows on either side of its cut.
	bestS, lo, hi := math.Inf(1), 0, 0
	leftCounts := b.leftCounts
	minLeaf := t.Cfg.MinSamplesLeaf
	// A cut with s == 0 ends the search: no later cut can score below
	// it, since every s = L·li + R·ri is >= 0. An entropy child is
	// 0 - Σ p·log2(p) with every term <= 0; a Gini child is 1 - Σ p·p,
	// exactly 0 when pure and otherwise at least 1/T (Σ p·p <= max p <=
	// (T-1)/T), far above the rounding of its few subtractions for any
	// total T below 2³¹. pick has drawn the node's features already, so
	// stopping early leaves the tree's random stream where it was.
features:
	for _, f := range b.picker.pick() {
		keys := b.rankedKeys(idx, f, walk)
		n := len(keys)
		clear(leftCounts)
		leftTotal := 0
		// The value group being scanned starts at keys[start]; group is
		// its class while every row so far has it, else -1.
		start, group := 0, b.y[uint32(keys[0])]
		for k := 0; k < n-1; k++ {
			i := int(uint32(keys[k]))
			w, c := b.weight(i), b.y[i]
			leftCounts[c] += w
			leftTotal += w
			if c != group {
				group = -1
			}
			next := keys[k+1] >> 32
			if keys[k]>>32 == next {
				continue
			}
			leftN, pure, prev := k+1, group, start
			start, group = leftN, b.y[uint32(keys[leftN])]
			if leftN < minLeaf || n-leftN < minLeaf {
				continue
			}
			if pure >= 0 && (prev == 0 || prev >= minLeaf) {
				// The group just left is pure and the cut before it is
				// feasible or the node's edge: skip this cut if the next
				// group is pure in the same class and the cut after it
				// is feasible or the edge too.
				e := leftN
				for e < n && keys[e]>>32 == next && b.y[uint32(keys[e])] == pure {
					e++
				}
				if e == n || e <= n-minLeaf && keys[e]>>32 != next {
					continue
				}
			}
			rightTotal := total - leftTotal
			if leftTotal == 0 || rightTotal == 0 {
				continue
			}
			li, ri := b.cutImpurities(leftCounts, parentCounts, leftTotal, rightTotal)
			s := float64(leftTotal)*li + float64(rightTotal)*ri
			if s >= bestS {
				continue
			}
			if g := parentImp - s/float64(total); g > gain {
				gain, bestS, feat = g, s, f
				lo, hi = i, int(uint32(keys[leftN]))
				if s == 0 {
					break features
				}
			}
		}
	}
	if feat >= 0 {
		thr = splitThreshold(b.x[lo][feat], b.x[hi][feat])
	}
	return feat, thr, gain
}

// rankedKeys fills b.keys with rank<<32 | row for the node's rows in
// column f's value order. A node marked for walking (see walkShare)
// keeps its rows from the column's words, which are already in that
// form: every word is written at the next free slot, and the slot is
// taken only by a member, which compiles to a conditional move rather
// than a branch that a level-1 node mispredicts half the time. A
// smaller node packs its rows' ranks and sorts them.
func (b *clsBuilder) rankedKeys(idx []int, f int, walk bool) []uint64 {
	keys := b.keys[:len(idx)]
	if !walk {
		rank := b.cols.Rank(f)
		for k, i := range idx {
			keys[k] = uint64(rank[i])<<32 | uint64(i)
		}
		slices.Sort(keys)
		return keys
	}
	mark, stamp := b.mark, b.stamp
	k := 0
	for _, wd := range b.cols.Words(f) {
		keys[k] = wd
		if mark[uint32(wd)] == stamp {
			k++
		}
		if k == len(keys) {
			break
		}
	}
	return keys
}

// PredictProba walks the tree and returns the leaf class distribution.
func (t *Classifier) PredictProba(x []float64) []float64 {
	out := make([]float64, t.NClasses)
	copy(out, t.LeafProbs(x))
	return out
}

// LeafProbs walks the tree and returns the reached leaf's class
// distribution by reference — no copy, no allocation. Callers must
// treat the result as read-only; it aliases the fitted tree. The batch
// paths (forest soft-voting, PredictProbaBatch) are built on it so one
// inference costs one tree walk and nothing else.
func (t *Classifier) LeafProbs(x []float64) []float64 {
	if len(t.Nodes) == 0 {
		panic("tree: LeafProbs before Fit")
	}
	n := &t.Nodes[0]
	for n.Feature >= 0 {
		if x[n.Feature] <= n.Threshold {
			n = &t.Nodes[n.Left]
		} else {
			n = &t.Nodes[n.Right]
		}
	}
	return n.Probs
}

// PredictProbaBatch classifies many rows in one pass (ml.BatchPredictor).
// The result shares one contiguous backing allocation. When the tree has
// a flattened representation (built by Fit or WarmFlat) the rows run
// through the cache-local SoA kernel; otherwise parallel workers walk
// the pointer nodes over disjoint chunks. Either way the output is
// bitwise identical to per-row PredictProba for any worker count.
func (t *Classifier) PredictProbaBatch(x [][]float64) [][]float64 {
	if len(t.Nodes) == 0 {
		panic("tree: PredictProbaBatch before Fit")
	}
	out := ml.ProbaMatrix(len(x), t.NClasses)
	if fl := t.flatFore; fl != nil {
		fl.PredictProbaInto(x, out, 0)
		return out
	}
	ml.ParallelRows(len(x), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			copy(out[i], t.LeafProbs(x[i]))
		}
	})
	return out
}

// WarmFlat builds the tree's flattened representation if it is missing
// (idempotent, not safe concurrently with prediction). Fit calls it;
// models decoded from disk get it from ml.Warm at publication time.
func (t *Classifier) WarmFlat() {
	if t.flatFore != nil || len(t.Nodes) == 0 {
		return
	}
	fl := flat.NewForest(t.NClasses, 1, len(t.Nodes))
	t.Flatten(fl)
	t.flatFore = fl
}

// Flatten appends the fitted tree to fl's shared node pool in node-index
// order, registering its root and depth and packing each leaf's class
// distribution into fl.LeafProba. Child links are rebased to absolute
// pool indices so many trees can share the pool (the forest flattens
// every member into one); leaves become self-loops per the flat package
// contract.
func (t *Classifier) Flatten(fl *flat.Forest) {
	if len(t.Nodes) == 0 {
		panic("tree: Flatten before Fit")
	}
	base := int32(fl.Len())
	fl.Roots = append(fl.Roots, base)
	fl.Depths = append(fl.Depths, int32(t.Depth()))
	for i := range t.Nodes {
		n := &t.Nodes[i]
		if n.Feature < 0 {
			fl.AppendLeaf(fl.AppendLeafProba(n.Probs))
			continue
		}
		fl.AppendSplit(int32(n.Feature), n.Threshold, base+n.Left, base+n.Right)
	}
}

// Depth returns the maximum depth of the fitted tree (root = 1).
func (t *Classifier) Depth() int { return depthOf(t.Nodes, 0) }

// ---------------------------------------------------------------------------
// Regression tree

// Regressor is a CART regression tree minimizing squared error. With
// Cfg.MaxLeaves > 0 it grows leaf-wise (best gain first), which is how
// LightGBM grows trees.
type Regressor struct {
	Cfg   Config
	Nodes []node
	// hessLeaf, when non-nil, post-processes leaf values from aggregated
	// (gradSum, hessSum); the GBM uses it for Newton leaf weights. It is
	// unexported (and skipped by gob) because functions cannot be
	// serialized; set it with SetHessLeaf before Fit.
	hessLeaf func(gradSum, hessSum float64) float64
	// hess holds optional per-sample second-order stats during Fit.
	hess []float64
}

// NewRegressor returns an unfitted regression tree.
func NewRegressor(cfg Config) *Regressor {
	return &Regressor{Cfg: cfg.withDefaults()}
}

// SetHessLeaf installs a custom leaf-value function computing the leaf
// output from the leaf's gradient and Hessian sums (Newton step). Call it
// before Fit.
func (t *Regressor) SetHessLeaf(f func(gradSum, hessSum float64) float64) { t.hessLeaf = f }

// Fit grows the tree on targets g (for the GBM these are gradients).
// hess optionally carries per-sample Hessian values for HessLeaf; pass
// nil for plain regression.
func (t *Regressor) Fit(x [][]float64, g []float64, hess []float64) error {
	if len(x) == 0 {
		return fmt.Errorf("tree: empty training set")
	}
	if len(g) != len(x) {
		return fmt.Errorf("tree: %d targets for %d rows", len(g), len(x))
	}
	if hess != nil && len(hess) != len(x) {
		return fmt.Errorf("tree: %d hessians for %d rows", len(hess), len(x))
	}
	t.Nodes = t.Nodes[:0]
	t.hess = hess
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	b := newRegBuilder(t, x, g)
	if t.Cfg.MaxLeaves > 1 {
		b.growLeafwise(idx)
	} else {
		b.growDepthwise(idx, 1)
	}
	return nil
}

// regBuilder holds shared state while growing a regression tree; like
// clsBuilder it owns the split and partition scratch.
type regBuilder struct {
	t      *Regressor
	x      [][]float64
	g      []float64
	picker *featurePicker
	keys   []splitKey
	spill  []int
}

func newRegBuilder(t *Regressor, x [][]float64, g []float64) *regBuilder {
	rng := rand.New(rand.NewSource(t.Cfg.Seed))
	return &regBuilder{
		t: t, x: x, g: g,
		picker: newFeaturePicker(len(x[0]), t.Cfg.MaxFeatures, rng),
		keys:   make([]splitKey, len(x)),
		spill:  make([]int, len(x)),
	}
}

// stats of a candidate node.
type regStats struct {
	sum, sumSq, hessSum float64
	n                   int
}

func (b *regBuilder) statsOf(idx []int) regStats {
	var s regStats
	for _, i := range idx {
		v := b.g[i]
		s.sum += v
		s.sumSq += v * v
		if b.t.hess != nil {
			s.hessSum += b.t.hess[i]
		}
		s.n++
	}
	return s
}

func (s regStats) sse() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sumSq - s.sum*s.sum/float64(s.n)
}

func (b *regBuilder) leafValue(s regStats) float64 {
	if b.t.hessLeaf != nil {
		return b.t.hessLeaf(s.sum, s.hessSum)
	}
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

func (b *regBuilder) mkLeaf(s regStats) int32 {
	b.t.Nodes = append(b.t.Nodes, node{Feature: -1, Value: b.leafValue(s)})
	return int32(len(b.t.Nodes) - 1)
}

// growDepthwise is classic recursive CART growth.
func (b *regBuilder) growDepthwise(idx []int, depth int) int32 {
	t := b.t
	s := b.statsOf(idx)
	if len(idx) < t.Cfg.MinSamplesSplit || s.sse() <= 1e-12 ||
		(t.Cfg.MaxDepth > 0 && depth > t.Cfg.MaxDepth) {
		return b.mkLeaf(s)
	}
	feat, thr, gain := b.bestSplit(idx, s)
	if gain <= 1e-12 || feat < 0 {
		return b.mkLeaf(s)
	}
	nl := partition(b.x, idx, b.spill, feat, thr)
	if nl < t.Cfg.MinSamplesLeaf || len(idx)-nl < t.Cfg.MinSamplesLeaf {
		return b.mkLeaf(s)
	}
	t.Nodes = append(t.Nodes, node{Feature: feat, Threshold: thr})
	self := int32(len(t.Nodes) - 1)
	l := b.growDepthwise(idx[:nl], depth+1)
	r := b.growDepthwise(idx[nl:], depth+1)
	t.Nodes[self].Left = l
	t.Nodes[self].Right = r
	return self
}

// leafCandidate is a grown leaf eligible for further splitting.
type leafCandidate struct {
	nodeIdx int32
	idx     []int
	stats   regStats
	feat    int
	thr     float64
	gain    float64
	depth   int
}

// growLeafwise expands the best-gain leaf first until MaxLeaves leaves
// exist (LightGBM's growth strategy).
func (b *regBuilder) growLeafwise(idx []int) {
	t := b.t
	s := b.statsOf(idx)
	t.Nodes = append(t.Nodes, node{Feature: -1, Value: b.leafValue(s)})
	cands := []leafCandidate{b.candidate(0, idx, s, 1)}
	leaves := 1
	for leaves < t.Cfg.MaxLeaves {
		// Pick the best splittable candidate.
		best := -1
		for i := range cands {
			if cands[i].gain > 1e-12 && (best == -1 || cands[i].gain > cands[best].gain) {
				best = i
			}
		}
		if best == -1 {
			break
		}
		c := cands[best]
		cands = append(cands[:best], cands[best+1:]...)
		nl := partition(b.x, c.idx, b.spill, c.feat, c.thr)
		left, right := c.idx[:nl], c.idx[nl:]
		if len(left) < t.Cfg.MinSamplesLeaf || len(right) < t.Cfg.MinSamplesLeaf {
			continue
		}
		// Convert the leaf into an internal node with two fresh leaves.
		ls, rs := b.statsOf(left), b.statsOf(right)
		lIdx := int32(len(t.Nodes))
		t.Nodes = append(t.Nodes, node{Feature: -1, Value: b.leafValue(ls)})
		rIdx := int32(len(t.Nodes))
		t.Nodes = append(t.Nodes, node{Feature: -1, Value: b.leafValue(rs)})
		t.Nodes[c.nodeIdx] = node{Feature: c.feat, Threshold: c.thr, Left: lIdx, Right: rIdx}
		leaves++
		if t.Cfg.MaxDepth == 0 || c.depth+1 <= t.Cfg.MaxDepth {
			cands = append(cands, b.candidate(lIdx, left, ls, c.depth+1))
			cands = append(cands, b.candidate(rIdx, right, rs, c.depth+1))
		}
	}
}

// candidate evaluates the best split of a leaf.
func (b *regBuilder) candidate(nodeIdx int32, idx []int, s regStats, depth int) leafCandidate {
	c := leafCandidate{nodeIdx: nodeIdx, idx: idx, stats: s, feat: -1, depth: depth}
	if len(idx) >= b.t.Cfg.MinSamplesSplit && s.sse() > 1e-12 {
		c.feat, c.thr, c.gain = b.bestSplit(idx, s)
	}
	return c
}

// bestSplit finds the SSE-minimizing split over candidate features.
//
//albacheck:hotpath
func (b *regBuilder) bestSplit(idx []int, parent regStats) (feat int, thr, gain float64) {
	feat, gain = -1, 0
	parentSSE := parent.sse()
	minLeaf := b.t.Cfg.MinSamplesLeaf
	for _, f := range b.picker.pick() {
		keys := sortedKeys(b.keys, b.x, idx, f)
		var lSum, lSumSq float64
		for k := 0; k < len(keys)-1; k++ {
			v := b.g[keys[k].row]
			lSum += v
			lSumSq += v * v
			x1, x2 := keys[k].v, keys[k+1].v
			if x1 == x2 { //albacheck:ignore floatsafe adjacent equal values in the feature-sorted order are not a split point; exact tie test intended
				continue
			}
			ln := k + 1
			rn := len(keys) - ln
			if ln < minLeaf || rn < minLeaf {
				continue
			}
			lSSE := lSumSq - lSum*lSum/float64(ln)
			rSum := parent.sum - lSum
			rSumSq := parent.sumSq - lSumSq
			rSSE := rSumSq - rSum*rSum/float64(rn)
			g := parentSSE - lSSE - rSSE
			if g > gain {
				gain = g
				feat = f
				thr = splitThreshold(x1, x2)
			}
		}
	}
	return feat, thr, gain
}

// FlattenInto appends the fitted regression tree to g's shared node
// pool, registering its root and depth and packing leaf values into
// g.LeafValue. cols, when non-nil, is the column subset the tree was
// trained on: split feature ids are remapped through it to the global
// feature space, so the flattened tree predicts directly from full
// feature rows with no per-row projection. Leaves become self-loops per
// the flat package contract.
func (t *Regressor) FlattenInto(g *flat.GBM, cols []int) {
	if len(t.Nodes) == 0 {
		panic("tree: FlattenInto before Fit")
	}
	base := int32(g.Len())
	g.Roots = append(g.Roots, base)
	g.Depths = append(g.Depths, int32(t.Depth()))
	for i := range t.Nodes {
		n := &t.Nodes[i]
		if n.Feature < 0 {
			g.AppendLeaf(g.AppendLeafValue(n.Value))
			continue
		}
		f := n.Feature
		if cols != nil {
			f = cols[f]
		}
		g.AppendSplit(int32(f), n.Threshold, base+n.Left, base+n.Right)
	}
}

// Predict returns the leaf value for one sample.
func (t *Regressor) Predict(x []float64) float64 {
	if len(t.Nodes) == 0 {
		panic("tree: Predict before Fit")
	}
	n := &t.Nodes[0]
	for n.Feature >= 0 {
		if x[n.Feature] <= n.Threshold {
			n = &t.Nodes[n.Left]
		} else {
			n = &t.Nodes[n.Right]
		}
	}
	return n.Value
}

// Depth returns the maximum depth of the fitted tree (root = 1).
func (t *Regressor) Depth() int { return depthOf(t.Nodes, 0) }

// ---------------------------------------------------------------------------
// Shared helpers

func validateFitInput(n int, y []int, w []int, nClasses int) error {
	if n == 0 {
		return fmt.Errorf("tree: empty training set")
	}
	if len(y) != n {
		return fmt.Errorf("tree: %d labels for %d rows", len(y), n)
	}
	if w != nil && len(w) != n {
		return fmt.Errorf("tree: %d weights for %d rows", len(w), n)
	}
	if nClasses < 2 {
		return fmt.Errorf("tree: need at least 2 classes, got %d", nClasses)
	}
	for i, c := range y {
		if c < 0 || c >= nClasses {
			return fmt.Errorf("tree: label %d at row %d outside [0,%d)", c, i, nClasses)
		}
	}
	for i, m := range w {
		if m < 0 {
			return fmt.Errorf("tree: negative weight %d at row %d", m, i)
		}
	}
	return nil
}

// activeIndices returns the indices with positive weight (all indices when
// w is nil).
func activeIndices(w []int, n int) []int {
	idx := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if w == nil || w[i] > 0 {
			idx = append(idx, i)
		}
	}
	return idx
}

func isPure(counts []int) bool {
	nonzero := 0
	for _, c := range counts {
		if c > 0 {
			nonzero++
			if nonzero > 1 {
				return false
			}
		}
	}
	return true
}

// termCap is the largest node total whose impurity terms come from a
// term table; larger nodes compute each term.
const termCap = 1024

// term is class count c's term in the impurity of a node of total
// samples, which is base - Σ term: p·log2(p) for entropy and p·p for
// Gini, where p = c/total, and 0 for an empty class.
func (k Criterion) term(c, total int) float64 {
	if c == 0 || total == 0 {
		return 0
	}
	p := float64(c) / float64(total)
	if k == Entropy {
		return p * math.Log2(p) //albacheck:ignore floatsafe p > 0: counts are non-negative and c and total are nonzero past the check above
	}
	return p * p
}

// termTable holds k.term(c, T) for 0 <= c <= T <= termCap, row T
// starting at T(T+1)/2 (about 4 MB). Class counts and node totals are
// exact integers, so an entry is exactly what term computes.
func termTable(k Criterion) []float64 {
	tab := make([]float64, (termCap+1)*(termCap+2)/2)
	for total := 1; total <= termCap; total++ {
		row := termRow(tab, total)
		for c := range row {
			row[c] = k.term(c, total)
		}
	}
	return tab
}

// termRow returns row total of a term table, entries 0..total.
func termRow(tab []float64, total int) []float64 {
	return tab[total*(total+1)/2:][:total+1]
}

var (
	giniTerms    = sync.OnceValue(func() []float64 { return termTable(Gini) })
	entropyTerms = sync.OnceValue(func() []float64 { return termTable(Entropy) })
)

// impurity is the node impurity of class counts summing to total under
// the tree's criterion.
func (b *clsBuilder) impurity(counts []int, total int) float64 {
	if total == 0 {
		return 0
	}
	h := b.base
	if total <= termCap {
		row := termRow(b.terms, total)
		for _, c := range counts {
			h -= row[c]
		}
		return h
	}
	for _, c := range counts {
		h -= b.t.Cfg.Criterion.term(c, total)
	}
	return h
}

// cutImpurities returns a cut's two child impurities: the left child's
// class counts are left, summing to lt, and the right child's are
// parent - left, summing to rt, both totals positive. One loop over the
// classes sums both, each in class order, so li and ri are bitwise what
// impurity returns for them.
func (b *clsBuilder) cutImpurities(left, parent []int, lt, rt int) (li, ri float64) {
	li, ri = b.base, b.base
	parent = parent[:len(left)]
	if lt <= termCap && rt <= termCap {
		lrow, rrow := termRow(b.terms, lt), termRow(b.terms, rt)
		for c, l := range left {
			li -= lrow[l]
			ri -= rrow[parent[c]-l]
		}
		return li, ri
	}
	crit := b.t.Cfg.Criterion
	for c, l := range left {
		li -= crit.term(l, lt)
		ri -= crit.term(parent[c]-l, rt)
	}
	return li, ri
}

// splitKey is one row's value of the feature under evaluation in the
// regression tree's split search.
type splitKey struct {
	v   float64
	row int
}

// cmpSplitKey orders keys by value. Its "< 0" is exactly a.v < b.v, and
// slices.SortFunc asks nothing else, so ties and NaN cells land where
// the reference grower in tree_test.go puts them (sort.Slice is the same
// pdqsort); the regressor's gradient sums depend on that tie order,
// which is why it does not read a rank order as the classifier does.
// cmp.Compare would order NaN first and move them.
func cmpSplitKey(a, b splitKey) int {
	switch {
	case a.v < b.v:
		return -1
	case a.v > b.v:
		return 1
	}
	return 0
}

// sortedKeys fills keys with (x[i][f], i) for every i in idx and sorts
// them by value. keys must hold len(idx) entries.
func sortedKeys(keys []splitKey, x [][]float64, idx []int, f int) []splitKey {
	keys = keys[:len(idx)]
	for k, i := range idx {
		keys[k] = splitKey{v: x[i][f], row: i}
	}
	slices.SortFunc(keys, cmpSplitKey)
	return keys
}

// splitThreshold places a cut between neighbouring values a < b: their
// midpoint, or a where the midpoint rounds up to b or overflows to an
// infinity (sklearn's rule), since x <= thr must send a left and b
// right. A NaN midpoint (the regressor's NaN cells) is kept as it is.
func splitThreshold(a, b float64) float64 {
	m := (a + b) / 2
	if m >= b || math.IsInf(m, -1) {
		return a
	}
	return m
}

// partition stably reorders idx so the samples with x[f] <= thr come
// first, in their original order, followed by the rest, and returns the
// left side's length. spill must hold len(idx) entries.
func partition(x [][]float64, idx, spill []int, f int, thr float64) int {
	nl, nr := 0, 0
	for _, i := range idx {
		if x[i][f] <= thr {
			idx[nl] = i
			nl++
		} else {
			spill[nr] = i
			nr++
		}
	}
	copy(idx[nl:], spill[:nr])
	return nl
}

func depthOf(nodes []node, root int32) int {
	if len(nodes) == 0 {
		return 0
	}
	n := nodes[root]
	if n.Feature < 0 {
		return 1
	}
	l := depthOf(nodes, n.Left)
	r := depthOf(nodes, n.Right)
	if l > r {
		return l + 1
	}
	return r + 1
}
