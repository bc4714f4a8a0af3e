package tree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"albadross/internal/ml"
)

// blobs generates two well-separated Gaussian clusters.
func blobs(n int, seed int64) (x [][]float64, y []int) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		c := i % 2
		cx := float64(c) * 4
		x = append(x, []float64{cx + rng.NormFloat64()*0.5, rng.NormFloat64()})
		y = append(y, c)
	}
	return x, y
}

func TestClassifierSeparableData(t *testing.T) {
	x, y := blobs(200, 1)
	tr := NewClassifier(Config{MaxDepth: 4})
	if err := tr.Fit(x, y, 2); err != nil {
		t.Fatal(err)
	}
	errs := 0
	for i := range x {
		p := tr.PredictProba(x[i])
		pred := 0
		if p[1] > p[0] {
			pred = 1
		}
		if pred != y[i] {
			errs++
		}
	}
	if errs > 4 {
		t.Fatalf("%d/200 training errors on separable data", errs)
	}
}

func TestClassifierProbabilitiesSimplex(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n, d, k := 150, 5, 4
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		x[i] = make([]float64, d)
		for j := range x[i] {
			x[i][j] = rng.NormFloat64()
		}
		y[i] = rng.Intn(k)
	}
	tr := NewClassifier(Config{MaxDepth: 6, Criterion: Entropy})
	if err := tr.Fit(x, y, k); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		p := tr.PredictProba(x[i])
		sum := 0.0
		for _, v := range p {
			if v < 0 || v > 1 {
				t.Fatalf("probability out of range: %v", p)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("probabilities sum to %v", sum)
		}
	}
}

func TestClassifierRespectsMaxDepth(t *testing.T) {
	x, y := blobs(300, 3)
	for _, depth := range []int{1, 2, 4} {
		tr := NewClassifier(Config{MaxDepth: depth})
		if err := tr.Fit(x, y, 2); err != nil {
			t.Fatal(err)
		}
		if got := tr.Depth(); got > depth+1 {
			t.Fatalf("depth = %d, config %d", got, depth)
		}
	}
}

func TestClassifierMinSamplesLeaf(t *testing.T) {
	x, y := blobs(100, 4)
	tr := NewClassifier(Config{MinSamplesLeaf: 30})
	if err := tr.Fit(x, y, 2); err != nil {
		t.Fatal(err)
	}
	// With min 30 per leaf and 100 samples, at most 3 leaves.
	if tr.LeafCount() > 3 {
		t.Fatalf("leaf count = %d with MinSamplesLeaf 30", tr.LeafCount())
	}
}

func TestClassifierWeighted(t *testing.T) {
	// Duplicate-by-weight should match duplicate-by-copy.
	x := [][]float64{{0}, {1}, {2}, {3}}
	y := []int{0, 0, 1, 1}
	w := []int{3, 1, 1, 3}
	tw := NewClassifier(Config{})
	if err := tw.FitWeighted(x, y, w, 2); err != nil {
		t.Fatal(err)
	}
	var xc [][]float64
	var yc []int
	for i := range x {
		for r := 0; r < w[i]; r++ {
			xc = append(xc, x[i])
			yc = append(yc, y[i])
		}
	}
	tc := NewClassifier(Config{})
	if err := tc.Fit(xc, yc, 2); err != nil {
		t.Fatal(err)
	}
	for _, probe := range [][]float64{{0.2}, {1.4}, {2.6}} {
		pw := tw.PredictProba(probe)
		pc := tc.PredictProba(probe)
		for c := range pw {
			if math.Abs(pw[c]-pc[c]) > 1e-9 {
				t.Fatalf("probe %v: weighted %v vs copied %v", probe, pw, pc)
			}
		}
	}
}

func TestClassifierZeroWeightExcluded(t *testing.T) {
	// A zero-weight outlier must not influence the tree.
	x := [][]float64{{0}, {0.1}, {0.2}, {5}}
	y := []int{0, 0, 0, 1}
	w := []int{1, 1, 1, 0}
	tr := NewClassifier(Config{})
	if err := tr.FitWeighted(x, y, w, 2); err != nil {
		t.Fatal(err)
	}
	p := tr.PredictProba([]float64{5})
	if p[1] != 0 {
		t.Fatalf("zero-weight sample leaked into the tree: %v", p)
	}
}

// TestClassifierAllZeroWeights fits a bag that drew no row, which a
// forest's Poisson bagging does with probability e⁻ⁿ: one leaf, every
// class equally likely, as the reference grower builds it.
func TestClassifierAllZeroWeights(t *testing.T) {
	x := [][]float64{{0}, {1}, {2}}
	y := []int{0, 1, 2}
	w := []int{0, 0, 0}
	tr := NewClassifier(Config{})
	if err := tr.FitWeighted(x, y, w, 4); err != nil {
		t.Fatal(err)
	}
	if len(tr.Nodes) != 1 {
		t.Fatalf("%d nodes, want one leaf", len(tr.Nodes))
	}
	if p := tr.PredictProba([]float64{1}); !slices.Equal(p, []float64{0.25, 0.25, 0.25, 0.25}) {
		t.Fatalf("probabilities %v, want uniform", p)
	}
	nodes, imp := refClassifier(Config{}, x, y, []float64{0, 0, 0}, 4)
	sameNodes(t, "all-zero weights", tr.Nodes, nodes)
	sameFloats(t, "all-zero weights importances", tr.Importances, imp)
}

func TestClassifierValidation(t *testing.T) {
	if err := NewClassifier(Config{}).Fit(nil, nil, 2); err == nil {
		t.Fatal("empty input should error")
	}
	if err := NewClassifier(Config{}).Fit([][]float64{{1}}, []int{0, 1}, 2); err == nil {
		t.Fatal("length mismatch should error")
	}
	if err := NewClassifier(Config{}).Fit([][]float64{{1}, {2}}, []int{0, 3}, 2); err == nil {
		t.Fatal("label out of range should error")
	}
	if err := NewClassifier(Config{}).Fit([][]float64{{1}, {2}}, []int{0, 1}, 1); err == nil {
		t.Fatal("single class should error")
	}
}

func TestCriterionNames(t *testing.T) {
	if Gini.String() != "gini" || Entropy.String() != "entropy" {
		t.Fatal("criterion names wrong")
	}
}

func TestRegressorStepFunction(t *testing.T) {
	// y = 1 for x > 0.5 else 0; a single split should nail it.
	var x [][]float64
	var g []float64
	for i := 0; i < 100; i++ {
		v := float64(i) / 100
		x = append(x, []float64{v})
		if v > 0.5 {
			g = append(g, 1)
		} else {
			g = append(g, 0)
		}
	}
	tr := NewRegressor(Config{MaxDepth: 2})
	if err := tr.Fit(x, g, nil); err != nil {
		t.Fatal(err)
	}
	if v := tr.Predict([]float64{0.2}); math.Abs(v) > 1e-9 {
		t.Fatalf("predict(0.2) = %v, want 0", v)
	}
	if v := tr.Predict([]float64{0.9}); math.Abs(v-1) > 1e-9 {
		t.Fatalf("predict(0.9) = %v, want 1", v)
	}
}

func TestRegressorLeafwiseRespectsMaxLeaves(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var x [][]float64
	var g []float64
	for i := 0; i < 500; i++ {
		v := rng.Float64() * 10
		x = append(x, []float64{v})
		g = append(g, math.Sin(v)+0.05*rng.NormFloat64())
	}
	for _, leaves := range []int{2, 8, 31} {
		tr := NewRegressor(Config{MaxLeaves: leaves})
		if err := tr.Fit(x, g, nil); err != nil {
			t.Fatal(err)
		}
		if got := tr.LeafCount(); got > leaves {
			t.Fatalf("leaf count %d exceeds MaxLeaves %d", got, leaves)
		}
	}
}

func TestRegressorLeafwiseImprovesWithMoreLeaves(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var x [][]float64
	var g []float64
	for i := 0; i < 600; i++ {
		v := rng.Float64() * 10
		x = append(x, []float64{v})
		g = append(g, math.Sin(v))
	}
	mse := func(leaves int) float64 {
		tr := NewRegressor(Config{MaxLeaves: leaves})
		if err := tr.Fit(x, g, nil); err != nil {
			t.Fatal(err)
		}
		s := 0.0
		for i := range x {
			d := tr.Predict(x[i]) - g[i]
			s += d * d
		}
		return s / float64(len(x))
	}
	if !(mse(31) < mse(4) && mse(4) < mse(2)) {
		t.Fatalf("mse not decreasing with leaves: %v %v %v", mse(2), mse(4), mse(31))
	}
}

func TestRegressorHessLeaf(t *testing.T) {
	x := [][]float64{{0}, {0}, {1}, {1}}
	g := []float64{1, 1, -1, -1}
	h := []float64{0.5, 0.5, 0.5, 0.5}
	tr := NewRegressor(Config{MaxDepth: 2})
	tr.SetHessLeaf(func(gs, hs float64) float64 { return gs / hs })
	if err := tr.Fit(x, g, h); err != nil {
		t.Fatal(err)
	}
	if v := tr.Predict([]float64{0}); math.Abs(v-2) > 1e-9 {
		t.Fatalf("newton leaf = %v, want 2", v)
	}
}

func TestRegressorValidation(t *testing.T) {
	tr := NewRegressor(Config{})
	if err := tr.Fit(nil, nil, nil); err == nil {
		t.Fatal("empty should error")
	}
	if err := tr.Fit([][]float64{{1}}, []float64{1, 2}, nil); err == nil {
		t.Fatal("target mismatch should error")
	}
	if err := tr.Fit([][]float64{{1}}, []float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("hessian mismatch should error")
	}
}

func TestPredictBeforeFitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewClassifier(Config{}).PredictProba([]float64{1})
}

func TestFeatureSubsampling(t *testing.T) {
	// With MaxFeatures=-1 (sqrt), trees with different seeds should
	// (usually) differ on high-dimensional noise.
	rng := rand.New(rand.NewSource(7))
	n, d := 100, 25
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		x[i] = make([]float64, d)
		for j := range x[i] {
			x[i][j] = rng.NormFloat64()
		}
		if x[i][3] > 0 {
			y[i] = 1
		}
	}
	t1 := NewClassifier(Config{MaxFeatures: -1, Seed: 1, MaxDepth: 3})
	t2 := NewClassifier(Config{MaxFeatures: -1, Seed: 2, MaxDepth: 3})
	if err := t1.Fit(x, y, 2); err != nil {
		t.Fatal(err)
	}
	if err := t2.Fit(x, y, 2); err != nil {
		t.Fatal(err)
	}
	if t1.Nodes[0].Feature == t2.Nodes[0].Feature && t1.Nodes[0].Threshold == t2.Nodes[0].Threshold {
		// Not an error per se, but with 25 features and sqrt=5 candidates
		// the root splits should typically differ; check deeper.
		same := len(t1.Nodes) == len(t2.Nodes)
		if same {
			for i := range t1.Nodes {
				if t1.Nodes[i].Feature != t2.Nodes[i].Feature {
					same = false
					break
				}
			}
		}
		if same {
			t.Log("warning: identical trees under different seeds (possible but unlikely)")
		}
	}
}

func TestQuickTreeDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(50)
		x := make([][]float64, n)
		y := make([]int, n)
		for i := range x {
			x[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
			y[i] = rng.Intn(3)
		}
		a := NewClassifier(Config{MaxDepth: 5, Seed: seed})
		b := NewClassifier(Config{MaxDepth: 5, Seed: seed})
		if a.Fit(x, y, 3) != nil || b.Fit(x, y, 3) != nil {
			return false
		}
		if len(a.Nodes) != len(b.Nodes) {
			return false
		}
		for i := range a.Nodes {
			if a.Nodes[i].Feature != b.Nodes[i].Feature || a.Nodes[i].Threshold != b.Nodes[i].Threshold {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// ---------------------------------------------------------------------------
// Reference split search

// The reference growers below are the split search this package used
// before the keyed sort and the entropy table: sort.Slice over row
// indices, math.Log2 per class, float weights, fresh partition slices.
// They are the oracle the production builders must match node for
// node, bit for bit; nothing outside tests may call them.

// refClassifier grows a classification tree the reference way and
// returns its nodes and importances.
func refClassifier(cfg Config, x [][]float64, y []int, w []float64, nClasses int) ([]node, []float64) {
	t := &Classifier{Cfg: cfg.withDefaults(), NClasses: nClasses, Importances: make([]float64, len(x[0]))}
	var idx []int
	for i := range x {
		if w == nil || w[i] > 0 {
			idx = append(idx, i)
		}
	}
	rng := rand.New(rand.NewSource(t.Cfg.Seed))
	b := &refClsBuilder{t: t, x: x, y: y, w: w, picker: newFeaturePicker(len(x[0]), t.Cfg.MaxFeatures, rng)}
	b.rootSize = float64(len(idx))
	b.grow(idx, 1)
	return t.Nodes, t.Importances
}

type refClsBuilder struct {
	t        *Classifier
	x        [][]float64
	y        []int
	w        []float64
	picker   *featurePicker
	rootSize float64
}

func (b *refClsBuilder) weight(i int) float64 {
	if b.w == nil {
		return 1
	}
	return b.w[i]
}

func (b *refClsBuilder) grow(idx []int, depth int) int32 {
	t := b.t
	counts := make([]float64, t.NClasses)
	total := 0.0
	for _, i := range idx {
		w := b.weight(i)
		counts[b.y[i]] += w
		total += w
	}
	mkLeaf := func() int32 {
		probs := make([]float64, t.NClasses)
		for c := range probs {
			if total > 0 {
				probs[c] = counts[c] / total
			} else {
				probs[c] = 1 / float64(t.NClasses)
			}
		}
		t.Nodes = append(t.Nodes, node{Feature: -1, Probs: probs})
		return int32(len(t.Nodes) - 1)
	}
	pure := 0
	for _, c := range counts {
		if c > 0 {
			pure++
		}
	}
	if len(idx) < t.Cfg.MinSamplesSplit || pure <= 1 ||
		(t.Cfg.MaxDepth > 0 && depth > t.Cfg.MaxDepth) {
		return mkLeaf()
	}
	feat, thr, gain := b.bestSplit(idx, counts, total)
	if gain <= 1e-12 || feat < 0 {
		return mkLeaf()
	}
	left, right := refPartition(b.x, idx, feat, thr)
	if len(left) < t.Cfg.MinSamplesLeaf || len(right) < t.Cfg.MinSamplesLeaf {
		return mkLeaf()
	}
	t.Importances[feat] += gain * float64(len(idx)) / b.rootSize
	t.Nodes = append(t.Nodes, node{Feature: feat, Threshold: thr})
	self := int32(len(t.Nodes) - 1)
	l := b.grow(left, depth+1)
	r := b.grow(right, depth+1)
	t.Nodes[self].Left = l
	t.Nodes[self].Right = r
	return self
}

func (b *refClsBuilder) bestSplit(idx []int, parentCounts []float64, total float64) (feat int, thr, gain float64) {
	t := b.t
	if total <= 0 {
		return -1, 0, 0
	}
	parentImp := refImpurity(parentCounts, total, t.Cfg.Criterion)
	feat, gain = -1, 0
	order := make([]int, len(idx))
	leftCounts := make([]float64, t.NClasses)
	rightCounts := make([]float64, t.NClasses)
	for _, f := range b.picker.pick() {
		copy(order, idx)
		sort.Slice(order, func(a, c int) bool { return b.x[order[a]][f] < b.x[order[c]][f] })
		for c := range leftCounts {
			leftCounts[c] = 0
			rightCounts[c] = parentCounts[c]
		}
		leftTotal := 0.0
		leftN := 0
		for k := 0; k < len(order)-1; k++ {
			i := order[k]
			w := b.weight(i)
			leftCounts[b.y[i]] += w
			rightCounts[b.y[i]] -= w
			leftTotal += w
			leftN++
			v, next := b.x[i][f], b.x[order[k+1]][f]
			if v == next {
				continue
			}
			if leftN < t.Cfg.MinSamplesLeaf || len(order)-leftN < t.Cfg.MinSamplesLeaf {
				continue
			}
			rightTotal := total - leftTotal
			if leftTotal == 0 || rightTotal == 0 {
				continue
			}
			li := refImpurity(leftCounts, leftTotal, t.Cfg.Criterion)
			ri := refImpurity(rightCounts, rightTotal, t.Cfg.Criterion)
			g := parentImp - (leftTotal*li+rightTotal*ri)/total
			if g > gain {
				gain = g
				feat = f
				thr = (v + next) / 2
				if thr >= next || math.IsInf(thr, -1) { // the midpoint rounded up to next or overflowed
					thr = v
				}
			}
		}
	}
	return feat, thr, gain
}

func refImpurity(counts []float64, total float64, crit Criterion) float64 {
	if total == 0 {
		return 0
	}
	switch crit {
	case Entropy:
		h := 0.0
		for _, c := range counts {
			if c > 0 {
				p := c / total
				h -= p * math.Log2(p)
			}
		}
		return h
	default:
		g := 1.0
		for _, c := range counts {
			p := c / total
			g -= p * p
		}
		return g
	}
}

func refPartition(x [][]float64, idx []int, f int, thr float64) (left, right []int) {
	for _, i := range idx {
		if x[i][f] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	return left, right
}

// refRegressor grows a regression tree the reference way.
func refRegressor(cfg Config, x [][]float64, g, hess []float64) []node {
	t := &Regressor{Cfg: cfg.withDefaults(), hess: hess}
	t.SetHessLeaf(testHessLeaf(hess))
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	b := &refRegBuilder{*newRegBuilder(t, x, g)}
	if t.Cfg.MaxLeaves > 1 {
		b.growLeafwise(idx)
	} else {
		b.growDepthwise(idx, 1)
	}
	return t.Nodes
}

// testHessLeaf is the Newton leaf both growers use when hessians are
// given, so the oracle also covers the hessian sums.
func testHessLeaf(hess []float64) func(gs, hs float64) float64 {
	if hess == nil {
		return nil
	}
	return func(gs, hs float64) float64 { return -gs / (hs + 1) }
}

// refRegBuilder borrows regBuilder's unchanged stats and leaf helpers
// and replaces everything that sorts or partitions.
type refRegBuilder struct{ regBuilder }

func (b *refRegBuilder) growDepthwise(idx []int, depth int) int32 {
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
	left, right := refPartition(b.x, idx, feat, thr)
	if len(left) < t.Cfg.MinSamplesLeaf || len(right) < t.Cfg.MinSamplesLeaf {
		return b.mkLeaf(s)
	}
	t.Nodes = append(t.Nodes, node{Feature: feat, Threshold: thr})
	self := int32(len(t.Nodes) - 1)
	l := b.growDepthwise(left, depth+1)
	r := b.growDepthwise(right, depth+1)
	t.Nodes[self].Left = l
	t.Nodes[self].Right = r
	return self
}

func (b *refRegBuilder) growLeafwise(idx []int) {
	t := b.t
	s := b.statsOf(idx)
	t.Nodes = append(t.Nodes, node{Feature: -1, Value: b.leafValue(s)})
	cands := []leafCandidate{b.candidate(0, idx, s, 1)}
	leaves := 1
	for leaves < t.Cfg.MaxLeaves {
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
		left, right := refPartition(b.x, c.idx, c.feat, c.thr)
		if len(left) < t.Cfg.MinSamplesLeaf || len(right) < t.Cfg.MinSamplesLeaf {
			continue
		}
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

func (b *refRegBuilder) candidate(nodeIdx int32, idx []int, s regStats, depth int) leafCandidate {
	c := leafCandidate{nodeIdx: nodeIdx, idx: idx, stats: s, feat: -1, depth: depth}
	if len(idx) >= b.t.Cfg.MinSamplesSplit && s.sse() > 1e-12 {
		c.feat, c.thr, c.gain = b.bestSplit(idx, s)
	}
	return c
}

func (b *refRegBuilder) bestSplit(idx []int, parent regStats) (feat int, thr, gain float64) {
	feat, gain = -1, 0
	parentSSE := parent.sse()
	order := make([]int, len(idx))
	minLeaf := b.t.Cfg.MinSamplesLeaf
	for _, f := range b.picker.pick() {
		copy(order, idx)
		sort.Slice(order, func(a, c int) bool { return b.x[order[a]][f] < b.x[order[c]][f] })
		var lSum, lSumSq float64
		for k := 0; k < len(order)-1; k++ {
			i := order[k]
			v := b.g[i]
			lSum += v
			lSumSq += v * v
			x1, x2 := b.x[i][f], b.x[order[k+1]][f]
			if x1 == x2 {
				continue
			}
			ln := k + 1
			rn := len(order) - ln
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
				thr = (x1 + x2) / 2
				if thr >= x2 || math.IsInf(thr, -1) {
					thr = x1
				}
			}
		}
	}
	return feat, thr, gain
}

// ---------------------------------------------------------------------------
// Oracle checks

// sameNodes reports the first node where got and want differ in
// structure or in any float's bits.
func sameNodes(t *testing.T, label string, got, want []node) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d nodes, reference %d", label, len(got), len(want))
	}
	bits := math.Float64bits
	for i := range got {
		g, w := got[i], want[i]
		if g.Feature != w.Feature || bits(g.Threshold) != bits(w.Threshold) ||
			g.Left != w.Left || g.Right != w.Right || bits(g.Value) != bits(w.Value) ||
			len(g.Probs) != len(w.Probs) {
			t.Fatalf("%s: node %d = %+v, reference %+v", label, i, g, w)
		}
		for c := range g.Probs {
			if bits(g.Probs[c]) != bits(w.Probs[c]) {
				t.Fatalf("%s: node %d Probs %v, reference %v", label, i, g.Probs, w.Probs)
			}
		}
	}
}

func sameFloats(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, reference %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %v, reference %v", label, i, got[i], want[i])
		}
	}
}

// checkClassifier asserts that the classifier refuses x when it holds a
// NaN cell, then fits both growers on x with its NaN cells replaced
// (nanFree) and compares the trees, the importances and the root split.
// It grows the tree twice: on x's own ranking, where wide nodes walk,
// and on a ranking padded with zero-weight rows to eight times x's
// length, where every node sorts. Both must be the reference tree.
func checkClassifier(t *testing.T, label string, cfg Config, x [][]float64, y []int, w []int, nClasses int) {
	t.Helper()
	if clean := nanFree(x); clean != nil {
		err := NewClassifier(cfg).FitWeighted(x, y, w, nClasses)
		if err == nil || !strings.Contains(err.Error(), "NaN") {
			t.Fatalf("%s: NaN input: err %v, want a refusal", label, err)
		}
		x = clean
	}
	wf := floats(w)
	tr := NewClassifier(cfg)
	if err := tr.FitWeighted(x, y, w, nClasses); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	nodes, imp := refClassifier(cfg, x, y, wf, nClasses)
	sameNodes(t, label, tr.Nodes, nodes)
	sameFloats(t, label+" importances", tr.Importances, imp)

	px, py, pw := padRanking(x, y, w)
	pc, err := ml.NewColumns(px, 1)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	sorted := NewClassifier(cfg)
	if err := sorted.FitWeightedColumns(pc, py, pw, nClasses); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	sameNodes(t, label+" (sorted nodes)", sorted.Nodes, nodes)
	sameFloats(t, label+" importances (sorted nodes)", sorted.Importances, imp)

	// The root split on its own, from fresh builders with equal pickers.
	idx := activeIndices(w, len(x))
	counts := make([]int, nClasses)
	countsF := make([]float64, nClasses)
	total := 0
	for _, i := range idx {
		m := 1
		if w != nil {
			m = w[i]
		}
		counts[y[i]] += m
		countsF[y[i]] += float64(m)
		total += m
	}
	c := NewClassifier(cfg)
	c.NClasses = nClasses
	cols, err := ml.NewColumns(x, 1)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	f1, thr1, g1 := newClsBuilder(c, cols, y, w).bestSplit(idx, counts, total)
	rng := rand.New(rand.NewSource(c.Cfg.Seed))
	ref := &refClsBuilder{t: c, x: x, y: y, w: wf, picker: newFeaturePicker(len(x[0]), c.Cfg.MaxFeatures, rng)}
	f2, thr2, g2 := ref.bestSplit(idx, countsF, float64(total))
	if f1 != f2 || math.Float64bits(thr1) != math.Float64bits(thr2) || math.Float64bits(g1) != math.Float64bits(g2) {
		t.Fatalf("%s: root split (%d, %v, %v), reference (%d, %v, %v)", label, f1, thr1, g1, f2, thr2, g2)
	}
}

// nanFree returns a copy of x with every NaN cell set to 0.5, or nil
// when x has none.
func nanFree(x [][]float64) [][]float64 {
	var out [][]float64
	for i, row := range x {
		for j, v := range row {
			if !math.IsNaN(v) {
				continue
			}
			if out == nil {
				out = make([][]float64, len(x))
				for r := range x {
					out[r] = append([]float64(nil), x[r]...)
				}
			}
			out[i][j] = 0.5
		}
	}
	return out
}

// padRanking appends rows of weight zero to a training set until it is
// walkShare·len(x)+1 rows long, so every node of a tree grown on it
// holds less than walkShare's share of the ranked rows and sorts. The
// padding repeats x's values with a small shift, so its ranks
// interleave with the real rows'.
func padRanking(x [][]float64, y []int, w []int) ([][]float64, []int, []int) {
	n := len(x)
	px, py, pw := append([][]float64(nil), x...), append([]int(nil), y...), make([]int, walkShare*n+1)
	for i := range x {
		pw[i] = 1
		if w != nil {
			pw[i] = w[i]
		}
	}
	for i := 0; i < (walkShare-1)*n+1; i++ {
		row := make([]float64, len(x[0]))
		for j, v := range x[i%n] {
			row[j] = v + float64(i%3-1)/8
		}
		px, py = append(px, row), append(py, y[i%n])
	}
	return px, py, pw
}

// checkRegressor fits both growers on one input and compares the trees.
func checkRegressor(t *testing.T, label string, cfg Config, x [][]float64, g, hess []float64) {
	t.Helper()
	tr := NewRegressor(cfg)
	tr.SetHessLeaf(testHessLeaf(hess))
	if err := tr.Fit(x, g, hess); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	sameNodes(t, label, tr.Nodes, refRegressor(cfg, x, g, hess))
}

// oracleInput draws a training set with the cases where a changed sort
// or a changed sum would show: columns of few distinct values (ties),
// NaN cells, signed zeros, and bootstrap multiplicities.
func oracleInput(rng *rand.Rand, n, d, k int) (x [][]float64, y []int, w []int, g []float64) {
	x = make([][]float64, n)
	y = make([]int, n)
	g = make([]float64, n)
	levels := make([]int, d) // 0: continuous, else that many distinct values
	for j := range levels {
		if rng.Intn(2) == 0 {
			levels[j] = 1 + rng.Intn(6)
		}
	}
	for i := range x {
		x[i] = make([]float64, d)
		for j := range x[i] {
			switch {
			case rng.Float64() < 0.05:
				x[i][j] = math.NaN()
			case levels[j] > 0:
				x[i][j] = float64(rng.Intn(levels[j]))
				if x[i][j] == 0 && rng.Intn(2) == 0 {
					x[i][j] = math.Copysign(0, -1)
				}
			default:
				x[i][j] = rng.NormFloat64()
			}
		}
		y[i] = rng.Intn(k)
		g[i] = float64(y[i]) - 0.3*rng.NormFloat64()
	}
	if rng.Intn(2) == 0 {
		w = make([]int, n)
		for i := 0; i < n; i++ {
			w[rng.Intn(n)]++
		}
	}
	return x, y, w, g
}

func TestClassifierMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	trials := 300
	if testing.Short() {
		trials = 60
	}
	for trial := 0; trial < trials; trial++ {
		n := 2 + rng.Intn(120)
		if trial%50 == 0 {
			n = termCap + 1 + rng.Intn(600) // root and upper node totals above the tables
		}
		d, k := 1+rng.Intn(6), 2+rng.Intn(5)
		x, y, w, _ := oracleInput(rng, n, d, k)
		cfg := Config{
			MaxDepth:       rng.Intn(8),
			MinSamplesLeaf: 1 + rng.Intn(3),
			MaxFeatures:    []int{0, -1, 2}[rng.Intn(3)],
			Criterion:      Criterion(rng.Intn(2)),
			Seed:           rng.Int63(),
		}
		checkClassifier(t, "trial", cfg, x, y, w, k)
	}
}

func TestRegressorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	trials := 200
	if testing.Short() {
		trials = 40
	}
	for trial := 0; trial < trials; trial++ {
		n := 2 + rng.Intn(150)
		d := 1 + rng.Intn(6)
		x, _, _, g := oracleInput(rng, n, d, 4)
		var hess []float64
		if rng.Intn(2) == 0 {
			hess = make([]float64, n)
			for i := range hess {
				hess[i] = rng.Float64()
			}
		}
		cfg := Config{
			MaxDepth:       rng.Intn(6),
			MinSamplesLeaf: 1 + rng.Intn(3),
			MaxFeatures:    []int{0, -1, 2}[rng.Intn(3)],
			Seed:           rng.Int63(),
		}
		if trial%2 == 1 {
			cfg.MaxLeaves = 2 + rng.Intn(30) // leaf-wise growth
		}
		checkRegressor(t, "trial", cfg, x, g, hess)
	}
}

// TestTermTablesMatchTerm pins the term tables' one promise: every
// entry of either criterion's table is bitwise what term computes for
// that count over that total, and entry 0, the empty class, is 0.
func TestTermTablesMatchTerm(t *testing.T) {
	for crit, tab := range map[Criterion][]float64{Gini: giniTerms(), Entropy: entropyTerms()} {
		if len(tab) != (termCap+1)*(termCap+2)/2 {
			t.Fatalf("%v: table of %d entries", crit, len(tab))
		}
		for total := 1; total <= termCap; total++ {
			row := termRow(tab, total)
			if math.Float64bits(row[0]) != 0 {
				t.Fatalf("%v: entry 0/%d = %v, want 0", crit, total, row[0])
			}
			for c := 1; c <= total; c++ {
				if want := crit.term(c, total); math.Float64bits(row[c]) != math.Float64bits(want) {
					t.Fatalf("%v: entry %d/%d = %v, want %v", crit, c, total, row[c], want)
				}
			}
		}
	}
}

// TestCutImpuritiesMatchImpurity pins the fused pass: a cut's two child
// impurities, summed in one loop with the right counts taken as parent -
// left, are bit for bit what impurity gives for the left counts and for
// parent - left, for both criteria, with totals on both sides of the
// tables' cap on either side of the cut.
func TestCutImpuritiesMatchImpurity(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	cols, err := ml.NewColumns([][]float64{{0}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	scales := []int{4, 64, termCap / 4, 3 * termCap}
	for _, crit := range []Criterion{Gini, Entropy} {
		for trial := 0; trial < 2000; trial++ {
			k := 2 + rng.Intn(8)
			b := newClsBuilder(&Classifier{Cfg: Config{Criterion: crit}, NClasses: k}, cols, nil, nil)
			ls, rs := scales[rng.Intn(4)], scales[rng.Intn(4)]
			left, parent, right := make([]int, k), make([]int, k), make([]int, k)
			lt, rt := 0, 0
			for c := range parent {
				if rng.Intn(3) > 0 {
					left[c] = rng.Intn(ls)
				}
				if rng.Intn(3) > 0 {
					right[c] = rng.Intn(rs)
				}
				parent[c] = left[c] + right[c]
				lt += left[c]
				rt += right[c]
			}
			if lt == 0 || rt == 0 {
				continue
			}
			li, ri := b.cutImpurities(left, parent, lt, rt)
			wl, wr := b.impurity(left, lt), b.impurity(right, rt)
			if math.Float64bits(li) != math.Float64bits(wl) || math.Float64bits(ri) != math.Float64bits(wr) {
				t.Fatalf("%v: left %v of %d, right %v of %d: cut impurities %v %v, want %v %v",
					crit, left, lt, right, rt, li, ri, wl, wr)
			}
			if wl != refImpurity(floats(left), float64(lt), crit) || wr != refImpurity(floats(right), float64(rt), crit) {
				t.Fatalf("%v: left %v right %v: impurity differs from the reference", crit, left, right)
			}
		}
	}
}

// floats converts integer counts or multiplicities to the reference
// grower's float weights; nil stays nil (one each).
func floats(counts []int) []float64 {
	if counts == nil {
		return nil
	}
	out := make([]float64, len(counts))
	for c, n := range counts {
		out[c] = float64(n)
	}
	return out
}

func TestFitWeightedRejectsNegativeWeight(t *testing.T) {
	x := [][]float64{{0}, {1}, {2}}
	y := []int{0, 1, 1}
	if err := NewClassifier(Config{}).FitWeighted(x, y, []int{1, -1, 2}, 2); err == nil {
		t.Fatal("negative multiplicity should error")
	}
	if err := NewClassifier(Config{}).FitWeighted(x, y, []int{1, 0, 2}, 2); err != nil {
		t.Fatalf("zero multiplicity is a dropped row, not an error: %v", err)
	}
}

// TestBestSplitAllocs is the steady-state gate: on a warm builder the
// split search of either tree allocates nothing, whether the classifier
// walks a wide node's rank order or sorts a small node's keys.
func TestBestSplitAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	x, y, _, g := oracleInput(rng, 300, 12, 4)
	w := make([]int, len(x))
	for range x {
		w[rng.Intn(len(x))]++
	}
	cols, err := ml.NewColumns(nanFree(x), 1)
	if err != nil {
		t.Fatal(err)
	}
	wide := activeIndices(w, len(x))
	small := wide[:len(x)/(2*walkShare)]
	for _, crit := range []Criterion{Gini, Entropy} {
		for _, idx := range [][]int{wide, small} {
			counts := make([]int, 4)
			total := 0
			for _, i := range idx {
				counts[y[i]] += w[i]
				total += w[i]
			}
			c := NewClassifier(Config{MaxFeatures: -1, Criterion: crit})
			c.NClasses = 4
			b := newClsBuilder(c, cols, y, w)
			b.bestSplit(idx, counts, total)
			if allocs := testing.AllocsPerRun(20, func() { b.bestSplit(idx, counts, total) }); allocs != 0 {
				t.Fatalf("%v, %d of %d rows: warm clsBuilder.bestSplit allocates %v times", crit, len(idx), len(x), allocs)
			}
		}
	}
	all := make([]int, len(x))
	for i := range all {
		all[i] = i
	}
	b := newRegBuilder(NewRegressor(Config{MaxFeatures: -1}), x, g)
	s := b.statsOf(all)
	b.bestSplit(all, s)
	if allocs := testing.AllocsPerRun(20, func() { b.bestSplit(all, s) }); allocs != 0 {
		t.Fatalf("warm regBuilder.bestSplit allocates %v times", allocs)
	}
}

// TestClassifierRefusesNaN pins the NaN contract on the input that used
// to collapse: column 0's NaN cell won the root split at threshold NaN,
// and the tree gave up as one [0.5 0.5] leaf although column 1
// separates the classes.
func TestClassifierRefusesNaN(t *testing.T) {
	x := [][]float64{{0, 0}, {0, 0}, {math.NaN(), 1}, {5, 1}}
	y := []int{0, 0, 1, 1}
	err := NewClassifier(Config{}).Fit(x, y, 2)
	if err == nil || !strings.Contains(err.Error(), "NaN feature at row 2 col 0") {
		t.Fatalf("err %v, want a refusal naming row 2 col 0", err)
	}
	x[2][0] = 0
	tr := NewClassifier(Config{})
	if err := tr.Fit(x, y, 2); err != nil {
		t.Fatal(err)
	}
	if tr.Nodes[0].Feature != 1 || tr.LeafCount() != 2 {
		t.Fatalf("root splits on %d with %d leaves, want column 1 and 2 leaves", tr.Nodes[0].Feature, tr.LeafCount())
	}
}

// TestSplitThresholdBelowUpperValue pins the threshold rule on
// neighbouring values whose midpoint is not strictly between them: it
// rounds up to the upper value, or a+b overflows to an infinity. Such a
// threshold sent every row left, and the node became one [0.5 0.5]
// leaf although the feature separates the classes; the cut now sits at
// the lower value, for both builders and both regressor growth modes.
func TestSplitThresholdBelowUpperValue(t *testing.T) {
	for _, p := range [][2]float64{
		{1.0000000000000002, 1.0000000000000004},   // (a+b)/2 rounds to b
		{0.9 * math.MaxFloat64, math.MaxFloat64},   // a+b overflows to +Inf
		{-math.MaxFloat64, -0.9 * math.MaxFloat64}, // a+b overflows to -Inf
	} {
		a, b := p[0], p[1]
		x := [][]float64{{a}, {a}, {b}, {b}}
		label := fmt.Sprintf("a=%v b=%v", a, b)
		c := NewClassifier(Config{})
		if err := c.Fit(x, []int{0, 0, 1, 1}, 2); err != nil {
			t.Fatal(err)
		}
		if len(c.Nodes) != 3 || math.Float64bits(c.Nodes[0].Threshold) != math.Float64bits(a) ||
			c.PredictProba([]float64{a})[0] != 1 || c.PredictProba([]float64{b})[1] != 1 {
			t.Fatalf("classifier, %s: nodes %+v, want one split at a", label, c.Nodes)
		}
		checkClassifier(t, "classifier, "+label, Config{}, x, []int{0, 0, 1, 1}, nil, 2)
		for _, cfg := range []Config{{}, {MaxLeaves: 4}} {
			r := NewRegressor(cfg)
			if err := r.Fit(x, []float64{0, 0, 1, 1}, nil); err != nil {
				t.Fatal(err)
			}
			if len(r.Nodes) != 3 || math.Float64bits(r.Nodes[0].Threshold) != math.Float64bits(a) ||
				r.Predict([]float64{a}) != 0 || r.Predict([]float64{b}) != 1 {
				t.Fatalf("regressor %+v, %s: nodes %+v, want one split at a", cfg, label, r.Nodes)
			}
			checkRegressor(t, "regressor, "+label, cfg, x, []float64{0, 0, 1, 1}, nil)
		}
	}
}

// runInput draws a training set whose labels come in runs along
// column 0's order, so most value boundaries of the upper nodes lie
// between two groups pure in one class, where bestSplit skips the cut.
// Column 0 ties rows in groups of one to three; a group inside a run
// shares its class, and every few runs a group is mixed. Column 1 is
// noise with ties.
func runInput(rng *rand.Rand, n, k int) (x [][]float64, y []int) {
	x, y = make([][]float64, n), make([]int, n)
	v, class, left := 0, rng.Intn(k), 0
	for i := 0; i < n; {
		if left == 0 {
			class, left = rng.Intn(k), 1+rng.Intn(12)
		}
		size, mixed := 1+rng.Intn(3), rng.Intn(6) == 0
		for j := 0; j < size && i < n; j, i = j+1, i+1 {
			x[i] = []float64{float64(v), float64(rng.Intn(5))}
			y[i] = class
			if mixed && j > 0 {
				y[i] = rng.Intn(k)
			}
		}
		v++
		left--
	}
	return x, y
}

// TestPrunedCutsMatchReference grows trees where the pruning rule has
// the most to skip: long same-class runs at the start, the end and the
// middle of a node, pure tied groups beside mixed ones, and
// MinSamplesLeaf up to 6, so the first or last feasible cut falls
// inside a run. Every tree must be the reference grower's, which scores
// every cut. The fixed cases are the smallest inputs where a cut inside
// a run is the only feasible one.
func TestPrunedCutsMatchReference(t *testing.T) {
	seq := func(n int) [][]float64 {
		x := make([][]float64, n)
		for i := range x {
			x[i] = []float64{float64(i)}
		}
		return x
	}
	for _, tc := range []struct {
		name    string
		x       [][]float64
		y       []int
		minLeaf int
	}{
		{"first feasible cut inside a run", seq(10), []int{0, 0, 1, 1, 1, 1, 1, 1, 1, 1}, 5},
		{"last feasible cut inside a run", seq(10), []int{1, 1, 1, 1, 1, 1, 1, 1, 0, 0}, 5},
		{"both limits inside one run", seq(12), []int{0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0}, 2},
		{"run at the start", seq(16), []int{0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1, 0, 1, 0, 0}, 1},
		{"run at the end", seq(16), []int{0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1}, 1},
		{"run in the middle", seq(16), []int{0, 1, 2, 1, 2, 2, 2, 2, 2, 2, 2, 2, 0, 1, 0, 1}, 1},
		{"pure tied groups beside a mixed one",
			[][]float64{{0}, {0}, {0}, {1}, {1}, {1}, {2}, {2}, {2}, {3}, {3}, {3}},
			[]int{0, 0, 0, 0, 1, 0, 1, 1, 1, 1, 1, 1}, 1},
	} {
		for _, crit := range []Criterion{Gini, Entropy} {
			cfg := Config{MinSamplesLeaf: tc.minLeaf, Criterion: crit}
			tr := NewClassifier(cfg)
			if err := tr.Fit(tc.x, tc.y, 3); err != nil {
				t.Fatal(err)
			}
			if tr.LeafCount() < 2 {
				t.Fatalf("%s, %v: one leaf; the input has a split", tc.name, crit)
			}
			checkClassifier(t, tc.name+", "+crit.String(), cfg, tc.x, tc.y, nil, 3)
		}
	}
	rng := rand.New(rand.NewSource(45))
	trials := 300
	if testing.Short() {
		trials = 60
	}
	for trial := 0; trial < trials; trial++ {
		k := 2 + rng.Intn(3)
		x, y := runInput(rng, 8+rng.Intn(120), k)
		var w []int
		if rng.Intn(2) == 0 {
			w = make([]int, len(x))
			for range w {
				w[rng.Intn(len(w))]++
			}
		}
		cfg := Config{
			MaxDepth:       rng.Intn(6),
			MinSamplesLeaf: 1 + rng.Intn(6),
			MaxFeatures:    []int{0, 1}[rng.Intn(2)],
			Criterion:      Criterion(rng.Intn(2)),
			Seed:           rng.Int63(),
		}
		checkClassifier(t, fmt.Sprintf("trial %d", trial), cfg, x, y, w, k)
	}
}

// FuzzSplitReference runs both builders, both criteria and both growth
// orders against the reference on one decoded input. flags picks the
// criterion (bit 0), MinSamplesLeaf, the row width d and the class
// count; total, when nonzero, spreads that many draws over the rows as
// multiplicities, so the root total can sit exactly at the entropy
// table's cap. Each row is d value bytes and one label byte; value byte
// 0xff is NaN, 0x80 is -0, anything else int8/4, which is where ties
// live.
func FuzzSplitReference(f *testing.F) {
	f.Add(uint8(0x09), uint16(0), []byte{1, 0, 2, 1, 3, 0, 4, 1, 5, 0})
	f.Fuzz(func(t *testing.T, flags uint8, total uint16, data []byte) {
		crit := Criterion(flags & 1)
		minLeaf := 1 + int(flags>>1)%3
		d := 1 + int(flags>>3)%4
		k := 2 + int(flags>>5)%3
		n := min(len(data)/(d+1), 512)
		if n == 0 {
			return
		}
		x := make([][]float64, n)
		y := make([]int, n)
		g := make([]float64, n)
		for i := range x {
			row := data[i*(d+1) : (i+1)*(d+1)]
			x[i] = make([]float64, d)
			for j, b := range row[:d] {
				switch b {
				case 0xff:
					x[i][j] = math.NaN()
				case 0x80:
					x[i][j] = math.Copysign(0, -1)
				default:
					x[i][j] = float64(int8(b)) / 4
				}
			}
			y[i] = int(row[d]) % k
			g[i] = float64(int8(row[d])) / 8
		}
		var w []int
		if total > 0 {
			w = make([]int, n)
			for i := range w {
				w[i] = int(total) / n
				if i < int(total)%n {
					w[i]++
				}
			}
		}
		checkClassifier(t, crit.String(), Config{MinSamplesLeaf: minLeaf, Criterion: crit}, x, y, w, k)
		checkRegressor(t, "depth-wise", Config{MinSamplesLeaf: minLeaf}, x, g, nil)
		checkRegressor(t, "leaf-wise", Config{MinSamplesLeaf: minLeaf, MaxLeaves: 8}, x, g, nil)
	})
}

// FuzzColumnsAppend grows a ranking one appended row at a time, as an
// active-learning session does, and checks it against a fresh ranking
// of the same rows after every append; then it fits a classification
// tree on the appended ranking and compares it with the reference
// grower node for node. flags picks the criterion (bit 0),
// MinSamplesLeaf, the row width d and the class count; start is how
// many rows the ranking is built from before the appends; bootstrap
// draws multiplicities from that seed when nonzero. Rows decode as in
// FuzzSplitReference, minus NaN: value byte 0x80 is -0, anything else
// int8/4, so ties and duplicate rows are common.
func FuzzColumnsAppend(f *testing.F) {
	f.Add(uint8(0x09), uint8(1), int64(0), []byte{1, 0, 2, 1, 0x80, 0, 4, 1, 0, 0, 2, 1, 3, 0})
	f.Add(uint8(0x2a), uint8(3), int64(7), []byte{4, 4, 0, 0x80, 0, 1, 4, 4, 2, 0, 0, 0, 9, 9, 1, 0xfc, 4, 2})
	f.Fuzz(func(t *testing.T, flags, start uint8, bootstrap int64, data []byte) {
		crit := Criterion(flags & 1)
		minLeaf := 1 + int(flags>>1)%3
		d := 1 + int(flags>>3)%4
		k := 2 + int(flags>>5)%3
		n := min(len(data)/(d+1), 256)
		if n == 0 {
			return
		}
		x := make([][]float64, n)
		y := make([]int, n)
		for i := range x {
			row := data[i*(d+1) : (i+1)*(d+1)]
			x[i] = make([]float64, d)
			for j, b := range row[:d] {
				if b == 0x80 {
					x[i][j] = math.Copysign(0, -1)
				} else {
					x[i][j] = float64(int8(b)) / 4
				}
			}
			y[i] = int(row[d]) % k
		}
		n0 := 1 + int(start)%n
		c, err := ml.NewColumns(x[:n0], 1)
		if err != nil {
			t.Fatal(err)
		}
		for m := n0; m < n; m++ {
			if err := c.Append(x[m]); err != nil {
				t.Fatal(err)
			}
			fresh, err := ml.NewColumns(x[:m+1], 1)
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < d; j++ {
				if !slices.Equal(c.Rank(j), fresh.Rank(j)) || !slices.Equal(c.Words(j), fresh.Words(j)) {
					t.Fatalf("%d rows, col %d: appended ranks %v words %x, fresh %v %x",
						m+1, j, c.Rank(j), c.Words(j), fresh.Rank(j), fresh.Words(j))
				}
			}
		}
		var w []int
		var wf []float64
		if bootstrap != 0 {
			rng := rand.New(rand.NewSource(bootstrap))
			w, wf = make([]int, n), make([]float64, n)
			for range w {
				i := rng.Intn(n)
				w[i]++
				wf[i]++
			}
		}
		cfg := Config{MinSamplesLeaf: minLeaf, Criterion: crit, MaxFeatures: -1, Seed: bootstrap}
		tr := NewClassifier(cfg)
		if err := tr.FitWeightedColumns(c, y, w, k); err != nil {
			t.Fatal(err)
		}
		nodes, imp := refClassifier(cfg, x, y, wf, k)
		sameNodes(t, crit.String(), tr.Nodes, nodes)
		sameFloats(t, crit.String()+" importances", tr.Importances, imp)
	})
}
