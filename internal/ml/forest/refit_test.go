package forest

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"albadross/internal/ml"
	"albadross/internal/ml/tree"
)

// TestPoissonTable recomputes ⌊2⁶⁴·P(X ≤ k)⌋ for X ~ Poisson(1) in
// 256-bit arithmetic and checks the table, and that the table may stop
// where it does: the next entry would not fit below 2⁶⁴ - 1.
func TestPoissonTable(t *testing.T) {
	const prec = 256
	// e⁻¹ = Σ (-1)^j / j!, summed far past 2⁻²⁵⁶.
	eInv := new(big.Float).SetPrec(prec)
	term := new(big.Float).SetPrec(prec).SetInt64(1)
	for j := 0; j < 80; j++ {
		if j > 0 {
			term.Quo(term, new(big.Float).SetPrec(prec).SetInt64(int64(-j)))
		}
		eInv.Add(eInv, term)
	}
	two64 := new(big.Float).SetPrec(prec).SetMantExp(big.NewFloat(1), 64)
	cum := new(big.Float).SetPrec(prec)
	fact := new(big.Float).SetPrec(prec).SetInt64(1)
	for k := 0; k <= len(poisson1); k++ {
		if k > 0 {
			fact.Mul(fact, new(big.Float).SetPrec(prec).SetInt64(int64(k)))
		}
		cum.Add(cum, new(big.Float).SetPrec(prec).Quo(eInv, fact))
		scaled := new(big.Float).SetPrec(prec).Mul(cum, two64)
		v, _ := scaled.Int(nil) // truncates toward zero: the floor of a positive value
		if k == len(poisson1) {
			if v.Cmp(new(big.Int).SetUint64(math.MaxUint64)) < 0 {
				t.Fatalf("P(X <= %d)·2^64 = %v fits below 2^64-1: the table stops too early", k, v)
			}
			break
		}
		if !v.IsUint64() || v.Uint64() != poisson1[k] {
			t.Fatalf("poisson1[%d] = %#x, want %v", k, poisson1[k], v)
		}
	}
}

// TestBagWeightsArePoisson checks one bag's weights against Poisson(1)'s
// mean and its zero and one shares, and that a bag is keyed: a row's
// weight does not depend on how many rows the bag has.
func TestBagWeightsArePoisson(t *testing.T) {
	const n = 200000
	w := bagWeights(bagKey(7), n)
	sum, zeros, ones := 0, 0, 0
	for _, v := range w {
		sum += v
		switch v {
		case 0:
			zeros++
		case 1:
			ones++
		}
	}
	p0 := math.Exp(-1)
	if m := float64(sum) / n; math.Abs(m-1) > 0.01 {
		t.Errorf("mean weight %v, want 1", m)
	}
	if s := float64(zeros) / n; math.Abs(s-p0) > 0.005 {
		t.Errorf("zero share %v, want %v", s, p0)
	}
	if s := float64(ones) / n; math.Abs(s-p0) > 0.005 {
		t.Errorf("one share %v, want %v", s, p0)
	}
	short := bagWeights(bagKey(7), 100)
	if !reflect.DeepEqual(short, w[:100]) {
		t.Fatal("a bag's first rows changed with its length")
	}
	if reflect.DeepEqual(bagWeights(bagKey(8), 100), short) {
		t.Fatal("neighbouring tree seeds drew the same bag")
	}
}

// refitMatrix draws n rows of d features from a few distinct values, so
// ties are common, with column 0 constant.
func refitMatrix(rng *rand.Rand, n, d int) [][]float64 {
	x := make([][]float64, n)
	for i := range x {
		x[i] = make([]float64, d)
		for j := 1; j < d; j++ {
			x[i][j] = float64(rng.Intn(5)) - 2
		}
	}
	return x
}

// requireSameForest fails unless got and want are bitwise the same
// model: every tree's nodes and importances, and the probabilities of
// every row of x.
func requireSameForest(t *testing.T, what string, got, want *Forest, x [][]float64) {
	t.Helper()
	if len(got.Trees) != len(want.Trees) || got.NClasses != want.NClasses {
		t.Fatalf("%s: %d trees over %d classes, fresh fit %d over %d", what, len(got.Trees), got.NClasses, len(want.Trees), want.NClasses)
	}
	for i := range got.Trees {
		if !reflect.DeepEqual(got.Trees[i].Nodes, want.Trees[i].Nodes) {
			t.Fatalf("%s: tree %d nodes differ from a fresh fit's", what, i)
		}
		if !sameBits(got.Trees[i].Importances, want.Trees[i].Importances) {
			t.Fatalf("%s: tree %d importances %v, fresh fit %v", what, i, got.Trees[i].Importances, want.Trees[i].Importances)
		}
	}
	gp, wp := ml.ProbaBatch(got, x), ml.ProbaBatch(want, x)
	for i := range gp {
		if !sameBits(gp[i], wp[i]) {
			t.Fatalf("%s: row %d probabilities %v, fresh fit %v", what, i, gp[i], wp[i])
		}
	}
	bp, fp := got.PredictProbaBatch(x), want.PredictProbaBatch(x)
	for i := range bp {
		if !sameBits(bp[i], fp[i]) {
			t.Fatalf("%s: row %d batch probabilities %v, fresh fit %v", what, i, bp[i], fp[i])
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// freshFit is the oracle: FitColumns with no previous model.
func freshFit(t *testing.T, cfg Config, c *ml.Columns, y []int, k int) *Forest {
	t.Helper()
	f := New(cfg)
	if err := f.FitColumns(c, y, k, nil); err != nil {
		t.Fatal(err)
	}
	return f
}

// checkReuse fails unless tree i of f is prev's exactly when every row
// in [n0, n) has weight 0 in tree i's bag.
func checkReuse(t *testing.T, f, prev *Forest, n0, n int) (kept int) {
	t.Helper()
	for i := range f.Trees {
		omits := bagOmits(bagKey(f.Cfg.Seed*1_000_003+int64(i)), n0, n)
		if shared := f.Trees[i] == prev.Trees[i]; shared != omits {
			t.Fatalf("rows %d..%d: tree %d shared %v, but the appended rows' weights are all 0: %v", n0, n, i, shared, omits)
		}
		if omits {
			kept++
		}
	}
	return kept
}

// TestRefitMatchesFreshFit grows a ranking by one or several rows at a
// time over random matrices (ties, a constant column) and label
// sequences, refits with the previous forest after every growth, and
// requires the refit to be bitwise a fresh fit, with tree t kept
// exactly when every appended row has weight 0 in it.
func TestRefitMatchesFreshFit(t *testing.T) {
	kept, trees := 0, 0
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n, d, k := 30+rng.Intn(40), 2+rng.Intn(6), 2+rng.Intn(3)
		x := refitMatrix(rng, n, d)
		y := make([]int, n)
		for i := range y {
			y[i] = rng.Intn(k)
		}
		cfg := Config{NEstimators: 10, MaxDepth: rng.Intn(6), MinSamplesLeaf: 1 + rng.Intn(2), Criterion: tree.Criterion(trial % 2), Seed: int64(trial), Workers: 1 + trial%3}
		n0 := 3 + rng.Intn(8)
		c, err := ml.NewColumns(x[:n0], 1)
		if err != nil {
			t.Fatal(err)
		}
		prev := freshFit(t, cfg, c, y[:n0], k)
		for m := n0; m < n; {
			step := 1 + rng.Intn(3)
			if trial%2 == 0 {
				step = 1
			}
			for ; step > 0 && m < n; step-- {
				if err := c.Append(x[m]); err != nil {
					t.Fatal(err)
				}
				m++
			}
			f := New(cfg)
			if err := f.FitColumns(c, y[:m], k, prev); err != nil {
				t.Fatal(err)
			}
			requireSameForest(t, "refit", f, freshFit(t, cfg, c, y[:m], k), x[:m])
			kept += checkReuse(t, f, prev, len(prev.fitY), m)
			trees += len(f.Trees)
			prev = f
		}
	}
	if kept == 0 || kept == trees {
		t.Fatalf("%d of %d trees kept: the reuse path went unexercised", kept, trees)
	}
	t.Logf("%d of %d trees kept (%.1f%%)", kept, trees, 100*float64(kept)/float64(trees))
}

// TestRefitGuards hands FitColumns a prev it must not reuse: another
// ranking of the same rows, a changed label, another configuration,
// another class count, a forest fit by Fit, a gob-decoded forest and a
// model of another kind. Each is a fresh fit that shares no tree with
// prev and equals the oracle.
func TestRefitGuards(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, d, k := 60, 5, 3
	x := refitMatrix(rng, n, d)
	y := make([]int, n)
	for i := range y {
		y[i] = rng.Intn(k)
	}
	cfg := Config{NEstimators: 12, MaxDepth: 5, Seed: 4}
	c, err := ml.NewColumns(x[:n-1], 1)
	if err != nil {
		t.Fatal(err)
	}
	prev := freshFit(t, cfg, c, y[:n-1], k)
	if err := c.Append(x[n-1]); err != nil {
		t.Fatal(err)
	}
	want := freshFit(t, cfg, c, y, k)

	other, err := ml.NewColumns(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	relabeled := append([]int{}, y...)
	relabeled[5] = (relabeled[5] + 1) % k
	viaFit := New(cfg)
	if err := viaFit.Fit(x[:n-1], y[:n-1], k); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(prev); err != nil {
		t.Fatal(err)
	}
	decoded := &Forest{}
	if err := gob.NewDecoder(&buf).Decode(decoded); err != nil {
		t.Fatal(err)
	}
	deeper := cfg
	deeper.MaxDepth++
	for _, tc := range []struct {
		name string
		c    *ml.Columns
		y    []int
		k    int
		cfg  Config
		prev ml.Classifier
	}{
		{"another ranking", other, y, k, cfg, prev},
		{"changed label prefix", c, relabeled, k, cfg, prev},
		{"another config", c, y, k, deeper, prev},
		{"another class count", c, y, k + 1, cfg, prev},
		{"fit by Fit", c, y, k, cfg, viaFit},
		{"gob-decoded", c, y, k, cfg, decoded},
		{"a tree", c, y, k, cfg, prev.Trees[0]},
		{"typed nil", c, y, k, cfg, (*Forest)(nil)},
	} {
		f := New(tc.cfg)
		if err := f.FitColumns(tc.c, tc.y, tc.k, tc.prev); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i, tr := range f.Trees {
			for _, p := range prev.Trees {
				if tr == p {
					t.Fatalf("%s: tree %d reused", tc.name, i)
				}
			}
		}
		requireSameForest(t, tc.name, f, freshFit(t, tc.cfg, tc.c, tc.y, tc.k), x)
	}
	// The guards are what stopped reuse: the same call with an honest
	// prev keeps trees, and a Workers change alone does not stop it.
	workers := cfg
	workers.Workers = 3
	f := New(workers)
	if err := f.FitColumns(c, y, k, prev); err != nil {
		t.Fatal(err)
	}
	if checkReuse(t, f, prev, n-1, n) == 0 {
		t.Fatal("no tree kept: pick another seed, the control shows nothing")
	}
	requireSameForest(t, "honest prev", f, want, x)
	// prev may be the forest being refit, on its own ranking.
	c2, err := ml.NewColumns(x[:n-1], 1)
	if err != nil {
		t.Fatal(err)
	}
	self := freshFit(t, cfg, c2, y[:n-1], k)
	selfPrev := &Forest{Cfg: self.Cfg, Trees: slices.Clone(self.Trees)}
	if err := c2.Append(x[n-1]); err != nil {
		t.Fatal(err)
	}
	if err := self.FitColumns(c2, y, k, self); err != nil {
		t.Fatal(err)
	}
	if checkReuse(t, self, selfPrev, n-1, n) == 0 {
		t.Fatal("refitting in place kept no tree")
	}
	requireSameForest(t, "prev is the forest itself", self, want, x)
}

// TestRefitLeavesPrevIntact refits with prev's trees while goroutines
// keep predicting with prev; prev's predictions must stay bitwise what
// they were, and under -race any write to a shared tree is reported.
func TestRefitLeavesPrevIntact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n, d, k := 80, 6, 3
	x := refitMatrix(rng, n, d)
	y := make([]int, n)
	for i := range y {
		y[i] = rng.Intn(k)
	}
	cfg := Config{NEstimators: 16, MaxDepth: 6, Seed: 12}
	c, err := ml.NewColumns(x[:40], 1)
	if err != nil {
		t.Fatal(err)
	}
	prev := freshFit(t, cfg, c, y[:40], k)
	before := ml.ProbaBatch(prev, x)
	beforeBatch := prev.PredictProbaBatch(x)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = prev.PredictProbaBatch(x)
				_ = prev.PredictProba(x[0])
			}
		}()
	}
	last := prev
	for m := 40; m < n; m++ {
		if err := c.Append(x[m]); err != nil {
			t.Fatal(err)
		}
		f := New(cfg)
		if err := f.FitColumns(c, y[:m+1], k, last); err != nil {
			t.Fatal(err)
		}
		last = f
	}
	close(stop)
	wg.Wait()
	after, afterBatch := ml.ProbaBatch(prev, x), prev.PredictProbaBatch(x)
	for i := range before {
		if !sameBits(before[i], after[i]) || !sameBits(beforeBatch[i], afterBatch[i]) {
			t.Fatalf("refits sharing prev's trees changed prev's row %d: %v -> %v", i, before[i], after[i])
		}
	}
}

// FuzzForestRefit refits along a fuzzed label sequence over a fixed
// tie-heavy matrix. Byte 0 picks the class count, the depth and the
// criterion, byte 1 the first fit's row count; each further byte labels
// one row (low bits) and says whether a refit follows it (bit 7).
// Every refit must be bitwise a fresh fit and keep exactly the trees
// the appended rows leave out.
func FuzzForestRefit(f *testing.F) {
	f.Add([]byte{0x05, 3, 0x81, 0x02, 0x80, 0x83, 0x01, 0x82, 0x80, 0x81})
	f.Add([]byte{0x1e, 1, 0x80, 0x80, 0x80, 0x81, 0x81, 0x81, 0x00, 0x01, 0x82})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		k := 2 + int(data[0])%3
		cfg := Config{NEstimators: 8, MaxDepth: int(data[0]>>2) % 6, Criterion: tree.Criterion(data[0] >> 5 & 1), Seed: int64(data[0]), Workers: 2}
		labels := data[2:]
		if len(labels) > 96 {
			labels = labels[:96]
		}
		n := len(labels)
		x := refitMatrix(rand.New(rand.NewSource(int64(n))), n, 4)
		y := make([]int, n)
		for i, b := range labels {
			y[i] = int(b&0x7f) % k
		}
		n0 := 1 + int(data[1])%n
		c, err := ml.NewColumns(x[:n0], 1)
		if err != nil {
			t.Fatal(err)
		}
		prev := freshFit(t, cfg, c, y[:n0], k)
		for m := n0; m < n; m++ {
			if err := c.Append(x[m]); err != nil {
				t.Fatal(err)
			}
			if labels[m]&0x80 == 0 && m+1 < n {
				continue
			}
			got := New(cfg)
			if err := got.FitColumns(c, y[:m+1], k, prev); err != nil {
				t.Fatal(err)
			}
			requireSameForest(t, "refit", got, freshFit(t, cfg, c, y[:m+1], k), x[:m+1])
			checkReuse(t, got, prev, len(prev.fitY), m+1)
			prev = got
		}
	})
}
