package ml

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// rankInput draws an n×d matrix whose columns hold the cases a ranking
// must get right: few distinct values (ties), signed zeros, infinities
// and continuous values.
func rankInput(rng *rand.Rand, n, d int) [][]float64 {
	x := make([][]float64, n)
	levels := make([]int, d)
	for j := range levels {
		if rng.Intn(2) == 0 {
			levels[j] = 1 + rng.Intn(5)
		}
	}
	for i := range x {
		x[i] = make([]float64, d)
		for j := range x[i] {
			switch {
			case rng.Intn(40) == 0:
				x[i][j] = math.Inf(1 - 2*rng.Intn(2))
			case levels[j] > 0:
				x[i][j] = float64(rng.Intn(levels[j]) - 1)
				if x[i][j] == 0 && rng.Intn(2) == 0 {
					x[i][j] = math.Copysign(0, -1)
				}
			default:
				x[i][j] = rng.NormFloat64()
			}
		}
	}
	return x
}

// checkRanking asserts c is x's ranking: each column's words are sorted
// by value with ties in row order, each word's high half is its row's
// dense rank, and ranks are dense and agree with the values.
func checkRanking(t *testing.T, c *Columns, x [][]float64) {
	t.Helper()
	if c.Len() != len(x) {
		t.Fatalf("ranking of %d rows, want %d", c.Len(), len(x))
	}
	for f := 0; f < c.Dim(); f++ {
		words, rank := c.Words(f), c.Rank(f)
		if len(words) != len(x) || len(rank) != len(x) {
			t.Fatalf("col %d: %d words and %d rank entries for %d rows", f, len(words), len(rank), len(x))
		}
		for k, wd := range words {
			i, r := int(uint32(wd)), int32(wd>>32)
			if i >= len(x) || r != rank[i] {
				t.Fatalf("col %d: word %d is row %d rank %d, the row's rank is %v", f, k, i, r, rank[min(i, len(x)-1)])
			}
			if k == 0 {
				if r != 0 {
					t.Fatalf("col %d: lowest row %d has rank %d", f, i, r)
				}
				continue
			}
			p, pr := int(uint32(words[k-1])), int32(words[k-1]>>32)
			v, pv := x[i][f], x[p][f]
			switch {
			case v < pv, v == pv && i < p:
				t.Fatalf("col %d: row %d (%v) after row %d (%v)", f, i, v, p, pv)
			case v == pv && r != pr, v > pv && r != pr+1:
				t.Fatalf("col %d: rows %d (%v) and %d (%v) ranked %d and %d", f, p, pv, i, v, pr, r)
			}
		}
	}
}

func TestColumnsRankAndAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		n, d := 1+rng.Intn(60), 1+rng.Intn(5)
		x := rankInput(rng, n, d)
		n0 := 1 + rng.Intn(n)
		c, err := NewColumns(x[:n0], 1+rng.Intn(3))
		if err != nil {
			t.Fatal(err)
		}
		checkRanking(t, c, x[:n0])
		for m := n0; m < n; m++ {
			if err := c.Append(x[m]); err != nil {
				t.Fatal(err)
			}
			fresh, err := NewColumns(x[:m+1], 1)
			if err != nil {
				t.Fatal(err)
			}
			for f := 0; f < d; f++ {
				if !slices.Equal(c.Words(f), fresh.Words(f)) || !slices.Equal(c.Rank(f), fresh.Rank(f)) {
					t.Fatalf("trial %d, %d rows, col %d: appended words %x ranks %v, fresh %x %v",
						trial, m+1, f, c.Words(f), c.Rank(f), fresh.Words(f), fresh.Rank(f))
				}
			}
		}
		checkRanking(t, c, x)
	}
}

func TestColumnsRefuseNaNAndRaggedRows(t *testing.T) {
	x := [][]float64{{1, 2}, {3, math.NaN()}}
	if _, err := NewColumns(x, 1); err == nil || !strings.Contains(err.Error(), "NaN feature at row 1 col 1") {
		t.Fatalf("NaN cell: err %v", err)
	}
	if _, err := NewColumns([][]float64{{1, 2}, {3}}, 1); err == nil {
		t.Fatal("ragged rows should error")
	}
	if _, err := NewColumns(nil, 1); err == nil {
		t.Fatal("empty input should error")
	}
	c, err := NewColumns(x[:1], 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Append(x[1]); err == nil || !strings.Contains(err.Error(), "NaN feature at row 1 col 1") {
		t.Fatalf("NaN append: err %v", err)
	}
	if err := c.Append([]float64{1}); err == nil {
		t.Fatal("wrong-width append should error")
	}
	checkRanking(t, c, x[:1])
}

func TestValidateColumns(t *testing.T) {
	c, err := NewColumns([][]float64{{0, 1}, {2, math.Inf(1)}, {1, 0}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateColumns(c, []int{0, 1, 0}, 2); err == nil || !strings.Contains(err.Error(), "row 1 col 1") {
		t.Fatalf("infinite cell: err %v", err)
	}
	c, _ = NewColumns([][]float64{{0}, {math.Inf(-1)}}, 1)
	if err := ValidateColumns(c, []int{0, 1}, 2); err == nil || !strings.Contains(err.Error(), "row 1 col 0") {
		t.Fatalf("-Inf cell: err %v", err)
	}
	c, _ = NewColumns([][]float64{{0}, {1}}, 1)
	for _, bad := range []struct {
		y []int
		k int
	}{{[]int{0}, 2}, {[]int{0, 2}, 2}, {[]int{0, 0}, 1}} {
		if err := ValidateColumns(c, bad.y, bad.k); err == nil {
			t.Fatalf("labels %v of %d classes accepted", bad.y, bad.k)
		}
	}
	if err := ValidateColumns(c, []int{0, 1}, 2); err != nil {
		t.Fatal(err)
	}
}

// TestColumnsAppendAllocs is the steady-state gate for a label: an
// Append that fits the columns' capacity allocates nothing.
func TestColumnsAppendAllocs(t *testing.T) {
	const runs = 20
	rng := rand.New(rand.NewSource(2))
	x := rankInput(rng, 200+runs+1, 16)
	c, err := NewColumns(x[:200], 1)
	if err != nil {
		t.Fatal(err)
	}
	for f := range c.keys {
		c.keys[f] = slices.Grow(c.keys[f], runs+1)
		c.words[f] = slices.Grow(c.words[f], runs+1)
		c.rank[f] = slices.Grow(c.rank[f], runs+1)
	}
	c.rows = slices.Grow(c.rows, runs+1)
	next := 200
	if allocs := testing.AllocsPerRun(runs, func() {
		if err := c.Append(x[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}); allocs != 0 {
		t.Fatalf("Append within capacity allocates %v times", allocs)
	}
	checkRanking(t, c, x[:next])
}
