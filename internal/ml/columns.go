package ml

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Columns is a per-column ranking of a training matrix: for every
// feature, the rows in ascending value order and each row's dense rank
// (equal values share a rank, and -0 ranks with +0). The classification
// tree's split search reads it instead of sorting values per node, and
// Append extends it by one row in O(rows) per column, so an
// active-learning loop that grows its labeled set one query at a time
// never re-ranks it. NaN cells are refused: they have no place in an
// order.
//
// Each column keeps its value order as packed rank<<32 | row words, the
// form the split search scans, so a walk down the order copies words
// and never looks a rank up. A Columns holds 20 bytes per cell (an
// 8-byte key, an 8-byte word and a 4-byte rank): an annotation
// session's ranking of 897 labeled rows by 2000 model-space columns is
// about 36 MB. It is not safe for concurrent use with Append; any
// number of fits may read it at once.
type Columns struct {
	rows [][]float64
	// keys[f] holds column f's order-preserving value bits (sortKey),
	// ascending; words[f][k] is rank<<32 | row of the row at keys[f][k];
	// rank[f][i] is row i's dense rank in column f.
	keys  [][]uint64
	words [][]uint64
	rank  [][]int32
}

// NewColumns ranks every column of x, spreading the columns over
// workers goroutines (workers <= 0 uses runtime.NumCPU()). x must be a
// non-empty rectangular matrix without NaN cells. The ranking keeps
// x's row slices (not copies); callers must not mutate them.
func NewColumns(x [][]float64, workers int) (*Columns, error) {
	n := len(x)
	if n == 0 {
		return nil, errors.New("ml: empty training set")
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("ml: %d rows exceed a ranking's int32 row ids", n)
	}
	d := len(x[0])
	// One row-major pass transposes x into column-major key bits.
	bits := make([]uint64, n*d)
	for i, row := range x {
		if len(row) != d {
			return nil, fmt.Errorf("ml: row %d has %d features, row 0 has %d", i, len(row), d)
		}
		for f, v := range row {
			if v != v {
				return nil, fmt.Errorf("ml: NaN feature at row %d col %d", i, f)
			}
			bits[f*n+i] = sortKey(v)
		}
	}
	c := &Columns{
		rows:  slices.Clone(x),
		keys:  make([][]uint64, d),
		words: make([][]uint64, d),
		rank:  make([][]int32, d),
	}
	words := make([]uint64, n*d)
	ranks := make([]int32, n*d)
	ParallelRows(d, workers, func(lo, hi int) {
		packed := make([]uint64, n)
		for f := lo; f < hi; f++ {
			col := bits[f*n : (f+1)*n : (f+1)*n]
			c.keys[f] = col
			c.words[f] = words[f*n : (f+1)*n : (f+1)*n]
			c.rank[f] = ranks[f*n : (f+1)*n : (f+1)*n]
			c.rankColumn(f, packed)
		}
	})
	return c, nil
}

// rankColumn turns keys[f], which holds column f's keys by row, into
// the sorted keys, the rank<<32 | row words and the ranks. It sorts packed
// (high 32 key bits | row) words, then re-sorts each run sharing its
// high half by (low half | row), so every comparison is one uint64
// compare and ties come out in row order.
func (c *Columns) rankColumn(f int, packed []uint64) {
	byRow, words, rank := c.keys[f], c.words[f], c.rank[f]
	n := len(byRow)
	for i, k := range byRow {
		packed[i] = k&^math.MaxUint32 | uint64(i)
	}
	slices.Sort(packed)
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && packed[hi]>>32 == packed[lo]>>32 {
			hi++
		}
		if hi-lo > 1 {
			run := packed[lo:hi]
			for j, p := range run {
				row := uint32(p)
				run[j] = byRow[row]<<32 | uint64(row)
			}
			slices.Sort(run)
		}
		lo = hi
	}
	r := int32(-1)
	var prev uint64
	for k, p := range packed {
		i := uint32(p)
		key := byRow[i]
		if k == 0 || key != prev {
			r++
			prev = key
		}
		rank[i] = r
		words[k] = uint64(r)<<32 | uint64(i)
		packed[k] = key
	}
	copy(byRow, packed)
}

// sortKey maps v to bits whose unsigned order is v's numeric order,
// with -0 mapped to +0's key.
func sortKey(v float64) uint64 {
	if v == 0 {
		v = 0 // -0 ranks with +0
	}
	b := math.Float64bits(v)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// Append adds row as the ranking's next row. It inserts the row's key
// and word into every column (after any equal keys, so a column's order
// stays what NewColumns would build) and, when the value is new, moves
// every higher rank one up, in the words after it and in the ranks by
// row, O(rows) per column; within capacity it allocates nothing. A
// row of the wrong width or with a NaN cell is refused and leaves the
// ranking unchanged.
func (c *Columns) Append(row []float64) error {
	n := len(c.rows)
	if len(row) != len(c.keys) {
		return fmt.Errorf("ml: appended row has %d features, the ranking %d", len(row), len(c.keys))
	}
	if n >= math.MaxInt32 {
		return fmt.Errorf("ml: a ranking holds at most %d rows", math.MaxInt32)
	}
	for f, v := range row {
		if v != v {
			return fmt.Errorf("ml: NaN feature at row %d col %d", n, f)
		}
	}
	for f, v := range row {
		key := sortKey(v)
		keys, words, rank := c.keys[f], c.words[f], c.rank[f]
		// p is the first position whose key exceeds key.
		lo, hi := 0, n
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if keys[mid] <= key {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		p := lo
		// r is the row's rank: an equal value's, or one above the value
		// below it.
		var r int32
		tie := p > 0 && keys[p-1] == key
		if p > 0 {
			r = int32(words[p-1] >> 32)
			if !tie {
				r++
			}
		}
		keys = append(keys, 0)
		copy(keys[p+1:], keys[p:n])
		keys[p] = key
		words = append(words, 0)
		copy(words[p+1:], words[p:n])
		words[p] = uint64(r)<<32 | uint64(n)
		if !tie {
			// A new value: every rank from r up moves one up to make room.
			for j, rj := range rank {
				rank[j] = rj + int32(uint32(r-1-rj)>>31)
			}
			tail := words[p+1:]
			for j := range tail {
				tail[j] += 1 << 32
			}
		}
		c.keys[f], c.words[f], c.rank[f] = keys, words, append(rank, r)
	}
	c.rows = append(c.rows, row)
	return nil
}

// Len returns the number of ranked rows.
func (c *Columns) Len() int { return len(c.rows) }

// Dim returns the number of columns.
func (c *Columns) Dim() int { return len(c.keys) }

// Rows returns the ranked rows in row order. Callers must not mutate
// them.
func (c *Columns) Rows() [][]float64 { return c.rows }

// Words returns column f's rows in ascending value order, ties in row
// order, each packed as its dense rank in the high 32 bits and its row
// id in the low 32: the word order is the value order, and two
// neighbours hold equal values exactly when their high halves match.
// Callers must not mutate it.
func (c *Columns) Words(f int) []uint64 { return c.words[f] }

// Rank returns column f's dense ranks by row: Rank(f)[i] < Rank(f)[j]
// exactly when row i's value is below row j's. Callers must not mutate
// it.
func (c *Columns) Rank(f int) []int32 { return c.rank[f] }

// ColumnFitter is implemented by classifiers that can train on a
// Columns ranking of their input (the random forest), so a caller that
// keeps the ranking across fits pays for it once. FitColumns must
// produce exactly the model Fit(c.Rows(), y, nClasses) would.
type ColumnFitter interface {
	// FitColumns trains the model on c's rows with class labels y.
	// prev is a model the caller fit before, nil for none: the fitter
	// may reuse what it can verify a fresh fit would rebuild (the
	// forest keeps trees fit on an earlier state of the same ranking)
	// and ignores it otherwise. prev must stay usable and unchanged.
	FitColumns(c *Columns, y []int, nClasses int, prev Classifier) error
}

// ValidateColumns is ValidateTrainingInput for a ranking: matching label
// count, labels in range and no infinite cell (the ranking refused NaN
// when it was built). The infinities sit at a column's ends, so the
// check costs O(columns), not O(cells).
func ValidateColumns(c *Columns, y []int, nClasses int) error {
	if c.Len() != len(y) {
		return fmt.Errorf("ml: %d rows but %d labels", c.Len(), len(y))
	}
	if nClasses < 2 {
		return fmt.Errorf("ml: need at least 2 classes, got %d", nClasses)
	}
	for f, keys := range c.keys {
		if k := keys[0]; k == sortKey(math.Inf(-1)) {
			return fmt.Errorf("ml: non-finite feature at row %d col %d", uint32(c.words[f][0]), f)
		}
		if k := keys[len(keys)-1]; k == sortKey(math.Inf(1)) {
			return fmt.Errorf("ml: non-finite feature at row %d col %d", uint32(c.words[f][len(keys)-1]), f)
		}
	}
	return validateLabels(y, nClasses)
}
