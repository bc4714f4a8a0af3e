// Package flat holds flattened, cache-local representations of fitted
// tree ensembles. The pointer-walk models in tree/forest/gbm keep each
// node as a 56-byte struct with a heap-allocated leaf distribution;
// batch inference over them is dominated by cache misses and by the
// serial dependency chain of a single walk (node → feature id → feature
// value → child index), which leaves the core idle for most of each
// level. This package stores an ensemble as index-linked parallel
// arrays (structure-of-arrays, the LightGBM layout): one int32 feature
// id, one float64 threshold, two int32 child links, and one int32 leaf
// payload offset per node, with leaf payloads packed into a single flat
// slice. The batch kernels walk tree-outer/row-inner over fixed-size
// row blocks, descending eight rows per tree simultaneously so eight
// independent load chains are in flight at once.
//
// Leaves are encoded as self-loops: Left == Right == the node's own
// index, with a safe feature id, so the grouped kernel can descend a
// fixed number of levels (the tree's depth) with no per-level exit
// test — rows that land early just spin on their cached leaf node until
// the slowest row arrives. The payload offset lives in the separate
// Payload array, never in the child links.
//
// Representations are built once — at Fit time, or by ml.Warm for
// models decoded from disk — and are immutable afterwards, so they are
// safe to share across serving goroutines. The kernels preserve the
// pointer paths' per-cell accumulation order (ascending tree order for
// forest soft-voting, ascending round order for GBM logits) and their
// NaN routing (a NaN feature fails `<=` and goes right), which makes
// their float64 outputs bitwise identical to per-row pointer-walk
// prediction (TestForestFlatBitwiseIdentical, TestGBMFlatBitwiseIdentical).
package flat

import (
	"albadross/internal/ml"
)

// groupWidth is how many rows each batch kernel walks down a tree
// simultaneously. A single walk is a chain of dependent loads, so one
// row per tree leaves the core idle for most of each level; eight
// independent chains cover the load latency.
const groupWidth = 8

// rowBlock is the number of rows processed per tree sweep in the batch
// kernels. 256 rows keep the block's output cells and feature rows in
// L2 while each tree's node arrays stay hot across the whole block.
const rowBlock = 256

// Nodes is the shared structure-of-arrays node pool of a flattened
// ensemble. All five slices have equal length; node i of the pool is
// (Feature[i], Threshold[i], Left[i], Right[i], Payload[i]). Internal
// nodes route a sample left when x[Feature[i]] <= Threshold[i] (NaN
// routes right, matching the pointer walk). Leaves self-loop — Left[i]
// == Right[i] == i — with Feature[i] == 0 and their payload offset in
// Payload[i]; internal nodes keep Payload[i] == 0. Child links are
// absolute pool indices, so many trees share one pool back to back.
type Nodes struct {
	// Feature is the split feature id per node (0 for leaves, which
	// compare but discard the result). GBM trees trained on a column
	// subset store the remapped global feature id here, eliminating
	// per-row projection at predict time.
	Feature []int32
	// Threshold is the split threshold per node (0 for leaves).
	Threshold []float64
	// Left is the left-child pool index; leaves point at themselves.
	Left []int32
	// Right is the right-child pool index; leaves point at themselves.
	Right []int32
	// Payload is the leaf's offset into the ensemble's payload slice
	// (LeafProba or LeafValue); 0 for internal nodes.
	Payload []int32
}

// Len reports the number of nodes in the pool.
func (n *Nodes) Len() int { return len(n.Feature) }

// AppendSplit appends one internal node with absolute child links and
// returns its pool index.
func (n *Nodes) AppendSplit(feature int32, threshold float64, left, right int32) int32 {
	n.Feature = append(n.Feature, feature)
	n.Threshold = append(n.Threshold, threshold)
	n.Left = append(n.Left, left)
	n.Right = append(n.Right, right)
	n.Payload = append(n.Payload, 0)
	return int32(len(n.Feature) - 1)
}

// AppendLeaf appends one self-looping leaf holding the given payload
// offset and returns its pool index.
func (n *Nodes) AppendLeaf(payload int32) int32 {
	self := int32(len(n.Feature))
	n.Feature = append(n.Feature, 0)
	n.Threshold = append(n.Threshold, 0)
	n.Left = append(n.Left, self)
	n.Right = append(n.Right, self)
	n.Payload = append(n.Payload, payload)
	return self
}

// leafOf walks one tree from root and returns the reached leaf's
// payload offset — the scalar kernel behind the grouped paths' tail
// rows.
func (n *Nodes) leafOf(root int32, x []float64) int32 {
	feat, thr, left, right := n.Feature, n.Threshold, n.Left, n.Right
	i := root
	for {
		l := left[i]
		if l == i {
			return n.Payload[i]
		}
		if x[feat[i]] <= thr[i] {
			i = l
		} else {
			i = right[i]
		}
	}
}

// leafGroup walks groupWidth rows down one tree at once, descending
// exactly steps levels (the tree's depth minus one), and writes each
// row's leaf payload offset into offs. rows is an array pointer so row
// accesses are constant-indexed. There is no per-level exit test: rows
// that reach their leaf early spin on the self-loop, every level is the
// same branchless compare-and-select, and the eight chains keep eight
// loads in flight.
func (n *Nodes) leafGroup(root int32, steps int, rows *[groupWidth][]float64, offs *[groupWidth]int32) {
	feat := n.Feature
	// Reslicing to len(feat) lets the bounds-check prover retire the
	// thr/left/right checks after the feat[i] access, so both child
	// indices load unconditionally and the child select below compiles
	// to a branchless conditional move — a ~50%-mispredict branch per
	// level would serialize the eight chains this kernel exists to
	// overlap.
	thr := n.Threshold[:len(feat)]
	left := n.Left[:len(feat)]
	right := n.Right[:len(feat)]
	var idx [groupWidth]int32
	for r := range idx {
		idx[r] = root
	}
	for s := 0; s < steps; s++ {
		for r := 0; r < groupWidth; r++ {
			i := idx[r]
			f := feat[i]
			l, rt := left[i], right[i]
			t := thr[i]
			v := rows[r][f]
			nxt := rt
			if v <= t {
				nxt = l
			}
			idx[r] = nxt
		}
	}
	for r := range idx {
		offs[r] = n.Payload[idx[r]]
	}
}

// ---------------------------------------------------------------------------
// Forest

// Forest is a flattened soft-voting classification ensemble: one node
// pool, one root and depth per tree, and every leaf's class
// distribution packed into LeafProba (Classes values per leaf, at the
// offset the leaf keeps in Payload). It is built by
// tree.Classifier.Flatten and served by forest.Forest.PredictProbaBatch.
type Forest struct {
	Nodes
	// Roots is each tree's root node index, in tree order.
	Roots []int32
	// Depths is each tree's depth (root = 1), in tree order; the grouped
	// kernel descends Depths[t]-1 levels.
	Depths []int32
	// LeafProba packs every leaf's class distribution back to back.
	LeafProba []float64
	// Classes is the per-leaf distribution length.
	Classes int
}

// NewForest returns an empty flattened forest with capacity hints for
// the expected tree and node counts (0 hints are fine).
func NewForest(classes, treeHint, nodeHint int) *Forest {
	return &Forest{
		Nodes: Nodes{
			Feature:   make([]int32, 0, nodeHint),
			Threshold: make([]float64, 0, nodeHint),
			Left:      make([]int32, 0, nodeHint),
			Right:     make([]int32, 0, nodeHint),
			Payload:   make([]int32, 0, nodeHint),
		},
		Roots:     make([]int32, 0, treeHint),
		Depths:    make([]int32, 0, treeHint),
		LeafProba: make([]float64, 0, nodeHint*classes/2),
		Classes:   classes,
	}
}

// AppendLeafProba appends one leaf's class distribution and returns its
// offset in LeafProba. The caller stores the offset in the leaf's
// Payload slot.
func (f *Forest) AppendLeafProba(probs []float64) int32 {
	off := int32(len(f.LeafProba))
	f.LeafProba = append(f.LeafProba, probs...)
	return off
}

// PredictProbaInto soft-votes every tree over every row into out (a
// zeroed len(x) by Classes matrix), sharding rows across workers
// (workers <= 0 uses GOMAXPROCS) and sweeping trees over fixed row
// blocks within each shard, eight rows descending per tree at a time.
// Per output cell the accumulation order is ascending tree order
// followed by one 1/len(Roots) scale — exactly the pointer path's order —
// so the result is bitwise identical to per-row soft voting for any
// worker count.
func (f *Forest) PredictProbaInto(x [][]float64, out [][]float64, workers int) {
	if len(f.Roots) == 0 {
		return
	}
	k := f.Classes
	inv := 1 / float64(len(f.Roots)) //albacheck:ignore floatsafe len(f.Roots) > 0 is checked in the prologue
	ml.ParallelRows(len(x), workers, func(lo, hi int) {
		var offs [groupWidth]int32
		for blo := lo; blo < hi; blo += rowBlock {
			bhi := blo + rowBlock
			if bhi > hi {
				bhi = hi
			}
			for t, root := range f.Roots {
				steps := int(f.Depths[t]) - 1
				i := blo
				for ; i+groupWidth <= bhi; i += groupWidth {
					f.leafGroup(root, steps, (*[groupWidth][]float64)(x[i:i+groupWidth]), &offs)
					for r := 0; r < groupWidth; r++ {
						p := f.LeafProba[offs[r]:]
						o := out[i+r]
						for c := 0; c < k; c++ {
							o[c] += p[c]
						}
					}
				}
				for ; i < bhi; i++ {
					p := f.LeafProba[f.leafOf(root, x[i]):]
					o := out[i]
					for c := 0; c < k; c++ {
						o[c] += p[c]
					}
				}
			}
			for i := blo; i < bhi; i++ {
				o := out[i]
				for c := range o {
					o[c] *= inv
				}
			}
		}
	})
}

// ---------------------------------------------------------------------------
// GBM

// GBM is a flattened gradient-boosted ensemble: the node pool, one root
// and depth per (round, class) tree in round-major order, and scalar
// leaf values in LeafValue. Column-subsampled trees are stored with
// their feature ids remapped to the global feature space, so prediction
// never builds the per-row projection the pointer path pays for. It is
// built by tree.Regressor.FlattenInto and served by
// gbm.Model.PredictProbaBatch.
type GBM struct {
	Nodes
	// Roots holds root indices in round-major order:
	// Roots[round*Classes+class].
	Roots []int32
	// Depths is each tree's depth (root = 1), parallel to Roots.
	Depths []int32
	// LeafValue packs every leaf's scalar output; a leaf's offset lives
	// in its Payload slot.
	LeafValue []float64
	// Classes is the class count (trees per round).
	Classes int
	// LearningRate is the shrinkage applied to each leaf value.
	LearningRate float64
	// Prior is the initial per-class logit.
	Prior []float64
}

// NewGBM returns an empty flattened GBM with a node-capacity hint.
func NewGBM(classes int, prior []float64, learningRate float64, nodeHint int) *GBM {
	p := make([]float64, len(prior))
	copy(p, prior)
	return &GBM{
		Nodes: Nodes{
			Feature:   make([]int32, 0, nodeHint),
			Threshold: make([]float64, 0, nodeHint),
			Left:      make([]int32, 0, nodeHint),
			Right:     make([]int32, 0, nodeHint),
			Payload:   make([]int32, 0, nodeHint),
		},
		LeafValue:    make([]float64, 0, nodeHint/2+1),
		Classes:      classes,
		LearningRate: learningRate,
		Prior:        p,
	}
}

// AppendLeafValue appends one leaf's scalar output and returns its
// offset in LeafValue.
func (g *GBM) AppendLeafValue(v float64) int32 {
	g.LeafValue = append(g.LeafValue, v)
	return int32(len(g.LeafValue) - 1)
}

// PredictProbaInto writes softmax class probabilities for every row
// into out (len(x) by Classes), sharding rows across workers (workers
// <= 0 uses GOMAXPROCS). Within a row block it seeds every row with the
// prior, sweeps the round-major trees tree-outer with eight rows
// descending at a time, and softmaxes in place, so each (row, class)
// logit cell accumulates in ascending round order — the pointer path's
// order — making the output bitwise identical to per-row prediction for
// any worker count.
func (g *GBM) PredictProbaInto(x [][]float64, out [][]float64, workers int) {
	k := g.Classes
	lr := g.LearningRate
	ml.ParallelRows(len(x), workers, func(lo, hi int) {
		var offs [groupWidth]int32
		for blo := lo; blo < hi; blo += rowBlock {
			bhi := blo + rowBlock
			if bhi > hi {
				bhi = hi
			}
			for i := blo; i < bhi; i++ {
				copy(out[i], g.Prior)
			}
			for ti, root := range g.Roots {
				c := ti % k
				steps := int(g.Depths[ti]) - 1
				i := blo
				for ; i+groupWidth <= bhi; i += groupWidth {
					g.leafGroup(root, steps, (*[groupWidth][]float64)(x[i:i+groupWidth]), &offs)
					for r := 0; r < groupWidth; r++ {
						out[i+r][c] += lr * g.LeafValue[offs[r]]
					}
				}
				for ; i < bhi; i++ {
					out[i][c] += lr * g.LeafValue[g.leafOf(root, x[i])]
				}
			}
			for i := blo; i < bhi; i++ {
				ml.Softmax(out[i], out[i])
			}
		}
	})
}
