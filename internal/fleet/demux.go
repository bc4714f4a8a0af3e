package fleet

import (
	"math"
	"strconv"
)

// Values is one reading's metric vector on the ingest wire. JSON cannot carry NaN, so missing cells travel as null,
// decoded by the wire's own scanner (wire.go) instead of a []*float64
// detour, so a reused Row keeps its backing array across batches.
type Values []float64

// MarshalJSON encodes missing (NaN) cells as null.
func (v Values) MarshalJSON() ([]byte, error) {
	out := make([]byte, 0, 1+len(v)*8)
	out = append(out, '[')
	for i, f := range v {
		if i > 0 {
			out = append(out, ',')
		}
		if math.IsNaN(f) {
			out = append(out, "null"...)
		} else {
			out = strconv.AppendFloat(out, f, 'g', -1, 64)
		}
	}
	return append(out, ']'), nil
}

// UnmarshalJSON decodes a numbers-and-nulls array through the ingest
// wire's values pass, reusing the receiver's backing array when it has
// capacity.
func (v *Values) UnmarshalJSON(b []byte) error {
	s := scanner{b: b}
	out, err := s.values(*v)
	if err != nil {
		return err
	}
	if s.ws(); s.i != len(b) {
		return s.errAt("data after the values array")
	}
	*v = out
	return nil
}

// Row is one timestamped reading of one node inside an interleaved
// multi-node bulk batch.
type Row struct {
	// Node is the logical node id the reading belongs to.
	Node int `json:"node"`
	// App optionally names the application running on the node when the
	// reading was taken; the fleet rollup's per-app breakdown follows the
	// latest non-empty attribution.
	App string `json:"app,omitempty"`
	// T is the claimed timestep (per-node clock).
	T int `json:"t"`
	// Values is the reading; NaN cells mark missing metrics.
	Values Values `json:"values"`
}

// NodeBatch is one node's rows from one bulk batch, in arrival order.
// The Rows slice references demux scratch and is valid until the next
// Split on the same Demux.
type NodeBatch struct {
	Node  int
	Shard int
	// App is the last non-empty app attribution seen in the batch.
	App  string
	Rows []Row
}

// ShardBatch groups the node batches one shard worker receives from one
// bulk request, nodes in first-arrival order.
type ShardBatch struct {
	Shard int
	Nodes []NodeBatch
}

// Demux splits interleaved multi-node row batches into per-node groups
// bucketed by owning shard. All scratch (the node index, the grouped
// row backing, the per-shard buckets) is retained and reused across
// Split calls, so a warmed demux splits a batch without allocating
// (TestDemuxSteadyStateDoesNotAllocate). Not safe for concurrent use;
// pool instances instead.
type Demux struct {
	router  *Router
	groupOf map[int]int32 // node id -> index into groups
	groups  []NodeBatch
	counts  []int32 // rows per group (pass 1)
	cursors []int32 // fill cursor per group (pass 2)
	flat    []Row   // grouped rows, one contiguous region per group
	byShard [][]int32
	ordered []NodeBatch // groups rearranged shard-contiguously
	out     []ShardBatch
}

// NewDemux builds a demux over one router.
func NewDemux(router *Router) *Demux {
	return &Demux{
		router:  router,
		groupOf: make(map[int]int32, 64),
		byShard: make([][]int32, router.Shards()),
	}
}

// Split demultiplexes one bulk batch. The result (and every NodeBatch
// inside it) is valid until the next Split; row Values share backing
// with the input rows.
//
//albacheck:hotpath
func (d *Demux) Split(rows []Row) []ShardBatch {
	clear(d.groupOf)
	d.groups = d.groups[:0]
	d.counts = d.counts[:0]
	for s := range d.byShard {
		d.byShard[s] = d.byShard[s][:0]
	}

	// Pass 1: assign groups (routing each distinct node once) and count
	// rows per group.
	for i := range rows {
		r := &rows[i]
		g, ok := d.groupOf[r.Node]
		if !ok {
			g = int32(len(d.groups))
			d.groupOf[r.Node] = g
			d.groups = appendGroup(d.groups, NodeBatch{Node: r.Node, Shard: d.router.Shard(r.Node)})
			d.counts = appendCount(d.counts, 0)
		}
		d.counts[g]++
		if r.App != "" {
			d.groups[g].App = r.App
		}
	}

	// Pass 2: copy rows into one contiguous region per group.
	d.flat = growRows(d.flat, len(rows))
	d.cursors = growInt32(d.cursors, len(d.groups))
	off := int32(0)
	for g := range d.groups {
		d.cursors[g] = off
		off += d.counts[g]
	}
	for i := range rows {
		g := d.groupOf[rows[i].Node]
		d.flat[d.cursors[g]] = rows[i]
		d.cursors[g]++
	}
	off = 0
	for g := range d.groups {
		d.groups[g].Rows = d.flat[off : off+d.counts[g] : off+d.counts[g]]
		off += d.counts[g]
	}

	// Bucket groups by shard, then lay the node batches out
	// shard-contiguously. ordered is pre-grown to its final length first:
	// the out entries alias subranges of it, so it must not reallocate
	// mid-loop.
	for g := range d.groups {
		s := d.groups[g].Shard
		d.byShard[s] = appendInt32(d.byShard[s], int32(g))
	}
	d.ordered = growGroups(d.ordered, len(d.groups))[:0]
	d.out = growShardBatches(d.out, len(d.byShard))[:0]
	for s := range d.byShard {
		if len(d.byShard[s]) == 0 {
			continue
		}
		start := len(d.ordered)
		for _, g := range d.byShard[s] {
			d.ordered = append(d.ordered, d.groups[g])
		}
		d.out = append(d.out, ShardBatch{Shard: s, Nodes: d.ordered[start:len(d.ordered):len(d.ordered)]})
	}
	return d.out
}

// appendGroup/appendCount/appendInt32 wrap the growing appends so the
// amortized reallocation is a traversal barrier for the hot-path alloc
// scan; once the scratch has seen its steady-state batch shape every
// call reuses capacity.
//
//albacheck:coldpath amortized scratch growth; steady-state Split reuses every backing array
func appendGroup(s []NodeBatch, v NodeBatch) []NodeBatch { return append(s, v) }

//albacheck:coldpath amortized scratch growth; steady-state Split reuses every backing array
func appendCount(s []int32, v int32) []int32 { return append(s, v) }

//albacheck:coldpath amortized scratch growth; steady-state Split reuses every backing array
func appendInt32(s []int32, v int32) []int32 { return append(s, v) }

// growRows returns a slice of length n, reusing capacity when it can.
//
//albacheck:coldpath amortized scratch growth; steady-state Split reuses every backing array
func growRows(s []Row, n int) []Row {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]Row, n)
}

//albacheck:coldpath amortized scratch growth; steady-state Split reuses every backing array
func growInt32(s []int32, n int) []int32 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int32, n)
}

//albacheck:coldpath amortized scratch growth; steady-state Split reuses every backing array
func growGroups(s []NodeBatch, n int) []NodeBatch {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]NodeBatch, n)
}

//albacheck:coldpath amortized scratch growth; steady-state Split reuses every backing array
func growShardBatches(s []ShardBatch, n int) []ShardBatch {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]ShardBatch, n)
}
