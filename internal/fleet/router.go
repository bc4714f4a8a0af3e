// Package fleet multiplexes many logical nodes onto a bounded set of
// shard workers — the Eclipse-scale ingest path ROADMAP item 1 calls
// for. The paper's production deployment monitors 1488 nodes × ~806
// metrics at 1 Hz; holding one goroutine, one chain and one WAL per
// node would be wasteful and unbounded, so the fleet layer routes node
// ids to a fixed shard count with rendezvous (highest-random-weight)
// hashing, demultiplexes interleaved multi-node LDMS batches into
// per-node row groups with pooled scratch, fans the groups to
// shard-owned workers over bounded queues with explicit back-pressure,
// and maintains an incrementally updated fleet rollup (top-k anomalous
// nodes, per-app breakdown) behind a bounded indexed heap so the
// serving endpoints never scan the whole fleet.
//
// Each shard worker owns its nodes' stage chains and write-ahead logs
// exclusively (single-writer, no locks), so pipeline journaling and
// Replay semantics are untouched: per-node state is bitwise identical
// no matter how many shards the fleet is folded onto.
package fleet

import (
	"fmt"

	"albadross/internal/runner"
)

// Router deterministically assigns node ids to shards with rendezvous
// (highest-random-weight) hashing: every (node, shard) pair gets a
// pseudo-random weight from the splitmix64 mix behind runner.CellSeed,
// and the node lands on the shard with the highest weight. The
// assignment is a pure function of (node, shard count) — the same node
// set always folds onto the same shards, restarts included — and
// changing the shard count moves only ~1/shards of the nodes (the
// property plain modulo hashing lacks).
type Router struct {
	shards int
}

// NewRouter builds a router over a positive shard count.
func NewRouter(shards int) (*Router, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("fleet: shard count must be positive, got %d", shards)
	}
	return &Router{shards: shards}, nil
}

// Shards reports the shard count the router folds nodes onto.
func (r *Router) Shards() int { return r.shards }

// Shard returns the owning shard for one node id. Negative node ids are
// valid (the mix treats the id as an opaque 64-bit coordinate).
//
//albacheck:hotpath
func (r *Router) Shard(node int) int {
	best, bestW := 0, uint64(0)
	for s := 0; s < r.shards; s++ {
		w := uint64(runner.CellSeed(int64(node), s))
		// Strict > keeps ties on the lowest shard index, so the argmax is
		// total and deterministic.
		if s == 0 || w > bestW {
			best, bestW = s, w
		}
	}
	return best
}
