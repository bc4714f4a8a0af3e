package fleet

import (
	"sort"
	"sync"

	"albadross/internal/stream"
)

// RollupConfig tunes the fleet-wide rollup.
type RollupConfig struct {
	// Recent is the per-node ring of most recent diagnoses the anomaly
	// score is computed over (default 16).
	Recent int
	// HealthyLabel is the diagnosis label that counts as healthy
	// (default "healthy"). Abstentions also count as non-anomalous.
	HealthyLabel string
}

// Rollup is the fleet-wide serving state: per-node recent-diagnosis
// rings and per-app aggregates, maintained incrementally on every
// diagnosis and ranked by an indexed binary max-heap so TopK answers
// from the heap top without scanning the fleet. All methods are safe
// for concurrent use; Observe is O(log nodes), TopK is O(k log k).
type Rollup struct {
	cfg RollupConfig

	mu    sync.Mutex
	nodes map[int]*nodeRoll
	heap  []*nodeRoll // indexed max-heap by (anomalous fraction, node id)
	apps  map[string]*appRoll
	cands []int32 // TopK candidate-walk scratch (heap positions)
}

// nodeRoll is one node's incrementally maintained rollup state.
type nodeRoll struct {
	node      int
	app       string
	ring      []bool // true = anomalous, newest at (pos-1+len)%len
	ringLen   int    // filled prefix while warming up
	ringPos   int
	recent    int // anomalous count inside the ring
	windows   int // lifetime diagnoses
	anomalies int // lifetime anomalous diagnoses
	last      stream.Diagnosis
	heapIdx   int
}

// appRoll aggregates one application's footprint across the fleet.
type appRoll struct {
	nodes     int // nodes currently attributed to the app
	windows   int
	anomalies int
	labels    map[string]int
}

// NewRollup builds an empty rollup.
func NewRollup(cfg RollupConfig) *Rollup {
	if cfg.Recent <= 0 {
		cfg.Recent = 16
	}
	if cfg.HealthyLabel == "" {
		cfg.HealthyLabel = "healthy"
	}
	return &Rollup{
		cfg:   cfg,
		nodes: make(map[int]*nodeRoll),
		apps:  make(map[string]*appRoll),
	}
}

// anomalous classifies one diagnosis for the rollup score.
func (r *Rollup) anomalous(d stream.Diagnosis) bool {
	return !d.Abstained && d.Label != r.cfg.HealthyLabel
}

// Observe folds one node diagnosis into the rollup: the node's ring and
// lifetime counters, its app's aggregates, and its heap position. app
// may be empty to keep the node's previous attribution.
//
//albacheck:hotpath
func (r *Rollup) Observe(node int, app string, d stream.Diagnosis) {
	anom := r.anomalous(d)
	r.mu.Lock()
	nr := r.nodes[node]
	if nr == nil {
		nr = r.addNode(node)
	}
	if app != "" && app != nr.app {
		r.reattribute(nr, app)
	}
	if nr.ringLen < len(nr.ring) {
		nr.ringLen++
	} else if nr.ring[nr.ringPos] {
		nr.recent--
	}
	nr.ring[nr.ringPos] = anom
	nr.ringPos++
	if nr.ringPos == len(nr.ring) {
		nr.ringPos = 0
	}
	nr.windows++
	nr.last = d
	if anom {
		nr.recent++
		nr.anomalies++
	}
	if ar := r.apps[nr.app]; ar != nil {
		ar.windows++
		if anom {
			ar.anomalies++
		}
		ar.labels[d.Label]++
	}
	r.fix(nr.heapIdx)
	r.mu.Unlock()
	rollupObserved.Inc()
}

// addNode registers a new node at the heap bottom. Caller holds mu.
//
//albacheck:coldpath one-time per-node state construction, amortized over the node's lifetime of observations
func (r *Rollup) addNode(node int) *nodeRoll {
	nr := &nodeRoll{node: node, ring: make([]bool, r.cfg.Recent), heapIdx: len(r.heap)}
	r.nodes[node] = nr
	r.heap = append(r.heap, nr)
	rollupHeapSize.Set(float64(len(r.heap)))
	return nr
}

// reattribute moves a node's app assignment. Past windows stay with the
// app that produced them; only the node count moves. Caller holds mu.
//
//albacheck:coldpath app attribution changes at job boundaries, not per diagnosis
func (r *Rollup) reattribute(nr *nodeRoll, app string) {
	if old := r.apps[nr.app]; old != nil {
		old.nodes--
	}
	ar := r.apps[app]
	if ar == nil {
		ar = &appRoll{labels: make(map[string]int)}
		r.apps[app] = ar
	}
	ar.nodes++
	nr.app = app
}

// before is the heap ordering: higher anomalous fraction first, node id
// ascending on ties, so the ranking is total and deterministic. The
// fraction compare cross-multiplies to stay in integers.
func (r *Rollup) before(a, b *nodeRoll) bool {
	av, bv := a.recent*b.ringLen, b.recent*a.ringLen
	if av != bv {
		return av > bv
	}
	return a.node < b.node
}

// fix restores the heap invariant around one changed entry.
func (r *Rollup) fix(i int) {
	if !r.up(i) {
		r.down(i)
	}
}

// up sifts entry i toward the root, reporting whether it moved.
func (r *Rollup) up(i int) bool {
	moved := false
	for i > 0 {
		p := (i - 1) / 2
		if !r.before(r.heap[i], r.heap[p]) {
			break
		}
		r.swap(i, p)
		i = p
		moved = true
	}
	return moved
}

// down sifts entry i toward the leaves.
func (r *Rollup) down(i int) {
	for {
		l, rt := 2*i+1, 2*i+2
		best := i
		if l < len(r.heap) && r.before(r.heap[l], r.heap[best]) {
			best = l
		}
		if rt < len(r.heap) && r.before(r.heap[rt], r.heap[best]) {
			best = rt
		}
		if best == i {
			return
		}
		r.swap(i, best)
		i = best
	}
}

// swap exchanges two heap entries, keeping their back-indices current.
func (r *Rollup) swap(i, j int) {
	r.heap[i], r.heap[j] = r.heap[j], r.heap[i]
	r.heap[i].heapIdx = i
	r.heap[j].heapIdx = j
}

// NodeSummary is one node's rollup entry as served by /api/fleet/topk
// and the node view.
type NodeSummary struct {
	Node int    `json:"node"`
	App  string `json:"app,omitempty"`
	// Score is the anomalous fraction of the node's recent-diagnosis
	// ring — the ranking key.
	Score           float64 `json:"score"`
	AnomalousRecent int     `json:"anomalous_recent"`
	RecentWindow    int     `json:"recent_window"`
	Windows         int     `json:"windows_total"`
	Anomalies       int     `json:"anomalies_total"`
	LastLabel       string  `json:"last_label"`
	LastConfidence  float64 `json:"last_confidence"`
	LastWindowEnd   int     `json:"last_window_end"`
	LastAbstained   bool    `json:"last_abstained,omitempty"`
}

// summarize renders one node's entry. Caller holds mu.
func summarize(nr *nodeRoll) NodeSummary {
	s := NodeSummary{
		Node:            nr.node,
		App:             nr.app,
		AnomalousRecent: nr.recent,
		RecentWindow:    nr.ringLen,
		Windows:         nr.windows,
		Anomalies:       nr.anomalies,
		LastLabel:       nr.last.Label,
		LastConfidence:  nr.last.Confidence,
		LastWindowEnd:   nr.last.WindowEnd,
		LastAbstained:   nr.last.Abstained,
	}
	if nr.ringLen > 0 {
		s.Score = float64(nr.recent) / float64(nr.ringLen)
	}
	return s
}

// Node returns one node's rollup entry; a node never diagnosed has a
// zero entry under its id.
func (r *Rollup) Node(node int) NodeSummary {
	r.mu.Lock()
	defer r.mu.Unlock()
	if nr := r.nodes[node]; nr != nil {
		return summarize(nr)
	}
	return NodeSummary{Node: node}
}

// TopK returns the k most anomalous nodes, most anomalous first (ties
// by ascending node id). It walks heap candidates — push the root, pop
// the best, push its children — so the cost depends only on k (at most
// 2k+1 candidates are ever considered), never on fleet size; the fleet
// is not scanned.
func (r *Rollup) TopK(k int) []NodeSummary {
	r.mu.Lock()
	defer r.mu.Unlock()
	if k > len(r.heap) {
		k = len(r.heap)
	}
	if k <= 0 {
		return nil
	}
	out := make([]NodeSummary, 0, k)
	r.cands = r.cands[:0]
	r.cands = append(r.cands, 0)
	for len(out) < k {
		// Pop the best candidate heap position.
		best := 0
		for i := 1; i < len(r.cands); i++ {
			if r.before(r.heap[r.cands[i]], r.heap[r.cands[best]]) {
				best = i
			}
		}
		p := r.cands[best]
		r.cands[best] = r.cands[len(r.cands)-1]
		r.cands = r.cands[:len(r.cands)-1]
		out = append(out, summarize(r.heap[p]))
		if l := 2*p + 1; int(l) < len(r.heap) {
			r.cands = append(r.cands, l)
		}
		if rt := 2*p + 2; int(rt) < len(r.heap) {
			r.cands = append(r.cands, rt)
		}
	}
	return out
}

// AppSummary is one application's fleet footprint as served by
// /api/fleet/apps.
type AppSummary struct {
	App       string         `json:"app"`
	Nodes     int            `json:"nodes"`
	Windows   int            `json:"windows_total"`
	Anomalies int            `json:"anomalies_total"`
	Labels    map[string]int `json:"labels"`
}

// Apps returns the per-app breakdown, sorted by app name.
func (r *Rollup) Apps() []AppSummary {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]AppSummary, 0, len(r.apps))
	for app, ar := range r.apps {
		labels := make(map[string]int, len(ar.labels))
		for k, v := range ar.labels {
			labels[k] = v
		}
		out = append(out, AppSummary{
			App: app, Nodes: ar.nodes,
			Windows: ar.windows, Anomalies: ar.anomalies,
			Labels: labels,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].App < out[j].App })
	return out
}

// Tracked reports how many nodes the rollup currently ranks.
func (r *Rollup) Tracked() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.heap)
}
