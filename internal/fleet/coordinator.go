package fleet

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"albadross/internal/obs"
	"albadross/internal/pipeline"
	"albadross/internal/stream"
	"albadross/internal/wal"
)

// NodeStream is one node's ingest state as built by the Config.NewNode
// factory: a stage chain and (optionally) the write-ahead log it
// journals to. The owning shard worker is the only goroutine that ever
// touches it, so the pipeline's single-writer contract — and with it
// WAL journaling and Replay semantics — holds without any locking.
type NodeStream struct {
	Chain *pipeline.Chain
	Log   *wal.Log // nil when journaling is off
	// Aux is the factory's own per-node state (the server keeps the
	// node's predict stage here). The coordinator never looks at it; it
	// travels with the stream so a Visit callback gets it back on the
	// owning worker.
	Aux any
}

// Config assembles a fleet coordinator.
type Config struct {
	// Shards is the worker count node ids are folded onto.
	Shards int
	// QueueDepth bounds each shard's task queue; a bulk batch whose
	// shard queue is full has that shard's rows shed with back-pressure
	// (default 32).
	QueueDepth int
	// MaxNodesPerShard bounds each worker's node map; rows for new nodes
	// beyond the bound are rejected (default 1024). The whole fleet
	// therefore holds at most Shards*MaxNodesPerShard chains.
	MaxNodesPerShard int
	// Metrics is the expected reading width; rows of any other width are
	// rejected before demultiplexing. 0 disables the check.
	Metrics int
	// NewNode builds one node's chain (and WAL) on first routing. It is
	// called from shard worker goroutines and must be safe for
	// concurrent calls with distinct node ids. The provided sink MUST be
	// the chain's Sink (directly or tee'd) — it feeds the fleet rollup
	// and the coordinator's diagnosis accounting.
	NewNode func(node int, sink pipeline.Sink) (*NodeStream, error)
	// Rollup, when non-nil, receives every emitted diagnosis.
	Rollup *Rollup
	// Preload instantiates these nodes before traffic starts — the
	// restart path: the factory replays each node's retained WAL, so a
	// recovered coordinator resumes with bitwise-identical state.
	Preload []int
}

// Coordinator routes bulk multi-node batches to shard workers. Offer is
// synchronous — it returns once every enqueued shard task has been
// executed and journaled — and sheds instead of blocking when a shard's
// bounded queue is full, so overload degrades by explicit partial
// accept, never by stalling the whole fleet behind one slow shard.
type Coordinator struct {
	cfg     Config
	router  *Router
	workers []*shardWorker
	dpool   sync.Pool

	mu     sync.RWMutex // guards closed against in-flight enqueues
	closed bool
	wg     sync.WaitGroup

	nodeCount atomic.Int64
	offered   atomic.Int64
	accepted  atomic.Int64
	shed      atomic.Int64
	rejected  atomic.Int64
}

// shardWorker owns one shard: its task queue and its nodes' chains.
type shardWorker struct {
	c      *Coordinator
	id     int
	tasks  chan *task
	nodes  map[int]*nodeState
	queued atomic.Int32
	taskNs atomic.Int64 // EWMA of task execution wall time

	depth *obs.Gauge
	sheds *obs.Counter
}

// nodeState pairs one node's stream with its rollup sink.
type nodeState struct {
	ns   *NodeStream
	sink *nodeSink
}

// nodeSink delivers one node's diagnoses to the rollup with the node's
// current app attribution. Only the owning shard worker touches it.
type nodeSink struct {
	r       *Rollup
	node    int
	app     string
	emitted int
	// capture, when set for the duration of one OfferNode task, also
	// collects the diagnoses that task's rows complete.
	capture *[]stream.Diagnosis
}

// Emit folds one diagnosis into the fleet rollup.
func (k *nodeSink) Emit(d stream.Diagnosis) error {
	k.emitted++
	fleetDiagnoses.Inc()
	if k.capture != nil {
		*k.capture = append(*k.capture, d)
	}
	if k.r != nil {
		k.r.Observe(k.node, k.app, d)
	}
	return nil
}

// task is one unit of shard work: either a demuxed slice of node
// batches with its result slot (plus, for OfferNode, the report its one
// node fills), or a control closure (quiesce, inventory, visit) when fn
// is set.
type task struct {
	nodes  []NodeBatch
	res    *ShardResult
	report *NodeReport
	fn     func(w *shardWorker)
	wg     *sync.WaitGroup
}

// ShardResult is one shard's accounting for one bulk batch.
type ShardResult struct {
	Shard int `json:"shard"`
	// Nodes is how many distinct nodes the batch addressed on this shard.
	Nodes int `json:"nodes"`
	// Offered is the batch's row count routed to this shard.
	Offered int `json:"offered"`
	// Accepted rows entered (and, with a WAL, were fsynced into) their
	// node chains.
	Accepted int `json:"accepted"`
	// Rejected rows were refused permanently (chain errors, node
	// capacity); retrying them is pointless.
	Rejected int `json:"rejected,omitempty"`
	// Shed rows were dropped because the shard queue was full; retry
	// after the Retry-After hint.
	Shed int `json:"shed,omitempty"`
	// Error carries the last permanent-rejection cause, when any.
	Error string `json:"error,omitempty"`
}

// BatchResult is the coordinator's accounting for one bulk batch:
// Offered == Accepted + Rejected + Shed, always.
type BatchResult struct {
	Offered  int           `json:"offered"`
	Accepted int           `json:"accepted"`
	Rejected int           `json:"rejected,omitempty"`
	Shed     int           `json:"shed,omitempty"`
	Nodes    int           `json:"nodes"`
	PerShard []ShardResult `json:"per_shard,omitempty"`
	// RetryAfter advises when shed rows are worth re-offering — an
	// estimate of the fullest shed shard draining its queue. Zero when
	// nothing was shed.
	RetryAfter time.Duration `json:"-"`
}

// NewCoordinator validates the configuration, preloads any recovered
// nodes, and starts one worker goroutine per shard.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if cfg.NewNode == nil {
		return nil, errors.New("fleet: NewNode factory is required")
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 32
	}
	if cfg.MaxNodesPerShard <= 0 {
		cfg.MaxNodesPerShard = 1024
	}
	router, err := NewRouter(cfg.Shards)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{cfg: cfg, router: router}
	c.dpool.New = func() interface{} { return NewDemux(router) }
	c.workers = make([]*shardWorker, cfg.Shards)
	for s := 0; s < cfg.Shards; s++ {
		lbl := strconv.Itoa(s)
		c.workers[s] = &shardWorker{
			c: c, id: s,
			tasks: make(chan *task, cfg.QueueDepth),
			nodes: make(map[int]*nodeState),
			depth: fleetQueueDepth.With(lbl),
			sheds: fleetShed.With(lbl),
		}
	}
	for _, node := range cfg.Preload {
		w := c.workers[router.Shard(node)]
		if _, err := w.node(node); err != nil {
			err = fmt.Errorf("fleet: preloading node %d: %w", node, err)
			if cerr := c.closeNodes(); cerr != nil {
				err = fmt.Errorf("%w (unwinding already-preloaded nodes: %v)", err, cerr)
			}
			return nil, err
		}
	}
	for _, w := range c.workers {
		c.wg.Add(1)
		go w.run()
	}
	return c, nil
}

// Router exposes the coordinator's node→shard assignment.
func (c *Coordinator) Router() *Router { return c.router }

// run executes the worker loop until the task channel closes.
func (w *shardWorker) run() {
	defer w.c.wg.Done()
	for t := range w.tasks {
		w.depth.Set(float64(w.queued.Add(-1)))
		if t.fn != nil {
			t.fn(w)
			t.wg.Done()
			continue
		}
		start := time.Now()
		w.exec(t)
		w.observe(time.Since(start))
		t.wg.Done()
	}
}

// observe folds one task's wall time into the worker's EWMA — the basis
// of the Retry-After estimate.
func (w *shardWorker) observe(d time.Duration) {
	prev := w.taskNs.Load()
	if prev == 0 {
		w.taskNs.Store(int64(d))
		return
	}
	w.taskNs.Store(prev + (int64(d)-prev)/8)
}

// node returns (building on first use) one node's state.
func (w *shardWorker) node(id int) (*nodeState, error) {
	if st, ok := w.nodes[id]; ok {
		return st, nil
	}
	if len(w.nodes) >= w.c.cfg.MaxNodesPerShard {
		return nil, fmt.Errorf("fleet: shard %d is at its %d-node capacity", w.id, w.c.cfg.MaxNodesPerShard)
	}
	sink := &nodeSink{r: w.c.cfg.Rollup, node: id}
	ns, err := w.c.cfg.NewNode(id, sink)
	if err != nil {
		return nil, err
	}
	if ns == nil || ns.Chain == nil {
		return nil, fmt.Errorf("fleet: NewNode(%d) returned no chain", id)
	}
	st := &nodeState{ns: ns, sink: sink}
	w.nodes[id] = st
	fleetNodes.Set(float64(w.c.nodeCount.Add(1)))
	return st, nil
}

// exec pushes one task's node batches through their chains, syncing
// each journaled node once per task.
func (w *shardWorker) exec(t *task) {
	for i := range t.nodes {
		nb := &t.nodes[i]
		st, err := w.node(nb.Node)
		if err != nil {
			t.res.Rejected += len(nb.Rows)
			t.res.Error = err.Error()
			continue
		}
		if nb.App != "" {
			st.sink.app = nb.App
		}
		if t.report != nil {
			st.sink.capture = &t.report.Diagnoses
		}
		accepted := 0
		for r := range nb.Rows {
			row := &nb.Rows[r]
			if err := st.ns.Chain.PushAt(row.T, row.Values); err != nil {
				t.res.Error = err.Error()
				continue
			}
			accepted++
		}
		if st.ns.Log != nil && accepted > 0 {
			if err := st.ns.Log.Sync(); err != nil {
				// The rows are journaled and applied; only the durability
				// point moved. Surface it without un-accepting them.
				t.res.Error = err.Error()
			}
		}
		t.res.Accepted += accepted
		t.res.Rejected += len(nb.Rows) - accepted
		if t.report != nil {
			st.sink.capture = nil
			t.report.NodeInfo = w.info(nb.Node, st)
		}
	}
}

// Offer demultiplexes one bulk batch, fans it to the shard workers, and
// waits for every enqueued task to finish. Shards whose queue is full
// at enqueue time shed their whole slice of the batch — accounted in
// the result, advised by RetryAfter — while the other shards proceed at
// full throughput.
func (c *Coordinator) Offer(rows []Row) (*BatchResult, error) {
	return c.offer(rows, nil)
}

// NodeReport is what a one-node offer saw on the node's shard worker:
// the diagnoses its rows completed, in window order, and the node's
// accounting right after them. It stays zero when no row reached the
// worker (everything shed, or refused before routing).
type NodeReport struct {
	NodeInfo
	Diagnoses []stream.Diagnosis
}

// OfferNode is Offer for a batch that belongs to one node — every row's
// Node is set to node — and additionally reports what the batch did to
// that node. The capture costs only the callers that ask for it: bulk
// tasks carry no report.
func (c *Coordinator) OfferNode(node int, rows []Row) (*BatchResult, *NodeReport, error) {
	for i := range rows {
		rows[i].Node = node
	}
	report := &NodeReport{}
	res, err := c.offer(rows, report)
	return res, report, err
}

// offer is Offer with an optional report slot; a report requires every
// row to address the same node, so the batch demuxes into one task.
func (c *Coordinator) offer(rows []Row, report *NodeReport) (*BatchResult, error) {
	if len(rows) == 0 {
		return nil, errors.New("fleet: empty batch")
	}
	fleetBatchRows.Observe(float64(len(rows)))
	res := &BatchResult{Offered: len(rows)}

	// Width screening: demux and the workers assume schema-width rows.
	valid := rows
	if c.cfg.Metrics > 0 {
		bad := 0
		for i := range rows {
			if len(rows[i].Values) != c.cfg.Metrics {
				bad++
			}
		}
		if bad > 0 {
			res.Rejected = bad
			filtered := make([]Row, 0, len(rows)-bad)
			for i := range rows {
				if len(rows[i].Values) == c.cfg.Metrics {
					filtered = append(filtered, rows[i])
				}
			}
			valid = filtered
			if len(valid) == 0 {
				c.offered.Add(int64(res.Offered))
				c.rejected.Add(int64(res.Rejected))
				fleetRejected.Add(uint64(res.Rejected))
				return res, nil
			}
		}
	}

	c.mu.RLock()
	if c.closed {
		c.mu.RUnlock()
		return nil, errors.New("fleet: coordinator is closed")
	}
	d := c.dpool.Get().(*Demux)
	batches := d.Split(valid)

	var wg sync.WaitGroup
	tasks := make([]task, len(batches))
	res.PerShard = make([]ShardResult, len(batches))
	retryNs := int64(0)
	for i := range batches {
		sb := &batches[i]
		sr := &res.PerShard[i]
		sr.Shard = sb.Shard
		sr.Nodes = len(sb.Nodes)
		for n := range sb.Nodes {
			sr.Offered += len(sb.Nodes[n].Rows)
		}
		res.Nodes += sr.Nodes
		w := c.workers[sb.Shard]
		tasks[i] = task{nodes: sb.Nodes, res: sr, report: report, wg: &wg}
		wg.Add(1)
		select {
		case w.tasks <- &tasks[i]:
			w.depth.Set(float64(w.queued.Add(1)))
		default:
			wg.Done()
			sr.Shed = sr.Offered
			w.sheds.Add(uint64(sr.Shed))
			if est := w.drainEstimate(); est > retryNs {
				retryNs = est
			}
		}
	}
	c.mu.RUnlock()
	wg.Wait()

	for i := range res.PerShard {
		res.Accepted += res.PerShard[i].Accepted
		res.Rejected += res.PerShard[i].Rejected
		res.Shed += res.PerShard[i].Shed
	}
	if res.Shed > 0 {
		res.RetryAfter = clampRetry(time.Duration(retryNs))
	}
	c.offered.Add(int64(res.Offered))
	c.accepted.Add(int64(res.Accepted))
	c.rejected.Add(int64(res.Rejected))
	c.shed.Add(int64(res.Shed))
	fleetRows.Add(uint64(res.Accepted))
	fleetRejected.Add(uint64(res.Rejected))

	// Workers are done with the demux scratch the tasks referenced.
	c.dpool.Put(d)
	return res, nil
}

// drainEstimate guesses how long this shard needs to empty its queue.
func (w *shardWorker) drainEstimate() int64 {
	return w.taskNs.Load() * int64(w.queued.Load()+1)
}

// clampRetry bounds the Retry-After advice to a sane operational range.
func clampRetry(d time.Duration) time.Duration {
	const lo, hi = 50 * time.Millisecond, 5 * time.Second
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}

// control runs fn on the goroutine of each listed shard worker, behind
// whatever ingest work is already queued there, and waits for all of
// them. Unlike Offer it waits for queue room instead of shedding.
func (c *Coordinator) control(workers []*shardWorker, fn func(w *shardWorker)) error {
	c.mu.RLock()
	if c.closed {
		c.mu.RUnlock()
		return errors.New("fleet: coordinator is closed")
	}
	var wg sync.WaitGroup
	tasks := make([]task, len(workers))
	for i, w := range workers {
		tasks[i] = task{fn: fn, wg: &wg}
		wg.Add(1)
		w.tasks <- &tasks[i]
		w.depth.Set(float64(w.queued.Add(1)))
	}
	c.mu.RUnlock()
	wg.Wait()
	return nil
}

// Quiesce blocks until every task accepted before the call has been
// executed (queues drain FIFO, so a barrier task per shard suffices).
func (c *Coordinator) Quiesce() error {
	return c.control(c.workers, func(*shardWorker) {})
}

// Visit runs fn on the shard worker that owns node, with the node's
// stream — nil when the node has no state. The worker is the stream's
// only writer, so fn sees the chain, the journal and Aux frozen for as
// long as it runs; that shard's ingest waits meanwhile. An operator and
// test primitive like Nodes, not a health probe.
func (c *Coordinator) Visit(node int, fn func(ns *NodeStream)) error {
	shard := c.router.Shard(node)
	return c.control(c.workers[shard:shard+1], func(w *shardWorker) {
		if st, ok := w.nodes[node]; ok {
			fn(st.ns)
		} else {
			fn(nil)
		}
	})
}

// NodeInfo is one node's state snapshot from Nodes.
type NodeInfo struct {
	Node      int          `json:"node"`
	Shard     int          `json:"shard"`
	App       string       `json:"app,omitempty"`
	Stats     stream.Stats `json:"stats"`
	Committed int          `json:"committed"`
	Pending   int          `json:"pending"`
	Emitted   int          `json:"emitted"`
	WAL       *wal.Stats   `json:"wal,omitempty"`
}

// Nodes snapshots every node's chain accounting, sorted by node id. It
// runs inside the shard workers (a control task per shard), so it waits
// behind any queued ingest work — an inventory and test helper, not a
// health-probe primitive (Stats is the cheap path).
func (c *Coordinator) Nodes() ([]NodeInfo, error) {
	perShard := make([][]NodeInfo, len(c.workers))
	err := c.control(c.workers, func(w *shardWorker) {
		part := make([]NodeInfo, 0, len(w.nodes))
		for id, st := range w.nodes {
			part = append(part, w.info(id, st))
		}
		perShard[w.id] = part
	})
	if err != nil {
		return nil, err
	}
	var out []NodeInfo
	for _, part := range perShard {
		out = append(out, part...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out, nil
}

// info renders one node's snapshot. Runs on the worker goroutine.
func (w *shardWorker) info(id int, st *nodeState) NodeInfo {
	info := NodeInfo{
		Node: id, Shard: w.id, App: st.sink.app,
		Stats:     st.ns.Chain.Stats(),
		Committed: st.ns.Chain.Committed(),
		Pending:   st.ns.Chain.PendingDepth(),
		Emitted:   st.sink.emitted,
	}
	if st.ns.Log != nil {
		ls := st.ns.Log.Stats()
		info.WAL = &ls
	}
	return info
}

// Stats is the coordinator's cheap cumulative accounting — atomics
// only, safe to read from health probes even while every worker is
// wedged.
type Stats struct {
	Shards   int   `json:"shards"`
	Nodes    int   `json:"nodes"`
	Offered  int64 `json:"offered"`
	Accepted int64 `json:"accepted"`
	Rejected int64 `json:"rejected"`
	Shed     int64 `json:"shed"`
	// Queued is the tasks currently waiting across all shard queues.
	Queued int `json:"queued"`
}

// Stats reads the coordinator's cumulative counters.
func (c *Coordinator) Stats() Stats {
	st := Stats{
		Shards:   len(c.workers),
		Nodes:    int(c.nodeCount.Load()),
		Offered:  c.offered.Load(),
		Accepted: c.accepted.Load(),
		Rejected: c.rejected.Load(),
		Shed:     c.shed.Load(),
	}
	for _, w := range c.workers {
		st.Queued += int(w.queued.Load())
	}
	return st
}

// Close stops the workers (draining already-queued tasks first) and
// closes every node WAL. Offers concurrent with Close either complete
// or report the coordinator closed; Close returns after all shard
// goroutines have exited.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	for _, w := range c.workers {
		close(w.tasks)
	}
	c.mu.Unlock()
	c.wg.Wait()
	return c.closeNodes()
}

// closeNodes closes every node's journal (workers must have exited, or
// never started).
func (c *Coordinator) closeNodes() error {
	var first error
	for _, w := range c.workers {
		for _, st := range w.nodes {
			if st.ns.Log == nil {
				continue
			}
			if err := st.ns.Log.Close(); err != nil && first == nil {
				first = err
			}
			st.ns.Log = nil
		}
	}
	return first
}
