package fleet_test

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"albadross/internal/fleet"
	"albadross/internal/pipeline"
	"albadross/internal/stream"
	"albadross/internal/wal"
)

// sumFeatures renders a window into one per-metric mean vector.
type sumFeatures struct{ metrics int }

func (f sumFeatures) Vector(rows [][]float64) ([]float64, error) {
	out := make([]float64, f.metrics)
	for _, row := range rows {
		for m, v := range row {
			if !math.IsNaN(v) {
				out[m] += v / float64(len(rows))
			}
		}
	}
	return out, nil
}

func (sumFeatures) Reset() {}

// thresholdPredict labels a window anomalous when its first feature
// clears the cut.
type thresholdPredict struct {
	cut     float64
	gate    chan struct{} // when non-nil, Predict blocks until the gate closes
	blocked *atomic.Int32 // incremented before blocking on the gate
}

func (p *thresholdPredict) Predict(vec []float64) (string, float64, error) {
	if p.gate != nil {
		if p.blocked != nil {
			p.blocked.Add(1)
		}
		<-p.gate
	}
	if vec[0] > p.cut {
		return "cpuoccupy", 0.9, nil
	}
	return "healthy", 0.8, nil
}

const (
	testMetrics = 3
	testWindow  = 8
)

// factoryOpts tunes the test node factory.
type factoryOpts struct {
	walDir  string
	gates   map[int]chan struct{} // per-shard predict gates (wedge tests)
	router  *fleet.Router
	blocked *atomic.Int32
}

// testFactory builds minimal per-node chains: mean features, threshold
// prediction, optional journaling under fleet.NodeWALDir.
func testFactory(opts factoryOpts) func(node int, sink pipeline.Sink) (*fleet.NodeStream, error) {
	return func(node int, sink pipeline.Sink) (*fleet.NodeStream, error) {
		pred := &thresholdPredict{cut: 0.5, blocked: opts.blocked}
		if opts.gates != nil {
			pred.gate = opts.gates[opts.router.Shard(node)]
		}
		var log *wal.Log
		if opts.walDir != "" {
			l, err := wal.Open(fleet.NodeWALDir(opts.walDir, node), wal.Options{})
			if err != nil {
				return nil, err
			}
			log = l
		}
		chain, err := pipeline.NewChain(pipeline.ChainConfig{
			Metrics:  testMetrics,
			Window:   testWindow,
			Features: sumFeatures{metrics: testMetrics},
			Predict:  pred,
			Sink:     sink,
			Journal:  log,
		})
		if err != nil {
			if log != nil {
				_ = log.Close()
			}
			return nil, err
		}
		if log != nil && log.Stats().Records > 0 {
			if err := pipeline.Replay(log, chain); err != nil {
				_ = log.Close()
				return nil, err
			}
		}
		return &fleet.NodeStream{Chain: chain, Log: log, Aux: pred}, nil
	}
}

// feedRows builds an interleaved bulk batch: rowsPerNode readings per
// node, round-robin across nodes, per-node timestamps continuing at t0.
// Node values are deterministic in (node, t); odd nodes run hot (first
// metric above the predict cut).
func feedRows(nodes []int, t0, rowsPerNode int) []fleet.Row {
	var rows []fleet.Row
	for r := 0; r < rowsPerNode; r++ {
		for _, n := range nodes {
			v := fleet.Values{0.1, 0.2, 0.3}
			if n%2 == 1 {
				v[0] = 0.9
			}
			rows = append(rows, fleet.Row{
				Node: n, App: fmt.Sprintf("app-%d", n%3), T: t0 + r, Values: v,
			})
		}
	}
	return rows
}

func TestRouterDeterministicAndBounded(t *testing.T) {
	a, err := fleet.NewRouter(8)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := fleet.NewRouter(8)
	counts := make([]int, 8)
	for node := 0; node < 1488; node++ {
		s := a.Shard(node)
		if s < 0 || s >= 8 {
			t.Fatalf("node %d routed outside [0,8): %d", node, s)
		}
		if s != b.Shard(node) {
			t.Fatalf("node %d routed differently by identical routers", node)
		}
		counts[s]++
	}
	mean := 1488.0 / 8
	for s, c := range counts {
		if float64(c) < mean/2 || float64(c) > mean*2 {
			t.Fatalf("shard %d holds %d of 1488 nodes; want within [%.0f, %.0f]", s, c, mean/2, mean*2)
		}
	}
	if _, err := fleet.NewRouter(0); err == nil {
		t.Fatal("NewRouter(0) should fail")
	}
}

func TestRouterShardCountChangeMovesFewNodes(t *testing.T) {
	a, _ := fleet.NewRouter(8)
	b, _ := fleet.NewRouter(9)
	moved := 0
	for node := 0; node < 1488; node++ {
		if a.Shard(node) != b.Shard(node) {
			moved++
		}
	}
	// Rendezvous hashing moves ~1/9 of the nodes when a ninth shard
	// appears; modulo hashing would move ~8/9. Allow generous slack.
	if moved > 1488/3 {
		t.Fatalf("growing 8->9 shards moved %d of 1488 nodes; rendezvous hashing should move ~%d", moved, 1488/9)
	}
}

func TestDemuxGroupsPreserveOrderAndShard(t *testing.T) {
	router, _ := fleet.NewRouter(4)
	d := fleet.NewDemux(router)
	nodes := []int{7, 3, 12, 7, 99, 3, 7}
	var rows []fleet.Row
	for i, n := range nodes {
		rows = append(rows, fleet.Row{Node: n, T: i, App: fmt.Sprintf("a%d", n), Values: fleet.Values{1, 2, 3}})
	}
	batches := d.Split(rows)
	seen := map[int][]int{}
	total := 0
	for _, sb := range batches {
		for _, nb := range sb.Nodes {
			if nb.Shard != sb.Shard || nb.Shard != router.Shard(nb.Node) {
				t.Fatalf("node %d: shard mismatch (%d vs %d)", nb.Node, nb.Shard, router.Shard(nb.Node))
			}
			if want := fmt.Sprintf("a%d", nb.Node); nb.App != want {
				t.Fatalf("node %d app %q, want %q", nb.Node, nb.App, want)
			}
			for _, r := range nb.Rows {
				if r.Node != nb.Node {
					t.Fatalf("row for node %d grouped under %d", r.Node, nb.Node)
				}
				seen[nb.Node] = append(seen[nb.Node], r.T)
				total++
			}
		}
	}
	if total != len(rows) {
		t.Fatalf("split %d rows, got %d back", len(rows), total)
	}
	if got, want := fmt.Sprint(seen[7]), fmt.Sprint([]int{0, 3, 6}); got != want {
		t.Fatalf("node 7 arrival order %s, want %s", got, want)
	}
	// A second split on the same demux must be self-consistent (scratch
	// reuse) and independent of the first batch's content.
	second := d.Split(feedRows([]int{1, 2, 3, 4}, 0, 3))
	n2 := 0
	for _, sb := range second {
		for _, nb := range sb.Nodes {
			n2 += len(nb.Rows)
		}
	}
	if n2 != 12 {
		t.Fatalf("second split lost rows: %d of 12", n2)
	}
}

func TestDemuxSteadyStateDoesNotAllocate(t *testing.T) {
	router, _ := fleet.NewRouter(4)
	d := fleet.NewDemux(router)
	rows := feedRows([]int{1, 2, 3, 4, 5, 6, 7, 8}, 0, 4)
	d.Split(rows) // warm the scratch
	allocs := testing.AllocsPerRun(50, func() {
		d.Split(rows)
	})
	if allocs > 0.5 {
		t.Fatalf("warmed Split allocates %.1f times per batch; scratch reuse is broken", allocs)
	}
}

func TestValuesJSONRoundTripsNaNAsNull(t *testing.T) {
	in := fleet.Row{Node: 4, App: "BT", T: 9, Values: fleet.Values{1.5, math.NaN(), -2}}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out fleet.Row
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Node != 4 || out.App != "BT" || out.T != 9 || len(out.Values) != 3 {
		t.Fatalf("round trip mangled the row: %+v from %s", out, raw)
	}
	if out.Values[0] != 1.5 || !math.IsNaN(out.Values[1]) || out.Values[2] != -2 {
		t.Fatalf("values round trip: %v", out.Values)
	}
	if err := json.Unmarshal([]byte(`{"values":[1,"x"]}`), &out); err == nil {
		t.Fatal("non-numeric cell should fail to decode")
	}
}

func TestRollupTopKMatchesNaiveRanking(t *testing.T) {
	r := fleet.NewRollup(fleet.RollupConfig{Recent: 8})
	// Deterministic mixed traffic: node n gets 20 diagnoses, anomalous
	// when (n*7+i)%5 == 0 — different fractions per node.
	for n := 0; n < 60; n++ {
		for i := 0; i < 20; i++ {
			d := stream.Diagnosis{Label: "healthy", Confidence: 0.8, WindowEnd: i}
			if (n*7+i)%5 == 0 {
				d.Label = "memleak"
				d.Confidence = 0.9
			}
			r.Observe(n, fmt.Sprintf("app-%d", n%4), d)
		}
	}
	if r.Tracked() != 60 {
		t.Fatalf("tracked %d nodes, want 60", r.Tracked())
	}
	top := r.TopK(10)
	if len(top) != 10 {
		t.Fatalf("TopK(10) returned %d entries", len(top))
	}
	// The walk must yield a monotonically non-increasing ranking with
	// node-ascending ties, and TopK(all) must agree with TopK(10)'s
	// prefix.
	all := r.TopK(60)
	for i := 1; i < len(all); i++ {
		a, b := all[i-1], all[i]
		if a.Score < b.Score || (a.Score == b.Score && a.Node > b.Node) {
			t.Fatalf("ranking violated at %d: %+v then %+v", i, a, b)
		}
	}
	for i := range top {
		if top[i] != all[i] {
			t.Fatalf("TopK(10)[%d] != TopK(60)[%d]: %+v vs %+v", i, i, top[i], all[i])
		}
	}
	apps := r.Apps()
	if len(apps) != 4 {
		t.Fatalf("got %d apps, want 4", len(apps))
	}
	nodes, windows := 0, 0
	for _, a := range apps {
		nodes += a.Nodes
		windows += a.Windows
	}
	if nodes != 60 || windows != 60*20 {
		t.Fatalf("app aggregates: %d nodes %d windows, want 60 and 1200", nodes, windows)
	}
}

func TestCoordinatorBulkRoundTrip(t *testing.T) {
	c, err := fleet.NewCoordinator(fleet.Config{
		Shards:  3,
		Metrics: testMetrics,
		NewNode: testFactory(factoryOpts{}),
		Rollup:  fleet.NewRollup(fleet.RollupConfig{Recent: 4}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	nodes := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	perNode := 3 * testWindow
	for step := 0; step < perNode; step += testWindow {
		res, err := c.Offer(feedRows(nodes, step, testWindow))
		if err != nil {
			t.Fatal(err)
		}
		if res.Accepted != len(nodes)*testWindow || res.Shed != 0 || res.Rejected != 0 {
			t.Fatalf("batch at %d: %+v", step, res)
		}
	}
	if err := c.Quiesce(); err != nil {
		t.Fatal(err)
	}
	infos, err := c.Nodes()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(nodes) {
		t.Fatalf("%d node infos, want %d", len(infos), len(nodes))
	}
	for _, info := range infos {
		if info.Committed != perNode || info.Pending != 0 {
			t.Fatalf("node %d committed %d pending %d, want %d and 0", info.Node, info.Committed, info.Pending, perNode)
		}
		if want := perNode / testWindow; info.Emitted != want {
			t.Fatalf("node %d emitted %d diagnoses, want %d", info.Node, info.Emitted, want)
		}
	}
	// Odd nodes run hot: every odd node outranks every even node.
	top := c.Stats()
	if top.Accepted != int64(len(nodes)*perNode) {
		t.Fatalf("stats accepted %d, want %d", top.Accepted, len(nodes)*perNode)
	}
}

// TestOfferNodeAndVisit covers the two per-node primitives the server's
// /api/ingest and evidence APIs stand on: a one-node offer reports
// exactly the diagnoses ITS rows completed plus the node's snapshot,
// and Visit hands a callback the node's stream — factory Aux included —
// on the owning worker.
func TestOfferNodeAndVisit(t *testing.T) {
	roll := fleet.NewRollup(fleet.RollupConfig{Recent: 4})
	c, err := fleet.NewCoordinator(fleet.Config{
		Shards: 2, Metrics: testMetrics, NewNode: testFactory(factoryOpts{}), Rollup: roll,
	})
	if err != nil {
		t.Fatal(err)
	}
	const node = 7 // odd: runs hot
	// The rows arrive addressed to other nodes; OfferNode re-addresses them.
	res, rep, err := c.OfferNode(node, feedRows([]int{1}, 0, 2*testWindow+testWindow/2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 20 || res.Nodes != 1 || len(res.PerShard) != 1 {
		t.Fatalf("one-node offer accounting: %+v", res)
	}
	if rep.Node != node || rep.Committed != 20 || rep.Emitted != 2 || rep.Stats.Windows != 2 || rep.App != "app-1" {
		t.Fatalf("node snapshot: %+v", rep.NodeInfo)
	}
	if len(rep.Diagnoses) != 2 || rep.Diagnoses[0].WindowEnd != testWindow-1 || rep.Diagnoses[1].WindowEnd != 2*testWindow-1 ||
		rep.Diagnoses[0].Label != "cpuoccupy" {
		t.Fatalf("captured diagnoses: %+v", rep.Diagnoses)
	}
	if roll.Tracked() != 1 {
		t.Fatalf("captured diagnoses bypassed the rollup: %d nodes tracked", roll.Tracked())
	}

	// Capture is per call: a bulk offer in between leaves nothing behind,
	// and the next one-node offer sees only its own window.
	if _, err := c.Offer(feedRows([]int{node}, 20, testWindow)); err != nil {
		t.Fatal(err)
	}
	_, rep, err = c.OfferNode(node, feedRows([]int{node}, 28, testWindow/2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Diagnoses) != 1 || rep.Diagnoses[0].WindowEnd != 4*testWindow-1 || rep.Emitted != 4 {
		t.Fatalf("second one-node offer: %d captured, snapshot %+v", len(rep.Diagnoses), rep.NodeInfo)
	}

	// Refused before routing: the report stays zero.
	res, rep, err = c.OfferNode(node, []fleet.Row{{T: 99, Values: fleet.Values{1}}})
	if err != nil || res.Rejected != 1 || rep.Committed != 0 || rep.Diagnoses != nil {
		t.Fatalf("wrong-width one-node offer: res %+v report %+v err %v", res, rep, err)
	}

	var committed int
	var aux any
	if err := c.Visit(node, func(ns *fleet.NodeStream) { committed, aux = ns.Chain.Committed(), ns.Aux }); err != nil {
		t.Fatal(err)
	}
	if _, ok := aux.(*thresholdPredict); !ok || committed != 32 {
		t.Fatalf("visit saw committed %d, aux %T", committed, aux)
	}
	visited := false
	if err := c.Visit(node+1, func(ns *fleet.NodeStream) { visited = ns == nil }); err != nil || !visited {
		t.Fatalf("visiting a node without state: err %v, nil stream %v", err, visited)
	}

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Visit(node, func(*fleet.NodeStream) {}); err == nil {
		t.Fatal("Visit on a closed coordinator accepted")
	}
	if _, _, err := c.OfferNode(node, feedRows([]int{node}, 40, 1)); err == nil {
		t.Fatal("OfferNode on a closed coordinator accepted")
	}
}

func TestCoordinatorRejectsWrongWidthRows(t *testing.T) {
	c, err := fleet.NewCoordinator(fleet.Config{
		Shards: 2, Metrics: testMetrics, NewNode: testFactory(factoryOpts{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	rows := []fleet.Row{
		{Node: 1, T: 0, Values: fleet.Values{1, 2, 3}},
		{Node: 1, T: 1, Values: fleet.Values{1, 2}}, // wrong width
		{Node: 2, T: 0, Values: fleet.Values{1, 2, 3}},
	}
	res, err := c.Offer(rows)
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered != 3 || res.Accepted != 2 || res.Rejected != 1 {
		t.Fatalf("width screening: %+v", res)
	}
}

func TestCoordinatorNodeCapacityRejects(t *testing.T) {
	c, err := fleet.NewCoordinator(fleet.Config{
		Shards: 2, Metrics: testMetrics, MaxNodesPerShard: 1,
		NewNode: testFactory(factoryOpts{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	res, err := c.Offer(feedRows([]int{0, 1, 2, 3, 4, 5, 6, 7}, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted+res.Rejected+res.Shed != res.Offered {
		t.Fatalf("accounting leak: %+v", res)
	}
	if res.Rejected == 0 {
		t.Fatalf("8 nodes on 2 shards with capacity 1 should reject some rows: %+v", res)
	}
	if n := c.Stats().Nodes; n < 1 || n > 2 {
		t.Fatalf("node maps should be capped at 1 per shard, got %d total", n)
	}
}

// TestWedgedShardShedsOnlyItsRows is the back-pressure contract: with
// one shard's predict stage wedged and its queue full, bulk batches
// shed exactly that shard's rows while every other shard keeps
// accepting at full throughput, and the cheap stats stay readable.
func TestWedgedShardShedsOnlyItsRows(t *testing.T) {
	router, _ := fleet.NewRouter(3)
	// Find a victim node and two nodes on the other shards.
	victim := 0
	wedged := router.Shard(victim)
	var others []int
	for n := 1; len(others) < 4 && n < 1000; n++ {
		if router.Shard(n) != wedged {
			others = append(others, n)
		}
	}
	gate := make(chan struct{})
	gates := map[int]chan struct{}{wedged: gate}
	var blocked atomic.Int32
	c, err := fleet.NewCoordinator(fleet.Config{
		Shards: 3, Metrics: testMetrics, QueueDepth: 1,
		NewNode: testFactory(factoryOpts{gates: gates, router: router, blocked: &blocked}),
		Rollup:  fleet.NewRollup(fleet.RollupConfig{}),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Wedge the victim shard: a full window completes a prediction that
	// blocks on the gate, freezing the worker mid-task.
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if _, err := c.Offer(feedRows([]int{victim}, 0, testWindow)); err != nil {
			t.Errorf("wedged offer 1: %v", err)
		}
	}()
	waitFor(t, "worker wedged", func() bool { return blocked.Load() >= 1 })
	// Fill the queue behind the wedged worker.
	go func() {
		defer wg.Done()
		if _, err := c.Offer(feedRows([]int{victim}, testWindow, testWindow)); err != nil {
			t.Errorf("wedged offer 2: %v", err)
		}
	}()
	waitFor(t, "queue full", func() bool { return c.Stats().Queued >= 1 })

	// Now a mixed batch: the victim's rows must shed, the others' rows
	// must be accepted, synchronously.
	mixed := append(feedRows([]int{victim}, 2*testWindow, testWindow), feedRows(others, 0, testWindow)...)
	res, err := c.Offer(mixed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed != testWindow {
		t.Fatalf("want exactly the victim's %d rows shed, got %d (%+v)", testWindow, res.Shed, res)
	}
	if res.Accepted != len(others)*testWindow {
		t.Fatalf("other shards should accept all %d rows, got %d", len(others)*testWindow, res.Accepted)
	}
	if res.RetryAfter <= 0 {
		t.Fatal("a shedding batch must carry a Retry-After hint")
	}
	for _, sr := range res.PerShard {
		if sr.Shard == wedged && sr.Shed != sr.Offered {
			t.Fatalf("wedged shard accounting: %+v", sr)
		}
		if sr.Shard != wedged && sr.Shed != 0 {
			t.Fatalf("healthy shard %d shed rows: %+v", sr.Shard, sr)
		}
	}
	// Stats stays readable while wedged (the health-probe path).
	if st := c.Stats(); st.Shards != 3 {
		t.Fatalf("stats under wedge: %+v", st)
	}

	close(gate)
	wg.Wait()
	if err := c.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Offer(feedRows(others, 99, 1)); err == nil {
		t.Fatal("Offer after Close must fail")
	}
}

// waitFor polls a condition with a deadline.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShardCountInvariance is the acceptance criterion: per-node state
// and the rollup artifacts are byte-identical whether the fleet folds
// onto 2 or 5 shards, because every node's chain sees the same ordered
// rows either way.
func TestShardCountInvariance(t *testing.T) {
	run := func(shards int) (string, string, []fleet.NodeInfo) {
		roll := fleet.NewRollup(fleet.RollupConfig{Recent: 4})
		c, err := fleet.NewCoordinator(fleet.Config{
			Shards: shards, Metrics: testMetrics,
			NewNode: testFactory(factoryOpts{}), Rollup: roll,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = c.Close() }()
		nodes := []int{3, 11, 42, 100, 101, 555, 1487}
		for step := 0; step < 4*testWindow; step += testWindow {
			if _, err := c.Offer(feedRows(nodes, step, testWindow)); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Quiesce(); err != nil {
			t.Fatal(err)
		}
		topk, err := json.Marshal(roll.TopK(len(nodes)))
		if err != nil {
			t.Fatal(err)
		}
		apps, err := json.Marshal(roll.Apps())
		if err != nil {
			t.Fatal(err)
		}
		infos, err := c.Nodes()
		if err != nil {
			t.Fatal(err)
		}
		return string(topk), string(apps), infos
	}
	topk2, apps2, infos2 := run(2)
	topk5, apps5, infos5 := run(5)
	if topk2 != topk5 {
		t.Fatalf("topk differs across shard counts:\n2: %s\n5: %s", topk2, topk5)
	}
	if apps2 != apps5 {
		t.Fatalf("apps differs across shard counts:\n2: %s\n5: %s", apps2, apps5)
	}
	for i := range infos2 {
		a, b := infos2[i], infos5[i]
		if a.Node != b.Node || a.Stats != b.Stats || a.Committed != b.Committed ||
			a.Pending != b.Pending || a.Emitted != b.Emitted {
			t.Fatalf("node state differs across shard counts:\n2: %+v\n5: %+v", a, b)
		}
	}
}

// TestRecoveryBitwise crashes a journaling fleet (Close without
// flushing reorder buffers) and recovers it via Preload: per-node chain
// accounting must match the pre-crash snapshot exactly.
func TestRecoveryBitwise(t *testing.T) {
	dir := t.TempDir()
	mk := func(preload []int) *fleet.Coordinator {
		c, err := fleet.NewCoordinator(fleet.Config{
			Shards: 3, Metrics: testMetrics,
			NewNode: testFactory(factoryOpts{walDir: dir}),
			Rollup:  fleet.NewRollup(fleet.RollupConfig{}),
			Preload: preload,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c := mk(nil)
	nodes := []int{5, 17, 40, 41}
	// 2.5 windows per node: the third window is still forming at the
	// crash, so recovery must rebuild mid-window ring state too.
	if _, err := c.Offer(feedRows(nodes, 0, 2*testWindow+testWindow/2)); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(); err != nil {
		t.Fatal(err)
	}
	before, err := c.Nodes()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	found, err := fleet.ListNodeWALs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(found) != fmt.Sprint(nodes) {
		t.Fatalf("ListNodeWALs found %v, want %v", found, nodes)
	}
	rc := mk(found)
	defer func() { _ = rc.Close() }()
	after, err := rc.Nodes()
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("recovered %d nodes, want %d", len(after), len(before))
	}
	for i := range before {
		a, b := before[i], after[i]
		if a.Node != b.Node || a.Stats != b.Stats || a.Committed != b.Committed ||
			a.Pending != b.Pending || a.Emitted != b.Emitted {
			t.Fatalf("node %d state diverged after recovery:\nbefore: %+v\nafter:  %+v", a.Node, a, b)
		}
	}
	// The recovered fleet keeps accepting where the crashed one stopped.
	res, err := rc.Offer(feedRows(nodes, 2*testWindow+testWindow/2, testWindow/2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != len(nodes)*testWindow/2 {
		t.Fatalf("post-recovery offer: %+v", res)
	}
}
