package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"albadross/internal/active"
	"albadross/internal/features/mvts"
	"albadross/internal/fleet"
	"albadross/internal/ml"
	"albadross/internal/ml/forest"
)

// newFleetServer builds a fleet-enabled window-mode server on the
// shared deterministic training problem. walDir roots the per-node
// journals; empty disables the WAL.
func newFleetServer(t *testing.T, walDir string, mutate func(*Config)) *Server {
	t.Helper()
	d, split, schema := ingestProblem(t)
	cfg := Config{
		Data:      d,
		Split:     split,
		Factory:   forest.NewFactory(forest.Config{NEstimators: 10, MaxDepth: 6, Seed: 3}),
		Strategy:  active.Uncertainty{},
		Seed:      4,
		Schema:    schema,
		Extractor: mvts.Extractor{},
		Fleet: FleetConfig{
			IngestConfig: IngestConfig{
				Shards:          2,
				Window:          8,
				Stride:          8,
				WALDir:          walDir,
				WALSegmentBytes: 4 << 10,
			},
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// bulkRows synthesizes an interleaved multi-node arrival sequence:
// round-robin across nodes, per-node monotone timestamps starting at
// t0, each node attributed to one of three apps.
func bulkRows(nodes []int, t0, perNode int) []fleet.Row {
	rows := make([]fleet.Row, 0, len(nodes)*perNode)
	for r := 0; r < perNode; r++ {
		for _, n := range nodes {
			rows = append(rows, fleet.Row{
				Node: n, App: testApp(n), T: t0 + r,
				Values: fleet.Values{1 + 0.01*float64(r%7), 2, 0.5},
			})
		}
	}
	return rows
}

func testApp(node int) string {
	return [...]string{"BT", "LU", "SP"}[node%3]
}

// postBulk runs one /api/ingest/bulk request directly against the
// handler and decodes the accounting regardless of status.
func postBulk(t *testing.T, srv *Server, rows []fleet.Row) (BulkIngestResponse, *httptest.ResponseRecorder) {
	t.Helper()
	raw, err := json.Marshal(BulkIngestRequest{Rows: rows})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.handleIngestBulk(rec, httptest.NewRequest(http.MethodPost, "/api/ingest/bulk", bytes.NewReader(raw)))
	var resp BulkIngestResponse
	if rec.Code == http.StatusOK || rec.Code == http.StatusTooManyRequests {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
	}
	return resp, rec
}

func TestFleetBulkRoundTripAndRollup(t *testing.T) {
	srv := newFleetServer(t, "", nil)
	nodes := []int{3, 7, 11, 12, 20, 21, 33, 40, 54, 61}

	// Two full windows per node, interleaved across all ten nodes.
	resp, rec := postBulk(t, srv, bulkRows(nodes, 0, 16))
	if rec.Code != http.StatusOK {
		t.Fatalf("bulk: status %d body %s", rec.Code, rec.Body)
	}
	if resp.Offered != 160 || resp.Accepted != 160 || resp.Rejected != 0 || resp.Shed != 0 {
		t.Fatalf("bulk accounting = %+v", resp.BatchResult)
	}
	if resp.Nodes != len(nodes) {
		t.Fatalf("bulk touched %d nodes, want %d", resp.Nodes, len(nodes))
	}
	if st := srv.FleetStats(); st.Accepted != 160 || st.Nodes != len(nodes) {
		t.Fatalf("FleetStats = %+v", st)
	}

	// Every node committed two windows and the rollup ranks all of them.
	infos, err := srv.FleetNodes()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(nodes) {
		t.Fatalf("FleetNodes: %d nodes", len(infos))
	}
	for _, ni := range infos {
		if ni.Stats.Windows != 2 || ni.Emitted != 2 {
			t.Fatalf("node %d: %+v", ni.Node, ni)
		}
		if ni.App != testApp(ni.Node) {
			t.Fatalf("node %d app %q", ni.Node, ni.App)
		}
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var topk FleetTopKResponse
	getJSON(t, ts, "/api/fleet/topk?k=4", &topk)
	if topk.K != 4 || topk.Tracked != len(nodes) || len(topk.Nodes) != 4 {
		t.Fatalf("topk = %+v", topk)
	}
	for i := 1; i < len(topk.Nodes); i++ {
		a, b := topk.Nodes[i-1], topk.Nodes[i]
		if a.Score < b.Score || (a.Score == b.Score && a.Node > b.Node) {
			t.Fatalf("topk out of order at %d: %+v", i, topk.Nodes)
		}
	}
	var apps FleetAppsResponse
	getJSON(t, ts, "/api/fleet/apps", &apps)
	if len(apps.Apps) != 3 {
		t.Fatalf("apps = %+v", apps)
	}
	gotNodes, gotWindows := 0, 0
	for _, a := range apps.Apps {
		gotNodes += a.Nodes
		gotWindows += a.Windows
	}
	if gotNodes != len(nodes) || gotWindows != 2*len(nodes) {
		t.Fatalf("apps aggregate %d nodes / %d windows: %+v", gotNodes, gotWindows, apps)
	}

	var health map[string]interface{}
	getJSON(t, ts, "/api/health", &health)
	fl, ok := health["fleet"].(map[string]interface{})
	if !ok {
		t.Fatalf("health has no fleet section: %v", health)
	}
	if fl["shards"].(float64) != 2 || fl["accepted"].(float64) != 160 || fl["tracked"].(float64) != float64(len(nodes)) {
		t.Fatalf("health fleet section = %v", fl)
	}

	// A wrong-width row is rejected permanently; the rest still land.
	mixed := bulkRows(nodes[:2], 16, 1)
	mixed = append(mixed, fleet.Row{Node: 3, T: 17, Values: fleet.Values{1, 2}})
	resp, rec = postBulk(t, srv, mixed)
	if rec.Code != http.StatusOK || resp.Accepted != 2 || resp.Rejected != 1 {
		t.Fatalf("mixed-width bulk: status %d, %+v", rec.Code, resp.BatchResult)
	}

	// Error paths.
	if _, rec := postBulk(t, srv, nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("empty bulk: status %d", rec.Code)
	}
	for _, path := range []string{"/api/fleet/topk?k=0", "/api/fleet/topk?k=x"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %s: status %d", path, r.StatusCode)
		}
	}
	r, err := http.Get(ts.URL + "/api/ingest/bulk")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /api/ingest/bulk: status %d", r.StatusCode)
	}

	// A server without the fleet refuses the routes and the accessors.
	plain, _ := newTestServer(t)
	defer plain.Close()
	if _, rec := postBulk(t, plain, bulkRows(nodes[:1], 0, 1)); rec.Code != http.StatusNotFound {
		t.Fatalf("bulk on plain server: status %d", rec.Code)
	}
	pts := httptest.NewServer(plain.Handler())
	defer pts.Close()
	for _, path := range []string{"/api/fleet/topk", "/api/fleet/apps"} {
		r, err := http.Get(pts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s on plain server: status %d", path, r.StatusCode)
		}
	}
	if _, err := plain.FleetNodes(); err == nil {
		t.Fatal("FleetNodes on plain server accepted")
	}
	if err := plain.FleetQuiesce(); err == nil {
		t.Fatal("FleetQuiesce on plain server accepted")
	}
}

// gatedModel wraps a real classifier so a test can wedge exactly ONE
// prediction: the first PredictProba after arming blocks until release
// is closed; every other call passes straight through.
type gatedModel struct {
	ml.Classifier
	armed   *atomic.Bool
	calls   *atomic.Int32
	release chan struct{}
}

func (g *gatedModel) PredictProba(x []float64) []float64 {
	if g.armed.Load() && g.calls.Add(1) == 1 {
		<-g.release
	}
	return g.Classifier.PredictProba(x)
}

// TestFleetWedgedShardSheds429 wedges one shard worker behind a stuck
// prediction and shows the HTTP contract under overload: bulk batches
// shed ONLY the wedged shard's rows (429 + Retry-After, partial accept
// in the body) while the other shard keeps full throughput and
// /api/health stays responsive.
func TestFleetWedgedShardSheds429(t *testing.T) {
	var armed atomic.Bool
	var calls atomic.Int32
	release := make(chan struct{})
	var once sync.Once
	t.Cleanup(func() { once.Do(func() { close(release) }) })

	srv := newFleetServer(t, "", func(c *Config) {
		base := c.Factory
		c.Factory = func() ml.Classifier {
			return &gatedModel{Classifier: base(), armed: &armed, calls: &calls, release: release}
		}
		c.Fleet.QueueDepth = 1
	})

	router, err := fleet.NewRouter(2)
	if err != nil {
		t.Fatal(err)
	}
	victim := 0
	other := -1
	for n := 1; n < 32; n++ {
		if router.Shard(n) != router.Shard(victim) {
			other = n
			break
		}
	}
	if other < 0 {
		t.Fatal("no node found on the other shard")
	}

	armed.Store(true)
	var wg sync.WaitGroup
	results := make([]BulkIngestResponse, 2)
	codes := make([]int, 2)
	post := func(slot int, rows []fleet.Row) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[slot], _ = func() (BulkIngestResponse, *httptest.ResponseRecorder) {
				resp, rec := postBulk(t, srv, rows)
				codes[slot] = rec.Code
				return resp, rec
			}()
		}()
	}
	// One full window: the victim worker calls the gated model and
	// blocks mid-task.
	post(0, bulkRows([]int{victim}, 0, 8))
	waitFor(t, "gated prediction to block", func() bool { return calls.Load() >= 1 })
	// A second batch fills the victim's 1-deep queue (no window
	// completes, so it will drain instantly once released).
	post(1, bulkRows([]int{victim}, 8, 4))
	waitFor(t, "victim queue to fill", func() bool { return srv.FleetStats().Queued >= 1 })

	// Overload: the victim shard's slice is shed, the other shard's
	// window is accepted, and the response advises a retry.
	mixed := append(bulkRows([]int{victim}, 12, 4), bulkRows([]int{other}, 0, 8)...)
	resp, rec := postBulk(t, srv, mixed)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overload bulk: status %d body %s", rec.Code, rec.Body)
	}
	if resp.Offered != 12 || resp.Accepted != 8 || resp.Shed != 4 || resp.Rejected != 0 {
		t.Fatalf("overload accounting = %+v", resp.BatchResult)
	}
	if resp.RetryAfterMs < 50 {
		t.Fatalf("retry_after_ms = %d", resp.RetryAfterMs)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After header = %q", ra)
	}

	// Health answers immediately while a worker is wedged and a request
	// is parked in its queue.
	hrec := httptest.NewRecorder()
	srv.handleHealth(hrec, httptest.NewRequest(http.MethodGet, "/api/health", nil))
	if hrec.Code != http.StatusOK {
		t.Fatalf("health under wedge: status %d", hrec.Code)
	}
	var health map[string]interface{}
	if err := json.Unmarshal(hrec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	fl := health["fleet"].(map[string]interface{})
	if fl["queued"].(float64) < 1 || fl["shed"].(float64) != 4 {
		t.Fatalf("health fleet section under wedge = %v", fl)
	}

	armed.Store(false)
	once.Do(func() { close(release) })
	wg.Wait()
	for slot, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("parked bulk %d: status %d", slot, code)
		}
	}
	if results[0].Accepted != 8 || results[1].Accepted != 4 {
		t.Fatalf("parked bulks after release: %+v / %+v", results[0].BatchResult, results[1].BatchResult)
	}
}

// TestFleetRecoveryBitwise crashes a journaling fleet server mid-window
// and rebuilds it from the per-node WALs: chain accounting and the
// rollup ranking must match the pre-crash snapshots exactly.
func TestFleetRecoveryBitwise(t *testing.T) {
	dir := t.TempDir()
	srv := newFleetServer(t, dir, nil)
	nodes := []int{2, 9, 14, 27, 35, 48}

	// 2.5 windows per node: the third window is still forming at the
	// crash, so recovery must rebuild mid-window state too.
	resp, rec := postBulk(t, srv, bulkRows(nodes, 0, 20))
	if rec.Code != http.StatusOK || resp.Accepted != 120 {
		t.Fatalf("bulk: status %d, %+v", rec.Code, resp.BatchResult)
	}
	if err := srv.FleetQuiesce(); err != nil {
		t.Fatal(err)
	}
	before, err := srv.FleetNodes()
	if err != nil {
		t.Fatal(err)
	}
	topkBefore := topkSansApp(t, srv, len(nodes))
	srv.Close()

	srv2 := newFleetServer(t, dir, nil)
	after, err := srv2.FleetNodes()
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("recovered %d nodes, want %d", len(after), len(before))
	}
	for i := range before {
		a, b := before[i], after[i]
		// App attribution travels on live rows, not in the journal; all
		// stream accounting must survive bitwise.
		if a.Node != b.Node || a.Stats != b.Stats || a.Committed != b.Committed ||
			a.Pending != b.Pending || a.Emitted != b.Emitted {
			t.Fatalf("node %d diverged after recovery:\nbefore: %+v\nafter:  %+v", a.Node, a, b)
		}
	}
	topkAfter := topkSansApp(t, srv2, len(nodes))
	if !bytes.Equal(topkBefore, topkAfter) {
		t.Fatalf("rollup diverged after recovery:\nbefore: %s\nafter:  %s", topkBefore, topkAfter)
	}

	// The recovered fleet keeps accepting where the crashed one stopped.
	resp, rec = postBulk(t, srv2, bulkRows(nodes, 20, 4))
	if rec.Code != http.StatusOK || resp.Accepted != 24 {
		t.Fatalf("post-recovery bulk: status %d, %+v", rec.Code, resp.BatchResult)
	}
}

// topkSansApp renders the rollup ranking with app attribution blanked:
// apps travel on live rows, not in the journal, so they are the one
// field recovery legitimately cannot restore.
func topkSansApp(t *testing.T, srv *Server, k int) []byte {
	t.Helper()
	top := srv.fl.roll.TopK(k)
	for i := range top {
		top[i].App = ""
	}
	raw, err := json.Marshal(top)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}
