package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"albadross/internal/active"
	"albadross/internal/dataset"
	"albadross/internal/features"
	"albadross/internal/features/mvts"
	"albadross/internal/fleet"
	"albadross/internal/ml/forest"
	"albadross/internal/stream"
	"albadross/internal/telemetry"
	"albadross/internal/ts"
)

// ingestProblem builds the deterministic window-mode training problem
// the ingest tests share. Every call produces bitwise-identical data,
// so two servers constructed from separate calls train identical
// models — the property the crash-recovery and shadow-replay evidence
// comparisons rest on.
func ingestProblem(t *testing.T) (*dataset.Dataset, *dataset.ALSplit, []telemetry.Metric) {
	t.Helper()
	schema := []telemetry.Metric{{Name: "cpu.user"}, {Name: "mem.active"}, {Name: "net.rx"}}
	ext := mvts.Extractor{}
	classes := []string{"healthy", "cpuoccupy", "memleak"}
	rng := rand.New(rand.NewSource(17))
	d := dataset.New(classes)
	for i := 0; i < 120; i++ {
		label := i % len(classes)
		win := makeWindow(rng, len(schema), 32, label)
		block := &ts.Multivariate{Metrics: make([]ts.Series, len(win))}
		for m := range win {
			block.Metrics[m] = append(ts.Series{}, win[m]...)
		}
		ts.InterpolateAll(block)
		if err := ts.DiffCounters(block, telemetry.CumulativeFlags(schema)); err != nil {
			t.Fatal(err)
		}
		vec := features.ExtractSample(ext, block)
		features.Sanitize(vec)
		if err := d.Add(vec, classes[label], telemetry.RunMeta{App: "BT", Node: i % 4}); err != nil {
			t.Fatal(err)
		}
	}
	split, err := dataset.MakeALSplit(d, dataset.ALSplitConfig{
		TestFraction: 0.3, AnomalyRatio: 0.34, HealthyClass: 0, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Label the whole pool up front: the INITIAL model is then the full
	// champion, so a restarted server recovers its WAL against the same
	// model the crashed server served with — the evidence-hash
	// comparisons depend on that.
	split.Initial = append(split.Initial, split.Pool...)
	split.Pool = nil
	return d, split, schema
}

// ingestTestServer builds an ingest-enabled window-mode server training
// on the full labeled pool (deterministically, so repeated calls serve
// identical champions). walDir roots the node journals; empty disables
// the WAL.
func ingestTestServer(t *testing.T, walDir string, mutate func(*Config)) *Server {
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
		Fleet: FleetConfig{IngestConfig: IngestConfig{
			Shards:          2,
			Window:          32,
			Stride:          16,
			Reorder:         4,
			Gap:             stream.GapAbstain,
			WALDir:          walDir,
			WALSegmentBytes: 4 << 10,
		}},
		observeServed: foldEvidence,
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

// ingestFeed synthesizes a deterministic arrival sequence for one node
// (rows without a node of their own): in-order timestamps with
// occasional adjacent swaps, duplicates and missing (NaN) cells —
// enough disorder to exercise the reordering buffer and gap policy
// without abstaining every window.
func ingestFeed(metrics, steps int, seed int64) []fleet.Row {
	rng := rand.New(rand.NewSource(seed))
	var feed []fleet.Row
	for s := 0; s < steps; s++ {
		vals := make([]float64, metrics)
		for m := range vals {
			vals[m] = 1 + 0.1*rng.NormFloat64()
			if rng.Float64() < 0.03 {
				vals[m] = math.NaN()
			}
		}
		feed = append(feed, fleet.Row{T: s, Values: vals})
	}
	for i := 0; i+1 < len(feed); i += 7 {
		feed[i], feed[i+1] = feed[i+1], feed[i]
	}
	for i := 10; i < len(feed); i += 23 {
		dup := fleet.Row{T: feed[i].T, Values: append([]float64(nil), feed[i].Values...)}
		feed = append(feed[:i+1], append([]fleet.Row{dup}, feed[i+1:]...)...)
	}
	return feed
}

// postNode posts one node's batch: a bulk body whose rows all name the
// node.
func postNode(t *testing.T, srv *Server, node int, rows []fleet.Row) (BulkIngestResponse, *httptest.ResponseRecorder) {
	t.Helper()
	batch := make([]fleet.Row, len(rows))
	for i, r := range rows {
		r.Node = node
		batch[i] = r
	}
	return postBulk(t, srv, batch)
}

// getNode runs GET /api/fleet/node/{id} through the routed handler and
// decodes the view whatever the status (refusals carry only an error).
func getNode(t *testing.T, srv *Server, id string) (FleetNodeResponse, int) {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/fleet/node/"+id, nil))
	var resp FleetNodeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("status %d, undecodable body %q: %v", rec.Code, rec.Body, err)
	}
	return resp, rec.Code
}

// nodeView reads one node's view, which must exist.
func nodeView(t *testing.T, srv *Server, node int) FleetNodeResponse {
	t.Helper()
	view, code := getNode(t, srv, strconv.Itoa(node))
	if code != http.StatusOK {
		t.Fatalf("GET /api/fleet/node/%d: status %d", node, code)
	}
	return view
}

// nodeInfo snapshots one fleet node through the inventory walk.
func nodeInfo(t *testing.T, srv *Server, node int) fleet.NodeInfo {
	t.Helper()
	infos, err := srv.FleetNodes()
	if err != nil {
		t.Fatal(err)
	}
	for _, ni := range infos {
		if ni.Node == node {
			return ni
		}
	}
	t.Fatalf("node %d has no stream (inventory: %+v)", node, infos)
	return fleet.NodeInfo{}
}

// feedIngest streams one node's feed through /api/ingest/bulk in
// fixed-size chunks and returns the node's view after the last one.
func feedIngest(t *testing.T, srv *Server, node int, feed []fleet.Row) FleetNodeResponse {
	t.Helper()
	for start := 0; start < len(feed); start += 40 {
		end := min(start+40, len(feed))
		resp, rec := postNode(t, srv, node, feed[start:end])
		if rec.Code != http.StatusOK {
			t.Fatalf("ingest chunk [%d:%d): status %d", start, end, rec.Code)
		}
		if resp.Accepted != end-start {
			t.Fatalf("ingest chunk [%d:%d): accepted %d", start, end, resp.Accepted)
		}
	}
	return nodeView(t, srv, node)
}

// TestIngestHTTPRoundTrip drives the full HTTP surface: one node's
// readings in through the bulk endpoint, windows and WAL accounting out
// through the node view, health reporting, and the error paths.
func TestIngestHTTPRoundTrip(t *testing.T) {
	srv := ingestTestServer(t, t.TempDir(), nil)
	final := feedIngest(t, srv, 0, ingestFeed(3, 300, 9))

	if final.Committed == 0 || final.Stats.Windows == 0 {
		t.Fatalf("ingest produced no windows: %+v", final)
	}
	if final.WAL == nil || final.WAL.Records == 0 {
		t.Fatalf("no WAL accounting in response: %+v", final)
	}
	if int(final.WAL.Records) != final.Committed+final.Pending+final.Stats.Duplicates+final.Stats.Implausible+final.Stats.Late {
		t.Fatalf("WAL records %d do not account for committed %d + pending %d + rejected %d/%d/%d",
			final.WAL.Records, final.Committed, final.Pending,
			final.Stats.Duplicates, final.Stats.Implausible, final.Stats.Late)
	}

	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()
	var health map[string]interface{}
	getJSON(t, hts, "/api/health", &health)
	if _, ok := health["ingest"]; ok {
		t.Fatalf("health still has a separate ingest section: %v", health)
	}
	fl, ok := health["fleet"].(map[string]interface{})
	if !ok {
		t.Fatalf("health has no fleet section: %v", health)
	}
	if fl["shards"].(float64) != 2 || fl["nodes"].(float64) != 1 || fl["accepted"].(float64) == 0 {
		t.Fatalf("health fleet section = %v", fl)
	}

	// Error paths. A width-screened batch is accepted as a request and
	// names its cause.
	if resp, rec := postNode(t, srv, 0, nil); rec.Code != http.StatusBadRequest || resp.Error == "" {
		t.Fatalf("empty batch: status %d, %+v", rec.Code, resp)
	}
	if resp, rec := postNode(t, srv, 0, []fleet.Row{{T: 1001, Values: []float64{1, 2}}}); rec.Code != http.StatusOK ||
		resp.Accepted != 0 || resp.Rejected != 1 || resp.Error == "" {
		t.Fatalf("width mismatch: status %d, %+v", rec.Code, resp.BatchResult)
	}
	if after := nodeView(t, srv, 0); after.Stats != final.Stats || after.Committed != final.Committed {
		t.Fatalf("a refused batch moved the node: %+v, was %+v", after.NodeInfo, final.NodeInfo)
	}

	// A server without ingest refuses the routes and the evidence APIs.
	plain, _ := newTestServer(t)
	defer plain.Close()
	if _, rec := postNode(t, plain, 0, ingestFeed(3, 2, 1)); rec.Code != http.StatusNotFound {
		t.Fatalf("ingest on plain server: status %d", rec.Code)
	}
	if _, err := plain.EvidenceHash(0); err == nil {
		t.Fatal("EvidenceHash on plain server accepted")
	}
	if _, _, err := plain.ReplayShadowEvidence(0); err == nil {
		t.Fatal("ReplayShadowEvidence on plain server accepted")
	}
	if _, err := srv.EvidenceHash(99); err == nil {
		t.Fatal("EvidenceHash of a node without a stream accepted")
	}
}

// TestIngestConfigValidation exercises the fail-fast paths in New: an
// ingest block with missing prerequisites must refuse the whole server.
func TestIngestConfigValidation(t *testing.T) {
	d, split, schema := ingestProblem(t)
	base := Config{
		Data:     d,
		Split:    split,
		Factory:  forest.NewFactory(forest.Config{NEstimators: 4, MaxDepth: 4, Seed: 3}),
		Strategy: active.Uncertainty{},
		Seed:     4,
	}
	cases := map[string]func(*Config){
		"no schema": func(c *Config) {
			c.Fleet.IngestConfig = IngestConfig{Shards: 1, Window: 32}
		},
		"window too small": func(c *Config) {
			c.Schema, c.Extractor = schema, mvts.Extractor{}
			c.Fleet.IngestConfig = IngestConfig{Shards: 1, Window: 2}
		},
	}
	for name, mut := range cases {
		cfg := base
		mut(&cfg)
		if srv, err := New(cfg); err == nil {
			srv.Close()
			t.Fatalf("%s: accepted", name)
		}
	}

	// WAL-less ingest still answers, just without a wal section.
	noWAL := ingestTestServer(t, "", nil)
	if view := feedIngest(t, noWAL, 0, ingestFeed(3, 40, 1)); view.WAL != nil || view.Committed == 0 {
		t.Fatalf("WAL-less node view = %+v", view)
	}
}

// TestIngestCrashRecoveryResumes is the end-to-end crash-recovery
// contract: a server journals half a feed and "crashes" (Close); a new
// server over the same WAL directory must recover bitwise-identical
// stream state, then produce exactly the evidence and accounting an
// uninterrupted reference server produces over the full feed. Evidence
// hashes fold every (model-space row, champion label) pair, so a single
// ULP of divergence anywhere in recovery fails the test.
func TestIngestCrashRecoveryResumes(t *testing.T) {
	feed := ingestFeed(3, 400, 31)
	half := len(feed) / 2

	ref := ingestTestServer(t, t.TempDir(), nil)
	refFinal := feedIngest(t, ref, 0, feed)
	refHash, err := ref.EvidenceHash(0)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	a := ingestTestServer(t, dir, nil)
	aResp := feedIngest(t, a, 0, feed[:half])
	aHash, err := a.EvidenceHash(0)
	if err != nil {
		t.Fatal(err)
	}
	a.Close() // the "crash": journals are synced per request

	b := ingestTestServer(t, dir, nil)
	bNode := nodeInfo(t, b, 0)
	if got := bNode.Stats; got != aResp.Stats {
		t.Fatalf("recovered stats diverged:\ncrashed   %+v\nrecovered %+v", aResp.Stats, got)
	}
	if got := bNode.Committed; got != aResp.Committed {
		t.Fatalf("recovered committed %d, crashed server had %d", got, aResp.Committed)
	}
	if got := bNode.Pending; got != aResp.Pending {
		t.Fatalf("recovered pending %d, crashed server had %d", got, aResp.Pending)
	}
	bHash, err := b.EvidenceHash(0)
	if err != nil {
		t.Fatal(err)
	}
	if bHash != aHash {
		t.Fatalf("recovery evidence hash %x, live was %x", bHash, aHash)
	}

	// The recovered server ingests the rest of the feed and must land
	// exactly where the uninterrupted reference landed.
	bFinal := feedIngest(t, b, 0, feed[half:])
	if bFinal.Stats != refFinal.Stats || bFinal.Committed != refFinal.Committed || bFinal.Pending != refFinal.Pending {
		t.Fatalf("post-recovery state diverged from the uninterrupted reference:\nrecovered %+v committed %d pending %d\nreference %+v committed %d pending %d",
			bFinal.Stats, bFinal.Committed, bFinal.Pending, refFinal.Stats, refFinal.Committed, refFinal.Pending)
	}
	bHash, err = b.EvidenceHash(0)
	if err != nil {
		t.Fatal(err)
	}
	if bHash != refHash {
		t.Fatalf("final evidence hash %x after crash+recovery, reference %x", bHash, refHash)
	}
	if bFinal.WAL.Records != refFinal.WAL.Records {
		t.Fatalf("WAL holds %d records after recovery, reference %d", bFinal.WAL.Records, refFinal.WAL.Records)
	}
}

// TestIngestShadowReplayVetting is the lifecycle-integration contract:
// challenger vetting replays the same WAL slice the champion served.
// The replayed evidence hash must equal the live hash (the PR 6
// agreement gate sees identical (row, champion label) evidence), and
// the challenger's trial must actually absorb the replayed rows.
func TestIngestShadowReplayVetting(t *testing.T) {
	srv := ingestTestServer(t, t.TempDir(), func(c *Config) {
		c.Lifecycle = true
		c.ShadowMinRows = 1 << 20 // keep the trial open for the whole test
		c.ShadowMaxWait = time.Hour
	})

	feedIngest(t, srv, 0, ingestFeed(3, 300, 55))
	liveHash, err := srv.EvidenceHash(0)
	if err != nil {
		t.Fatal(err)
	}
	if liveHash == 0 {
		t.Fatal("no live evidence accumulated; the vetting check is vacuous")
	}

	// A challenger enters shadow evaluation, then is vetted against the
	// journaled slice instead of waiting for fresh traffic.
	view := srv.training()
	x, y := view.x, view.y
	cand, err := srv.trainCandidate(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.StartChallenger(cand, "wal-vetting"); err != nil {
		t.Fatal(err)
	}

	// The trial's own counters belong to the queue worker; observe the
	// scored-row flow through the atomic shadow_rows_total counter
	// instead (bumped by scoreTrial exactly once per absorbed row).
	scoredBase := shadowRows.Value()
	rows, replayHash, err := srv.ReplayShadowEvidence(0)
	if err != nil {
		t.Fatal(err)
	}
	if rows == 0 {
		t.Fatal("shadow replay delivered no evidence")
	}
	if replayHash != liveHash {
		t.Fatalf("replayed evidence hash %x, champion served %x — the agreement gate would judge different evidence", replayHash, liveHash)
	}
	waitFor(t, "trial to absorb the replayed evidence", func() bool {
		return shadowRows.Value() >= scoredBase+uint64(rows)
	})
	if st := srv.lc.challengerState(); st == nil {
		t.Fatal("challenger left trial during vetting")
	}

	// Replay is idempotent on the log and on the evidence it derives.
	rows2, replayHash2, err := srv.ReplayShadowEvidence(0)
	if err != nil {
		t.Fatal(err)
	}
	if rows2 != rows || replayHash2 != replayHash {
		t.Fatalf("second replay diverged: %d rows hash %x, first was %d rows hash %x", rows2, replayHash2, rows, replayHash)
	}

	// Errors.
	if _, _, err := srv.ReplayShadowEvidence(99); err == nil {
		t.Fatal("shadow replay of a node without a stream accepted")
	}
	noWAL := ingestTestServer(t, "", nil)
	feedIngest(t, noWAL, 0, ingestFeed(3, 8, 1))
	if _, _, err := noWAL.ReplayShadowEvidence(0); err == nil {
		t.Fatal("shadow replay without a WAL accepted")
	}
}

// TestIngestPartialBatch pins one node's batch semantics on the bulk
// wire: a refused reading does not stop the batch — every other reading
// is journaled, applied and counted, the response carries accepted,
// rejected and the refusal's cause, and the status stays 200 even when
// nothing landed. Admission is the coordinator's: any id until the
// shard worker's node capacity is reached.
func TestIngestPartialBatch(t *testing.T) {
	srv := ingestTestServer(t, t.TempDir(), func(c *Config) {
		c.Fleet.Shards = 1
		c.Fleet.MaxNodesPerShard = 2
	})
	feed := ingestFeed(3, 4, 7)[:4]
	bad := fleet.Row{T: 2, Values: []float64{1, 2}} // wrong width, mid-batch
	batch := []fleet.Row{feed[0], feed[1], bad, feed[2], feed[3]}

	resp, rec := postNode(t, srv, 41, batch)
	if rec.Code != http.StatusOK {
		t.Fatalf("partial batch: status %d, %+v", rec.Code, resp.BatchResult)
	}
	if resp.Nodes != 1 || resp.Accepted != 4 || resp.Rejected != 1 || resp.Shed != 0 || resp.Error == "" {
		t.Fatalf("partial batch accounting = %+v", resp.BatchResult)
	}
	// The readings after the refused one were journaled and applied.
	view := nodeView(t, srv, 41)
	if view.Node != 41 || view.WAL == nil || view.WAL.Records != 4 || view.Stats.Pushed+view.Stats.Duplicates+view.Stats.Late != 4 {
		t.Fatalf("accepted readings not all journaled and applied: %+v", view.NodeInfo)
	}
	if st := srv.FleetStats(); st.Offered != 5 || st.Accepted != 4 || st.Rejected != 1 {
		t.Fatalf("coordinator accounting = %+v", st)
	}

	// Nothing accepted: still 200, with the counts and a cause.
	resp, rec = postNode(t, srv, 41, []fleet.Row{bad, bad})
	if rec.Code != http.StatusOK || resp.Accepted != 0 || resp.Rejected != 2 || resp.Error == "" {
		t.Fatalf("all-refused batch: status %d, %+v", rec.Code, resp.BatchResult)
	}

	// A second node is admitted, a third exceeds the worker's capacity.
	if resp, rec = postNode(t, srv, 1000003, feed); rec.Code != http.StatusOK || resp.Accepted != 4 {
		t.Fatalf("second node: status %d, %+v", rec.Code, resp.BatchResult)
	}
	resp, rec = postNode(t, srv, 7, feed)
	if rec.Code != http.StatusOK || resp.Accepted != 0 || resp.Rejected != 4 || len(resp.PerShard) != 1 ||
		!strings.Contains(resp.PerShard[0].Error, "capacity") {
		t.Fatalf("node beyond MaxNodesPerShard: status %d, %+v", rec.Code, resp.BatchResult)
	}
	if _, code := getNode(t, srv, "7"); code != http.StatusNotFound {
		t.Fatalf("refused node has a view: status %d", code)
	}
}

// TestIngestBodyLimit checks the ingest endpoint stops reading at
// maxBody and answers 413 instead of buffering whatever a client
// sends: one byte over the limit — of JSON whitespace, so nothing else
// about the body can be what is refused — is too many.
func TestIngestBodyLimit(t *testing.T) {
	srv := ingestTestServer(t, "", nil)
	body := strings.Repeat(" ", maxBody+1)
	rec := httptest.NewRecorder()
	srv.handleIngestBulk(rec, httptest.NewRequest(http.MethodPost, "/api/ingest/bulk", strings.NewReader(body)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("a %d-byte body: status %d body %s", len(body), rec.Code, rec.Body)
	}
}

// TestDiagnoseWindowEqualsIngestWindow pins the single window → model
// space path: one window posted to /api/diagnose {"windows": …} and the
// same rows pushed through /api/ingest/bulk under GapInterpolate yield
// the bitwise-identical label and confidence (read from the node view's
// last diagnosis), clean and with missing cells.
// Both go through stream.BlockVector, sanitation, toModelSpace and
// classify; a second copy of any of those steps would have to match to
// the last bit to keep this green.
func TestDiagnoseWindowEqualsIngestWindow(t *testing.T) {
	srv := ingestTestServer(t, "", func(c *Config) {
		c.Fleet.Gap = stream.GapInterpolate
		c.Fleet.Stride, c.Fleet.Reorder = 32, 0
	})
	for node, gappy := range []bool{false, true} {
		rng := rand.New(rand.NewSource(int64(31 + node)))
		win := makeWindow(rng, 3, 32, 1+node) // metric-major
		if gappy {
			for _, cell := range [][2]int{{0, 0}, {1, 7}, {1, 8}, {2, 31}} {
				win[cell[0]][cell[1]] = math.NaN()
			}
		}
		readings := make([]fleet.Row, 32)
		for s := range readings {
			readings[s] = fleet.Row{T: s, Values: fleet.Values{win[0][s], win[1][s], win[2][s]}}
		}
		if resp, rec := postNode(t, srv, node, readings); rec.Code != http.StatusOK || resp.Accepted != 32 {
			t.Fatalf("gappy=%v ingest: status %d, %+v", gappy, rec.Code, resp.BatchResult)
		}
		want := nodeView(t, srv, node).Rollup
		if want.Windows != 1 || want.LastAbstained || want.LastWindowEnd != 31 {
			t.Fatalf("gappy=%v: node view %+v, want one diagnosed window", gappy, want)
		}

		var got DiagnoseResponse
		req := DiagnoseRequest{Windows: [][][]float64{win}}
		if gappy {
			// A plain JSON float array cannot carry NaN (null decodes as
			// 0), so the gappy window enters one step past the decoder.
			rows, err := srv.requestRows(&req)
			if err != nil {
				t.Fatal(err)
			}
			probs, sn, err := srv.classify(rows, false)
			if err != nil {
				t.Fatal(err)
			}
			got = diagnoses(probs, sn)[0]
		} else {
			raw, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			srv.handleDiagnose(rec, httptest.NewRequest(http.MethodPost, "/api/diagnose", bytes.NewReader(raw)))
			var batch BatchDiagnoseResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &batch); err != nil || len(batch.Results) != 1 {
				t.Fatalf("diagnose: status %d body %s", rec.Code, rec.Body)
			}
			got = batch.Results[0]
		}
		if got.Label != want.LastLabel || math.Float64bits(got.Confidence) != math.Float64bits(want.LastConfidence) {
			t.Fatalf("gappy=%v: /api/diagnose says %q %v, the ingest window %q %v",
				gappy, got.Label, got.Confidence, want.LastLabel, want.LastConfidence)
		}
	}
}

// walBytes reads one node's journal directory: segment name -> bytes.
func walBytes(t *testing.T, root string, node int) map[string][]byte {
	t.Helper()
	dir := fleet.NodeWALDir(root, node)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = raw
	}
	return out
}

// TestIngestEndpointsConcurrently hammers one coordinator through the
// ingest endpoint, the node view and the evidence hook at once (run
// under -race): each goroutine owns its nodes, every request lands or
// is shed with 429, every node view is read in one pause of its worker
// (emitted == windows_total), and the coordinator's accounting identity
// holds at the end.
func TestIngestEndpointsConcurrently(t *testing.T) {
	srv := ingestTestServer(t, t.TempDir(), nil)
	const workers, rounds, chunk = 4, 6, 16
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(viewed, hashed int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				rows := make([]fleet.Row, chunk)
				for i := range rows {
					rows[i] = fleet.Row{T: r*chunk + i, Values: fleet.Values{1 + 0.01*float64(i), 2, 0.5}}
				}
				for _, node := range []int{viewed, hashed} {
					if resp, rec := postNode(t, srv, node, rows); rec.Code != http.StatusOK && rec.Code != http.StatusTooManyRequests {
						t.Errorf("node %d round %d: status %d, %+v", node, r, rec.Code, resp.BatchResult)
					}
				}
				view, code := getNode(t, srv, strconv.Itoa(viewed))
				switch {
				case code == http.StatusNotFound && srv.FleetStats().Shed > 0:
				case code != http.StatusOK:
					t.Errorf("node view %d round %d: status %d", viewed, r, code)
				case view.Emitted != view.Rollup.Windows:
					t.Errorf("node view %d round %d: emitted %d, windows_total %d", viewed, r, view.Emitted, view.Rollup.Windows)
				}
				if _, err := srv.EvidenceHash(hashed); err != nil && srv.FleetStats().Shed == 0 {
					t.Errorf("EvidenceHash(%d): %v", hashed, err)
				}
			}
		}(100+g, 200+g)
	}
	wg.Wait()
	if err := srv.FleetQuiesce(); err != nil {
		t.Fatal(err)
	}
	st := srv.FleetStats()
	if st.Offered != workers*rounds*chunk*2 || st.Offered != st.Accepted+st.Rejected+st.Shed || st.Rejected != 0 {
		t.Fatalf("accounting after the storm: %+v", st)
	}
}

// TestEvidenceFoldMatchesFNV pins the inline evidence fold to hash/fnv's
// FNV-1a 64 over the same bytes — the previous state as one
// little-endian word, each float's bits, then the label's bytes — at
// every step of a chain of folds over rows with NaN, -0 and ±Inf cells,
// empty rows, and empty and non-ASCII labels.
func TestEvidenceFoldMatchesFNV(t *testing.T) {
	oracle := func(h uint64, row []float64, label string) uint64 {
		hs := fnv.New64a()
		var buf [8]byte
		if h == 0 {
			h = 14695981039346656037
		}
		binary.LittleEndian.PutUint64(buf[:], h)
		hs.Write(buf[:])
		for _, v := range row {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			hs.Write(buf[:])
		}
		hs.Write([]byte(label))
		return hs.Sum64()
	}
	rng := rand.New(rand.NewSource(13))
	specials := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1)}
	labels := []string{"", "healthy", "memleak", "cpuoccupy", "ürün", "内存泄漏"}
	var got, want uint64
	for step := 0; step < 2000; step++ {
		row := make([]float64, rng.Intn(40))
		for j := range row {
			row[j] = rng.NormFloat64()
			if rng.Intn(5) == 0 {
				row[j] = specials[rng.Intn(len(specials))]
			}
		}
		label := labels[rng.Intn(len(labels))]
		got, want = evidenceFold(got, row, label), oracle(want, row, label)
		if got != want {
			t.Fatalf("step %d: evidenceFold = %#x, hash/fnv = %#x", step, got, want)
		}
	}
}
