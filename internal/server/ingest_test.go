package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
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
			MaxMissing:      0.5,
			WALDir:          walDir,
			WALSegmentBytes: 4 << 10,
		}},
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

// ingestFeed synthesizes a deterministic arrival sequence: in-order
// timestamps with occasional adjacent swaps, duplicates and missing
// (NaN) cells — enough disorder to exercise the reordering buffer and
// gap policy without abstaining every window.
func ingestFeed(metrics, steps int, seed int64) []IngestReading {
	rng := rand.New(rand.NewSource(seed))
	var feed []IngestReading
	for s := 0; s < steps; s++ {
		vals := make([]float64, metrics)
		for m := range vals {
			vals[m] = 1 + 0.1*rng.NormFloat64()
			if rng.Float64() < 0.03 {
				vals[m] = math.NaN()
			}
		}
		feed = append(feed, IngestReading{T: s, Values: vals})
	}
	for i := 0; i+1 < len(feed); i += 7 {
		feed[i], feed[i+1] = feed[i+1], feed[i]
	}
	for i := 10; i < len(feed); i += 23 {
		dup := IngestReading{T: feed[i].T, Values: append([]float64(nil), feed[i].Values...)}
		feed = append(feed[:i+1], append([]IngestReading{dup}, feed[i+1:]...)...)
	}
	return feed
}

// postIngest runs one /api/ingest request directly against the handler
// and decodes the response whatever the status (refusals before the
// offer carry only an error string, which decodes into Error).
func postIngest(t *testing.T, srv *Server, shard int, readings []IngestReading) (IngestResponse, int) {
	t.Helper()
	raw, err := json.Marshal(IngestRequest{Shard: shard, Readings: readings})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.handleIngest(rec, httptest.NewRequest(http.MethodPost, "/api/ingest", bytes.NewReader(raw)))
	var resp IngestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("status %d, undecodable body %q: %v", rec.Code, rec.Body, err)
	}
	return resp, rec.Code
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

// feedIngest streams a feed through /api/ingest in fixed-size chunks
// and returns the final response.
func feedIngest(t *testing.T, srv *Server, shard int, feed []IngestReading) IngestResponse {
	t.Helper()
	var last IngestResponse
	for start := 0; start < len(feed); start += 40 {
		end := start + 40
		if end > len(feed) {
			end = len(feed)
		}
		resp, code := postIngest(t, srv, shard, feed[start:end])
		if code != http.StatusOK {
			t.Fatalf("ingest chunk [%d:%d): status %d", start, end, code)
		}
		if resp.Accepted != end-start {
			t.Fatalf("ingest chunk [%d:%d): accepted %d", start, end, resp.Accepted)
		}
		last = resp
	}
	return last
}

// TestIngestHTTPRoundTrip drives the full HTTP surface: readings in,
// diagnoses and WAL accounting out, health reporting, and the error
// paths.
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

	// Error paths.
	if resp, code := postIngest(t, srv, -1, ingestFeed(3, 2, 1)); code != http.StatusBadRequest || resp.Error == "" {
		t.Fatalf("negative shard: status %d, %+v", code, resp)
	}
	if _, code := postIngest(t, srv, 0, nil); code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d", code)
	}
	if resp, code := postIngest(t, srv, 0, []IngestReading{{T: 1001, Values: []float64{1, 2}}}); code != http.StatusBadRequest ||
		resp.Accepted != 0 || resp.Rejected != 1 || resp.Error == "" {
		t.Fatalf("width mismatch: status %d, %+v", code, resp)
	}
	resp, err := http.Get(hts.URL + "/api/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /api/ingest: status %d", resp.StatusCode)
	}

	// A server without ingest refuses the route and the evidence APIs.
	plain, _ := newTestServer(t)
	defer plain.Close()
	if _, code := postIngest(t, plain, 0, ingestFeed(3, 2, 1)); code != http.StatusNotFound {
		t.Fatalf("ingest on plain server: status %d", code)
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
	if resp := feedIngest(t, noWAL, 0, ingestFeed(3, 40, 1)); resp.WAL != nil || resp.Committed == 0 {
		t.Fatalf("WAL-less ingest response = %+v", resp)
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
		c.TriggerCooldown = time.Hour
	})
	// Freeze the drift trigger: this test owns the challenger slot.
	srv.lc.cooldownEnd.Store(time.Now().Add(time.Hour).UnixNano())

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
	x, y := srv.training()
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

// TestIngestPartialBatch pins the unified path's batch semantics: a
// refused reading no longer stops the batch — every other reading is
// journaled, applied and counted, the response carries accepted and
// rejected, and 400 is reserved for a batch nothing of which landed.
// Admission is the coordinator's: any non-negative id until the shard
// worker's node capacity is reached.
func TestIngestPartialBatch(t *testing.T) {
	srv := ingestTestServer(t, t.TempDir(), func(c *Config) {
		c.Fleet.Shards = 1
		c.Fleet.MaxNodesPerShard = 2
	})
	feed := ingestFeed(3, 4, 7)[:4]
	bad := IngestReading{T: 2, Values: []float64{1, 2}} // wrong width, mid-batch
	batch := []IngestReading{feed[0], feed[1], bad, feed[2], feed[3]}

	resp, code := postIngest(t, srv, 41, batch)
	if code != http.StatusOK {
		t.Fatalf("partial batch: status %d, %+v", code, resp)
	}
	if resp.Shard != 41 || resp.Accepted != 4 || resp.Rejected != 1 || resp.Shed != 0 {
		t.Fatalf("partial batch accounting = %+v", resp)
	}
	// The readings after the refused one were journaled and applied.
	if resp.WAL == nil || resp.WAL.Records != 4 || resp.Stats.Pushed+resp.Stats.Duplicates+resp.Stats.Late != 4 {
		t.Fatalf("accepted readings not all journaled and applied: %+v", resp)
	}
	if st := srv.FleetStats(); st.Offered != 5 || st.Accepted != 4 || st.Rejected != 1 {
		t.Fatalf("coordinator accounting = %+v", st)
	}

	// Nothing accepted: 400, still with the counts and a cause.
	resp, code = postIngest(t, srv, 41, []IngestReading{bad, bad})
	if code != http.StatusBadRequest || resp.Accepted != 0 || resp.Rejected != 2 || resp.Error == "" {
		t.Fatalf("all-refused batch: status %d, %+v", code, resp)
	}

	// A second node is admitted, a third exceeds the worker's capacity.
	if resp, code = postIngest(t, srv, 1000003, feed); code != http.StatusOK || resp.Accepted != 4 {
		t.Fatalf("second node: status %d, %+v", code, resp)
	}
	resp, code = postIngest(t, srv, 7, feed)
	if code != http.StatusBadRequest || resp.Accepted != 0 || resp.Rejected != 4 || !strings.Contains(resp.Error, "capacity") {
		t.Fatalf("node beyond MaxNodesPerShard: status %d, %+v", code, resp)
	}
}

// TestIngestBodyLimit checks both ingest endpoints stop reading at
// maxBody and answer 413 instead of buffering whatever a client
// sends: one byte over the limit — of JSON whitespace, so nothing else
// about the body can be what is refused — is too many.
func TestIngestBodyLimit(t *testing.T) {
	srv := ingestTestServer(t, "", nil)
	body := strings.Repeat(" ", maxBody+1)
	for path, handler := range map[string]http.HandlerFunc{
		"/api/ingest":      srv.handleIngest,
		"/api/ingest/bulk": srv.handleIngestBulk,
	} {
		rec := httptest.NewRecorder()
		handler(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s with a %d-byte body: status %d body %s", path, len(body), rec.Code, rec.Body)
		}
	}
}

// TestDiagnoseWindowEqualsIngestWindow pins the single window → model
// space path: one window posted to /api/diagnose {"windows": …} and the
// same rows pushed through /api/ingest under GapInterpolate yield the
// bitwise-identical label and confidence, clean and with missing cells.
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
		readings := make([]IngestReading, 32)
		for s := range readings {
			readings[s] = IngestReading{T: s, Values: fleet.Values{win[0][s], win[1][s], win[2][s]}}
		}
		resp, code := postIngest(t, srv, node, readings)
		if code != http.StatusOK || len(resp.Diagnoses) != 1 || resp.Diagnoses[0].Abstained {
			t.Fatalf("gappy=%v ingest: status %d, %+v", gappy, code, resp)
		}
		want := resp.Diagnoses[0]

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
		if got.Label != want.Label || math.Float64bits(got.Confidence) != math.Float64bits(want.Confidence) {
			t.Fatalf("gappy=%v: /api/diagnose says %q %v, /api/ingest %q %v",
				gappy, got.Label, got.Confidence, want.Label, want.Confidence)
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

// TestIngestEqualsOneNodeBulk is the collapse's equivalence contract:
// /api/ingest is the one-node special case of /api/ingest/bulk, so the
// same readings through either endpoint must leave the node with
// identical stream accounting, evidence fingerprint, rollup entry and
// journal bytes. The bulk-only node also closes the evidence loop —
// live hash == replayed hash — which the per-shard subsystem could
// never offer a fleet node.
func TestIngestEqualsOneNodeBulk(t *testing.T) {
	const node = 23
	feed := ingestFeed(3, 300, 77)
	dirA, dirB := t.TempDir(), t.TempDir()
	a := ingestTestServer(t, dirA, nil)
	b := ingestTestServer(t, dirB, nil)

	var viaIngest IngestResponse
	for start := 0; start < len(feed); start += 40 {
		end := min(start+40, len(feed))
		viaIngest = feedIngest(t, a, node, feed[start:end])
		rows := make([]fleet.Row, 0, end-start)
		for _, rd := range feed[start:end] {
			rows = append(rows, fleet.Row{Node: node, T: rd.T, Values: rd.Values})
		}
		if resp, rec := postBulk(t, b, rows); rec.Code != http.StatusOK || resp.Accepted != end-start {
			t.Fatalf("bulk chunk [%d:%d): status %d, %+v", start, end, rec.Code, resp.BatchResult)
		}
	}
	if viaIngest.Stats.Windows == 0 {
		t.Fatal("feed completed no windows; the equivalence check is vacuous")
	}

	ia, ib := nodeInfo(t, a, node), nodeInfo(t, b, node)
	if ia.Stats != ib.Stats || ia.Committed != ib.Committed || ia.Pending != ib.Pending || ia.Emitted != ib.Emitted {
		t.Fatalf("node state diverged:\n/api/ingest      %+v\n/api/ingest/bulk %+v", ia, ib)
	}
	if ia.Stats != viaIngest.Stats || ia.Committed != viaIngest.Committed || ia.Pending != viaIngest.Pending {
		t.Fatalf("ingest response %+v disagrees with the inventory %+v", viaIngest, ia)
	}
	if *ia.WAL != *ib.WAL || *ia.WAL != *viaIngest.WAL {
		t.Fatalf("journal accounting diverged: %+v vs %+v (response %+v)", ia.WAL, ib.WAL, viaIngest.WAL)
	}
	ha, err := a.EvidenceHash(node)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.EvidenceHash(node)
	if err != nil {
		t.Fatal(err)
	}
	if ha == 0 || ha != hb {
		t.Fatalf("evidence hash %x via /api/ingest, %x via bulk", ha, hb)
	}
	if ra, rb := topkSansApp(t, a, 4), topkSansApp(t, b, 4); !bytes.Equal(ra, rb) {
		t.Fatalf("rollup diverged:\n/api/ingest      %s\n/api/ingest/bulk %s", ra, rb)
	}
	wa, wb := walBytes(t, dirA, node), walBytes(t, dirB, node)
	if len(wa) == 0 || len(wa) != len(wb) {
		t.Fatalf("journal segments: %d via /api/ingest, %d via bulk", len(wa), len(wb))
	}
	for name, raw := range wa {
		if !bytes.Equal(raw, wb[name]) {
			t.Fatalf("journal segment %s differs between the endpoints", name)
		}
	}

	rows, replayed, err := b.ReplayShadowEvidence(node)
	if err != nil {
		t.Fatal(err)
	}
	if rows == 0 || replayed != hb {
		t.Fatalf("bulk-fed node: replayed %d rows to hash %x, live hash %x", rows, replayed, hb)
	}
}

// TestIngestEndpointsConcurrently hammers one coordinator through both
// endpoints and the evidence hook at once (run under -race): each
// goroutine owns its nodes, every request lands or is shed with 429,
// and the coordinator's accounting identity holds at the end.
func TestIngestEndpointsConcurrently(t *testing.T) {
	srv := ingestTestServer(t, t.TempDir(), nil)
	const workers, rounds, chunk = 4, 6, 16
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(single, bulk int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				readings := make([]IngestReading, chunk)
				rows := make([]fleet.Row, chunk)
				for i := range readings {
					readings[i] = IngestReading{T: r*chunk + i, Values: fleet.Values{1 + 0.01*float64(i), 2, 0.5}}
					rows[i] = fleet.Row{Node: bulk, T: readings[i].T, Values: readings[i].Values}
				}
				if resp, code := postIngest(t, srv, single, readings); code != http.StatusOK && code != http.StatusTooManyRequests {
					t.Errorf("/api/ingest node %d round %d: status %d, %+v", single, r, code, resp)
				}
				if resp, rec := postBulk(t, srv, rows); rec.Code != http.StatusOK && rec.Code != http.StatusTooManyRequests {
					t.Errorf("/api/ingest/bulk node %d round %d: status %d, %+v", bulk, r, rec.Code, resp.BatchResult)
				}
				if _, err := srv.EvidenceHash(bulk); err != nil && srv.FleetStats().Shed == 0 {
					t.Errorf("EvidenceHash(%d): %v", bulk, err)
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
