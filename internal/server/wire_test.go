package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"albadross/internal/fleet"
)

// sameWireRows compares decoded rows field by field, values bit for bit
// with NaN equal to NaN.
func sameWireRows(a, b []fleet.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Node != b[i].Node || a[i].App != b[i].App || a[i].T != b[i].T || len(a[i].Values) != len(b[i].Values) {
			return false
		}
		for j, v := range a[i].Values {
			w := b[i].Values[j]
			if math.Float64bits(v) != math.Float64bits(w) && !(math.IsNaN(v) && math.IsNaN(w)) {
				return false
			}
		}
	}
	return true
}

// readingRows is what /api/ingest offers for a decoded IngestRequest:
// its readings as rows without a node.
func readingRows(req IngestRequest) []fleet.Row {
	rows := make([]fleet.Row, len(req.Readings))
	for i, rd := range req.Readings {
		rows[i] = fleet.Row{T: rd.T, Values: rd.Values}
	}
	return rows
}

// FuzzIngestWireDecode holds the one-pass ingest wire decoder to
// encoding/json on the real request types: every body, through both
// decoders, must get json.Unmarshal's verdict into a fresh
// BulkIngestRequest or IngestRequest and, when accepted, bitwise the
// same rows (and shard) — whether the Wire is fresh or has decoded
// other batches of both shapes before. The committed corpus
// (testdata/fuzz/FuzzIngestWireDecode/) holds one body per parity edge
// and replays in tier 1.
func FuzzIngestWireDecode(f *testing.F) {
	for _, seed := range []string{
		`{"rows":[{"node":1,"app":"BT","t":2,"values":[1,null,-2.5e-3]},{"node":2,"t":2,"values":[0.1,2,3]}]}`,
		`{"shard":7,"readings":[{"t":3,"values":[1,2,null]},{"t":4,"values":[1e-3,5,6]}]}`,
	} {
		f.Add([]byte(seed))
	}
	dirty := func(t *testing.T) *fleet.Wire {
		w := new(fleet.Wire)
		if _, err := w.DecodeBulk([]byte(`{"rows":[{"node":9,"app":"old","t":4,"values":[1,2,3]},{"node":8,"app":"x","t":5,"values":[null]},{"node":7,"t":6}]}`)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := w.DecodeNode([]byte(`{"shard":3,"readings":[{"t":1,"values":[1,2]},{"t":2,"values":[3]},{"t":8}]}`)); err != nil {
			t.Fatal(err)
		}
		return w
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var bulk BulkIngestRequest
		bulkErr := json.Unmarshal(body, &bulk)
		var node IngestRequest
		nodeErr := json.Unmarshal(body, &node)
		for _, w := range []*fleet.Wire{new(fleet.Wire), dirty(t)} {
			rows, err := w.DecodeBulk(body)
			if (err == nil) != (bulkErr == nil) || err == nil && !sameWireRows(rows, bulk.Rows) {
				t.Fatalf("bulk body %q: wire %+v (err %v), encoding/json %+v (err %v)", body, rows, err, bulk.Rows, bulkErr)
			}
			shard, rows, err := w.DecodeNode(body)
			if (err == nil) != (nodeErr == nil) || err == nil && (shard != node.Shard || !sameWireRows(rows, readingRows(node))) {
				t.Fatalf("node body %q: wire shard %d %+v (err %v), encoding/json shard %d %+v (err %v)",
					body, shard, rows, err, node.Shard, readingRows(node), nodeErr)
			}
		}
	})
}

// TestIngestTrailingDataRefused pins the rule both ingest endpoints
// share with json.Unmarshal: nothing but whitespace may follow the
// object, so a second object is refused with the first instead of
// vanishing from every count (offered, accepted, rejected, shed) behind
// a 200.
func TestIngestTrailingDataRefused(t *testing.T) {
	srv := ingestTestServer(t, "", nil)
	bulk := `{"rows":[{"node":1,"t":0,"values":[1,2,3]}]}`
	single := `{"shard":2,"readings":[{"t":0,"values":[1,2,3]}]}`
	for _, tc := range []struct {
		path    string
		handler http.HandlerFunc
		body    string
		want    int
	}{
		{"/api/ingest/bulk", srv.handleIngestBulk, bulk + `{"rows":[{"node":3,"t":0,"values":[1,2,3]}]}`, http.StatusBadRequest},
		{"/api/ingest/bulk", srv.handleIngestBulk, bulk + `]`, http.StatusBadRequest},
		{"/api/ingest/bulk", srv.handleIngestBulk, bulk + ` x`, http.StatusBadRequest},
		{"/api/ingest/bulk", srv.handleIngestBulk, bulk + " \n", http.StatusOK},
		{"/api/ingest", srv.handleIngest, single + `{"shard":4,"readings":[{"t":0,"values":[1,2,3]}]}`, http.StatusBadRequest},
		{"/api/ingest", srv.handleIngest, single + `}`, http.StatusBadRequest},
		{"/api/ingest", srv.handleIngest, single + ` 0`, http.StatusBadRequest},
		{"/api/ingest", srv.handleIngest, single + "\t\r\n", http.StatusOK},
	} {
		rec := httptest.NewRecorder()
		tc.handler(rec, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)))
		if rec.Code != tc.want {
			t.Errorf("%s %q: status %d, want %d (%s)", tc.path, tc.body, rec.Code, tc.want, rec.Body)
		}
	}
	if st := srv.FleetStats(); st.Offered != 2 || st.Accepted != 2 {
		t.Fatalf("only the two whitespace-terminated bodies should reach the fleet: %+v", st)
	}
}

// TestIngestNestingBounded sends both ingest endpoints a maxBody body of
// '[' inside an unknown field: the decoder stops at encoding/json's
// depth limit and answers 400, without reading the nesting into memory
// or recursing through it.
func TestIngestNestingBounded(t *testing.T) {
	srv := ingestTestServer(t, "", nil)
	head := `{"x":`
	body := head + strings.Repeat("[", maxBody-len(head))
	for path, handler := range map[string]http.HandlerFunc{
		"/api/ingest":      srv.handleIngest,
		"/api/ingest/bulk": srv.handleIngestBulk,
	} {
		rec := httptest.NewRecorder()
		handler(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "depth") {
			t.Fatalf("%s with %d bytes of nesting: status %d body %.200s", path, len(body), rec.Code, rec.Body)
		}
	}
}

// pooledBodies builds a feed alternating three body shapes over the
// same nodes — a wide bulk batch with apps and missing cells, a short
// bulk batch in another node order without apps, and one node's
// readings — with per-node timestamps advancing across all of them, so
// pooled rows are reused across shapes and lengths.
func pooledBodies(t *testing.T, steps int) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	next := map[int]int{}
	reading := func(node int) fleet.Row {
		v := fleet.Values{1 + 0.1*rng.NormFloat64(), 2 + rng.Float64(), 0.5}
		if rng.Intn(20) == 0 {
			v[rng.Intn(3)] = math.NaN()
		}
		r := fleet.Row{Node: node, T: next[node], Values: v}
		next[node]++
		return r
	}
	var bodies [][]byte
	for s := 0; s < steps; s++ {
		var body any
		switch s % 3 {
		case 0:
			var rows []fleet.Row
			for r := 0; r < 3; r++ {
				for _, n := range []int{3, 7, 11, 12, 20, 21} {
					row := reading(n)
					row.App = testApp(n + s/3)
					rows = append(rows, row)
				}
			}
			body = BulkIngestRequest{Rows: rows}
		case 1:
			var rows []fleet.Row
			for _, n := range []int{21, 12, 7} {
				rows = append(rows, reading(n), reading(n))
			}
			body = BulkIngestRequest{Rows: rows}
		default:
			req := IngestRequest{Shard: 11}
			for r := 0; r < 5; r++ {
				row := reading(11)
				req.Readings = append(req.Readings, IngestReading{T: row.T, Values: row.Values})
			}
			body = req
		}
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, raw)
	}
	return bodies
}

// TestPooledIngestMatchesFreshDecode runs the pooled path under
// concurrency (and -race): two clients post each body of an
// alternating feed at the same time, so every node sees each body twice
// (the second copy arrives late and is journaled and counted as such,
// whichever client wins). A second server is fed the same bodies
// sequentially, each decoded afresh by encoding/json and offered
// directly. Fleet accounting, node inventory, rollup, evidence hashes
// and WAL bytes must be identical.
func TestPooledIngestMatchesFreshDecode(t *testing.T) {
	dirLive, dirRef := t.TempDir(), t.TempDir()
	live := ingestTestServer(t, dirLive, nil)
	ref := ingestTestServer(t, dirRef, nil)
	for i, body := range pooledBodies(t, 60) {
		bulk := bytes.HasPrefix(body, []byte(`{"rows"`))
		var wg sync.WaitGroup
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				path, handler := "/api/ingest", live.handleIngest
				if bulk {
					path, handler = "/api/ingest/bulk", live.handleIngestBulk
				}
				rec := httptest.NewRecorder()
				handler(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					t.Errorf("body %d via %s: status %d %s", i, path, rec.Code, rec.Body)
				}
			}()
		}
		wg.Wait()
		for c := 0; c < 2; c++ {
			var err error
			if bulk {
				var req BulkIngestRequest
				if err = json.Unmarshal(body, &req); err == nil {
					_, err = ref.fl.coord.Offer(req.Rows)
				}
			} else {
				var req IngestRequest
				if err = json.Unmarshal(body, &req); err == nil {
					_, _, err = ref.fl.coord.OfferNode(req.Shard, readingRows(req))
				}
			}
			if err != nil {
				t.Fatalf("reference body %d: %v", i, err)
			}
		}
	}

	if a, b := live.FleetStats(), ref.FleetStats(); a != b {
		t.Fatalf("fleet accounting: pooled %+v, fresh %+v", a, b)
	}
	na, err := live.FleetNodes()
	if err != nil {
		t.Fatal(err)
	}
	nb, err := ref.FleetNodes()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(na, nb) {
		t.Fatalf("node inventory:\npooled %+v\nfresh  %+v", na, nb)
	}
	for _, ni := range na {
		if ni.Stats.Late == 0 || ni.Emitted == 0 || ni.App == "" && ni.Node != 11 {
			t.Fatalf("node %d: the feed did not exercise duplicates, windows and apps: %+v", ni.Node, ni)
		}
		ha, err := live.EvidenceHash(ni.Node)
		if err != nil {
			t.Fatal(err)
		}
		hb, err := ref.EvidenceHash(ni.Node)
		if err != nil {
			t.Fatal(err)
		}
		if ha != hb {
			t.Fatalf("node %d evidence hash: pooled %x, fresh %x", ni.Node, ha, hb)
		}
		wa, wb := walBytes(t, dirLive, ni.Node), walBytes(t, dirRef, ni.Node)
		if !reflect.DeepEqual(wa, wb) {
			t.Fatalf("node %d journal bytes differ between the pooled and the fresh run", ni.Node)
		}
	}
	for _, path := range []string{"/api/fleet/topk?k=10", "/api/fleet/apps"} {
		var got [2]string
		for i, srv := range []*Server{live, ref} {
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			got[i] = rec.Body.String()
		}
		if got[0] != got[1] {
			t.Fatalf("%s:\npooled %s\nfresh  %s", path, got[0], got[1])
		}
	}
}
