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

// FuzzIngestWireDecode holds the one-pass ingest wire decoder to
// encoding/json on the real request type: every body must get
// json.Unmarshal's verdict into a fresh BulkIngestRequest and, when
// accepted, bitwise the same rows — whether the Wire is fresh or has
// decoded other batches of other lengths and shapes before. The
// committed corpus (testdata/fuzz/FuzzIngestWireDecode/) holds one body
// per parity edge and replays in tier 1; bodies with "shard" and
// "readings" keys exercise the unknown-field skip.
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
		if _, err := w.DecodeBulk([]byte(`{"rows":[{"t":1,"values":[1,2]},{"node":3,"t":2,"values":[3]}],"x":[{}]}`)); err != nil {
			t.Fatal(err)
		}
		return w
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var bulk BulkIngestRequest
		bulkErr := json.Unmarshal(body, &bulk)
		for _, w := range []*fleet.Wire{new(fleet.Wire), dirty(t)} {
			rows, err := w.DecodeBulk(body)
			if (err == nil) != (bulkErr == nil) || err == nil && !sameWireRows(rows, bulk.Rows) {
				t.Fatalf("body %q: wire %+v (err %v), encoding/json %+v (err %v)", body, rows, err, bulk.Rows, bulkErr)
			}
		}
	})
}

// TestIngestTrailingDataRefused pins the rule the ingest endpoint
// shares with json.Unmarshal: nothing but whitespace may follow the
// object, so a second object is refused with the first instead of
// vanishing from every count (offered, accepted, rejected, shed) behind
// a 200.
func TestIngestTrailingDataRefused(t *testing.T) {
	srv := ingestTestServer(t, "", nil)
	bulk := `{"rows":[{"node":1,"t":0,"values":[1,2,3]}]}`
	single := `{"rows":[{"node":2,"t":0,"values":[1,2,3]}]}`
	for _, tc := range []struct {
		body string
		want int
	}{
		{bulk + `{"rows":[{"node":3,"t":0,"values":[1,2,3]}]}`, http.StatusBadRequest},
		{bulk + `]`, http.StatusBadRequest},
		{bulk + ` x`, http.StatusBadRequest},
		{bulk + " \n", http.StatusOK},
		{single + `{"shard":4,"readings":[{"t":0,"values":[1,2,3]}]}`, http.StatusBadRequest},
		{single + `}`, http.StatusBadRequest},
		{single + ` 0`, http.StatusBadRequest},
		{single + "\t\r\n", http.StatusOK},
	} {
		rec := httptest.NewRecorder()
		srv.handleIngestBulk(rec, httptest.NewRequest(http.MethodPost, "/api/ingest/bulk", strings.NewReader(tc.body)))
		if rec.Code != tc.want {
			t.Errorf("%q: status %d, want %d (%s)", tc.body, rec.Code, tc.want, rec.Body)
		}
	}
	if st := srv.FleetStats(); st.Offered != 2 || st.Accepted != 2 {
		t.Fatalf("only the two whitespace-terminated bodies should reach the fleet: %+v", st)
	}
}

// TestIngestNestingBounded sends the ingest endpoint a maxBody body of
// '[' inside an unknown field: the decoder stops at encoding/json's
// depth limit and answers 400, without reading the nesting into memory
// or recursing through it.
func TestIngestNestingBounded(t *testing.T) {
	srv := ingestTestServer(t, "", nil)
	head := `{"x":`
	body := head + strings.Repeat("[", maxBody-len(head))
	rec := httptest.NewRecorder()
	srv.handleIngestBulk(rec, httptest.NewRequest(http.MethodPost, "/api/ingest/bulk", strings.NewReader(body)))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "depth") {
		t.Fatalf("%d bytes of nesting: status %d body %.200s", len(body), rec.Code, rec.Body)
	}
}

// pooledBodies builds a feed alternating three bulk body shapes over
// the same nodes — a wide batch with apps and missing cells, a short
// batch in another node order without apps, and one node's batch — with
// per-node timestamps advancing across all of them, so pooled rows are
// reused across shapes and lengths.
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
		var rows []fleet.Row
		switch s % 3 {
		case 0:
			for r := 0; r < 3; r++ {
				for _, n := range []int{3, 7, 11, 12, 20, 21} {
					row := reading(n)
					row.App = testApp(n + s/3)
					rows = append(rows, row)
				}
			}
		case 1:
			for _, n := range []int{21, 12, 7} {
				rows = append(rows, reading(n), reading(n))
			}
		default:
			for r := 0; r < 5; r++ {
				rows = append(rows, reading(11))
			}
		}
		raw, err := json.Marshal(BulkIngestRequest{Rows: rows})
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
		var wg sync.WaitGroup
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rec := httptest.NewRecorder()
				live.handleIngestBulk(rec, httptest.NewRequest(http.MethodPost, "/api/ingest/bulk", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					t.Errorf("body %d: status %d %s", i, rec.Code, rec.Body)
				}
			}()
		}
		wg.Wait()
		for c := 0; c < 2; c++ {
			var req BulkIngestRequest
			err := json.Unmarshal(body, &req)
			if err == nil {
				_, err = ref.fl.coord.Offer(req.Rows)
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
