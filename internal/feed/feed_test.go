package feed

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"albadross/internal/active"
	"albadross/internal/core"
	"albadross/internal/dataset"
	"albadross/internal/features/mvts"
	"albadross/internal/fleet"
	"albadross/internal/ml/forest"
	"albadross/internal/ml/tree"
	"albadross/internal/pipeline"
	"albadross/internal/server"
	"albadross/internal/stream"
	"albadross/internal/telemetry"
)

// trimmed is a system as the benchmark builds it: the leading apps
// and the smallest allocation only.
func trimmed(build func(int) *telemetry.SystemSpec, metrics, apps int) *telemetry.SystemSpec {
	sys := build(metrics)
	sys.Apps = sys.Apps[:apps]
	sys.NodeCounts = sys.NodeCounts[:1]
	return sys
}

// fragmentHash folds every node's application and rendered fragments,
// in node and tick order, into FNV-1a.
func fragmentHash(tr *Traffic) uint64 {
	h := fnv.New64a()
	for n, app := range tr.apps {
		h.Write([]byte(app))
		h.Write([]byte{0})
		for t := 0; t < tr.cycle; t++ {
			h.Write(tr.frags[n*tr.cycle+t])
			h.Write([]byte{0})
		}
	}
	return h.Sum64()
}

// TestTrafficFragmentsPinned pins the rendered traffic at two small
// geometries. benchmark/traffic.go renders the same hashes from the
// same inputs; a change here is a change to the benchmark's traffic
// once it renders through this package.
func TestTrafficFragmentsPinned(t *testing.T) {
	for _, c := range []struct {
		sys          *telemetry.SystemSpec
		nodes, cycle int
		seed         int64
		want         uint64
	}{
		{trimmed(telemetry.Volta, 27, 2), 10, 16, 102, 8966403503459449516},
		{trimmed(telemetry.Eclipse, 40, 2), 9, 20, 5, 5095217535261038432},
	} {
		tr, err := NewTraffic(c.sys, c.nodes, c.cycle, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.frags) != c.nodes*c.cycle || len(tr.apps) != c.nodes {
			t.Fatalf("%s: %d fragments for %d nodes", c.sys.Name, len(tr.frags), len(tr.apps))
		}
		if got := fragmentHash(tr); got != c.want {
			t.Errorf("%s %d nodes cycle %d seed %d: fragment hash %d, want %d", c.sys.Name, c.nodes, c.cycle, c.seed, got, c.want)
		}
		// Every second job carries an anomaly on its first node.
		alloc := c.sys.NodeCounts[0]
		for n := 0; n < c.nodes; n++ {
			want := n/alloc%2 == 1 && n%alloc == 0
			if got := tr.Label(n) != telemetry.HealthyLabel; got != want {
				t.Errorf("%s node %d: label %q", c.sys.Name, n, tr.Label(n))
			}
		}
	}
}

// reading decodes node n's reading at tick t from its fragment.
func (tr *Traffic) reading(t *testing.T, n, tick int) []float64 {
	t.Helper()
	var v fleet.Values
	frag := tr.frags[n*tr.cycle+tick%tr.cycle]
	if err := v.UnmarshalJSON(frag[len(`"values":`):]); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestRunMatchesOfflineChain feeds an in-process server and checks the
// run's accounting and, for every node, that the label the server last
// served is the last diagnosis a fresh offline chain makes of the same
// rows at the server's geometry, with the server's model.
func TestRunMatchesOfflineChain(t *testing.T) {
	sys := trimmed(telemetry.Volta, 27, 2)
	raw, err := core.GenerateDataset(core.DataConfig{
		System: sys, Extractor: mvts.Extractor{}, RunsPerAppInput: 2, Steps: 40, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	split, err := dataset.MakeALSplit(raw, dataset.ALSplitConfig{
		TestFraction: 0.3, AnomalyRatio: 0.10, HealthyClass: 0, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	train := append(append([]int{}, split.Initial...), split.Pool...)
	prep, err := core.FitPreprocessor(raw, train, 200)
	if err != nil {
		t.Fatal(err)
	}
	data, err := prep.Transform(raw)
	if err != nil {
		t.Fatal(err)
	}
	split.Initial, split.Pool = train, nil
	ic := server.IngestConfig{Shards: 2, Window: 16, Stride: 8, Reorder: 4, Gap: stream.GapAbstain}
	srv, err := server.New(server.Config{
		Data: data, Split: split,
		Factory:  forest.NewFactory(forest.Config{NEstimators: 8, MaxDepth: 6, Criterion: tree.Entropy, Seed: 3}),
		Strategy: active.Uncertainty{}, FeatureNames: prep.Names, Seed: 10,
		Log: log.New(io.Discard, "", 0), Prep: prep,
		Schema: sys.Metrics, Extractor: mvts.Extractor{},
		Fleet: server.FleetConfig{IngestConfig: ic},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	hts := httptest.NewServer(srv.Handler())
	t.Cleanup(hts.Close)

	// 70 nodes: one request of 64 and one of 6 per round.
	const nodes, rows = 70, 40
	rep, err := Run(Config{Addr: hts.URL, System: telemetry.Volta, Nodes: nodes, Rows: rows})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OfferedRows != rep.AcceptedRows+rep.RejectedRows+rep.ShedRows || rep.OfferedRows != nodes*rows {
		t.Fatalf("accounting: %+v, want %d offered", rep, nodes*rows)
	}
	if rep.RejectedRows != 0 || rep.ShedRows != 0 || rep.Throttled != 0 || rep.Requests != 2*rows {
		t.Fatalf("an unloaded server refused rows or throttled: %+v", rep)
	}
	if rep.RowsPerSec <= 0 || rep.P50Ms > rep.P90Ms || rep.P90Ms > rep.P99Ms {
		t.Fatalf("implausible measurement: %+v", rep)
	}

	tr, err := NewTraffic(telemetry.Volta(27), nodes, Cycle, seed)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < nodes; n++ {
		var col pipeline.Collector
		chain, err := pipeline.NewChain(pipeline.ChainConfig{
			Metrics: len(sys.Metrics), Window: ic.Window, Stride: ic.Stride, Reorder: ic.Reorder, Gap: ic.Gap,
			Features: pipeline.BatchFeatures{Schema: sys.Metrics, Gap: ic.Gap, Extractor: mvts.Extractor{}},
			Predict: pipeline.PredictFunc(func(vec []float64) (string, float64, error) {
				row, err := prep.TransformRow(vec)
				if err != nil {
					return "", 0, err
				}
				d, err := srv.DiagnoseVectors([][]float64{row})
				if err != nil {
					return "", 0, err
				}
				return d[0].Label, d[0].Confidence, nil
			}),
			Sink: &col,
		})
		if err != nil {
			t.Fatal(err)
		}
		for tick := 0; tick < rows; tick++ {
			if err := chain.PushAt(tick, tr.reading(t, n, tick)); err != nil {
				t.Fatal(err)
			}
		}
		if len(col.Diagnoses) == 0 {
			t.Fatalf("node %d: the offline chain made no diagnosis", n)
		}
		want := col.Diagnoses[len(col.Diagnoses)-1]
		var view server.FleetNodeResponse
		if _, err := exchange(http.DefaultClient, http.MethodGet, fmt.Sprintf("%s/api/fleet/node/%d", hts.URL, n), nil, &view, http.StatusOK); err != nil {
			t.Fatal(err)
		}
		got := view.Rollup
		if got.LastLabel != want.Label || got.LastAbstained != want.Abstained || got.LastWindowEnd != want.WindowEnd ||
			got.LastConfidence != want.Confidence || got.Windows != len(col.Diagnoses) {
			t.Errorf("node %d: served %+v, offline chain's last of %d: %+v", n, got, len(col.Diagnoses), want)
		}
		served := got.LastLabel
		if got.LastAbstained {
			served = Abstained
		}
		if rep.Confusion[tr.Label(n)][served] == 0 {
			t.Errorf("node %d (%s, served %s) is missing from the table %v", n, tr.Label(n), served, rep.Confusion)
		}
	}
	counted := 0
	for _, row := range rep.Confusion {
		for _, k := range row {
			counted += k
		}
	}
	if counted != nodes {
		t.Errorf("the table counts %d nodes, want %d", counted, nodes)
	}
	var table strings.Builder
	if err := rep.WriteTable(&table); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(table.String()), "\n"); len(lines) != 1+len(rep.Confusion) ||
		!strings.HasSuffix(lines[0], Abstained+"  "+NoWindow) {
		t.Errorf("table:\n%s", table.String())
	}
}

// fakeServer answers /api/schema with the given metrics and serves
// bulk with the given handler; every node view is a 404.
func fakeServer(t *testing.T, windowMode bool, metrics []string, bulk http.HandlerFunc) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/api/schema", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(server.SchemaResponse{WindowMode: windowMode, Metrics: metrics})
	})
	mux.HandleFunc("/api/ingest/bulk", bulk)
	mux.HandleFunc("/api/fleet/node/{id}", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"no stream"}`, http.StatusNotFound)
	})
	hts := httptest.NewServer(mux)
	t.Cleanup(hts.Close)
	return hts.URL
}

// schemaNames is what serve's /api/schema lists at n metrics.
func schemaNames(n int) []string {
	var names []string
	for _, m := range telemetry.BuildSchema(n) {
		names = append(names, m.Name)
	}
	return names
}

// TestRetryAfterIsHonoured: a 429 is a partial accept, its shed rows
// are counted, and the next request waits out the advice.
func TestRetryAfterIsHonoured(t *testing.T) {
	const pause = 150 * time.Millisecond
	var mu sync.Mutex
	var at []time.Time
	url := fakeServer(t, true, schemaNames(27), func(w http.ResponseWriter, r *http.Request) {
		var req server.BulkIngestRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		at = append(at, time.Now())
		first := len(at) == 1
		mu.Unlock()
		resp := server.BulkIngestResponse{BatchResult: fleet.BatchResult{Offered: len(req.Rows), Accepted: len(req.Rows)}}
		status := http.StatusOK
		if first {
			resp.Accepted, resp.Shed, resp.RetryAfterMs = len(req.Rows)-2, 2, pause.Milliseconds()
			w.Header().Set("Retry-After", "1")
			status = http.StatusTooManyRequests
		}
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(resp)
	})
	rep, err := Run(Config{Addr: url, System: telemetry.Eclipse, Nodes: 3, Rows: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 2 || rep.Throttled != 1 || rep.OfferedRows != 6 || rep.AcceptedRows != 4 || rep.ShedRows != 2 {
		t.Fatalf("report %+v", rep)
	}
	if len(at) != 2 || at[1].Sub(at[0]) < pause {
		t.Fatalf("requests at %v: the second did not wait %v", at, pause)
	}
	if got := rep.Confusion[telemetry.HealthyLabel][NoWindow]; got != 3 {
		t.Fatalf("confusion %v: want 3 healthy nodes with no window", rep.Confusion)
	}
}

// TestRunRefuses: no raw telemetry, a schema the simulator does not
// name alike, and an answer that is neither 200 nor 429 each stop the
// run with an error.
func TestRunRefuses(t *testing.T) {
	renamed := schemaNames(27)
	renamed[5] = "other.metric"
	ok := func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(server.BulkIngestResponse{})
	}
	for _, c := range []struct {
		name, want string
		url        string
	}{
		{"window mode off", "window mode is off", fakeServer(t, false, nil, ok)},
		{"renamed metric", `server metric 5 is "other.metric"`, fakeServer(t, true, renamed, ok)},
		{"below the floor", "the server has 3 metrics", fakeServer(t, true, []string{"a", "b", "c"}, ok)},
		{"server error", "status 500", fakeServer(t, true, schemaNames(27), func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "boom", http.StatusInternalServerError)
		})},
	} {
		_, err := Run(Config{Addr: c.url, System: telemetry.Volta, Nodes: 2, Rows: 1})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err %v, want it to name %q", c.name, err, c.want)
		}
	}
	if _, err := Run(Config{Nodes: 0, Rows: 1}); err == nil {
		t.Error("zero nodes accepted")
	}
}
