package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"albadross/internal/active"
	"albadross/internal/dataset"
	"albadross/internal/ml/forest"
	"albadross/internal/telemetry"
)

// newTestProblem builds a small synthetic problem and its Fig. 2 split.
func newTestProblem(t *testing.T) (*dataset.Dataset, *dataset.ALSplit) {
	t.Helper()
	classes := []string{"healthy", "cpuoccupy", "memleak"}
	rng := rand.New(rand.NewSource(1))
	d := dataset.New(classes)
	d.FeatureNames = []string{"cpu.user::mean", "mem.active::mean", "net.rx::mean"}
	apps := []string{"BT", "CG"}
	for i := 0; i < 400; i++ {
		label := 0
		if rng.Float64() < 0.2 {
			label = 1 + rng.Intn(2)
		}
		x := []float64{rng.NormFloat64() * 0.3, rng.NormFloat64() * 0.3, rng.NormFloat64() * 0.3}
		if label > 0 {
			x[label-1] += 2.5
		}
		if err := d.Add(x, classes[label], telemetry.RunMeta{App: apps[i%2], Node: i % 4}); err != nil {
			t.Fatal(err)
		}
	}
	split, err := dataset.MakeALSplit(d, dataset.ALSplitConfig{
		TestFraction: 0.3, AnomalyRatio: 0.10, HealthyClass: 0, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d, split
}

// testConfig is the default server configuration over newTestProblem;
// tests override fields before calling New.
func testConfig(d *dataset.Dataset, split *dataset.ALSplit) Config {
	return Config{
		Data:         d,
		Split:        split,
		Factory:      forest.NewFactory(forest.Config{NEstimators: 8, MaxDepth: 5, Seed: 3}),
		Strategy:     active.Uncertainty{},
		FeatureNames: d.FeatureNames,
		Seed:         4,
	}
}

// newTestServer builds a server over newTestProblem.
func newTestServer(t *testing.T) (*Server, *dataset.Dataset) {
	t.Helper()
	d, split := newTestProblem(t)
	srv, err := New(testConfig(d, split))
	if err != nil {
		t.Fatal(err)
	}
	return srv, d
}

func getJSON(t *testing.T, ts *httptest.Server, path string, out interface{}) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body interface{}) *http.Response {
	t.Helper()
	raw, _ := json.Marshal(body)
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestAnnotationWorkflow(t *testing.T) {
	srv, d := newTestServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Initial status: one history point, the initial model.
	var status struct {
		Labeled int           `json:"labeled"`
		Pool    int           `json:"pool"`
		History []StatusPoint `json:"history"`
	}
	getJSON(t, ts, "/api/status", &status)
	if len(status.History) != 1 {
		t.Fatalf("history = %d, want 1", len(status.History))
	}
	startLabeled := status.Labeled

	// Annotate five queries with ground truth.
	for q := 0; q < 5; q++ {
		var next NextResponse
		getJSON(t, ts, "/api/next", &next)
		if next.Exhausted || next.ID < 0 {
			t.Fatal("pool exhausted unexpectedly")
		}
		if len(next.Probs) != 3 || len(next.Classes) != 3 {
			t.Fatalf("bad next payload: %+v", next)
		}
		if len(next.Hints) == 0 {
			t.Fatal("expected important-metric hints")
		}
		// /api/next is idempotent until labeled.
		var again NextResponse
		getJSON(t, ts, "/api/next", &again)
		if again.ID != next.ID {
			t.Fatalf("pending query changed: %d -> %d", next.ID, again.ID)
		}
		resp := postJSON(t, ts, "/api/label", LabelRequest{ID: next.ID, Label: d.Classes[d.Y[next.ID]]})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("label: status %d", resp.StatusCode)
		}
		var lr LabelResponse
		if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if !lr.Accepted || lr.Labeled != startLabeled+q+1 {
			t.Fatalf("label response: %+v", lr)
		}
	}
	getJSON(t, ts, "/api/status", &status)
	if len(status.History) != 6 {
		t.Fatalf("history = %d, want 6", len(status.History))
	}
	if status.Labeled != startLabeled+5 {
		t.Fatalf("labeled = %d", status.Labeled)
	}
}

func TestLabelValidation(t *testing.T) {
	srv, _ := newTestServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Labeling before /api/next picked anything.
	resp := postJSON(t, ts, "/api/label", LabelRequest{ID: 1, Label: "healthy"})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status %d, want conflict", resp.StatusCode)
	}
	resp.Body.Close()

	var next NextResponse
	getJSON(t, ts, "/api/next", &next)

	// Wrong id.
	resp = postJSON(t, ts, "/api/label", LabelRequest{ID: next.ID + 999, Label: "healthy"})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status %d, want conflict", resp.StatusCode)
	}
	resp.Body.Close()

	// Unknown label.
	resp = postJSON(t, ts, "/api/label", LabelRequest{ID: next.ID, Label: "bogus"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want bad request", resp.StatusCode)
	}
	resp.Body.Close()

	// Malformed body.
	r, err := http.Post(ts.URL+"/api/label", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want bad request", r.StatusCode)
	}
	r.Body.Close()
}

func TestDiagnoseEndpoint(t *testing.T) {
	srv, d := newTestServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postJSON(t, ts, "/api/diagnose", DiagnoseRequest{Features: d.X[0]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var dr DiagnoseResponse
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if dr.Label == "" || dr.Confidence <= 0 || len(dr.Probs) != 3 {
		t.Fatalf("bad diagnosis: %+v", dr)
	}
	// Wrong width.
	resp = postJSON(t, ts, "/api/diagnose", DiagnoseRequest{Features: []float64{1}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want bad request", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestMethodGuards(t *testing.T) {
	srv, _ := newTestServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, c := range []struct{ method, path string }{
		{http.MethodPost, "/api/next"},
		{http.MethodGet, "/api/label"},
		{http.MethodPost, "/api/status"},
		{http.MethodGet, "/api/diagnose"},
	} {
		req, _ := http.NewRequest(c.method, ts.URL+c.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s: status %d, want 405", c.method, c.path, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

func TestIndexPage(t *testing.T) {
	srv, _ := newTestServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	buf := make([]byte, 64)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "<!doctype html>") {
		t.Fatal("index page missing")
	}
	// Unknown paths 404.
	resp2, err := http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp2.StatusCode)
	}
}

func TestPoolExhaustion(t *testing.T) {
	d, split := newTestProblem(t)
	split.Pool = split.Pool[:2]
	srv, err := New(testConfig(d, split))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for q := 0; q < 2; q++ {
		var next NextResponse
		getJSON(t, ts, "/api/next", &next)
		resp := postJSON(t, ts, "/api/label", LabelRequest{ID: next.ID, Label: d.Classes[d.Y[next.ID]]})
		resp.Body.Close()
	}
	var next NextResponse
	getJSON(t, ts, "/api/next", &next)
	if !next.Exhausted {
		t.Fatal("expected exhaustion")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("missing data should error")
	}
	_, d := newTestServer(t)
	split, _ := dataset.MakeALSplit(d, dataset.ALSplitConfig{
		TestFraction: 0.3, AnomalyRatio: 0.1, Seed: 9,
	})
	if _, err := New(Config{Data: d, Split: split}); err == nil {
		t.Fatal("missing factory should error")
	}
}
