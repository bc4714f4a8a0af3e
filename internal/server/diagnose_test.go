package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"albadross/internal/active"
	"albadross/internal/dataset"
	"albadross/internal/features"
	"albadross/internal/features/mvts"
	"albadross/internal/ml/forest"
	"albadross/internal/telemetry"
	"albadross/internal/ts"
)

// postDiagnose posts one body to /api/diagnose and returns the status
// plus the decoded payload.
func postDiagnose(t *testing.T, url string, body interface{}, out interface{}) int {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/api/diagnose", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestDiagnoseBulkMatchesSingles(t *testing.T) {
	srv, d := newTestServer(t)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rows := d.X[:16]
	var bulk BatchDiagnoseResponse
	if code := postDiagnose(t, ts.URL, DiagnoseRequest{Batch: rows}, &bulk); code != http.StatusOK {
		t.Fatalf("bulk diagnose: status %d", code)
	}
	if len(bulk.Results) != len(rows) {
		t.Fatalf("bulk returned %d results for %d rows", len(bulk.Results), len(rows))
	}
	for i, row := range rows {
		var single DiagnoseResponse
		if code := postDiagnose(t, ts.URL, DiagnoseRequest{Features: row}, &single); code != http.StatusOK {
			t.Fatalf("single diagnose %d: status %d", i, code)
		}
		got := bulk.Results[i]
		if got.Label != single.Label {
			t.Fatalf("row %d: bulk label %q, single label %q", i, got.Label, single.Label)
		}
		if math.Abs(got.Confidence-single.Confidence) > 1e-12 {
			t.Fatalf("row %d: bulk confidence %v, single %v", i, got.Confidence, single.Confidence)
		}
		if got.ModelVersion != bulk.ModelVersion {
			t.Fatalf("row %d: result version %d differs from batch version %d",
				i, got.ModelVersion, bulk.ModelVersion)
		}
	}
}

func TestDiagnoseRequestValidation(t *testing.T) {
	srv, d := newTestServer(t)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	oversized := make([][]float64, srv.cfg.BatchMaxSize+1)
	for i := range oversized {
		oversized[i] = d.X[0]
	}
	cases := []struct {
		name string
		req  DiagnoseRequest
	}{
		{"nothing set", DiagnoseRequest{}},
		{"two set", DiagnoseRequest{Features: d.X[0], Batch: d.X[:2]}},
		{"empty batch", DiagnoseRequest{Batch: [][]float64{}}},
		{"oversized batch", DiagnoseRequest{Batch: oversized}},
		{"wrong width", DiagnoseRequest{Features: []float64{1}}},
		{"wrong width in batch", DiagnoseRequest{Batch: [][]float64{d.X[0], {1}}}},
		{"windows without schema", DiagnoseRequest{Windows: [][][]float64{{{1, 2}, {3, 4}, {5, 6}}}}},
	}
	for _, tc := range cases {
		if code := postDiagnose(t, ts.URL, tc.req, nil); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
	}
	// Bodies are bounded and must parse, on /api/label as on
	// /api/diagnose: one byte of JSON whitespace over maxBody is 413,
	// malformed JSON is 400.
	oversize := strings.Repeat(" ", maxBody+1)
	for path, handler := range map[string]http.HandlerFunc{
		"/api/diagnose": srv.handleDiagnose,
		"/api/label":    srv.handleLabel,
	} {
		for body, want := range map[string]int{
			oversize:         http.StatusRequestEntityTooLarge,
			`{"features": [`: http.StatusBadRequest,
		} {
			rec := httptest.NewRecorder()
			handler(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
			if rec.Code != want {
				t.Errorf("%s with a %d-byte body: status %d, want %d", path, len(body), rec.Code, want)
			}
		}
	}
	// A bad request must not poison the server for the next good one.
	var ok DiagnoseResponse
	if code := postDiagnose(t, ts.URL, DiagnoseRequest{Features: d.X[0]}, &ok); code != http.StatusOK {
		t.Fatalf("diagnose after rejected requests: status %d", code)
	}
}

func TestSchemaEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var schema SchemaResponse
	getJSON(t, ts, "/api/schema", &schema)
	if schema.FeatureDim != 3 || len(schema.Classes) != 3 {
		t.Fatalf("schema = %+v", schema)
	}
	if schema.WindowMode {
		t.Fatal("feature-mode server claims window mode")
	}
	if schema.ModelVersion == 0 {
		t.Fatal("schema reports version 0 for a trained server")
	}
}

// TestDiagnoseDuringRetrainSwaps is the retrain-swap race hammer: many
// goroutines post /api/diagnose (singles and bulks) while another
// goroutine forces model retrains. Under -race this proves the atomic
// snapshot swap: zero failed requests, every response internally
// consistent, and served versions strictly advance.
func TestDiagnoseDuringRetrainSwaps(t *testing.T) {
	srv, d := newTestServer(t)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	classSet := map[string]bool{}
	for _, c := range d.Classes {
		classSet[c] = true
	}

	const hammers = 8
	const perHammer = 25
	stop := make(chan struct{})
	retrains := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				retrains <- nil
				return
			default:
				if err := srv.Retrain(); err != nil {
					retrains <- fmt.Errorf("retrain: %w", err)
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, hammers*perHammer)
	check := func(r DiagnoseResponse) error {
		if !classSet[r.Label] {
			return fmt.Errorf("unknown label %q", r.Label)
		}
		if r.ModelVersion == 0 {
			return fmt.Errorf("response with version 0")
		}
		sum := 0.0
		for _, p := range r.Probs {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			return fmt.Errorf("probs sum to %v", sum)
		}
		return nil
	}
	for h := 0; h < hammers; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			for i := 0; i < perHammer; i++ {
				row := d.X[(h*perHammer+i)%len(d.X)]
				if h%2 == 0 {
					var resp DiagnoseResponse
					if code := postDiagnose(t, ts.URL, DiagnoseRequest{Features: row}, &resp); code != http.StatusOK {
						errs <- fmt.Errorf("hammer %d req %d: status %d", h, i, code)
						return
					}
					if err := check(resp); err != nil {
						errs <- fmt.Errorf("hammer %d req %d: %w", h, i, err)
						return
					}
				} else {
					var resp BatchDiagnoseResponse
					req := DiagnoseRequest{Batch: [][]float64{row, d.X[(h+i)%len(d.X)]}}
					if code := postDiagnose(t, ts.URL, req, &resp); code != http.StatusOK {
						errs <- fmt.Errorf("hammer %d bulk %d: status %d", h, i, code)
						return
					}
					for _, r := range resp.Results {
						if err := check(r); err != nil {
							errs <- fmt.Errorf("hammer %d bulk %d: %w", h, i, err)
							return
						}
						if r.ModelVersion != resp.ModelVersion {
							errs <- fmt.Errorf("hammer %d bulk %d: mixed versions %d/%d",
								h, i, r.ModelVersion, resp.ModelVersion)
							return
						}
					}
				}
			}
		}(h)
	}
	wg.Wait()
	close(stop)
	if err := <-retrains; err != nil {
		t.Fatal(err)
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if sn := srv.serving(); sn == nil || sn.version < 2 {
		t.Fatalf("serving snapshot %+v after the hammer; retrains did not publish", sn)
	}
}

// makeWindow synthesizes one metric-major telemetry window whose class
// signature is a level shift on the labeled metric.
func makeWindow(rng *rand.Rand, metrics, steps, label int) [][]float64 {
	win := make([][]float64, metrics)
	for m := range win {
		win[m] = make([]float64, steps)
		level := 1.0
		if label > 0 && m == label-1 {
			level = 6.0
		}
		for s := range win[m] {
			win[m][s] = level + 0.1*rng.NormFloat64()
		}
	}
	return win
}

// newWindowServer builds a server in window mode: training features are
// extracted from synthetic windows with the same extractor the serving
// path uses, so posted raw windows land in the model's input space.
func newWindowServer(t *testing.T) (*Server, []telemetry.Metric, [][][]float64, []int) {
	t.Helper()
	schema := []telemetry.Metric{{Name: "cpu.user"}, {Name: "mem.active"}, {Name: "net.rx"}}
	ext := mvts.Extractor{}
	classes := []string{"healthy", "cpuoccupy", "memleak"}
	rng := rand.New(rand.NewSource(17))

	d := dataset.New(classes)
	var wins [][][]float64
	var labels []int
	for i := 0; i < 120; i++ {
		label := i % len(classes)
		win := makeWindow(rng, len(schema), 32, label)
		wins = append(wins, win)
		labels = append(labels, label)
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
	// The paper's initial labeled set is one sample per (app, anomaly) —
	// far too small to classify reliably. Simulate a finished annotation
	// session: the whole pool is already labeled when the server starts.
	split.Initial, split.Pool = append(split.Initial, split.Pool...), nil
	srv, err := New(Config{
		Data:      d,
		Split:     split,
		Factory:   forest.NewFactory(forest.Config{NEstimators: 10, MaxDepth: 6, Seed: 3}),
		Strategy:  active.Uncertainty{},
		Seed:      4,
		Schema:    schema,
		Extractor: ext,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv, schema, wins, labels
}

func TestDiagnoseRawWindows(t *testing.T) {
	srv, _, wins, labels := newWindowServer(t)
	defer srv.Close()
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()

	var schema SchemaResponse
	getJSON(t, hts, "/api/schema", &schema)
	if !schema.WindowMode || len(schema.Metrics) != 3 {
		t.Fatalf("window server schema = %+v", schema)
	}

	var resp BatchDiagnoseResponse
	req := DiagnoseRequest{Windows: wins[:9]}
	if code := postDiagnose(t, hts.URL, req, &resp); code != http.StatusOK {
		t.Fatalf("window diagnose: status %d", code)
	}
	if len(resp.Results) != 9 {
		t.Fatalf("%d results for 9 windows", len(resp.Results))
	}
	correct := 0
	for i, r := range resp.Results {
		if r.Label == srv.cfg.Data.Classes[labels[i]] {
			correct++
		}
	}
	// The signal is a 5-sigma level shift; the forest should get nearly
	// all of them even with a tiny training set.
	if correct < 6 {
		t.Fatalf("window diagnose got %d/9 right", correct)
	}

	// Shape validation.
	bad := [][][]float64{{{1, 2}, {3, 4}}} // 2 metrics, schema has 3
	if code := postDiagnose(t, hts.URL, DiagnoseRequest{Windows: bad}, nil); code != http.StatusBadRequest {
		t.Fatalf("malformed window: status %d, want 400", code)
	}
	short := [][][]float64{{{1}, {2}, {3}}} // 1 step
	if code := postDiagnose(t, hts.URL, DiagnoseRequest{Windows: short}, nil); code != http.StatusBadRequest {
		t.Fatalf("short window: status %d, want 400", code)
	}
}
