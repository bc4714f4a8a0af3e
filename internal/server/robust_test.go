package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"albadross/internal/active"
	"albadross/internal/dataset"
	"albadross/internal/ml"
	"albadross/internal/ml/forest"
	"albadross/internal/registry"
)

func TestHealthEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var health struct {
		Status  string `json:"status"`
		Ready   bool   `json:"ready"`
		Labeled int    `json:"labeled"`
		Pool    int    `json:"pool"`
		UptimeS *int   `json:"uptime_s"`
	}
	getJSON(t, ts, "/api/health", &health)
	if health.Status != "ok" || !health.Ready {
		t.Fatalf("health = %+v, want ready ok", health)
	}
	if health.Labeled == 0 || health.Pool == 0 || health.UptimeS == nil {
		t.Fatalf("health payload incomplete: %+v", health)
	}

	// Method guard.
	resp, err := http.Post(ts.URL+"/api/health", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST health: status %d, want 405", resp.StatusCode)
	}

	// A server whose model is gone reports not-ready with 503.
	srv.reg = registry.New[*snapshot](2)
	resp, err = http.Get(ts.URL + "/api/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("modelless health: status %d, want 503", resp.StatusCode)
	}
	var degraded struct {
		Status string `json:"status"`
		Ready  bool   `json:"ready"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&degraded); err != nil {
		t.Fatal(err)
	}
	if degraded.Ready || degraded.Status != "training" {
		t.Fatalf("degraded health = %+v", degraded)
	}
}

// panicStrategy blows up inside the handler tree.
type panicStrategy struct{}

func (panicStrategy) Name() string                  { return "panic" }
func (panicStrategy) NeedsProbs() bool              { return false }
func (panicStrategy) Next(*active.QueryContext) int { panic("strategy bug") }

// panicClassifier blows up inside Fit.
type panicClassifier struct{ ml.Classifier }

func (panicClassifier) Fit([][]float64, []int, int) error { panic("fit bug") }

// afterInitial returns a factory whose first model (New's initial
// training) comes from base untouched and whose later ones are wrapped.
func afterInitial(base ml.Factory, wrap func(ml.Classifier) ml.Classifier) ml.Factory {
	var mu sync.Mutex
	calls := 0
	return func() ml.Classifier {
		mu.Lock()
		calls++
		first := calls == 1
		mu.Unlock()
		if first {
			return base()
		}
		return wrap(base())
	}
}

func TestRecoveryMiddleware(t *testing.T) {
	for _, c := range []struct {
		name     string
		override func(cfg *Config)
		// hit issues the request whose handler panics.
		hit func(t *testing.T, ts *httptest.Server, d *dataset.Dataset) *http.Response
	}{
		{
			name:     "strategy panics in /api/next",
			override: func(cfg *Config) { cfg.Strategy = panicStrategy{} },
			hit: func(t *testing.T, ts *httptest.Server, _ *dataset.Dataset) *http.Response {
				resp, err := http.Get(ts.URL + "/api/next")
				if err != nil {
					t.Fatal(err)
				}
				return resp
			},
		},
		{
			name: "Fit panics in /api/label",
			override: func(cfg *Config) {
				cfg.Factory = afterInitial(cfg.Factory, func(m ml.Classifier) ml.Classifier { return panicClassifier{m} })
			},
			hit: func(t *testing.T, ts *httptest.Server, d *dataset.Dataset) *http.Response {
				var next NextResponse
				getJSON(t, ts, "/api/next", &next)
				return postJSON(t, ts, "/api/label", LabelRequest{ID: next.ID, Label: d.Classes[d.Y[next.ID]]})
			},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			d, split := newTestProblem(t)
			cfg := testConfig(d, split)
			c.override(&cfg)
			srv, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			resp := c.hit(t, ts, d)
			if resp.StatusCode != http.StatusInternalServerError {
				t.Fatalf("panicking handler: status %d, want 500", resp.StatusCode)
			}
			var body map[string]string
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatalf("panic response is not JSON: %v", err)
			}
			resp.Body.Close()
			if body["error"] != "internal error" {
				t.Fatalf("panic response leaks detail: %v", body)
			}

			// The session survives: other endpoints keep serving.
			var health struct {
				Ready bool `json:"ready"`
			}
			getJSON(t, ts, "/api/health", &health)
			if !health.Ready {
				t.Fatal("server unhealthy after a recovered panic")
			}
		})
	}
}

// flakyClassifier fails its first Fit calls, then delegates to a real
// forest.
type flakyClassifier struct {
	ml.Classifier
	fails *int
	mu    *sync.Mutex
}

func (f flakyClassifier) Fit(x [][]float64, y []int, nClasses int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if *f.fails > 0 {
		*f.fails--
		return errors.New("transient training failure")
	}
	return f.Classifier.Fit(x, y, nClasses)
}

// blockingClassifier parks Fit until released, signalling entry.
type blockingClassifier struct {
	ml.Classifier
	entered chan struct{}
	release chan struct{}
}

func (b blockingClassifier) Fit(x [][]float64, y []int, nClasses int) error {
	b.entered <- struct{}{}
	<-b.release
	return b.Classifier.Fit(x, y, nClasses)
}

// newBlockingServer builds a server whose retrains (every Fit after
// the initial one) signal on entered and then park until release is
// closed or sent to.
func newBlockingServer(t *testing.T) (srv *Server, ts *httptest.Server, d *dataset.Dataset, entered, release chan struct{}) {
	t.Helper()
	d, split := newTestProblem(t)
	entered = make(chan struct{}, 8)
	release = make(chan struct{})
	cfg := testConfig(d, split)
	cfg.Factory = afterInitial(cfg.Factory, func(m ml.Classifier) ml.Classifier {
		return blockingClassifier{Classifier: m, entered: entered, release: release}
	})
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv, httptest.NewServer(srv.Handler()), d, entered, release
}

func TestHealthRespondsDuringRetrain(t *testing.T) {
	// A slow (or backing-off) retrain holds only the annotation mutex:
	// health, status and diagnosis have to keep answering while the
	// candidate model trains.
	srv, ts, d, entered, release := newBlockingServer(t)
	defer ts.Close()
	defer srv.Close()

	var next struct {
		ID      int      `json:"id"`
		Classes []string `json:"classes"`
	}
	getJSON(t, ts, "/api/next", &next)

	labelDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/api/label", "application/json",
			bytes.NewReader([]byte(`{"id":`+strconv.Itoa(next.ID)+`,"label":"`+next.Classes[0]+`"}`)))
		if err != nil {
			labelDone <- -1
			return
		}
		resp.Body.Close()
		labelDone <- resp.StatusCode
	}()

	select {
	case <-entered: // retrain is now in flight, parked inside Fit
	case <-time.After(5 * time.Second):
		t.Fatal("retrain never started")
	}
	diagnose, _ := json.Marshal(DiagnoseRequest{Features: d.X[0]})
	for _, probe := range []struct {
		path string
		body []byte // nil = GET
	}{
		{"/api/health", nil},
		{"/api/status", nil},
		{"/api/diagnose", diagnose},
	} {
		done := make(chan bool, 1)
		go func() {
			var resp *http.Response
			var err error
			if probe.body == nil {
				resp, err = http.Get(ts.URL + probe.path)
			} else {
				resp, err = http.Post(ts.URL+probe.path, "application/json", bytes.NewReader(probe.body))
			}
			if err != nil {
				done <- false
				return
			}
			resp.Body.Close()
			done <- resp.StatusCode == http.StatusOK
		}()
		select {
		case ok := <-done:
			if !ok {
				t.Fatalf("%s failed during retrain", probe.path)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s blocked behind an in-flight retrain", probe.path)
		}
	}

	close(release)
	if code := <-labelDone; code != http.StatusOK {
		t.Fatalf("label during slow retrain: status %d", code)
	}
}

func TestRetrainRetriesTransientFailures(t *testing.T) {
	d, split := newTestProblem(t)
	fails := 2
	var mu sync.Mutex
	real := forest.NewFactory(forest.Config{NEstimators: 8, MaxDepth: 5, Seed: 3})
	srv, err := New(Config{
		Data:  d,
		Split: split,
		Factory: func() ml.Classifier {
			return flakyClassifier{Classifier: real(), fails: &fails, mu: &mu}
		},
		Strategy:       active.Uncertainty{},
		Seed:           4,
		RetrainRetries: 2,
		RetrainBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New should survive 2 transient failures with 2 retries: %v", err)
	}
	if srv.serving() == nil {
		t.Fatal("no model after retried training")
	}

	// With the budget exhausted every attempt fails and New reports it.
	fails = 100
	if _, err := New(Config{
		Data:  d,
		Split: split,
		Factory: func() ml.Classifier {
			return flakyClassifier{Classifier: real(), fails: &fails, mu: &mu}
		},
		Strategy:       active.Uncertainty{},
		Seed:           4,
		RetrainRetries: 1,
		RetrainBackoff: time.Millisecond,
	}); err == nil {
		t.Fatal("persistent training failure should surface")
	}
}

func TestOverlappingAnnotatorsAreSequential(t *testing.T) {
	// The paper's loop is sequential: a query is chosen by the model that
	// already contains every earlier answer. Two annotators overlapping
	// on the HTTP API must not be able to break that.
	srv, ts, d, entered, release := newBlockingServer(t)
	defer ts.Close()
	defer srv.Close()
	truth := func(id int) LabelRequest { return LabelRequest{ID: id, Label: d.Classes[d.Y[id]]} }
	var status struct {
		Labeled int           `json:"labeled"`
		History []StatusPoint `json:"history"`
	}
	getJSON(t, ts, "/api/status", &status)
	initial := status.Labeled

	// Annotator A answers its query; the retrain parks inside Fit.
	var a NextResponse
	getJSON(t, ts, "/api/next", &a)
	aBody, _ := json.Marshal(truth(a.ID))
	aDone := make(chan *http.Response, 1)
	go func() {
		resp, _ := http.Post(ts.URL+"/api/label", "application/json", bytes.NewReader(aBody))
		aDone <- resp // nil on a transport error
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("A's retrain never started")
	}

	// Annotator B asks for a query meanwhile. The only model there is
	// does not know A's answer yet, so B has to wait for A's retrain.
	bNext := make(chan *http.Response, 1)
	go func() {
		resp, _ := http.Get(ts.URL + "/api/next")
		bNext <- resp
	}()
	select {
	case <-bNext:
		close(release) // let A's request finish so the server can shut down
		t.Fatal("/api/next answered while A's retrain was parked: its query was chosen by the pre-A model")
	case <-time.After(300 * time.Millisecond):
	}

	close(release)
	if resp := <-aDone; resp == nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("A's label: %+v", resp)
	} else {
		resp.Body.Close()
	}
	var b NextResponse
	if resp := <-bNext; resp == nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("B's next: %+v", resp)
	} else if err := json.NewDecoder(resp.Body).Decode(&b); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	if b.ID == a.ID {
		t.Fatalf("B was offered A's already-labeled sample %d", b.ID)
	}
	resp := postJSON(t, ts, "/api/label", truth(b.ID))
	var lr LabelResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("B's label: status %d, %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	if lr.Labeled != initial+2 {
		t.Fatalf("labeled_total %d after two labels on %d initial", lr.Labeled, initial)
	}

	// The model now serving was trained on every label obtained, and no
	// later version was trained on fewer rows than an earlier one.
	model := srv.Model()
	for k, info := range model.Registry { // newest first
		if info.Version == model.ActiveVersion && info.TrainSize != lr.Labeled {
			t.Fatalf("active version %d trained on %d rows, labeled_total %d", info.Version, info.TrainSize, lr.Labeled)
		}
		if k > 0 && info.TrainSize > model.Registry[k-1].TrainSize {
			t.Fatalf("train_size decreases with version: %+v", model.Registry)
		}
	}
	getJSON(t, ts, "/api/status", &status)
	if len(status.History) != 3 {
		t.Fatalf("history has %d points after two labels, want 3", len(status.History))
	}
	for q, pt := range status.History {
		if pt.Queried != q {
			t.Fatalf("history out of label order: %+v", status.History)
		}
	}
}
