package server

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"albadross/internal/active"
	"albadross/internal/dataset"
	"albadross/internal/ml"
	"albadross/internal/ml/forest"
	"albadross/internal/registry"
)

// newLifecycleServer builds a lifecycle-enabled server over the shared
// synthetic problem, tuned small enough for tests to drive decisions
// deterministically with a few hundred rows.
func newLifecycleServer(t *testing.T, mutate func(*Config)) (*Server, *dataset.Dataset) {
	t.Helper()
	d, split := newTestProblem(t)
	cfg := Config{
		Data:          d,
		Split:         split,
		Factory:       forest.NewFactory(forest.Config{NEstimators: 8, MaxDepth: 5, Seed: 3}),
		Strategy:      active.Uncertainty{},
		FeatureNames:  d.FeatureNames,
		Seed:          4,
		Lifecycle:     true,
		ShadowMinRows: 64,
		ShadowMaxWait: 10 * time.Second,
	}
	cfg.Drift.Window = 128
	cfg.Drift.MinWindow = 64
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv, d
}

// poolRows copies pool-sample feature vectors for traffic generation.
func poolRows(d *dataset.Dataset, n int) [][]float64 {
	rows := make([][]float64, 0, n)
	for i := 0; len(rows) < n; i++ {
		rows = append(rows, d.X[i%len(d.X)])
	}
	return rows
}

// waitFor polls until cond is true or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestJitteredBackoffScheduleIsPinned(t *testing.T) {
	srv, _ := newTestServer(t) // Seed 4
	base := 50 * time.Millisecond
	// The exact schedule for Config.Seed 4 (jitter source seed 4 +
	// jitterSeedOffset) over four doubling steps. Regenerating these
	// literals: rand.NewSource(1011), base/2 + Int63n(base), base *= 2.
	want := []time.Duration{
		48260771,
		105131492,
		212073657,
		577245129,
	}
	for i, w := range want {
		got := srv.nextRetryDelay(base)
		if got != w {
			t.Fatalf("step %d: delay %v, want %v — jitter schedule no longer pinned by seed", i, got, w)
		}
		if got < base/2 || got >= base+base/2 {
			t.Fatalf("step %d: delay %v outside [base/2, 3*base/2) for base %v", i, got, base)
		}
		base *= 2
	}

	// Same seed, same schedule; different seed, different schedule.
	srv2, _ := newTestServer(t)
	if d := srv2.nextRetryDelay(50 * time.Millisecond); d != want[0] {
		t.Fatalf("same seed produced different first delay: %v vs %v", d, want[0])
	}
	srv2.jitterRng = rand.New(rand.NewSource(99))
	if d := srv2.nextRetryDelay(50 * time.Millisecond); d == want[0] {
		t.Fatal("different seed reproduced the same first delay")
	}
}

func TestHealthReportsLifecycleState(t *testing.T) {
	srv, _ := newLifecycleServer(t, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var health struct {
		Status          string  `json:"status"`
		Ready           bool    `json:"ready"`
		ModelVersion    uint64  `json:"model_version"`
		SinceRetrain    *int    `json:"since_last_retrain_s"`
		DriftReady      *bool   `json:"drift_ready"`
		Drifted         *bool   `json:"drifted"`
		DriftedFraction float64 `json:"drifted_fraction"`
		Quarantines     *uint64 `json:"quarantines"`
	}
	getJSON(t, ts, "/api/health", &health)
	if !health.Ready || health.Status != "ok" {
		t.Fatalf("health = %+v", health)
	}
	if health.ModelVersion == 0 {
		t.Fatal("health missing model_version")
	}
	if health.SinceRetrain == nil || *health.SinceRetrain < 0 {
		t.Fatalf("health missing since_last_retrain_s: %+v", health)
	}
	if health.DriftReady == nil || health.Drifted == nil || health.Quarantines == nil {
		t.Fatalf("health missing lifecycle fields: %+v", health)
	}
	if *health.Drifted {
		t.Fatal("fresh server already drifted")
	}
}

func TestModelEndpointListsRegistry(t *testing.T) {
	srv, _ := newLifecycleServer(t, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if err := srv.Retrain(); err != nil {
		t.Fatal(err)
	}
	var st ModelStatus
	getJSON(t, ts, "/api/model", &st)
	if st.ActiveVersion != 2 {
		t.Fatalf("active version = %d, want 2 after Retrain", st.ActiveVersion)
	}
	if len(st.Registry) != 2 {
		t.Fatalf("registry entries = %d, want 2", len(st.Registry))
	}
	if !st.Lifecycle || st.Drift == nil {
		t.Fatalf("lifecycle state missing: %+v", st)
	}
	if st.Registry[0].Version != 2 || st.Registry[0].State != registry.Active {
		t.Fatalf("newest-first listing broken: %+v", st.Registry[0])
	}
	if st.Registry[0].TrainHash == "" || st.Registry[0].TrainSize == 0 {
		t.Fatalf("provenance missing: %+v", st.Registry[0])
	}
}

// agreeingChallenger wraps the champion's own model type trained the
// same way — shadow agreement is ~1 and holdout F1 matches.
func TestChallengerPromotedWhenGatePasses(t *testing.T) {
	srv, d := newLifecycleServer(t, nil)
	x, y := srv.training()
	cand := forest.NewFactory(forest.Config{NEstimators: 8, MaxDepth: 5, Seed: 3})()
	if err := cand.Fit(x, y, len(d.Classes)); err != nil {
		t.Fatal(err)
	}
	ver, err := srv.StartChallenger(cand, "test")
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.serving().version; got == ver {
		t.Fatal("challenger serving before the gate decided")
	}
	// A second challenger is rejected while the first is under trial.
	if _, err := srv.StartChallenger(cand, "test"); err == nil {
		t.Fatal("second concurrent challenger accepted")
	}
	// Drive enough traffic through the serving path for the decision.
	rows := poolRows(d, srv.cfg.ShadowMinRows)
	waitFor(t, "promotion", func() bool {
		if _, err := srv.DiagnoseVectors(rows[:16]); err != nil {
			t.Fatal(err)
		}
		return srv.serving().version == ver
	})
	st := srv.Model()
	if st.Promotions != 1 || st.ActiveVersion != ver {
		t.Fatalf("model status after promotion: %+v", st)
	}
	for _, info := range st.Registry {
		if info.Version == ver {
			if info.Stats == nil || info.Stats.Agreement < srv.cfg.MinAgreement {
				t.Fatalf("promoted entry missing passing stats: %+v", info)
			}
		}
	}
}

// permutedClassifier rotates the champion's probability rows so its
// argmax disagrees on (nearly) every sample: a poisoned candidate.
type permutedClassifier struct {
	ml.Classifier
}

func (p permutedClassifier) PredictProba(x []float64) []float64 {
	probs := p.Classifier.PredictProba(x)
	out := make([]float64, len(probs))
	for i := range probs {
		out[i] = probs[(i+1)%len(probs)]
	}
	return out
}

func TestPoisonedChallengerQuarantinedAndNeverServes(t *testing.T) {
	srv, d := newLifecycleServer(t, nil)
	x, y := srv.training()
	inner := forest.NewFactory(forest.Config{NEstimators: 8, MaxDepth: 5, Seed: 3})()
	if err := inner.Fit(x, y, len(d.Classes)); err != nil {
		t.Fatal(err)
	}
	champVer := srv.serving().version
	ver, err := srv.StartChallenger(permutedClassifier{inner}, "poisoned")
	if err != nil {
		t.Fatal(err)
	}
	rows := poolRows(d, srv.cfg.ShadowMinRows)
	sawVersions := map[uint64]bool{}
	waitFor(t, "quarantine", func() bool {
		res, derr := srv.DiagnoseVectors(rows[:16])
		if derr != nil {
			t.Fatal(derr)
		}
		for _, r := range res {
			sawVersions[r.ModelVersion] = true
		}
		return srv.Model().Quarantines == 1
	})
	// The poisoned version never served a single live response.
	if sawVersions[ver] {
		t.Fatalf("poisoned version %d served live traffic", ver)
	}
	if got := srv.serving().version; got != champVer {
		t.Fatalf("champion changed: %d -> %d", champVer, got)
	}
	var quarantined *registry.Info
	for _, info := range srv.Model().Registry {
		if info.Version == ver {
			q := info
			quarantined = &q
		}
	}
	if quarantined == nil || quarantined.State != registry.Quarantined || quarantined.Reason == "" {
		t.Fatalf("poisoned entry not quarantined with a reason: %+v", quarantined)
	}
	// Quarantine armed the trigger cooldown backoff.
	if mul := srv.lc.cooldownMul.Load(); mul != 2 {
		t.Fatalf("cooldown multiplier = %d, want 2 after one quarantine", mul)
	}
}

func TestRollbackRestoresByteIdenticalPredictions(t *testing.T) {
	srv, d := newLifecycleServer(t, nil)
	probe := poolRows(d, 8)

	before, err := srv.DiagnoseVectors(probe)
	if err != nil {
		t.Fatal(err)
	}
	v1 := before[0].ModelVersion

	// Publish a genuinely different model (different seed), then roll
	// back over it.
	srv.cfg.Factory = forest.NewFactory(forest.Config{NEstimators: 8, MaxDepth: 5, Seed: 99})
	if err := srv.Retrain(); err != nil {
		t.Fatal(err)
	}
	during, err := srv.DiagnoseVectors(probe)
	if err != nil {
		t.Fatal(err)
	}
	if during[0].ModelVersion == v1 {
		t.Fatal("retrain did not swap the serving version")
	}

	restored, err := srv.RollbackModel("test")
	if err != nil {
		t.Fatal(err)
	}
	if restored != v1 {
		t.Fatalf("rollback landed on %d, want %d", restored, v1)
	}
	after, err := srv.DiagnoseVectors(probe)
	if err != nil {
		t.Fatal(err)
	}
	for i := range probe {
		if after[i].ModelVersion != v1 {
			t.Fatalf("row %d served by version %d after rollback", i, after[i].ModelVersion)
		}
		for c := range after[i].Probs {
			if math.Float64bits(after[i].Probs[c]) != math.Float64bits(before[i].Probs[c]) {
				t.Fatalf("row %d class %d: %v != %v — rollback not byte-identical",
					i, c, after[i].Probs[c], before[i].Probs[c])
			}
		}
	}
	// The rolled-back version is terminal: a second rollback has no
	// older retired target and fails.
	if _, err := srv.RollbackModel("again"); err == nil {
		t.Fatal("rollback with no retired target should error")
	}
}

func TestRollbackEndpoint(t *testing.T) {
	srv, _ := newLifecycleServer(t, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// No retired version yet: 409.
	resp, err := http.Post(ts.URL+"/api/model/rollback", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("rollback with no target: status %d, want 409", resp.StatusCode)
	}

	if err := srv.Retrain(); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/api/model/rollback", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rollback: status %d", resp.StatusCode)
	}
	var body struct {
		ActiveVersion uint64 `json:"active_version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.ActiveVersion != 1 {
		t.Fatalf("rolled back to %d, want 1", body.ActiveVersion)
	}

	// Method guard.
	getResp, err := http.Get(ts.URL + "/api/model/rollback")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET rollback: status %d, want 405", getResp.StatusCode)
	}
}

// stuckClassifier parks batch scoring until released, so the shadow
// worker wedges and the bounded queue must shed.
type stuckClassifier struct {
	ml.Classifier
	release chan struct{}
	once    sync.Once
	entered chan struct{}
}

func (s *stuckClassifier) PredictProbaBatch(x [][]float64) [][]float64 {
	s.once.Do(func() { close(s.entered) })
	<-s.release
	return ml.ProbaBatch(s.Classifier, x)
}

func TestShadowOverloadShedsWithoutSlowingChampion(t *testing.T) {
	srv, d := newLifecycleServer(t, func(cfg *Config) {
		cfg.ShadowQueue = 2 // tiny bounded queue: overload is immediate
		cfg.ShadowMinRows = 1 << 20
	})
	x, y := srv.training()
	inner := forest.NewFactory(forest.Config{NEstimators: 8, MaxDepth: 5, Seed: 3})()
	if err := inner.Fit(x, y, len(d.Classes)); err != nil {
		t.Fatal(err)
	}
	stuck := &stuckClassifier{Classifier: inner, release: make(chan struct{}), entered: make(chan struct{})}
	defer close(stuck.release)
	if _, err := srv.StartChallenger(stuck, "stuck"); err != nil {
		t.Fatal(err)
	}

	rows := poolRows(d, 32)
	// First traffic wedges the worker inside the stuck challenger.
	if _, err := srv.DiagnoseVectors(rows); err != nil {
		t.Fatal(err)
	}
	select {
	case <-stuck.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("shadow worker never scored the challenger")
	}

	// With the worker wedged and the queue bounded at 2, sustained
	// champion traffic must (a) keep answering promptly and (b) shed.
	shedBefore := shadowShed.Value()
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; i < 50; i++ {
		res, err := srv.DiagnoseVectors(rows)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != len(rows) {
			t.Fatalf("short response: %d rows", len(res))
		}
		if time.Now().After(deadline) {
			t.Fatal("champion traffic slowed to a crawl while the shadow worker was wedged")
		}
	}
	if shed := shadowShed.Value(); shed <= shedBefore {
		t.Fatalf("shed counter did not advance (%d -> %d): bounded queue not shedding", shedBefore, shed)
	}
}

// TestLifecycleRaceHammer interleaves promotion (Retrain), rollback,
// diagnose traffic and registry listing under the race detector. Every
// served model_version must be one that was active at some point, and
// no listing may ever surface a half-published entry.
func TestLifecycleRaceHammer(t *testing.T) {
	srv, d := newLifecycleServer(t, func(cfg *Config) {
		// The repetitive probe traffic is (deliberately) nothing like
		// the training distribution; keep the drift trigger out of the
		// hammer so the writer goroutine is the only publisher.
		cfg.Drift.MinWindow = 1 << 20
		cfg.Drift.Window = 1 << 20
	})
	probe := poolRows(d, 4)

	// The single writer goroutine is the only publisher, so it can
	// record the exact ever-active version set as it goes.
	everActive := map[uint64]bool{srv.serving().version: true}
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 0; i < 30; i++ {
			if err := srv.Retrain(); err != nil {
				t.Errorf("retrain %d: %v", i, err)
				return
			}
			everActive[srv.Model().ActiveVersion] = true
			if i%3 == 2 {
				if v, err := srv.RollbackModel("hammer"); err == nil {
					everActive[v] = true
				}
			}
		}
	}()

	var wg sync.WaitGroup
	seen := make([]map[uint64]bool, 4)
	for r := 0; r < 4; r++ {
		seen[r] = map[uint64]bool{}
		wg.Add(1)
		go func(mine map[uint64]bool) {
			defer wg.Done()
			for {
				select {
				case <-writerDone:
					return
				default:
				}
				res, err := srv.DiagnoseVectors(probe)
				if err != nil {
					t.Errorf("diagnose: %v", err)
					return
				}
				for _, row := range res {
					mine[row.ModelVersion] = true
				}
				// Listing must never expose a half-published entry.
				st := srv.Model()
				if st.ActiveVersion == 0 {
					t.Error("listing with no active version")
					return
				}
				for _, info := range st.Registry {
					if info.Version == 0 || info.State == "" || info.TrainHash == "" || info.TrainSize == 0 {
						t.Errorf("half-published registry entry: %+v", info)
						return
					}
				}
			}
		}(seen[r])
	}
	wg.Wait()
	<-writerDone

	for r, mine := range seen {
		for v := range mine {
			if !everActive[v] {
				t.Errorf("reader %d served by version %d which was never active", r, v)
			}
		}
	}
}
