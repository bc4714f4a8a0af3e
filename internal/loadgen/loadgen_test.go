package loadgen

import (
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"albadross/internal/active"
	"albadross/internal/dataset"
	"albadross/internal/ml/forest"
	"albadross/internal/ml/tree"
	"albadross/internal/server"
	"albadross/internal/telemetry"
)

// benchDim is the synthetic dataset's feature width — wide enough that
// JSON encode/decode per request is realistic, narrow enough to keep
// the tests fast.
const benchDim = 32

// newBenchServer builds a synthetic feature-space annotation server: a
// separable 3-class problem and the production default model (entropy
// forest).
func newBenchServer(seed int64) (*server.Server, error) {
	classes := []string{"healthy", "cpuoccupy", "memleak"}
	rng := rand.New(rand.NewSource(seed))
	d := dataset.New(classes)
	for i := 0; i < 600; i++ {
		label := 0
		if rng.Float64() < 0.2 {
			label = 1 + rng.Intn(2)
		}
		x := make([]float64, benchDim)
		for j := range x {
			x[j] = rng.Float64() * 0.3
		}
		if label > 0 {
			x[label-1] += 0.8
		}
		if err := d.Add(x, classes[label], telemetry.RunMeta{App: "BT", Node: i % 8}); err != nil {
			return nil, err
		}
	}
	split, err := dataset.MakeALSplit(d, dataset.ALSplitConfig{
		TestFraction: 0.3, AnomalyRatio: 0.10, HealthyClass: 0, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	return server.New(server.Config{
		Data:  d,
		Split: split,
		Factory: forest.NewFactory(forest.Config{
			NEstimators: 40, MaxDepth: 10, Criterion: tree.Entropy, Seed: seed,
		}),
		Strategy: active.Uncertainty{},
		Seed:     seed + 7,
	})
}

// TestRunDiagnoseRoundTrip drives /api/diagnose on an in-process server
// with both payload shapes — closed-loop {"batch": ...} requests and
// QPS-paced {"features": ...} requests — discovering the width from
// /api/schema, and checks the merged measurement is self-consistent.
func TestRunDiagnoseRoundTrip(t *testing.T) {
	srv, err := newBenchServer(3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	hts := httptest.NewServer(srv.Handler())
	t.Cleanup(hts.Close)

	for _, cfg := range []Config{
		{Concurrency: 2, Rows: 8},
		{Concurrency: 2, Rows: 1, QPS: 200},
	} {
		cfg.BaseURL = hts.URL
		cfg.Duration = 200 * time.Millisecond
		cfg.Seed = 5
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("rows %d: %v", cfg.Rows, err)
		}
		if res.Errors != 0 {
			t.Fatalf("rows %d: %d of %d requests failed", cfg.Rows, res.Errors, res.Requests)
		}
		if res.Requests == 0 || res.Rows != res.Requests*cfg.Rows {
			t.Fatalf("rows %d: %d rows over %d requests", cfg.Rows, res.Rows, res.Requests)
		}
		if !(res.P50Ms > 0 && res.P50Ms <= res.P90Ms && res.P90Ms <= res.P99Ms && res.P99Ms <= res.MaxMs) {
			t.Fatalf("rows %d: percentiles out of order: %+v", cfg.Rows, res)
		}
	}
}
