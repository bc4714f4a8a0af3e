package loadgen

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"albadross/internal/active"
	"albadross/internal/dataset"
	"albadross/internal/features"
	"albadross/internal/features/mvts"
	"albadross/internal/ml/forest"
	"albadross/internal/server"
	"albadross/internal/telemetry"
	"albadross/internal/ts"
)

// fleetMetrics is the raw telemetry width of the fleet bench server's
// schema; bulk rows posted at it must carry exactly this many values.
const fleetMetrics = 3

// newFleetBenchServer builds a synthetic fleet-mode annotation server:
// a 3-metric schema, an mvts feature space, a cheap deterministic
// forest, and the caller's fleet geometry. Zeroed window geometry
// defaults to Window 16 / Stride 16.
func newFleetBenchServer(seed int64, fc server.FleetConfig) (*server.Server, error) {
	if fc.Shards <= 0 {
		fc.Shards = 4
	}
	if fc.Window == 0 {
		fc.Window = 16
	}
	if fc.Stride == 0 {
		fc.Stride = fc.Window
	}
	schema := []telemetry.Metric{{Name: "cpu.user"}, {Name: "mem.active"}, {Name: "net.rx"}}
	ext := mvts.Extractor{}
	classes := []string{"healthy", "cpuoccupy", "memleak"}
	rng := rand.New(rand.NewSource(seed))
	d := dataset.New(classes)
	for i := 0; i < 120; i++ {
		label := i % len(classes)
		block := &ts.Multivariate{Metrics: make([]ts.Series, len(schema))}
		for m := range block.Metrics {
			level := 1.0
			if label > 0 && m == label-1 {
				level = 6.0
			}
			s := make(ts.Series, 32)
			for j := range s {
				s[j] = level + 0.1*rng.NormFloat64()
			}
			block.Metrics[m] = s
		}
		vec := features.ExtractSample(ext, block)
		features.Sanitize(vec)
		if err := d.Add(vec, classes[label], telemetry.RunMeta{App: "BT", Node: i % 8}); err != nil {
			return nil, err
		}
	}
	split, err := dataset.MakeALSplit(d, dataset.ALSplitConfig{
		TestFraction: 0.3, AnomalyRatio: 0.34, HealthyClass: 0, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	// Label the whole pool up front so repeated constructions train the
	// identical champion.
	split.Initial = append(split.Initial, split.Pool...)
	split.Pool = nil
	return server.New(server.Config{
		Data:      d,
		Split:     split,
		Factory:   forest.NewFactory(forest.Config{NEstimators: 10, MaxDepth: 6, Seed: seed}),
		Strategy:  active.Uncertainty{},
		Seed:      seed + 7,
		Schema:    schema,
		Extractor: ext,
		Fleet:     fc,
	})
}

// benchFleetURL spins the fleet bench server on a loopback listener.
func benchFleetURL(t *testing.T, shards int) string {
	t.Helper()
	srv, err := newFleetBenchServer(11, server.FleetConfig{
		IngestConfig: server.IngestConfig{Shards: shards},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	hts := httptest.NewServer(srv.Handler())
	t.Cleanup(hts.Close)
	return hts.URL
}

func TestFleetDriverRoundTrip(t *testing.T) {
	url := benchFleetURL(t, 2)
	res, err := Fleet(FleetConfig{
		BaseURL:     url,
		Duration:    300 * time.Millisecond,
		Concurrency: 2,
		Nodes:       8,
		RowsPerNode: 4,
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors > 0 {
		t.Fatalf("fleet driver saw %d errors over %d requests", res.Errors, res.Requests)
	}
	if res.Rows == 0 {
		t.Fatal("no rows accepted")
	}
	if res.RejectedRows != 0 {
		t.Fatalf("server rejected %d rows — generator width or monotonicity broke", res.RejectedRows)
	}
	// The accounting identity the server promises per batch must
	// survive aggregation across workers and requests.
	if res.OfferedRows != int64(res.Rows)+res.RejectedRows+res.ShedRows {
		t.Fatalf("accounting identity broke: offered %d != accepted %d + rejected %d + shed %d",
			res.OfferedRows, res.Rows, res.RejectedRows, res.ShedRows)
	}
	if res.RowsPerSec <= 0 || res.P99Ms < res.P50Ms {
		t.Fatalf("implausible measurement: %+v", res)
	}
}

func TestFleetDriverSingleRowShape(t *testing.T) {
	url := benchFleetURL(t, 2)
	res, err := Fleet(FleetConfig{
		BaseURL:         url,
		Duration:        200 * time.Millisecond,
		Concurrency:     1,
		Nodes:           4,
		RowsPerNode:     1,
		NodesPerRequest: 1,
		Seed:            5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// One node, one reading per request: offered must equal requests
	// that completed successfully.
	if res.OfferedRows != int64(res.Requests-res.Errors) {
		t.Fatalf("single-row shape offered %d rows over %d ok requests",
			res.OfferedRows, res.Requests-res.Errors)
	}
}

func TestFetchSchemaDiscovery(t *testing.T) {
	url := benchFleetURL(t, 2)
	client := &http.Client{Timeout: 10 * time.Second}
	n, err := FetchMetrics(client, url)
	if err != nil {
		t.Fatal(err)
	}
	if n != fleetMetrics {
		t.Fatalf("FetchMetrics = %d, want %d", n, fleetMetrics)
	}
	dim, err := FetchDim(client, url)
	if err != nil {
		t.Fatal(err)
	}
	if dim <= 0 {
		t.Fatalf("FetchDim = %d", dim)
	}
}

func TestFetchMetricsErrorsWithoutWindowMode(t *testing.T) {
	srv, err := newBenchServer(3) // feature-space server: no raw schema
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	hts := httptest.NewServer(srv.Handler())
	t.Cleanup(hts.Close)
	if _, err := FetchMetrics(hts.Client(), hts.URL); err == nil {
		t.Fatal("FetchMetrics succeeded against a server without window mode")
	}
}

func TestPercentileSortsInPlace(t *testing.T) {
	lat := []time.Duration{5, 1, 9, 3, 7}
	if got := Percentile(lat, 0.5); got != 5 {
		t.Fatalf("median of unsorted population = %v, want 5", got)
	}
	if got := Percentile(lat, 1); got != 9 {
		t.Fatalf("max = %v, want 9", got)
	}
	if got := Percentile(lat, 0); got != 1 {
		t.Fatalf("min = %v, want 1", got)
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Fatalf("empty population = %v, want 0", got)
	}
}
