package loadgen

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"albadross/internal/server"
)

// benchFleetURL spins the fleet bench server on a loopback listener.
func benchFleetURL(t *testing.T, shards int) string {
	t.Helper()
	srv, err := NewFleetBenchServer(11, server.FleetConfig{
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
	if n != FleetMetrics {
		t.Fatalf("FetchMetrics = %d, want %d", n, FleetMetrics)
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

func TestFleetSelfcheckSmoke(t *testing.T) {
	rep, err := FleetSelfcheck(FleetSelfcheckConfig{
		Duration:    200 * time.Millisecond,
		Trials:      1,
		Concurrency: 2,
		Nodes:       8,
		Shards:      2,
		RowsPerNode: 4,
		Seed:        7,
	}, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Single == nil || rep.Bulk == nil || rep.Speedup <= 0 {
		t.Fatalf("degenerate selfcheck report: %+v", rep)
	}
	if rep.Nodes != 8 || rep.Shards != 2 {
		t.Fatalf("report geometry %d nodes / %d shards, want 8 / 2", rep.Nodes, rep.Shards)
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
