// Package loadgen drives a live annotation server with synthetic
// traffic — /api/diagnose here, /api/ingest/bulk in fleet.go — and
// measures throughput and latency percentiles; cmd/loadgen wraps it as
// the operator's CLI.
//
// The generator is stdlib-only. Each worker runs its own request loop
// (closed-loop by default; open-loop when a target QPS is set) against
// the diagnose endpoint, posting either single feature vectors or bulk
// batch requests, and records per-request wall times. Results merge
// into one sorted latency population for percentile math.
package loadgen

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Config parameterizes one load-generation run.
type Config struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Duration is how long to generate load.
	Duration time.Duration
	// Concurrency is the number of independent request loops.
	Concurrency int
	// QPS, when positive, paces the whole fleet to this aggregate request
	// rate (open loop). Zero means closed loop: every worker fires its
	// next request as soon as the previous one answers.
	QPS float64
	// Rows is the number of feature vectors per request: 1 posts the
	// classic {"features": ...} payload, larger values post bulk
	// {"batch": ...} requests.
	Rows int
	// Seed drives the synthetic feature values.
	Seed int64
	// Client optionally overrides the HTTP client (timeouts, transport).
	Client *http.Client
}

// Result summarizes one run.
type Result struct {
	// Requests is the number of completed HTTP requests (any status).
	Requests int `json:"requests"`
	// Rows is the number of feature vectors diagnosed (Requests x Rows
	// for successful requests).
	Rows int `json:"rows"`
	// Errors counts transport failures and non-200 responses.
	Errors int `json:"errors"`
	// ElapsedSec is the measured wall time of the run.
	ElapsedSec float64 `json:"elapsed_sec"`
	// RequestsPerSec is Requests / ElapsedSec.
	RequestsPerSec float64 `json:"requests_per_sec"`
	// RowsPerSec is Rows / ElapsedSec — the headline throughput number.
	RowsPerSec float64 `json:"rows_per_sec"`
	// P50Ms, P90Ms, P99Ms, MaxMs are request latency percentiles in
	// milliseconds.
	P50Ms float64 `json:"p50_ms"`
	P90Ms float64 `json:"p90_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
}

// schemaPayload is the subset of /api/schema the generators need.
type schemaPayload struct {
	FeatureDim int      `json:"feature_dim"`
	Metrics    []string `json:"metrics"`
}

// fetchSchema retrieves the server's diagnosis contract — the one
// discovery call both the diagnose and the fleet generators build on.
func fetchSchema(client *http.Client, baseURL string) (schemaPayload, error) {
	var s schemaPayload
	resp, err := client.Get(baseURL + "/api/schema")
	if err != nil {
		return s, err
	}
	defer func() { _ = resp.Body.Close() }() //albacheck:ignore errsilent read-only GET; a close failure cannot invalidate the decoded payload
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("GET /api/schema: status %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&s)
	return s, err
}

// FetchDim asks a running server for its feature width via /api/schema.
func FetchDim(client *http.Client, baseURL string) (int, error) {
	s, err := fetchSchema(client, baseURL)
	if err != nil {
		return 0, err
	}
	if s.FeatureDim <= 0 {
		return 0, fmt.Errorf("schema reports feature_dim %d", s.FeatureDim)
	}
	return s.FeatureDim, nil
}

// FetchMetrics asks a running server for its raw telemetry width (the
// metric count bulk-ingest rows must carry) via /api/schema.
func FetchMetrics(client *http.Client, baseURL string) (int, error) {
	s, err := fetchSchema(client, baseURL)
	if err != nil {
		return 0, err
	}
	if len(s.Metrics) == 0 {
		return 0, errors.New("schema reports no raw metrics (window mode is off)")
	}
	return len(s.Metrics), nil
}

// worker state: one request loop's latency samples and counts.
type workerStats struct {
	lat      []time.Duration
	requests int
	rows     int
	errors   int
}

// Run generates load per cfg, at the feature width the server reports
// on GET /api/schema, and returns the merged measurement.
func Run(cfg Config) (*Result, error) {
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 1
	}
	if cfg.Rows <= 0 {
		cfg.Rows = 1
	}
	if cfg.Duration <= 0 {
		return nil, errors.New("loadgen: duration must be positive")
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	dim, err := FetchDim(client, cfg.BaseURL)
	if err != nil {
		return nil, fmt.Errorf("loadgen: discovering feature dim: %w", err)
	}

	// Open-loop pacing: each worker owns an equal share of the target
	// rate and fires on its own clock.
	var interval time.Duration
	if cfg.QPS > 0 {
		interval = time.Duration(float64(time.Second) * float64(cfg.Concurrency) / cfg.QPS)
	}

	url := cfg.BaseURL + "/api/diagnose"
	deadline := time.Now().Add(cfg.Duration)
	stats := make([]workerStats, cfg.Concurrency)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := &stats[w]
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)*7919))
			body := make([]byte, 0, 256)
			next := time.Now()
			for time.Now().Before(deadline) {
				if interval > 0 {
					if d := time.Until(next); d > 0 {
						time.Sleep(d)
					}
					next = next.Add(interval)
				}
				body = appendRequestBody(body[:0], rng, dim, cfg.Rows)
				t0 := time.Now()
				ok := post(client, url, body)
				st.lat = append(st.lat, time.Since(t0))
				st.requests++
				if ok {
					st.rows += cfg.Rows
				} else {
					st.errors++
				}
			}
		}(w)
	}
	wg.Wait()
	return mergeStats(stats, time.Since(start))
}

// mergeStats folds per-worker request loops into one Result: summed
// counts, one merged latency population, percentile math. Shared by
// the diagnose and fleet drivers so the two report identically.
func mergeStats(stats []workerStats, elapsed time.Duration) (*Result, error) {
	res := &Result{ElapsedSec: elapsed.Seconds()}
	var all []time.Duration
	for i := range stats {
		res.Requests += stats[i].requests
		res.Rows += stats[i].rows
		res.Errors += stats[i].errors
		all = append(all, stats[i].lat...)
	}
	if res.Requests == 0 {
		return nil, errors.New("loadgen: no requests completed within the duration")
	}
	res.RequestsPerSec = float64(res.Requests) / res.ElapsedSec
	res.RowsPerSec = float64(res.Rows) / res.ElapsedSec
	res.P50Ms = Percentile(all, 0.50).Seconds() * 1e3
	res.P90Ms = Percentile(all, 0.90).Seconds() * 1e3
	res.P99Ms = Percentile(all, 0.99).Seconds() * 1e3
	res.MaxMs = Percentile(all, 1).Seconds() * 1e3
	return res, nil
}

// appendRequestBody builds one diagnose request payload in place:
// {"features": [...]} for rows == 1, {"batch": [[...], ...]} otherwise.
// Values are uniform in [0, 1) — the synthetic benchmark dataset's
// feature range.
func appendRequestBody(dst []byte, rng *rand.Rand, dim, rows int) []byte {
	appendVec := func(dst []byte) []byte {
		dst = append(dst, '[')
		for i := 0; i < dim; i++ {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendFloat(dst, rng.Float64())
		}
		return append(dst, ']')
	}
	if rows == 1 {
		dst = append(dst, `{"features":`...)
		dst = appendVec(dst)
		return append(dst, '}')
	}
	dst = append(dst, `{"batch":[`...)
	for r := 0; r < rows; r++ {
		if r > 0 {
			dst = append(dst, ',')
		}
		dst = appendVec(dst)
	}
	return append(dst, `]}`...)
}

// appendFloat formats a value in [0, 1) with fixed short precision —
// enough entropy to dodge any caching while keeping payloads compact.
// strconv.AppendFloat keeps the generator cheap: on small machines the
// client and server share cores, so formatting cost skews the measured
// throughput.
func appendFloat(dst []byte, v float64) []byte {
	return strconv.AppendFloat(dst, v, 'f', 4, 64)
}

// post sends one diagnose request and reports whether it succeeded.
// Bodies are drained so connections are reused.
func post(client *http.Client, url string, body []byte) bool {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return false
	}
	drainBody(resp)
	if err := resp.Body.Close(); err != nil {
		return false
	}
	return resp.StatusCode == http.StatusOK
}

// Percentile returns the q-quantile (0 <= q <= 1) of a latency
// population using nearest-rank interpolation. The population is
// sorted in place on first use when it is not already ascending, so
// callers need not pre-sort; repeated calls over the same slice pay
// only an O(n) check. An empty population yields 0.
func Percentile(lat []time.Duration, q float64) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	if !sort.SliceIsSorted(lat, func(i, j int) bool { return lat[i] < lat[j] }) {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	}
	if q <= 0 {
		return lat[0]
	}
	if q >= 1 {
		return lat[len(lat)-1]
	}
	pos := q * float64(len(lat)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(lat) {
		return lat[len(lat)-1]
	}
	return lat[lo] + time.Duration(frac*float64(lat[lo+1]-lat[lo]))
}
