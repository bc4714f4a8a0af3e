// Fleet load generation: drives POST /api/ingest/bulk with interleaved
// multi-node LDMS-style batches, the raw reading width discovered from
// GET /api/schema. Each worker owns a disjoint slice of the logical node
// population and maintains per-node monotone timestamps, so the server's
// duplicate screening never trips; per-node value streams are seeded with
// runner.CellSeed so the traffic is node-skewed but reproducible. The
// driver understands the bulk endpoint's back-pressure contract: a 429
// is partial accept, not an error — its accounting is folded in and the
// Retry-After advice optionally honored.
package loadgen

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"albadross/internal/runner"
)

// FleetConfig parameterizes one bulk-ingest load run.
type FleetConfig struct {
	// BaseURL is the server root.
	BaseURL string
	// Duration is how long to generate load.
	Duration time.Duration
	// Concurrency is the number of independent request loops; the node
	// population is partitioned across them.
	Concurrency int
	// Nodes is the logical node population (ids 0..Nodes-1).
	Nodes int
	// RowsPerNode is how many readings each addressed node contributes
	// to one batch (default 8).
	RowsPerNode int
	// NodesPerRequest bounds how many of a worker's nodes are
	// interleaved into one batch; 0 means all of them (the bulk shape).
	// 1 with RowsPerNode 1 is the single-row baseline.
	NodesPerRequest int
	// Seed drives the synthetic readings (skewed per node).
	Seed int64
	// HonorRetry sleeps out the server's Retry-After advice after a 429
	// before the next request. Leave false to measure shed rate at
	// sustained overload.
	HonorRetry bool
	// Client optionally overrides the HTTP client.
	Client *http.Client
}

// FleetResult summarizes one bulk-ingest run. The embedded Result's
// Rows counts ACCEPTED readings (so RowsPerSec is accepted throughput);
// always OfferedRows == Rows + RejectedRows + ShedRows.
type FleetResult struct {
	Result
	// Nodes is the logical node population driven.
	Nodes int `json:"nodes"`
	// OfferedRows / RejectedRows / ShedRows aggregate the server's
	// per-batch accounting across every completed request.
	OfferedRows  int64 `json:"offered_rows"`
	RejectedRows int64 `json:"rejected_rows"`
	ShedRows     int64 `json:"shed_rows"`
	// Throttled counts 429 responses (partial accepts, not errors).
	Throttled int `json:"throttled_requests"`
}

// bulkAccounting is the slice of the bulk response the driver reads.
type bulkAccounting struct {
	Offered      int   `json:"offered"`
	Accepted     int   `json:"accepted"`
	Rejected     int   `json:"rejected"`
	Shed         int   `json:"shed"`
	RetryAfterMs int64 `json:"retry_after_ms"`
}

// fleetNode is one logical node's generator state: a monotone timestep
// and a node-seeded value stream.
type fleetNode struct {
	id  int
	app string
	t   int
	rng *rand.Rand
}

// Fleet generates bulk-ingest load per cfg and returns the merged
// measurement.
func Fleet(cfg FleetConfig) (*FleetResult, error) {
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 1
	}
	if cfg.Nodes <= 0 {
		return nil, errors.New("loadgen: fleet needs a positive node count")
	}
	if cfg.Concurrency > cfg.Nodes {
		cfg.Concurrency = cfg.Nodes
	}
	if cfg.RowsPerNode <= 0 {
		cfg.RowsPerNode = 8
	}
	if cfg.Duration <= 0 {
		return nil, errors.New("loadgen: duration must be positive")
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	metrics, err := FetchMetrics(client, cfg.BaseURL)
	if err != nil {
		return nil, fmt.Errorf("loadgen: discovering metric width: %w", err)
	}

	url := cfg.BaseURL + "/api/ingest/bulk"
	deadline := time.Now().Add(cfg.Duration)
	stats := make([]workerStats, cfg.Concurrency)
	extras := make([]fleetWorkerExtra, cfg.Concurrency)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fleetWorker(cfg, client, url, metrics, w, deadline, &stats[w], &extras[w])
		}(w)
	}
	wg.Wait()
	merged, err := mergeStats(stats, time.Since(start))
	if err != nil {
		return nil, err
	}
	res := &FleetResult{Result: *merged, Nodes: cfg.Nodes}
	for i := range extras {
		res.OfferedRows += extras[i].offered
		res.RejectedRows += extras[i].rejected
		res.ShedRows += extras[i].shed
		res.Throttled += extras[i].throttled
	}
	return res, nil
}

// fleetWorkerExtra is the bulk accounting one request loop accumulates
// on top of the shared workerStats.
type fleetWorkerExtra struct {
	offered   int64
	rejected  int64
	shed      int64
	throttled int
}

// fleetWorker runs one request loop over its partition of the node
// population (nodes w, w+C, w+2C, ...).
func fleetWorker(cfg FleetConfig, client *http.Client, url string, metrics, w int, deadline time.Time, st *workerStats, ex *fleetWorkerExtra) {
	var owned []*fleetNode
	for n := w; n < cfg.Nodes; n += cfg.Concurrency {
		owned = append(owned, &fleetNode{
			id:  n,
			app: fmt.Sprintf("app-%02d", n%16),
			rng: rand.New(rand.NewSource(runner.CellSeed(cfg.Seed, n))),
		})
	}
	group := cfg.NodesPerRequest
	if group <= 0 || group > len(owned) {
		group = len(owned)
	}
	body := make([]byte, 0, 4096)
	cursor := 0
	for time.Now().Before(deadline) {
		body = body[:0]
		body = append(body, `{"rows":[`...)
		for g := 0; g < group; g++ {
			node := owned[cursor]
			cursor = (cursor + 1) % len(owned)
			for r := 0; r < cfg.RowsPerNode; r++ {
				if len(body) > len(`{"rows":[`) {
					body = append(body, ',')
				}
				body = appendBulkRow(body, node, metrics)
				node.t++
			}
		}
		body = append(body, `]}`...)

		t0 := time.Now()
		acct, status, err := postBulkBody(client, url, body)
		st.lat = append(st.lat, time.Since(t0))
		st.requests++
		switch {
		case err != nil:
			st.errors++
		case status == http.StatusOK, status == http.StatusTooManyRequests:
			st.rows += acct.Accepted
			ex.offered += int64(acct.Offered)
			ex.rejected += int64(acct.Rejected)
			ex.shed += int64(acct.Shed)
			if status == http.StatusTooManyRequests {
				ex.throttled++
				if cfg.HonorRetry && acct.RetryAfterMs > 0 {
					pause := time.Duration(acct.RetryAfterMs) * time.Millisecond
					if max := time.Second; pause > max {
						pause = max
					}
					time.Sleep(pause)
				}
			}
		default:
			st.errors++
		}
	}
}

// appendBulkRow renders one node reading in place: monotone timestep,
// node-skewed values around a per-node baseline.
func appendBulkRow(dst []byte, node *fleetNode, metrics int) []byte {
	dst = append(dst, `{"node":`...)
	dst = appendInt(dst, node.id)
	dst = append(dst, `,"app":"`...)
	dst = append(dst, node.app...)
	dst = append(dst, `","t":`...)
	dst = appendInt(dst, node.t)
	dst = append(dst, `,"values":[`...)
	base := float64(node.id%7) * 0.1
	for m := 0; m < metrics; m++ {
		if m > 0 {
			dst = append(dst, ',')
		}
		dst = appendFloat(dst, base+node.rng.Float64())
	}
	return append(dst, `]}`...)
}

// postBulkBody sends one bulk batch and decodes the server's
// accounting. 200 and 429 both carry accounting; anything else is a
// transport- or server-level failure.
func postBulkBody(client *http.Client, url string, body []byte) (bulkAccounting, int, error) {
	var acct bulkAccounting
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return acct, 0, err
	}
	status := resp.StatusCode
	if status == http.StatusOK || status == http.StatusTooManyRequests {
		err = json.NewDecoder(resp.Body).Decode(&acct)
	} else {
		drainBody(resp)
	}
	if cerr := resp.Body.Close(); err == nil && cerr != nil {
		err = cerr
	}
	return acct, status, err
}

// drainBody empties a response body so the connection is reused.
func drainBody(resp *http.Response) {
	var sink [512]byte
	for {
		if _, err := resp.Body.Read(sink[:]); err != nil {
			return
		}
	}
}

// appendInt is strconv.AppendInt without the int64 noise at call sites.
func appendInt(dst []byte, v int) []byte {
	return strconv.AppendInt(dst, int64(v), 10)
}
