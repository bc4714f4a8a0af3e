// Package feed drives a running annotation server's
// POST /api/ingest/bulk with simulated fleet telemetry whose answer is
// known, then asks the server what it diagnosed. Every node's readings
// come from the telemetry simulator (Traffic), each with the HPAS
// anomaly injected into it, or none; after the last row, feed reads
// each node's last served label from GET /api/fleet/node/{id} and
// tabulates it against that truth. `albadross feed` wraps Run.
//
// The loop is closed: one connection, each request sent when the last
// one answered. A 429 is a partial accept, counted as such, and its
// Retry-After advice is slept out (at most a second) before the next
// request; shed rows are not re-offered.
package feed

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"text/tabwriter"
	"time"

	"albadross/internal/server"
	"albadross/internal/stats"
	"albadross/internal/telemetry"
)

const (
	// perRequest is the most nodes one bulk body carries, one row each:
	// the benchmark's request shape.
	perRequest = 64
	// Cycle is how many simulated ticks of each node's telemetry are
	// rendered before its readings repeat. It is serve's default
	// -ingest-window, so a default tumbling window sees one unbroken
	// stretch of a run. The rendered fragments take about
	// nodes × Cycle × 20 B × metrics: 33 MB for 32 Eclipse nodes at
	// 806 metrics.
	Cycle = 64
	// seed fixes the simulated campaign, so that for a given server the
	// table is deterministic.
	seed = 1
	// maxRetryPause caps one Retry-After wait.
	maxRetryPause = time.Second
)

// The confusion table's columns that are not a class label.
const (
	// Abstained counts nodes whose last window the server refused to
	// classify.
	Abstained = "(abstained)"
	// NoWindow counts nodes that never completed a window.
	NoWindow = "(no window)"
)

// Config is one feed run.
type Config struct {
	// Addr is the server root, e.g. "http://127.0.0.1:8080".
	Addr string
	// System builds the simulated machine at the server's metric count:
	// telemetry.Volta or telemetry.Eclipse.
	System func(metrics int) *telemetry.SystemSpec
	// Nodes is the simulated node population, ids 0..Nodes-1.
	Nodes int
	// Rows is how many readings each node is sent.
	Rows int
}

// Report is what a run measured and what the server served. Always
// OfferedRows == AcceptedRows + RejectedRows + ShedRows.
type Report struct {
	Requests     int   `json:"requests"`
	OfferedRows  int64 `json:"offered_rows"`
	AcceptedRows int64 `json:"accepted_rows"`
	RejectedRows int64 `json:"rejected_rows"`
	ShedRows     int64 `json:"shed_rows"`
	// Throttled counts 429 answers (partial accepts, not errors).
	Throttled  int     `json:"throttled_requests"`
	ElapsedSec float64 `json:"elapsed_sec"`
	// RowsPerSec is accepted rows per second of the posting phase.
	RowsPerSec float64 `json:"rows_per_sec"`
	P50Ms      float64 `json:"p50_ms"`
	P90Ms      float64 `json:"p90_ms"`
	P99Ms      float64 `json:"p99_ms"`
	// Confusion counts nodes by injected anomaly (outer key) and by what
	// the server last served them (inner key): a class label, Abstained
	// or NoWindow.
	Confusion map[string]map[string]int `json:"confusion"`
}

// Run simulates cfg.Nodes nodes at the width the server's schema
// names, posts cfg.Rows readings for each, and tabulates the labels
// served. It stops at the first transport error or at any answer but
// 200 or 429.
func Run(cfg Config) (*Report, error) {
	if cfg.Nodes <= 0 || cfg.Rows <= 0 {
		return nil, fmt.Errorf("feed: need positive nodes and rows, got %d and %d", cfg.Nodes, cfg.Rows)
	}
	client := &http.Client{Timeout: time.Minute}
	sys, err := system(client, cfg)
	if err != nil {
		return nil, err
	}
	tr, err := NewTraffic(sys, cfg.Nodes, Cycle, seed)
	if err != nil {
		return nil, err
	}
	rep, err := post(client, cfg, tr)
	if err != nil {
		return nil, err
	}
	return rep, rep.tabulate(client, cfg.Addr, tr, cfg.Nodes)
}

// system reads the server's schema and builds the simulated machine at
// its width, refusing a server that is not in window mode or whose
// metrics the simulator does not name alike.
func system(client *http.Client, cfg Config) (*telemetry.SystemSpec, error) {
	var s server.SchemaResponse
	if _, err := exchange(client, http.MethodGet, cfg.Addr+"/api/schema", nil, &s, http.StatusOK); err != nil {
		return nil, err
	}
	if !s.WindowMode || len(s.Metrics) == 0 {
		return nil, errors.New("feed: the server takes no raw telemetry (window mode is off): start serve with -ingest-shards and -ingest-metrics")
	}
	sys := cfg.System(len(s.Metrics))
	if len(sys.Metrics) != len(s.Metrics) {
		return nil, fmt.Errorf("feed: the server has %d metrics, the %s simulator builds %d", len(s.Metrics), sys.Name, len(sys.Metrics))
	}
	for i, m := range sys.Metrics {
		if m.Name != s.Metrics[i] {
			return nil, fmt.Errorf("feed: server metric %d is %q, the %s simulator's is %q", i, s.Metrics[i], sys.Name, m.Name)
		}
	}
	return sys, nil
}

// post sends every node's rows, a round at a time: each round gives
// every node its next timestep, in requests of up to perRequest nodes.
func post(client *http.Client, cfg Config, tr *Traffic) (*Report, error) {
	rep := &Report{}
	url := cfg.Addr + "/api/ingest/bulk"
	ids := make([]int, cfg.Nodes)
	for n := range ids {
		ids[n] = n
	}
	next := make([]int, cfg.Nodes)
	var body []byte
	var lat []float64
	start := time.Now()
	for r := 0; r < cfg.Rows; r++ {
		for lo := 0; lo < cfg.Nodes; lo += perRequest {
			group := ids[lo:min(lo+perRequest, cfg.Nodes)]
			body = tr.AppendBody(body, group, next)
			var acct server.BulkIngestResponse
			t0 := time.Now()
			status, err := exchange(client, http.MethodPost, url, body, &acct, http.StatusOK, http.StatusTooManyRequests)
			lat = append(lat, float64(time.Since(t0))/1e6)
			if err != nil {
				return nil, err
			}
			rep.Requests++
			rep.OfferedRows += int64(acct.Offered)
			rep.AcceptedRows += int64(acct.Accepted)
			rep.RejectedRows += int64(acct.Rejected)
			rep.ShedRows += int64(acct.Shed)
			for _, n := range group {
				next[n]++
			}
			if status == http.StatusTooManyRequests {
				rep.Throttled++
				time.Sleep(min(time.Duration(acct.RetryAfterMs)*time.Millisecond, maxRetryPause))
			}
		}
	}
	rep.ElapsedSec = time.Since(start).Seconds()
	rep.RowsPerSec = float64(rep.AcceptedRows) / rep.ElapsedSec
	q := stats.QuantilesSorted(lat, 0.50, 0.90, 0.99)
	rep.P50Ms, rep.P90Ms, rep.P99Ms = q[0], q[1], q[2]
	return rep, nil
}

// tabulate reads every node's view and counts its last served label
// against its injected anomaly. A node the server has no stream for
// (404: every row shed or rejected) counts as NoWindow.
func (r *Report) tabulate(client *http.Client, addr string, tr *Traffic, nodes int) error {
	r.Confusion = map[string]map[string]int{}
	for n := 0; n < nodes; n++ {
		var view server.FleetNodeResponse
		url := fmt.Sprintf("%s/api/fleet/node/%d", addr, n)
		status, err := exchange(client, http.MethodGet, url, nil, &view, http.StatusOK, http.StatusNotFound)
		if err != nil {
			return err
		}
		served := view.Rollup.LastLabel
		switch {
		case status == http.StatusNotFound || view.Rollup.Windows == 0:
			served = NoWindow
		case view.Rollup.LastAbstained:
			served = Abstained
		}
		row := r.Confusion[tr.Label(n)]
		if row == nil {
			row = map[string]int{}
			r.Confusion[tr.Label(n)] = row
		}
		row[served]++
	}
	return nil
}

// exchange sends one request and reads the whole answer, so the
// connection is reused. An answer whose status is not listed in ok is
// an error carrying the server's message; otherwise the body is
// decoded into out.
func exchange(client *http.Client, method, url string, body []byte, out interface{}, ok ...int) (int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return resp.StatusCode, err
	}
	for _, s := range ok {
		if resp.StatusCode != s {
			continue
		}
		if err := json.Unmarshal(raw, out); err != nil {
			return s, fmt.Errorf("feed: %s %s: decoding the answer: %w", method, url, err)
		}
		return s, nil
	}
	return resp.StatusCode, fmt.Errorf("feed: %s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(raw))
}

// WriteTable prints the confusion table: one line per injected
// anomaly, one column per served label, then Abstained and NoWindow.
func (r *Report) WriteTable(w io.Writer) error {
	var truths, cols []string
	seen := map[string]bool{Abstained: true, NoWindow: true}
	for truth, row := range r.Confusion {
		truths = append(truths, truth)
		for c := range row {
			if !seen[c] {
				seen[c] = true
				cols = append(cols, c)
			}
		}
	}
	sort.Strings(truths)
	sort.Strings(cols)
	cols = append(cols, Abstained, NoWindow)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprint(tw, "injected \\ served")
	for _, c := range cols {
		fmt.Fprintf(tw, "\t%s", c)
	}
	fmt.Fprintln(tw)
	for _, truth := range truths {
		fmt.Fprint(tw, truth)
		for _, c := range cols {
			fmt.Fprintf(tw, "\t%d", r.Confusion[truth][c])
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}
