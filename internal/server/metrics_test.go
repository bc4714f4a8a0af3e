package server

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"albadross/internal/fleet"
	"albadross/internal/obs"
)

// metricsJSON mirrors the /api/metrics JSON shape (obs.Snapshot).
type metricsJSON struct {
	Families []struct {
		Name   string `json:"name"`
		Kind   string `json:"kind"`
		Series []struct {
			Labels map[string]string `json:"labels"`
			Value  float64           `json:"value"`
			Count  uint64            `json:"count"`
		} `json:"series"`
	} `json:"families"`
}

// counterValue sums the series of a counter family matching the given
// label subset (nil matches everything).
func (m *metricsJSON) counterValue(name string, labels map[string]string) float64 {
	total := 0.0
	for _, f := range m.Families {
		if f.Name != name {
			continue
		}
		for _, s := range f.Series {
			ok := true
			for k, v := range labels {
				if s.Labels[k] != v {
					ok = false
					break
				}
			}
			if ok {
				total += s.Value
			}
		}
	}
	return total
}

// histCount returns the observation count of a histogram family's series
// matching the label subset.
func (m *metricsJSON) histCount(name string, labels map[string]string) uint64 {
	var total uint64
	for _, f := range m.Families {
		if f.Name != name {
			continue
		}
		for _, s := range f.Series {
			ok := true
			for k, v := range labels {
				if s.Labels[k] != v {
					ok = false
					break
				}
			}
			if ok {
				total += s.Count
			}
		}
	}
	return total
}

// TestMetricsEndpointReflectsTraffic drives the annotation workflow and
// asserts /api/metrics accounts for the requests just served, the
// retrains they triggered, and the query-strategy work behind them. The
// default registry is process-global and cumulative, so every assertion
// is a before/after delta.
func TestMetricsEndpointReflectsTraffic(t *testing.T) {
	srv, d := newTestServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var before metricsJSON
	getJSON(t, ts, "/api/metrics", &before)

	// Traffic: 3 status gets, one next/label annotation round (which
	// retrains), one 404.
	var status struct{ Labeled int }
	for i := 0; i < 3; i++ {
		getJSON(t, ts, "/api/status", &status)
	}
	var next NextResponse
	getJSON(t, ts, "/api/next", &next)
	resp := postJSON(t, ts, "/api/label", LabelRequest{ID: next.ID, Label: d.Classes[d.Y[next.ID]]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("label: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	if r, err := http.Get(ts.URL + "/api/nosuch"); err != nil {
		t.Fatal(err)
	} else {
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Fatalf("GET /api/nosuch: status %d, want 404", r.StatusCode)
		}
	}

	var after metricsJSON
	getJSON(t, ts, "/api/metrics", &after)

	deltas := []struct {
		name   string
		labels map[string]string
		want   float64
	}{
		{"http_requests_total", map[string]string{"endpoint": "/api/status", "code": "200"}, 3},
		{"http_requests_total", map[string]string{"endpoint": "/api/next", "code": "200"}, 1},
		{"http_requests_total", map[string]string{"endpoint": "/api/label", "code": "200"}, 1},
		{"http_requests_total", map[string]string{"endpoint": "/", "code": "404"}, 1},
		{"retrain_attempts_total", nil, 1},
		{"active_labels_spent_total", nil, 1},
	}
	for _, d := range deltas {
		got := after.counterValue(d.name, d.labels) - before.counterValue(d.name, d.labels)
		if got != d.want {
			t.Errorf("%s%v: delta %v, want %v", d.name, d.labels, got, d.want)
		}
	}
	// The /api/metrics request serving `before` is itself accounted by
	// the time `after` is taken.
	if got := after.counterValue("http_requests_total", map[string]string{"endpoint": "/api/metrics"}) -
		before.counterValue("http_requests_total", map[string]string{"endpoint": "/api/metrics"}); got < 1 {
		t.Errorf("/api/metrics self-accounting delta %v, want >= 1", got)
	}
	// Latency histograms observed the same traffic.
	if got := after.histCount("http_request_seconds", map[string]string{"endpoint": "/api/status"}) -
		before.histCount("http_request_seconds", map[string]string{"endpoint": "/api/status"}); got != 3 {
		t.Errorf("http_request_seconds{/api/status}: delta %d, want 3", got)
	}
	// Labeling retrains on a candidate model: fit latency must tick.
	if got := after.histCount("ml_fit_seconds", map[string]string{"model": "forest"}) -
		before.histCount("ml_fit_seconds", map[string]string{"model": "forest"}); got < 1 {
		t.Errorf("ml_fit_seconds{forest}: delta %d, want >= 1", got)
	}
	// The query behind /api/next went through the strategy.
	if got := after.histCount("active_query_seconds", nil) -
		before.histCount("active_query_seconds", nil); got < 1 {
		t.Errorf("active_query_seconds: delta %d, want >= 1", got)
	}
}

// TestMetricsEndpointIncludesStream pushes one node's telemetry through
// the ingest endpoint and asserts the stream accounting — the delivery counters
// and the decision loop's per-window families — is visible on
// /api/metrics for the SERVING path: the server exports the
// process-wide registry, so the streaming families appear next to the
// HTTP ones.
func TestMetricsEndpointIncludesStream(t *testing.T) {
	srv := ingestTestServer(t, "", nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var before metricsJSON
	getJSON(t, ts, "/api/metrics", &before)

	var feed []fleet.Row
	for i := 0; i < 60; i++ {
		if i == 5 {
			continue // a dropped reading: the gap is synthesized
		}
		feed = append(feed, fleet.Row{T: i, Values: []float64{float64(i), 1, 0.5}})
	}
	final := feedIngest(t, srv, 0, feed)
	if final.Stats.Windows < 2 {
		t.Fatalf("feed completed %d windows, want >= 2", final.Stats.Windows)
	}

	var after metricsJSON
	getJSON(t, ts, "/api/metrics", &after)

	if got := after.counterValue("stream_pushed_total", nil) - before.counterValue("stream_pushed_total", nil); got != 59 {
		t.Errorf("stream_pushed_total: delta %v, want 59", got)
	}
	if got := after.counterValue("stream_gaps_filled_total", nil) - before.counterValue("stream_gaps_filled_total", nil); got != 1 {
		t.Errorf("stream_gaps_filled_total: delta %v, want 1", got)
	}
	windows := float64(final.Stats.Windows)
	if got := after.counterValue("stream_windows_total", nil) - before.counterValue("stream_windows_total", nil); got != windows {
		t.Errorf("stream_windows_total: delta %v, want %v", got, windows)
	}
	if got := after.histCount("stream_window_seconds", nil) - before.histCount("stream_window_seconds", nil); float64(got) != windows {
		t.Errorf("stream_window_seconds: delta %d, want %v", got, windows)
	}
	if got := after.counterValue("stream_abstained_total", nil) - before.counterValue("stream_abstained_total", nil); got != float64(final.Stats.Abstained) {
		t.Errorf("stream_abstained_total: delta %v, want %d", got, final.Stats.Abstained)
	}
	for _, f := range after.Families {
		if f.Name == "pipeline_abstained_total" {
			t.Error("abstentions are counted in a second family next to stream_abstained_total")
		}
	}
}

// TestMetricsPrometheusFormat fetches ?format=prometheus and runs the
// body through a line-based format checker: HELP/TYPE comments precede
// their samples, sample lines parse, and every histogram carries the
// +Inf bucket with _sum/_count agreeing.
func TestMetricsPrometheusFormat(t *testing.T) {
	srv, _ := newTestServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Generate a little traffic first so series exist.
	var status struct{ Labeled int }
	getJSON(t, ts, "/api/status", &status)

	resp, err := http.Get(ts.URL + "/api/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain exposition", ct)
	}
	if err := checkPrometheusText(resp.Body); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}

	// The Accept header alone selects the text format too.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/api/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body, _ := io.ReadAll(resp2.Body)
	if !strings.Contains(string(body), "# TYPE http_requests_total counter") {
		t.Fatal("Accept: text/plain did not yield the Prometheus exposition")
	}
}

// checkPrometheusText is a miniature validator for the text exposition
// format (version 0.0.4) — enough structure checking to catch a broken
// emitter: comment ordering, sample-line syntax, numeric values, and
// histogram completeness.
func checkPrometheusText(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<22)
	typed := map[string]string{} // family -> kind
	samples := map[string]bool{} // family with >= 1 sample line
	infSeen := map[string]bool{} // histogram family -> +Inf bucket seen
	var current string
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 {
				return fmt.Errorf("line %d: malformed comment %q", lineNo, line)
			}
			if parts[1] == "TYPE" {
				kind := parts[3]
				if kind != "counter" && kind != "gauge" && kind != "histogram" {
					return fmt.Errorf("line %d: unknown type %q", lineNo, kind)
				}
				if _, dup := typed[parts[2]]; dup {
					return fmt.Errorf("line %d: duplicate TYPE for %q", lineNo, parts[2])
				}
				typed[parts[2]] = kind
				current = parts[2]
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			return fmt.Errorf("line %d: unexpected comment %q", lineNo, line)
		}
		// Sample line: name[{labels}] value
		name := line
		if sp := strings.IndexByte(name, ' '); sp >= 0 {
			name = name[:sp]
		}
		if i := strings.IndexByte(line, '{'); i >= 0 {
			name = line[:i]
			j := strings.LastIndexByte(line, '}')
			if j < i {
				return fmt.Errorf("line %d: unbalanced label braces", lineNo)
			}
			for _, pair := range splitLabels(line[i+1 : j]) {
				if !strings.Contains(pair, "=\"") || !strings.HasSuffix(pair, "\"") {
					return fmt.Errorf("line %d: malformed label %q", lineNo, pair)
				}
			}
		}
		fields := strings.Fields(line[strings.LastIndexByte(line, ' ')+1:])
		if len(fields) != 1 {
			return fmt.Errorf("line %d: missing value", lineNo)
		}
		if fields[0] != "+Inf" && fields[0] != "-Inf" && fields[0] != "NaN" {
			if _, err := strconv.ParseFloat(fields[0], 64); err != nil {
				return fmt.Errorf("line %d: bad value %q: %v", lineNo, fields[0], err)
			}
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok && typed[base] == "histogram" {
				family = base
			}
		}
		if kind, ok := typed[family]; !ok || family != current {
			return fmt.Errorf("line %d: sample %q outside its TYPE block", lineNo, name)
		} else if kind == "histogram" && strings.HasSuffix(name, "_bucket") && strings.Contains(line, `le="+Inf"`) {
			infSeen[family] = true
		}
		samples[family] = true
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(samples) == 0 {
		return fmt.Errorf("no samples at all")
	}
	for fam, kind := range typed {
		if kind == "histogram" && samples[fam] && !infSeen[fam] {
			return fmt.Errorf("histogram %s has samples but no +Inf bucket", fam)
		}
	}
	// Spot-check that the server families are present.
	for _, want := range []string{"http_requests_total", "http_request_seconds", "retrain_attempts_total"} {
		if _, ok := typed[want]; !ok {
			return fmt.Errorf("family %s missing from exposition", want)
		}
	}
	return nil
}

// splitLabels splits a rendered label block on commas outside quotes.
func splitLabels(s string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// TestPprofGating verifies the profiling handlers are mounted only when
// Config.EnablePprof is set.
func TestPprofGating(t *testing.T) {
	srv, _ := newTestServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof disabled: status %d, want 404", resp.StatusCode)
	}

	srv2, _ := newTestServer(t)
	srv2.cfg.EnablePprof = true
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	resp2, err := http.Get(ts2.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("pprof enabled: status %d, want 200", resp2.StatusCode)
	}
	body, _ := io.ReadAll(resp2.Body)
	if !strings.Contains(string(body), "goroutine") {
		t.Fatal("pprof index does not list profiles")
	}
}

// TestObsHandlerMethodGating: /api/metrics is read-only.
func TestObsHandlerMethodGating(t *testing.T) {
	h := obs.Handler(obs.Default())
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/metrics", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST: status %d, want 405", rec.Code)
	}
}
