// The diagnosis path. A diagnosis is a function call: /api/diagnose,
// DiagnoseVectors and every window the ingest chains complete
// (ingest.go) resolve their input into model-space rows and call
// Server.classify on their own goroutine — one width/finite check, one
// ml.ProbaBatchParallel against one atomically loaded snapshot, one
// non-blocking offer to the lifecycle. Nothing is queued and no
// goroutine is shared between callers, so a slow prediction delays only
// the request or shard worker that issued it; rows-per-call is whatever
// the caller brought ({"batch": …} carries up to Config.BatchMaxSize).
package server

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"albadross/internal/features"
	"albadross/internal/ml"
	"albadross/internal/obs"
	"albadross/internal/stream"
	"albadross/internal/telemetry"
	"albadross/internal/ts"
)

// classify is the server's one classification: it validates the
// model-space rows against the serving snapshot (width, finiteness),
// scores them in a single batch, and — when feed is set — duplicates
// the (rows, probabilities) pair to the lifecycle's drift monitor and
// shadowed challenger. The offer is one non-blocking channel send whose
// overflow is shed, so it can never slow the champion; it keeps the row
// vectors, which therefore must not be reused by the caller. All rows
// of one call are scored by the returned snapshot.
func (s *Server) classify(rows [][]float64, feed bool) ([][]float64, *snapshot, error) {
	sn := s.serving()
	if sn == nil {
		return nil, nil, errors.New("no model trained yet")
	}
	start := time.Now()
	if i := firstBadRow(rows, sn.dim); i >= 0 {
		return nil, nil, fmt.Errorf("row %d (%d values) is not %d finite features", i, len(rows[i]), sn.dim)
	}
	probs := ml.ProbaBatchParallel(sn.model, rows, s.cfg.BatchWorkers)
	if feed && s.lc != nil {
		s.lc.offer(rows, probs, sn)
	}
	batchRows.Observe(float64(len(rows)))
	obs.ObserveSince(batchLatency, start)
	return probs, sn, nil
}

// firstBadRow returns the index of the first row that is not exactly
// dim finite values, or -1 when every row is classifiable.
func firstBadRow(rows [][]float64, dim int) int {
	for i, row := range rows {
		if len(row) != dim {
			return i
		}
		for _, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return i
			}
		}
	}
	return -1
}

// diagnoses renders one classify result as per-row responses.
func diagnoses(probs [][]float64, sn *snapshot) []DiagnoseResponse {
	out := make([]DiagnoseResponse, len(probs))
	for i, p := range probs {
		best := ml.Argmax(p)
		out[i] = DiagnoseResponse{
			Label:        sn.classes[best],
			Confidence:   p[best],
			Probs:        p,
			ModelVersion: sn.version,
		}
	}
	return out
}

// DiagnoseVectors classifies model-space feature rows exactly as
// /api/diagnose {"batch": …} does, minus HTTP and the per-request row
// cap: one snapshot for the whole call, drift observation and shadow
// duplication included. It exists for in-process drivers (experiments,
// chaos tests, the benchmark's traced replay).
func (s *Server) DiagnoseVectors(rows [][]float64) ([]DiagnoseResponse, error) {
	if len(rows) == 0 {
		return nil, errors.New("server: no rows")
	}
	probs, sn, err := s.classify(rows, true)
	if err != nil {
		return nil, err
	}
	return diagnoses(probs, sn), nil
}

// handleDiagnose classifies posted feature vectors or raw windows. It
// takes no locks and starts no goroutines: the request is resolved into
// model-space rows and classified in place against a single atomically
// loaded snapshot.
func (s *Server) handleDiagnose(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	var req DiagnoseRequest
	if !decodeBody(w, r, &req) {
		return
	}
	rows, err := s.requestRows(&req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	probs, sn, err := s.classify(rows, true)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	results := diagnoses(probs, sn)
	if req.Features != nil {
		writeJSON(w, http.StatusOK, results[0])
		return
	}
	writeJSON(w, http.StatusOK, BatchDiagnoseResponse{Results: results, ModelVersion: sn.version})
}

// requestRows validates a decoded DiagnoseRequest and resolves it into
// model-space rows. Exactly one of Features, Batch, Windows must be
// set, and a request may carry at most Config.BatchMaxSize rows or
// windows.
func (s *Server) requestRows(req *DiagnoseRequest) ([][]float64, error) {
	set := 0
	if req.Features != nil {
		set++
	}
	if req.Batch != nil {
		set++
	}
	if req.Windows != nil {
		set++
	}
	if set != 1 {
		return nil, errors.New("exactly one of features, batch, windows must be set")
	}
	if n := len(req.Batch) + len(req.Windows); n > s.cfg.BatchMaxSize {
		return nil, fmt.Errorf("request of %d rows exceeds the server's max batch size %d", n, s.cfg.BatchMaxSize)
	}
	switch {
	case req.Features != nil:
		return [][]float64{req.Features}, nil
	case req.Batch != nil:
		if len(req.Batch) == 0 {
			return nil, errors.New("empty batch")
		}
		return req.Batch, nil
	}
	if s.cfg.Schema == nil {
		return nil, errors.New("this server does not accept raw windows (no telemetry schema configured)")
	}
	if len(req.Windows) == 0 {
		return nil, errors.New("empty windows")
	}
	rows := make([][]float64, len(req.Windows))
	for wi, win := range req.Windows {
		row, err := s.windowRow(win)
		if err != nil {
			return nil, fmt.Errorf("window %d: %w", wi, err)
		}
		rows[wi] = row
	}
	return rows, nil
}

// windowRow maps one posted metric-major window into a model-space row
// through the steps an ingest chain applies to a completed window:
// stream.BlockVector (repair under GapInterpolate, counter
// differencing, extraction), sanitation, preprocessor transform.
func (s *Server) windowRow(win [][]float64) ([]float64, error) {
	block, err := windowBlock(win, s.cfg.Schema)
	if err != nil {
		return nil, err
	}
	vec, err := stream.BlockVector(block, telemetry.CumulativeFlags(s.cfg.Schema), stream.GapInterpolate, s.cfg.Extractor)
	if err != nil {
		return nil, err
	}
	features.Sanitize(vec)
	return s.toModelSpace(vec)
}

// windowBlock wraps one metric-major window as a multivariate block,
// validating its shape against the schema. The block aliases the
// decoded request body, which nothing else reads.
func windowBlock(win [][]float64, schema []telemetry.Metric) (*ts.Multivariate, error) {
	if len(win) != len(schema) {
		return nil, fmt.Errorf("has %d metrics, schema %d", len(win), len(schema))
	}
	steps := len(win[0])
	if steps < 2 {
		return nil, fmt.Errorf("series too short (%d steps, need >= 2)", steps)
	}
	block := &ts.Multivariate{Metrics: make([]ts.Series, len(win))}
	for m, series := range win {
		if len(series) != steps {
			return nil, fmt.Errorf("metric %d has %d steps, metric 0 has %d", m, len(series), steps)
		}
		block.Metrics[m] = series
	}
	return block, nil
}

// toModelSpace maps one sanitized raw feature vector into the model's
// input space via the fitted preprocessor. The transform never writes
// its input; without a preprocessor the vector is returned as is.
func (s *Server) toModelSpace(vec []float64) ([]float64, error) {
	if s.cfg.Prep == nil {
		return vec, nil
	}
	row, err := s.cfg.Prep.TransformRow(vec)
	if err != nil {
		return nil, fmt.Errorf("transforming extracted features: %w", err)
	}
	return row, nil
}
