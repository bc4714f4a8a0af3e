// The ingest subsystem: raw timestamped telemetry flows through one
// stage chain (internal/pipeline) per monitored node, and the whole
// node population — 1488 compute nodes at Eclipse scale — is
// multiplexed onto a bounded set of shard workers (internal/fleet)
// behind four endpoints:
//
//	POST /api/ingest/bulk -> interleaved multi-node LDMS batches,
//	                         demultiplexed per node and fanned to the
//	                         shard workers; a full shard queue sheds
//	                         that shard's rows with 429 + Retry-After
//	                         while every other shard proceeds
//	POST /api/ingest      -> the one-node special case (ingest.go)
//	GET  /api/fleet/topk  -> the k most anomalous nodes right now,
//	                         served from the rollup heap (no scan)
//	GET  /api/fleet/apps  -> per-application fleet aggregates
//
// newNode is the only place a node's chain is built, its write-ahead
// log opened, or a retained log replayed at start-up: with a WAL
// directory configured every accepted reading is journaled before it
// mutates stream state, and a restarted server resumes every node with
// bitwise-identical windowing state (recovery classifies directly
// against the serving snapshot, without re-feeding lifecycle evidence).
// See docs/FLEET.md and docs/REPLAY.md.

package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"albadross/internal/fleet"
	"albadross/internal/pipeline"
	"albadross/internal/wal"
)

// FleetConfig enables the ingest subsystem (POST /api/ingest,
// POST /api/ingest/bulk and the /api/fleet/* rollup endpoints). The
// embedded IngestConfig supplies the per-node stream geometry and WAL
// knobs. Active when Shards > 0; requires Schema and Extractor.
type FleetConfig struct {
	IngestConfig

	// QueueDepth bounds each shard worker's task queue; bulk batches
	// arriving at a full queue have that shard's rows shed with
	// back-pressure (default 32).
	QueueDepth int
	// MaxNodesPerShard bounds each worker's node map (default 1024).
	MaxNodesPerShard int
	// RollupRecent is the per-node ring of recent diagnoses the
	// /api/fleet/topk anomaly score is computed over (default 16).
	RollupRecent int
	// TopKDefault is /api/fleet/topk's k when the query omits it
	// (default 10).
	TopKDefault int
}

// fleetState is the server's fleet subsystem: the routing coordinator
// and the rollup it feeds.
type fleetState struct {
	s     *Server
	cfg   FleetConfig
	coord *fleet.Coordinator
	roll  *fleet.Rollup
}

// newFleet validates the configuration, preloads any nodes with
// retained write-ahead logs (replaying them through their fresh
// chains), and starts the shard workers.
func newFleet(s *Server) (*fleetState, error) {
	cfg := s.cfg.Fleet
	if cfg.TopKDefault <= 0 {
		cfg.TopKDefault = 10
	}
	if s.cfg.Schema == nil || s.cfg.Extractor == nil {
		return nil, errors.New("server: ingest requires Schema and Extractor")
	}
	sn := s.serving()
	if sn == nil {
		return nil, errors.New("server: ingest requires a trained model")
	}
	// Fail fast on a feature-width mismatch instead of erroring per
	// window: a zero vector of the extractor's width must reach the
	// model's input space.
	vecDim := len(s.cfg.Schema) * len(s.cfg.Extractor.FeatureNames())
	row, err := s.toModelSpace(make([]float64, vecDim))
	if err == nil && len(row) != sn.dim {
		err = fmt.Errorf("extracted %d features, model expects %d", len(row), sn.dim)
	}
	if err != nil {
		return nil, fmt.Errorf("server: ingest feature width %d does not fit the model: %w", vecDim, err)
	}
	g := &fleetState{s: s, cfg: cfg}
	// Nodes are built lazily, so compose one throwaway chain now: a bad
	// stream geometry (window length, reorder/jump bounds) must refuse
	// the server, not every later row.
	probe := &servePredict{s: s}
	if _, err := g.buildChain(probe, probe, nil); err != nil {
		return nil, err
	}
	g.roll = fleet.NewRollup(fleet.RollupConfig{
		Recent:       cfg.RollupRecent,
		HealthyLabel: s.cfg.Data.Classes[s.cfg.HealthyClass],
	})
	var preload []int
	if cfg.WALDir != "" {
		nodes, err := fleet.ListNodeWALs(cfg.WALDir)
		if err != nil {
			return nil, fmt.Errorf("server: scanning fleet WAL root: %w", err)
		}
		preload = nodes
	}
	coord, err := fleet.NewCoordinator(fleet.Config{
		Shards:           cfg.Shards,
		QueueDepth:       cfg.QueueDepth,
		MaxNodesPerShard: cfg.MaxNodesPerShard,
		Metrics:          len(s.cfg.Schema),
		NewNode:          g.newNode,
		Rollup:           g.roll,
		Preload:          preload,
	})
	if err != nil {
		return nil, err
	}
	g.coord = coord
	if len(preload) > 0 {
		s.cfg.Log.Printf("server: fleet recovered %d journaled nodes", len(preload))
	}
	return g, nil
}

// newNode builds one fleet node's stage chain — the Config.NewNode
// factory. It runs on shard worker goroutines (concurrently for
// distinct nodes); everything it touches on the server is immutable
// configuration or the lock-free serving path. A node with a retained
// journal is replayed here, before its first live row, with the
// predict stage in recovery mode (same classification, no lifecycle
// side effects).
func (g *fleetState) newNode(node int, sink pipeline.Sink) (*fleet.NodeStream, error) {
	var log *wal.Log
	if g.cfg.WALDir != "" {
		l, err := wal.Open(fleet.NodeWALDir(g.cfg.WALDir, node), wal.Options{
			SegmentBytes: g.cfg.WALSegmentBytes,
			Retain:       g.cfg.WALRetain,
		})
		if err != nil {
			return nil, err
		}
		log = l
	}
	fail := func(err error) (*fleet.NodeStream, error) {
		if log != nil {
			_ = log.Close() //albacheck:ignore errsilent the node failed to build; the construction error is the one worth reporting
		}
		return nil, err
	}
	pred := &servePredict{s: g.s}
	chain, err := g.buildChain(pred, sink, log)
	if err != nil {
		return fail(err)
	}
	if log != nil && log.Stats().Records > 0 {
		pred.recovering = true
		err := pipeline.Replay(log, chain)
		pred.recovering = false
		if err != nil {
			return fail(fmt.Errorf("node %d WAL recovery: %w", node, err))
		}
	}
	return &fleet.NodeStream{Chain: chain, Log: log, Aux: pred}, nil
}

// buildChain composes one stage chain at the fleet's stream geometry
// over the server's window-mode schema: a node's live chain (newNode),
// or the fresh journal-less one a shadow-evidence replay runs through.
func (g *fleetState) buildChain(pred pipeline.PredictStage, sink pipeline.Sink, journal *wal.Log) (*pipeline.Chain, error) {
	cfg, srv := g.cfg, g.s.cfg
	return pipeline.NewChain(pipeline.ChainConfig{
		Metrics:    len(srv.Schema),
		Window:     cfg.Window,
		Stride:     cfg.Stride,
		Reorder:    cfg.Reorder,
		MaxJump:    cfg.MaxJump,
		Gap:        cfg.Gap,
		MaxMissing: cfg.MaxMissing,
		Features:   pipeline.BatchFeatures{Schema: srv.Schema, Gap: cfg.Gap, Extractor: srv.Extractor},
		Predict:    pred,
		Sink:       sink,
		Journal:    journal,
	})
}

// health summarizes the ingest subsystem for /api/health. Atomics and
// one short rollup lock only — it stays responsive even when every
// shard worker is wedged behind a stuck predict.
func (g *fleetState) health() map[string]interface{} {
	st := g.coord.Stats()
	return map[string]interface{}{
		"shards":   st.Shards,
		"nodes":    st.Nodes,
		"offered":  st.Offered,
		"accepted": st.Accepted,
		"rejected": st.Rejected,
		"shed":     st.Shed,
		"queued":   st.Queued,
		"tracked":  g.roll.Tracked(),
	}
}

// BulkIngestRequest is /api/ingest/bulk's body: one interleaved batch
// of rows for any mix of nodes, in arrival order. Missing (NaN) cells
// travel as JSON null, as on /api/ingest.
type BulkIngestRequest struct {
	Rows []fleet.Row `json:"rows"`
}

// BulkIngestResponse is the bulk endpoint's accounting: always
// Offered == Accepted + Rejected + Shed. When rows were shed the
// status is 429 and RetryAfterMs repeats the Retry-After header with
// millisecond precision — accepted rows STAY accepted; only the shed
// ones are worth re-offering.
type BulkIngestResponse struct {
	fleet.BatchResult
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
}

// handleIngestBulk serves POST /api/ingest/bulk: demultiplex one
// multi-node batch per shard worker, wait for the accepted slices to
// be journaled and applied, and report per-shard accounting. Overload
// is explicit partial accept — 429 + Retry-After — never a stall.
func (s *Server) handleIngestBulk(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	if s.fl == nil {
		writeErr(w, http.StatusNotFound, errors.New("ingest is not enabled"))
		return
	}
	var req BulkIngestRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Rows) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("no rows"))
		return
	}
	res, err := s.fl.coord.Offer(req.Rows)
	if err != nil {
		// Rows were screened non-empty above, so Offer only fails when
		// the coordinator is shutting down.
		writeErr(w, http.StatusServiceUnavailable, err)
		return
	}
	resp := BulkIngestResponse{BatchResult: *res}
	status := http.StatusOK
	if res.Shed > 0 {
		status = http.StatusTooManyRequests
		resp.RetryAfterMs = advertiseRetry(w, res)
	}
	writeJSON(w, status, resp)
}

// FleetTopKResponse is /api/fleet/topk's payload.
type FleetTopKResponse struct {
	K       int                 `json:"k"`
	Tracked int                 `json:"tracked"`
	Nodes   []fleet.NodeSummary `json:"nodes"`
}

// handleFleetTopK serves GET /api/fleet/topk?k=N: the k most anomalous
// nodes by recent-diagnosis fraction, from the rollup heap — cost
// depends on k, not on fleet size.
func (s *Server) handleFleetTopK(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	if s.fl == nil {
		writeErr(w, http.StatusNotFound, errors.New("ingest is not enabled"))
		return
	}
	k := s.fl.cfg.TopKDefault
	if q := r.URL.Query().Get("k"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v <= 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("k must be a positive integer, got %q", q))
			return
		}
		k = v
	}
	nodes := s.fl.roll.TopK(k)
	writeJSON(w, http.StatusOK, FleetTopKResponse{
		K:       k,
		Tracked: s.fl.roll.Tracked(),
		Nodes:   nodes,
	})
}

// FleetAppsResponse is /api/fleet/apps's payload.
type FleetAppsResponse struct {
	Apps []fleet.AppSummary `json:"apps"`
}

// handleFleetApps serves GET /api/fleet/apps: per-application fleet
// aggregates (nodes, windows, anomaly counts, label breakdown).
func (s *Server) handleFleetApps(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	if s.fl == nil {
		writeErr(w, http.StatusNotFound, errors.New("ingest is not enabled"))
		return
	}
	writeJSON(w, http.StatusOK, FleetAppsResponse{Apps: s.fl.roll.Apps()})
}

// FleetStats exposes the coordinator's cheap cumulative accounting —
// for tests and load drivers; zero value when the fleet is off.
func (s *Server) FleetStats() fleet.Stats {
	if s.fl == nil {
		return fleet.Stats{}
	}
	return s.fl.coord.Stats()
}

// FleetQuiesce blocks until every bulk task accepted so far has been
// executed — the barrier benchmarks use to take a settled measurement.
func (s *Server) FleetQuiesce() error {
	if s.fl == nil {
		return errors.New("server: fleet ingest is not enabled")
	}
	return s.fl.coord.Quiesce()
}

// FleetNodes snapshots every fleet node's chain accounting (an
// inventory walk through the shard workers — not a health probe).
func (s *Server) FleetNodes() ([]fleet.NodeInfo, error) {
	if s.fl == nil {
		return nil, errors.New("server: fleet ingest is not enabled")
	}
	return s.fl.coord.Nodes()
}
