// Per-node ingest and its evidence trail. POST /api/ingest is the
// one-node special case of POST /api/ingest/bulk: the addressed shard IS
// the fleet node id, the batch is offered to the fleet coordinator
// (fleet.go) like any other, and the response is filled from that node
// on its shard worker — the diagnoses the batch completed, the chain's
// accounting, the journal's. Every node's predict stage runs the window
// through the REAL serving path (preprocessor transform + the same
// classify call /api/diagnose makes, on the shard worker's goroutine),
// so ingest-driven diagnoses feed the drift monitor and
// champion–challenger shadow gate exactly like /api/diagnose traffic,
// and folds what it served into a per-node evidence fingerprint that
// WAL replay can reproduce (docs/REPLAY.md).

package server

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"strconv"

	"albadross/internal/fleet"
	"albadross/internal/ml"
	"albadross/internal/pipeline"
	"albadross/internal/stream"
	"albadross/internal/wal"
)

// IngestConfig is the per-node stream geometry and journaling of the
// ingest subsystem (embedded in FleetConfig). It requires the
// window-mode prerequisites on the parent Config: Schema and Extractor
// (plus Prep when the model was trained on transformed vectors).
type IngestConfig struct {
	// Shards is the shard WORKER count node ids are consistent-hashed
	// onto — not a node count; each worker admits up to
	// FleetConfig.MaxNodesPerShard node streams.
	Shards int
	// Window is the diagnosis window length in samples (>= 8).
	Window int
	// Stride is the hop between diagnoses; 0 defaults to Window.
	Stride int
	// Reorder is the reordering-buffer horizon for timestamped arrivals.
	Reorder int
	// MaxJump bounds the plausible forward timestamp jump; 0 defaults to
	// 4*Window+Reorder.
	MaxJump int
	// Gap selects the missing-data repair policy.
	Gap stream.GapPolicy
	// MaxMissing is the GapAbstain tolerance; 0 defaults to 0.5.
	MaxMissing float64
	// WALDir roots the per-node write-ahead logs (node-NNNNNN
	// directories); empty disables journaling (and with it crash
	// recovery and shadow replay).
	WALDir string
	// WALSegmentBytes rotates node segments at this size (0: 1 MiB).
	WALSegmentBytes int64
	// WALRetain caps retained segments per node (0: keep all).
	WALRetain int
}

// servePredict is every node chain's predict stage: preprocessor
// transform into model space, the server's one classify call, and the
// running FNV-1a fold of each (model-space row, champion label) pair it
// served. Only the goroutine driving the chain touches it.
type servePredict struct {
	s *Server
	// recovering is set while start-up WAL replay rebuilds stream state:
	// same model, same probabilities, but nothing is fed to the lifecycle,
	// so journaled rows are not double-counted as drift or shadow
	// evidence. Live traffic and shadow-evidence replay both feed it.
	recovering bool
	evidence   uint64
	rows       int // pairs folded into evidence
}

// Predict classifies one sanitized raw window vector. The model-space
// row it builds (vec itself when the server has no preprocessor) is
// handed to the lifecycle queue, which keeps it.
func (p *servePredict) Predict(vec []float64) (string, float64, error) {
	row, err := p.s.toModelSpace(vec)
	if err != nil {
		return "", 0, err
	}
	probs, sn, err := p.s.classify([][]float64{row}, !p.recovering)
	if err != nil {
		return "", 0, err
	}
	best := ml.Argmax(probs[0])
	label, conf := sn.classes[best], probs[0][best]
	p.evidence = evidenceFold(p.evidence, row, label)
	p.rows++
	return label, conf, nil
}

// Emit lets a servePredict double as the sink of a chain that is
// replayed for its evidence, not its diagnoses.
func (p *servePredict) Emit(stream.Diagnosis) error { return nil }

// IngestReading is one timestamped raw metric row.
type IngestReading struct {
	// T is the claimed timestep.
	T int `json:"t"`
	// Values is the reading; NaN cells mark missing metrics and travel
	// as JSON null.
	Values fleet.Values `json:"values"`
}

// IngestRequest is /api/ingest's body: a batch of readings for one
// node, in arrival order. The handler decodes it with
// fleet.Wire.DecodeNode, which gives every body the verdict, shard and
// readings json.Unmarshal into this type gives.
type IngestRequest struct {
	// Shard addresses the node stream: it is the fleet node id (the
	// name predates the fleet; any non-negative id the coordinator's
	// MaxNodesPerShard admission accepts is valid).
	Shard int `json:"shard"`
	// Readings are delivered in order through the node's chain.
	Readings []IngestReading `json:"readings"`
}

// IngestResponse reports what one ingest batch did: always
// len(readings) == Accepted + Rejected + Shed. Accepted readings are
// journaled, applied and synced before the reply; Diagnoses are the
// windows they completed. Stats, Committed, Pending and WAL snapshot
// the node right after the batch (zero when nothing reached it). The
// status is 200 when anything was accepted, 429 (with Retry-After and
// RetryAfterMs) when the node's shard queue was full and the batch was
// shed, and 400 with Error when every reading was refused.
type IngestResponse struct {
	Shard        int                `json:"shard"`
	Accepted     int                `json:"accepted"`
	Rejected     int                `json:"rejected,omitempty"`
	Shed         int                `json:"shed,omitempty"`
	RetryAfterMs int64              `json:"retry_after_ms,omitempty"`
	Error        string             `json:"error,omitempty"`
	Diagnoses    []stream.Diagnosis `json:"diagnoses,omitempty"`
	Stats        stream.Stats       `json:"stats"`
	Committed    int                `json:"committed"`
	Pending      int                `json:"pending"`
	WAL          *wal.Stats         `json:"wal,omitempty"`
}

// advertiseRetry sets the Retry-After header for a shed batch and
// returns the same advice in milliseconds for the body. Retry-After is
// whole seconds on the wire; round up so the client never comes back
// before the advised instant.
func advertiseRetry(w http.ResponseWriter, res *fleet.BatchResult) int64 {
	w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(res.RetryAfter.Seconds()))))
	return res.RetryAfter.Milliseconds()
}

// handleIngest serves POST /api/ingest: offer one node's batch of
// timestamped readings to the fleet coordinator and report what it did
// to that node. Overload sheds with 429 + Retry-After like bulk; the
// request never queues behind a lock.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	if s.fl == nil {
		writeErr(w, http.StatusNotFound, errors.New("ingest is not enabled"))
		return
	}
	sc := scratchPool.Get().(*bodyScratch)
	s.ingestNode(w, r, sc)
	scratchPool.Put(sc)
}

// ingestNode decodes one node's body (an IngestRequest, in one pass
// into sc's reused rows) and offers it.
func (s *Server) ingestNode(w http.ResponseWriter, r *http.Request, sc *bodyScratch) {
	if !readBody(w, r, &sc.body) {
		return
	}
	shard, rows, err := sc.wire.DecodeNode(sc.body.Bytes())
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if shard < 0 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("negative shard %d", shard))
		return
	}
	if len(rows) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("no readings"))
		return
	}
	res, node, err := s.fl.coord.OfferNode(shard, rows)
	if err != nil {
		// The batch was screened non-empty above, so the offer only fails
		// when the coordinator is shutting down.
		writeErr(w, http.StatusServiceUnavailable, err)
		return
	}
	resp := IngestResponse{
		Shard:     shard,
		Accepted:  res.Accepted,
		Rejected:  res.Rejected,
		Shed:      res.Shed,
		Diagnoses: node.Diagnoses,
		Stats:     node.Stats,
		Committed: node.Committed,
		Pending:   node.Pending,
		WAL:       node.WAL,
	}
	if len(res.PerShard) > 0 {
		// One node, so at most one shard slice; its last refusal cause.
		resp.Error = res.PerShard[0].Error
	}
	status := http.StatusOK
	switch {
	case res.Shed > 0:
		status = http.StatusTooManyRequests
		resp.RetryAfterMs = advertiseRetry(w, res)
	case res.Accepted == 0:
		status = http.StatusBadRequest
		if resp.Error == "" {
			resp.Error = "no reading has the schema's width"
		}
	}
	writeJSON(w, status, resp)
}

// visitNode runs fn on the shard worker that owns one existing fleet
// node, so fn reads the node's stream with its single writer paused.
func (s *Server) visitNode(node int, fn func(ns *fleet.NodeStream) error) error {
	if s.fl == nil {
		return errors.New("server: ingest is not enabled")
	}
	var err error
	if verr := s.fl.coord.Visit(node, func(ns *fleet.NodeStream) {
		if ns == nil {
			err = fmt.Errorf("server: node %d has no stream", node)
			return
		}
		err = fn(ns)
	}); verr != nil {
		return verr
	}
	return err
}

// EvidenceHash returns one node's running FNV-1a fold over every
// (model-space row, champion label) evidence pair its ingest traffic —
// through either endpoint — delivered to the serving path: the
// fingerprint the shadow-replay vetting is checked against.
func (s *Server) EvidenceHash(node int) (uint64, error) {
	var hash uint64
	err := s.visitNode(node, func(ns *fleet.NodeStream) error {
		hash = ns.Aux.(*servePredict).evidence
		return nil
	})
	return hash, err
}

// ReplayShadowEvidence replays one node's retained write-ahead log
// through a FRESH stage chain and re-delivers the resulting
// (model-space row, champion label) evidence to the lifecycle shadow
// gate — so a challenger under trial is vetted on the exact slice the
// champion served, not merely on whatever traffic arrives next. It
// returns the number of evidence rows delivered and their FNV-1a hash;
// with an unchanged champion the hash equals EvidenceHash for the
// node. The replay runs on the node's shard worker, which freezes the
// log against appends (and holds that shard's ingest) for its duration.
func (s *Server) ReplayShadowEvidence(node int) (int, uint64, error) {
	ep := &servePredict{s: s}
	err := s.visitNode(node, func(ns *fleet.NodeStream) error {
		if ns.Log == nil {
			return errors.New("server: node has no write-ahead log")
		}
		chain, err := s.fl.buildChain(ep, ep, nil)
		if err != nil {
			return err
		}
		return pipeline.Replay(ns.Log, chain)
	})
	if err != nil {
		return 0, 0, err
	}
	return ep.rows, ep.evidence, nil
}

// evidenceFold extends an FNV-1a evidence fingerprint by one
// (model-space row, champion label) pair. A zero accumulator seeds the
// FNV offset basis, so folds compose associatively left-to-right.
func evidenceFold(h uint64, row []float64, label string) uint64 {
	hs := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		_, _ = hs.Write(buf[:]) //albacheck:ignore errsilent hash.Hash.Write is documented to never return an error
	}
	if h == 0 {
		h = 14695981039346656037
	}
	put(h)
	for _, v := range row {
		put(math.Float64bits(v))
	}
	_, _ = hs.Write([]byte(label)) //albacheck:ignore errsilent hash.Hash.Write is documented to never return an error
	return hs.Sum64()
}
