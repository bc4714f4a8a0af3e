// Package server implements the paper's future-work deployment scenario
// (Sec. VI): an annotation service that makes the querying process easy
// for human annotators. It wraps a live active-learning session behind
// an HTTP API:
//
//	GET  /api/next     -> the sample the query strategy wants labeled,
//	                      with its provenance and the metrics that make
//	                      the model uncertain (the "important metrics"
//	                      hint the paper proposes)
//	POST /api/label    -> {"id": N, "label": "memleak"} records the
//	                      annotation, retrains, and re-scores
//	GET  /api/status   -> trajectory so far (F1/FAR/AMR per query)
//	GET  /api/diagnose -> POST a feature vector, get a diagnosis
//	POST /api/ingest/bulk -> interleaved multi-node batches of raw
//	                      timestamped readings, routed onto the fleet
//	                      shard workers' per-node stage chains
//	                      (Config.Fleet) with write-ahead journaling,
//	                      crash recovery and back-pressure (429 +
//	                      Retry-After) on overload
//	POST /api/ingest   -> the same path for one node's batch, answering
//	                      with the diagnoses it completed
//	GET  /api/fleet/topk  -> most-anomalous nodes from the fleet rollup
//	GET  /api/fleet/apps  -> per-application fleet aggregates
//	GET  /api/health   -> liveness/readiness probe
//	GET  /api/metrics  -> obs registry snapshot (JSON, or the Prometheus
//	                      text exposition with ?format=prometheus)
//	GET  /             -> a minimal built-in dashboard page
//
// With Config.EnablePprof the net/http/pprof profiling handlers are
// additionally mounted under /debug/pprof/ (opt-in: profiles expose
// internals, so production deployments enable them deliberately).
//
// The loop itself is an active.Session, the object active.Loop drives
// offline. Annotation requests run one at a time, like the paper's loop
// (Server.annMu), and no other endpoint ever waits on them or on a fit
// (Server.mu). The diagnosis hot path is lock-free: reads go
// through an atomically swapped immutable snapshot (model + feature
// schema + preprocessor behind one atomic.Pointer, RCU-style), so a
// retrain never blocks inference, and every diagnosis — a posted
// vector, batch or window, or a window an ingest chain completed — is
// one direct classify call against that snapshot on the caller's own
// goroutine (see diagnose.go).
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"albadross/internal/active"
	"albadross/internal/core"
	"albadross/internal/dataset"
	"albadross/internal/drift"
	"albadross/internal/eval"
	"albadross/internal/explain"
	"albadross/internal/features"
	"albadross/internal/ml"
	"albadross/internal/obs"
	"albadross/internal/registry"
	"albadross/internal/telemetry"
)

// Config assembles an annotation server.
type Config struct {
	// Data is the transformed active-learning dataset (shared indexing
	// with Split).
	Data *dataset.Dataset
	// Split is the Fig. 2 split; Initial must already be labeled.
	Split *dataset.ALSplit
	// Factory builds the model retrained after each annotation.
	Factory ml.Factory
	// Strategy picks the next sample to annotate.
	Strategy active.Strategy
	// HealthyClass is the class index used by FAR/AMR (usually 0).
	HealthyClass int
	// FeatureNames (optional) enables the important-metrics hint.
	FeatureNames []string
	// Seed drives strategy randomness.
	Seed int64
	// RetrainRetries is how many extra retraining attempts a transient
	// failure gets before the annotation is rejected (default 2).
	RetrainRetries int
	// RetrainBackoff is the initial delay between retraining attempts,
	// doubling per retry (default 50ms).
	RetrainBackoff time.Duration
	// Log receives recovered panics and retry notices (default
	// log.Default()).
	Log *log.Logger
	// EnablePprof mounts the net/http/pprof profiling handlers under
	// /debug/pprof/ on the handler tree (off by default).
	EnablePprof bool

	// BatchMaxSize caps how many rows (or raw windows) one
	// /api/diagnose request may carry (default 64) — a bound on outside
	// input, like the request body limit.
	BatchMaxSize int
	// BatchWorkers bounds the per-row fan-out of one classification (or
	// one /api/next pool scoring) for models without a native batch
	// predictor (default runtime.NumCPU() via ml.ProbaBatchParallel).
	BatchWorkers int

	// Schema optionally describes raw telemetry windows (order
	// matters); with Extractor set it enables window-mode diagnosis:
	// POST /api/diagnose {"windows": [[[...]...]...]} repairs,
	// extracts, transforms and classifies raw metric-major windows.
	Schema []telemetry.Metric
	// Extractor computes per-metric features for window-mode requests.
	Extractor features.Extractor
	// Prep optionally maps raw extracted feature vectors into the
	// model's input space (the fitted scaler + chi-square selection).
	// Required for window-mode when the model was trained on
	// transformed vectors.
	Prep *core.Preprocessor

	// Lifecycle enables the drift-aware model lifecycle (see
	// docs/LIFECYCLE.md): a streaming drift monitor over served feature
	// vectors, drift-triggered retraining vetted by shadow
	// champion–challenger evaluation, and operator rollback via
	// POST /api/model/rollback. Off by default: the plain label-driven
	// publish path is unchanged.
	Lifecycle bool
	// Drift tunes the drift monitor (zero values take the drift
	// package's documented defaults).
	Drift drift.Config
	// RegistryKeep bounds how many model versions the registry retains
	// for rollback (default 5, minimum 2).
	RegistryKeep int
	// ShadowMinRows is how many duplicated rows a challenger must score
	// before its promotion decision (default 256).
	ShadowMinRows int
	// ShadowQueue bounds the shadow-scoring queue; duplicated batches
	// beyond it are shed so shadowing can never slow the champion
	// (default 64 batches).
	ShadowQueue int
	// MinAgreement is the promotion gate's champion-agreement floor
	// (default 0.85).
	MinAgreement float64
	// F1Tolerance is how far below the champion's holdout macro-F1 a
	// challenger may score and still promote (default 0.02).
	F1Tolerance float64
	// TriggerCooldown is the minimum spacing between drift-triggered
	// retrains; it doubles each time a challenger is quarantined
	// (capped at 32x) and resets on promotion (default 30s).
	TriggerCooldown time.Duration
	// ShadowMaxWait bounds how long a challenger may wait for
	// ShadowMinRows of traffic before being quarantined for
	// insufficient evidence (default 60s).
	ShadowMaxWait time.Duration

	// Fleet enables the ingest subsystem (POST /api/ingest,
	// POST /api/ingest/bulk and the /api/fleet/* rollup endpoints): one
	// stage chain per node with an optional write-ahead window log and
	// crash recovery, the whole node population consistent-hashed onto
	// Fleet.Shards shard workers with bounded queues and explicit
	// back-pressure (see fleet.go, docs/FLEET.md and docs/REPLAY.md).
	// Active when Fleet.Shards > 0; requires Schema and Extractor (plus
	// Prep when the model was trained on transformed vectors).
	Fleet FleetConfig
}

// snapshot is the immutable serving state behind the RCU pointer: one
// fitted model plus everything a diagnosis needs to interpret input and
// output. A snapshot is never mutated after publication — retrains
// build a fresh one and atomically swap it in, so readers are
// wait-free and always see a consistent (model, schema) pair.
type snapshot struct {
	model   ml.Classifier
	classes []string
	dim     int      // model-space input width
	names   []string // feature schema (may be nil)
	version uint64   // registry-assigned monotonic version
}

// Server is the annotation service. Create with New, mount via Handler.
type Server struct {
	cfg       Config
	reg       *registry.Registry[*snapshot]
	lc        *lifecycle   // nil unless Config.Lifecycle
	fl        *fleetState  // nil unless Config.Fleet.Shards > 0
	lastTrain atomic.Int64 // unix seconds of the last successful publication

	// refX is the drift monitor's reference: the training universe
	// (initial labels plus the unlabeled pool — the union is invariant
	// as annotation moves samples between the two). Immutable after New.
	refX [][]float64

	test *dataset.Dataset // the split's test rows; immutable after New

	// annMu guards sess. /api/next and /api/label hold it from selection
	// through fit, publish and score; nothing else takes it.
	annMu sync.Mutex
	sess  *active.Session

	// mu guards what that path publishes for every other endpoint: the
	// training view and pool count as of the last label and the score
	// history. Never held across a slow call.
	mu      sync.Mutex
	trainX  [][]float64
	trainY  []int
	poolN   int
	history []StatusPoint
	started time.Time

	jitterMu  sync.Mutex
	jitterRng *rand.Rand // seeded source for retry-backoff jitter
}

// serving returns the payload of the active registry entry — the
// snapshot the diagnose hot path reads. Lock-free (one atomic load).
func (s *Server) serving() *snapshot {
	if e := s.reg.Active(); e != nil {
		return e.Payload
	}
	return nil
}

// StatusPoint is one trajectory entry exposed by /api/status.
type StatusPoint struct {
	Queried         int     `json:"queried"`
	F1              float64 `json:"f1"`
	FalseAlarmRate  float64 `json:"false_alarm_rate"`
	AnomalyMissRate float64 `json:"anomaly_miss_rate"`
}

// New builds the server and trains the initial model on Split.Initial
// using the dataset's stored labels.
func New(cfg Config) (*Server, error) {
	if cfg.Data == nil || cfg.Split == nil {
		return nil, errors.New("server: Data and Split are required")
	}
	if cfg.Factory == nil || cfg.Strategy == nil {
		return nil, errors.New("server: Factory and Strategy are required")
	}
	if cfg.RetrainRetries <= 0 {
		cfg.RetrainRetries = 2
	}
	if cfg.RetrainBackoff <= 0 {
		cfg.RetrainBackoff = 50 * time.Millisecond
	}
	if cfg.Log == nil {
		cfg.Log = log.Default()
	}
	if cfg.BatchMaxSize <= 0 {
		cfg.BatchMaxSize = 64
	}
	if cfg.Schema != nil && cfg.Extractor == nil {
		return nil, errors.New("server: Schema requires an Extractor")
	}
	if cfg.RegistryKeep <= 0 {
		cfg.RegistryKeep = 5
	}
	if cfg.ShadowMinRows <= 0 {
		cfg.ShadowMinRows = 256
	}
	if cfg.ShadowQueue <= 0 {
		cfg.ShadowQueue = 64
	}
	if cfg.MinAgreement <= 0 {
		cfg.MinAgreement = 0.85
	}
	if cfg.F1Tolerance <= 0 {
		cfg.F1Tolerance = 0.02
	}
	if cfg.TriggerCooldown <= 0 {
		cfg.TriggerCooldown = 30 * time.Second
	}
	if cfg.ShadowMaxWait <= 0 {
		cfg.ShadowMaxWait = 60 * time.Second
	}
	s := &Server{
		cfg:       cfg,
		reg:       registry.New[*snapshot](cfg.RegistryKeep),
		started:   time.Now(),
		jitterRng: rand.New(rand.NewSource(cfg.Seed + jitterSeedOffset)),
	}
	s.sess = active.NewSession(cfg.Data, cfg.Split.Initial, cfg.Split.Pool,
		active.Oracle{D: cfg.Data}, cfg.Strategy, cfg.Seed, cfg.BatchWorkers)
	s.test = cfg.Data.Subset(cfg.Split.Test)
	if _, err := s.refit("initial"); err != nil {
		return nil, err
	}
	if cfg.Lifecycle {
		// The drift reference is the whole training universe, not just
		// the labeled rows: the AL initial set is anomalies-only by
		// construction, and anchoring to it would make ordinary
		// (mostly-healthy) traffic read as permanently drifted.
		s.refX = make([][]float64, 0, len(cfg.Split.Initial)+len(cfg.Split.Pool))
		for _, i := range cfg.Split.Initial {
			s.refX = append(s.refX, cfg.Data.X[i])
		}
		for _, i := range cfg.Split.Pool {
			s.refX = append(s.refX, cfg.Data.X[i])
		}
		lc, err := newLifecycle(s, s.refX)
		if err != nil {
			return nil, err
		}
		s.lc = lc
	}
	if cfg.Fleet.Shards > 0 {
		// Ingest comes last: preloaded nodes replay their journaled
		// readings through the serving path at construction, so the
		// initial model (and, when on, the lifecycle) must already exist.
		fl, err := newFleet(s)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.fl = fl
	}
	return s, nil
}

// Close stops the shadow-scoring and ingest layers (closing every
// node's write-ahead log). /api/diagnose holds no background state, so
// it keeps answering after Close. Safe to call more than once.
func (s *Server) Close() {
	if s.lc != nil {
		s.lc.close()
	}
	if s.fl != nil {
		if err := s.fl.coord.Close(); err != nil {
			s.cfg.Log.Printf("server: closing fleet coordinator: %v", err)
		}
	}
}

// publish registers a freshly trained model as a new registry version
// and promotes it immediately — the direct path used by initial
// training, annotation retrains and forced Retrain, where the new model
// is by construction the best available. Readers that loaded the
// previous snapshot keep using it for the requests they already started
// (RCU semantics). Drift-triggered candidates do NOT take this path:
// they go through the shadow champion–challenger gate (lifecycle.go).
func (s *Server) publish(m ml.Classifier, x [][]float64, y []int, origin string) {
	e := s.reg.Add(func(version uint64) *snapshot {
		return s.newSnapshot(m, version)
	}, registry.Meta{TrainHash: hashTraining(x, y), TrainSize: len(x), Origin: origin})
	if err := s.reg.Promote(e.Version); err != nil {
		// Unreachable: a just-added candidate always promotes.
		s.cfg.Log.Printf("server: promoting version %d: %v", e.Version, err)
		return
	}
	s.afterSwap(e.Payload)
}

// newSnapshot assembles the immutable serving state for one model. It
// warms the model's flattened inference structures (ml.Warm) here —
// once, before the snapshot becomes visible to concurrent traffic — so
// the hot path never builds them under load.
func (s *Server) newSnapshot(m ml.Classifier, version uint64) *snapshot {
	ml.Warm(m)
	return &snapshot{
		model:   m,
		classes: s.cfg.Data.Classes,
		dim:     s.cfg.Data.Dim(),
		names:   s.cfg.FeatureNames,
		version: version,
	}
}

// afterSwap records a serving-pointer change (promotion or rollback):
// metrics, the health probe's retrain timestamp, and — when the
// lifecycle is on — re-anchoring the drift monitor so the new champion
// starts with a clean window judged against the training universe.
func (s *Server) afterSwap(sn *snapshot) {
	snapshotSwaps.Inc()
	modelVersion.Set(float64(sn.version))
	now := time.Now().Unix()
	s.lastTrain.Store(now)
	lastPublish.Set(float64(now))
	if s.lc != nil && s.refX != nil {
		if err := s.lc.monitor.Reset(s.refX); err != nil {
			s.cfg.Log.Printf("server: re-anchoring drift monitor: %v", err)
		}
	}
}

// Retrain retrains on the current labeled set and atomically swaps the
// result in, without ever blocking diagnosis reads. It is the forced
// path the concurrency tests hammer and an operational escape hatch;
// /api/label performs the same sequence after each annotation.
func (s *Server) Retrain() error {
	x, y := s.training()
	m, err := s.trainCandidate(x, y)
	if err != nil {
		return err
	}
	s.publish(m, x, y, "operator")
	return nil
}

// refit is the tail of New and of every annotation: publish the
// session's training view and pool count for the endpoints that do not
// take annMu, fit on that view, promote the model and score it. Retry
// backoff delays only the next annotation, and diagnosis keeps reading
// the previous snapshot meanwhile. Callers hold annMu (or are New).
func (s *Server) refit(origin string) (StatusPoint, error) {
	x, y := s.sess.Training()
	s.mu.Lock()
	s.trainX, s.trainY, s.poolN = x, y, s.sess.PoolSize()
	s.mu.Unlock()
	m, err := s.trainCandidate(x, y)
	if err != nil {
		return StatusPoint{}, err
	}
	s.publish(m, x, y, origin)
	return s.score(m), nil
}

// training returns the labeled set as of the last annotation, for the
// retrains that run outside the annotation path.
func (s *Server) training() ([][]float64, []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.trainX, s.trainY
}

// jitterSeedOffset decorrelates the backoff-jitter stream from
// Config.Seed's other consumers (strategy randomness) without needing a
// second config knob.
const jitterSeedOffset = 1007

// nextRetryDelay jitters one backoff step into [base/2, 3*base/2) with
// the server's seeded jitter source: many servers (or many concurrent
// label retrains) backing off from the same failure no longer wake in
// lockstep and thundering-herd the CPU, and a fixed Config.Seed still
// pins the exact schedule for tests.
func (s *Server) nextRetryDelay(base time.Duration) time.Duration {
	s.jitterMu.Lock()
	defer s.jitterMu.Unlock()
	return base/2 + time.Duration(s.jitterRng.Int63n(int64(base)))
}

// trainCandidate fits a fresh model on a training snapshot, retrying
// transient failures with doubling, seeded-jittered backoff. It holds
// no locks — the previous model keeps serving (and /api/health keeps
// answering) while retries back off; the caller publishes the candidate.
func (s *Server) trainCandidate(x [][]float64, y []int) (ml.Classifier, error) {
	var err error
	backoff := s.cfg.RetrainBackoff
	defer retrainBackoff.Set(0)
	for attempt := 0; attempt <= s.cfg.RetrainRetries; attempt++ {
		if attempt > 0 {
			s.cfg.Log.Printf("server: retraining attempt %d after error: %v", attempt+1, err)
			delay := s.nextRetryDelay(backoff)
			retrainBackoff.Set(delay.Seconds())
			time.Sleep(delay)
			backoff *= 2
		}
		retrainAttempts.Inc()
		m := s.cfg.Factory()
		if ferr := m.Fit(x, y, len(s.cfg.Data.Classes)); ferr != nil {
			retrainFailures.Inc()
			err = fmt.Errorf("server: retraining: %w", ferr)
			continue
		}
		return m, nil
	}
	return nil, err
}

// score evaluates m on the split's test set and appends the point to
// the history; a failed evaluation is logged and appends nothing.
func (s *Server) score(m ml.Classifier) StatusPoint {
	pt := StatusPoint{Queried: s.sess.Queries()}
	if s.test.Len() == 0 {
		return pt
	}
	rep, err := eval.EvaluateModel(m, s.test.X, s.test.Y, len(s.cfg.Data.Classes), s.cfg.HealthyClass)
	if err != nil {
		s.cfg.Log.Printf("server: scoring the model after %d queries: %v", pt.Queried, err)
		return pt
	}
	pt.F1, pt.FalseAlarmRate, pt.AnomalyMissRate = rep.MacroF1, rep.FalseAlarmRate, rep.AnomalyMissRate
	s.mu.Lock()
	s.history = append(s.history, pt)
	s.mu.Unlock()
	return pt
}

// NextResponse is /api/next's payload.
type NextResponse struct {
	ID        int                   `json:"id"`
	App       string                `json:"app"`
	Input     int                   `json:"input"`
	Node      int                   `json:"node"`
	Classes   []string              `json:"classes"`
	Probs     []float64             `json:"model_probs"`
	PoolSize  int                   `json:"pool_size"`
	Hints     []explain.MetricScore `json:"important_metrics,omitempty"`
	Exhausted bool                  `json:"exhausted"`
}

// LabelRequest is /api/label's body.
type LabelRequest struct {
	ID    int    `json:"id"`
	Label string `json:"label"`
}

// LabelResponse confirms an annotation.
type LabelResponse struct {
	Accepted bool        `json:"accepted"`
	Labeled  int         `json:"labeled_total"`
	Latest   StatusPoint `json:"latest"`
}

// DiagnoseRequest is /api/diagnose's body. Exactly one of the three
// fields must be set: Features carries one already-transformed vector
// (the original protocol), Batch many of them in one request, and
// Windows raw metric-major telemetry windows ([window][metric][step])
// that the server repairs, feature-extracts and transforms itself
// (requires Config.Schema + Extractor).
type DiagnoseRequest struct {
	Features []float64     `json:"features,omitempty"`
	Batch    [][]float64   `json:"batch,omitempty"`
	Windows  [][][]float64 `json:"windows,omitempty"`
}

// DiagnoseResponse is /api/diagnose's payload for one sample.
// ModelVersion identifies the snapshot that produced it, so clients
// (and the retrain-swap race tests) can check response consistency.
type DiagnoseResponse struct {
	Label        string    `json:"label"`
	Confidence   float64   `json:"confidence"`
	Probs        []float64 `json:"probs"`
	ModelVersion uint64    `json:"model_version"`
}

// BatchDiagnoseResponse answers Batch and Windows requests: one result
// per input row, all produced by the same model snapshot.
type BatchDiagnoseResponse struct {
	Results      []DiagnoseResponse `json:"results"`
	ModelVersion uint64             `json:"model_version"`
}

// SchemaResponse is /api/schema's payload: what a diagnosis client
// needs to build requests without out-of-band coordination.
type SchemaResponse struct {
	Classes      []string `json:"classes"`
	FeatureDim   int      `json:"feature_dim"`
	FeatureNames []string `json:"feature_names,omitempty"`
	Metrics      []string `json:"metrics,omitempty"`
	WindowMode   bool     `json:"window_mode"`
	ModelVersion uint64   `json:"model_version"`
}

// Handler returns the HTTP handler tree: every route is instrumented
// (http_requests_total, http_request_seconds) and the whole tree is
// wrapped in panic recovery so a bug in one request can never take the
// annotation session down. The obs registry itself is served on
// /api/metrics; with Config.EnablePprof the pprof profilers are mounted
// under /debug/pprof/.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/next", s.instrument("/api/next", s.handleNext))
	mux.HandleFunc("/api/label", s.instrument("/api/label", s.handleLabel))
	mux.HandleFunc("/api/status", s.instrument("/api/status", s.handleStatus))
	mux.HandleFunc("/api/diagnose", s.instrument("/api/diagnose", s.handleDiagnose))
	mux.HandleFunc("/api/ingest", s.instrument("/api/ingest", s.handleIngest))
	mux.HandleFunc("/api/ingest/bulk", s.instrument("/api/ingest/bulk", s.handleIngestBulk))
	mux.HandleFunc("/api/fleet/topk", s.instrument("/api/fleet/topk", s.handleFleetTopK))
	mux.HandleFunc("/api/fleet/apps", s.instrument("/api/fleet/apps", s.handleFleetApps))
	mux.HandleFunc("/api/schema", s.instrument("/api/schema", s.handleSchema))
	mux.HandleFunc("/api/health", s.instrument("/api/health", s.handleHealth))
	mux.HandleFunc("/api/model", s.instrument("/api/model", s.handleModel))
	mux.HandleFunc("/api/model/rollback", s.instrument("/api/model/rollback", s.handleRollback))
	mux.HandleFunc("/api/metrics", s.instrument("/api/metrics", obs.Handler(obs.Default()).ServeHTTP))
	mux.HandleFunc("/", s.instrument("/", s.handleIndex))
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s.withRecovery(mux)
}

// withRecovery converts handler panics into logged 500 responses.
func (s *Server) withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.cfg.Log.Printf("server: panic serving %s %s: %v", r.Method, r.URL.Path, rec)
				writeErr(w, http.StatusInternalServerError, fmt.Errorf("internal error"))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) //albacheck:ignore errsilent status is already committed; an encode failure here only means the client hung up
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// maxBody bounds one JSON request body, on every endpoint that reads
// one. It is sized from the paper's geometry: one Eclipse tick is 1488
// nodes × 806 values × ~20.6 B of JSON ≈ 25 MB, so 64 MiB fits two
// ticks of backlog in one bulk batch while a client can no longer make
// the server buffer an unbounded body.
const maxBody = 64 << 20

// decodeBody decodes one size-bounded JSON request body into v. On
// failure it answers 413 (body over maxBody) or 400 itself and returns
// false.
func decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	writeErr(w, status, err)
	return false
}

// handleNext picks (or re-serves) the sample to annotate.
func (s *Server) handleNext(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	s.annMu.Lock()
	defer s.annMu.Unlock()
	// Loaded under annMu, so the choosing model knows every earlier answer.
	sn := s.serving()
	if sn == nil {
		writeErr(w, http.StatusServiceUnavailable, errors.New("no model trained yet"))
		return
	}
	if s.sess.PoolSize() == 0 {
		writeJSON(w, http.StatusOK, NextResponse{ID: -1, Exhausted: true})
		return
	}
	i, probs, err := s.sess.Next(sn.model)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	meta := s.cfg.Data.Meta[i]
	resp := NextResponse{
		ID:       i,
		App:      meta.App,
		Input:    meta.Input,
		Node:     meta.Node,
		Classes:  s.cfg.Data.Classes,
		Probs:    probs,
		PoolSize: s.sess.PoolSize(),
	}
	if imp, ok := sn.model.(explain.Importancer); ok && s.cfg.FeatureNames != nil {
		if hints, err := explain.TopMetrics(imp, s.cfg.FeatureNames, s.cfg.Data.X[i], 5); err == nil {
			resp.Hints = hints
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleLabel records an annotation for the pending sample.
func (s *Server) handleLabel(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	var req LabelRequest
	if !decodeBody(w, r, &req) {
		return
	}
	s.annMu.Lock()
	defer s.annMu.Unlock()
	if p := s.sess.Pending(); p < 0 || req.ID != p {
		writeErr(w, http.StatusConflict, fmt.Errorf("sample %d is not the pending query", req.ID))
		return
	}
	class, ok := s.cfg.Data.ClassIndex(req.Label)
	if !ok {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("unknown label %q", req.Label))
		return
	}
	s.sess.Label(class)
	latest, err := s.refit("label")
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, LabelResponse{Accepted: true, Labeled: len(s.sess.Labeled()), Latest: latest})
}

// handleStatus returns the trajectory so far.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	s.mu.Lock()
	labeled, pool, history := len(s.trainX), s.poolN, s.history
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"labeled":   labeled,
		"pool":      pool,
		"history":   history,
		"classes":   s.cfg.Data.Classes,
		"strategy":  s.cfg.Strategy.Name(),
		"test_size": len(s.cfg.Split.Test),
	})
}

// handleSchema describes the diagnosis contract (classes, feature
// width, metric schema) so load generators and deployed probes can
// build requests without out-of-band coordination.
func (s *Server) handleSchema(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	sn := s.serving()
	if sn == nil {
		writeErr(w, http.StatusServiceUnavailable, errors.New("no model trained yet"))
		return
	}
	resp := SchemaResponse{
		Classes:      sn.classes,
		FeatureDim:   sn.dim,
		FeatureNames: sn.names,
		WindowMode:   s.cfg.Schema != nil,
		ModelVersion: sn.version,
	}
	for _, m := range s.cfg.Schema {
		resp.Metrics = append(resp.Metrics, m.Name)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealth is the liveness/readiness probe: cheap, lock-scoped
// state only, suitable for load-balancer checks. With the lifecycle on
// it additionally distinguishes "serving a stale champion under drift"
// from "healthy": probes get the drift trigger state, the time since
// the last successful retrain, and the challenger/quarantine state.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	sn := s.serving()
	ready := sn != nil && sn.model != nil
	s.mu.Lock()
	labeled, pool := len(s.trainX), s.poolN
	s.mu.Unlock()
	status := "ok"
	code := http.StatusOK
	var version uint64
	var dim int
	if !ready {
		status = "training"
		code = http.StatusServiceUnavailable
	} else {
		version = sn.version
		dim = sn.dim
	}
	body := map[string]interface{}{
		"status":        status,
		"ready":         ready,
		"labeled":       labeled,
		"pool":          pool,
		"uptime_s":      int(time.Since(s.started).Seconds()),
		"model_version": version,
		"feature_dim":   dim,
	}
	if last := s.lastTrain.Load(); last > 0 {
		body["since_last_retrain_s"] = int(time.Now().Unix() - last)
	}
	if s.lc != nil {
		st := s.lc.monitor.Snapshot()
		body["drift_ready"] = st.Ready
		body["drifted"] = st.Drifted
		body["drifted_fraction"] = st.DriftedFraction
		body["challenger"] = s.lc.challengerState()
		body["quarantines"] = s.lc.quarantines.Load()
		if ready && st.Drifted {
			body["status"] = "drifted" // still serving, but the champion is stale
		}
	}
	if s.fl != nil {
		body["fleet"] = s.fl.health()
	}
	writeJSON(w, code, body)
}

// handleIndex serves the built-in single-page dashboard.
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(indexHTML)) //albacheck:ignore errsilent best-effort body write of the static page; nothing to do if the client hung up
}

// indexHTML is a dependency-free annotation page: it polls /api/next,
// renders the provenance, hints and model probabilities, and posts the
// chosen label.
const indexHTML = `<!doctype html>
<html><head><meta charset="utf-8"><title>ALBADross annotator</title>
<style>
body{font-family:sans-serif;max-width:46rem;margin:2rem auto;padding:0 1rem}
button{margin:0.2rem;padding:0.4rem 0.8rem}
pre{background:#f4f4f4;padding:0.6rem;overflow:auto}
</style></head><body>
<h1>ALBADross annotation console</h1>
<div id="status"></div>
<h2>Pending query</h2>
<pre id="sample">loading…</pre>
<div id="buttons"></div>
<script>
async function refresh(){
  const st = await (await fetch('/api/status')).json();
  const h = st.history[st.history.length-1] || {};
  document.getElementById('status').textContent =
    'labeled '+st.labeled+' · pool '+st.pool+' · strategy '+st.strategy+
    ' · F1 '+(h.f1||0).toFixed(3)+' · FAR '+(h.false_alarm_rate||0).toFixed(3);
  const nx = await (await fetch('/api/next')).json();
  if(nx.exhausted){document.getElementById('sample').textContent='pool exhausted';return;}
  document.getElementById('sample').textContent = JSON.stringify(nx, null, 2);
  const div = document.getElementById('buttons'); div.innerHTML='';
  for(const c of nx.classes){
    const b=document.createElement('button'); b.textContent=c;
    b.onclick=async()=>{await fetch('/api/label',{method:'POST',
      body:JSON.stringify({id:nx.id,label:c})}); refresh();};
    div.appendChild(b);
  }
}
refresh();
</script></body></html>
`
