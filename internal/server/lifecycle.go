// The drift-aware model lifecycle (ROADMAP item 2, docs/LIFECYCLE.md):
// served feature vectors are duplicated off the diagnose hot path into
// a bounded queue, where a single worker feeds the drift monitor and
// shadow-scores any challenger awaiting promotion. Drift past the
// configured threshold is reported (/api/health, /api/model) until the
// next publication re-anchors the monitor; it does not retrain, because
// a refit of the same labeled set with the same seeded factory is the
// champion again. A challenger (Server.StartChallenger) must win the
// champion–challenger gate (windowed agreement plus holdout macro-F1)
// before it serves live traffic; a failed one is quarantined. Operator
// rollback (POST /api/model/rollback) restores the previous registry
// version in one pointer swap.
//
// Concurrency contract: the queue worker is the only goroutine that
// mutates trial scoring state, so those fields need no lock; the trial
// pointer itself is installed/cleared under trialMu because
// StartChallenger runs on caller goroutines. Slow work (shadow
// inference, holdout evaluation, registry ops) always runs with no
// mutex held — the locksafe analyzer enforces this shape.
package server

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"albadross/internal/drift"
	"albadross/internal/eval"
	"albadross/internal/ml"
	"albadross/internal/registry"
)

// shadowBatch is one duplicated slice of classified traffic: the rows a
// pass served plus the champion's argmax labels for them.
type shadowBatch struct {
	rows        [][]float64
	champLabels []int
	champVer    uint64
}

// trial is one challenger's shadow evaluation. Scoring fields (agree,
// total) are touched only by the queue worker.
type trial struct {
	entry    *registry.Entry[*snapshot]
	deadline time.Time
	agree    int
	total    int
}

// lifecycle owns the drift monitor, the shadow queue and the
// champion–challenger policy for one server.
type lifecycle struct {
	s       *Server
	monitor *drift.Monitor
	queue   chan shadowBatch

	closeMu sync.RWMutex // orders setting closed against in-flight offers
	closed  atomic.Bool  // set once close begins; the worker reads it unlocked
	done    chan struct{}

	trialMu sync.Mutex
	trial   *trial

	quarantines atomic.Uint64
	promotions  atomic.Uint64
}

// newLifecycle anchors the drift monitor to the training universe
// (labeled plus unlabeled pool rows) and starts the shadow worker.
func newLifecycle(s *Server, refX [][]float64) (*lifecycle, error) {
	cfg := s.cfg.Drift
	if cfg.Seed == 0 {
		cfg.Seed = s.cfg.Seed + 1
	}
	mon, err := drift.NewMonitor(refX, cfg)
	if err != nil {
		return nil, fmt.Errorf("server: drift monitor: %w", err)
	}
	lc := &lifecycle{
		s:       s,
		monitor: mon,
		queue:   make(chan shadowBatch, s.cfg.ShadowQueue),
		done:    make(chan struct{}),
	}
	go lc.run()
	return lc, nil
}

// offer duplicates one classify call onto the shadow queue without
// ever blocking: the hot path pays one slice copy, one argmax sweep and
// one non-blocking send. A full queue sheds the batch (counted) —
// losing shadow rows under overload is the design, losing champion
// latency is not. The row vectors are kept, not copied.
//
//albacheck:coldpath lifecycle tap, only with Config.Lifecycle on: two small slices per classify call (a row-pointer copy and the champion labels) that the shadow worker owns afterwards; BENCHMARK.json's diagnose_batch ops_per_s and eclipse_1hz cpu_us_per_op bound the end-to-end cost
func (lc *lifecycle) offer(rows [][]float64, probs [][]float64, sn *snapshot) {
	lc.closeMu.RLock()
	defer lc.closeMu.RUnlock()
	if lc.closed.Load() {
		return
	}
	b := shadowBatch{
		rows:        append(make([][]float64, 0, len(rows)), rows...),
		champLabels: make([]int, len(probs)),
		champVer:    sn.version,
	}
	for i, p := range probs {
		b.champLabels[i] = ml.Argmax(p)
	}
	select {
	case lc.queue <- b:
		shadowQueueDepth.Set(float64(len(lc.queue)))
	default:
		shadowShed.Inc()
	}
}

// close stops the worker after it drains the queue.
func (lc *lifecycle) close() {
	lc.closeMu.Lock()
	if lc.closed.Load() {
		lc.closeMu.Unlock()
		return
	}
	lc.closed.Store(true)
	close(lc.queue)
	lc.closeMu.Unlock()
	<-lc.done
}

// run is the shadow worker: every duplicated batch feeds the drift
// monitor and scores the current trial (if any). All slow work happens
// here, on this goroutine, with no lock held.
func (lc *lifecycle) run() {
	defer close(lc.done)
	for b := range lc.queue {
		shadowQueueDepth.Set(float64(len(lc.queue)))
		lc.monitor.ObserveBatch(b.rows)
		lc.scoreTrial(b)
	}
}

// scoreTrial shadow-scores one batch against the current challenger and
// decides promotion once enough evidence (or the deadline) arrives.
// Once close has begun it decides nothing: the batches it drains then
// still feed the monitor, but /api/diagnose keeps answering after
// Close, so a shutdown must not change the model it serves.
func (lc *lifecycle) scoreTrial(b shadowBatch) {
	lc.trialMu.Lock()
	t := lc.trial
	lc.trialMu.Unlock()
	if t == nil || lc.closed.Load() {
		return
	}
	if t.total < lc.s.cfg.ShadowMinRows && time.Now().After(t.deadline) {
		lc.finishTrial(t, false, fmt.Sprintf(
			"insufficient shadow traffic: %d of %d rows before the %s deadline",
			t.total, lc.s.cfg.ShadowMinRows, lc.s.cfg.ShadowMaxWait))
		return
	}
	chal := t.entry.Payload
	probs := ml.ProbaBatchParallel(chal.model, b.rows, 0)
	for i, p := range probs {
		if ml.Argmax(p) == b.champLabels[i] {
			t.agree++
		}
	}
	t.total += len(b.rows)
	shadowRows.Add(uint64(len(b.rows)))
	if t.total > 0 {
		shadowAgreement.Set(float64(t.agree) / float64(t.total))
	}
	if t.total < lc.s.cfg.ShadowMinRows {
		return
	}
	agreement := float64(t.agree) / float64(t.total)
	chalF1, champF1, err := lc.holdoutF1(chal)
	if err != nil {
		lc.finishTrial(t, false, "holdout evaluation failed: "+err.Error())
		return
	}
	if serr := lc.s.reg.SetStats(t.entry.Version, registry.Stats{
		Agreement: agreement, MacroF1: chalF1, ShadowRows: t.total,
	}); serr != nil {
		lc.s.cfg.Log.Printf("server: recording shadow stats: %v", serr)
	}
	if agreement < lc.s.cfg.MinAgreement {
		lc.finishTrial(t, false, fmt.Sprintf(
			"champion agreement %.3f below gate %.3f over %d shadow rows",
			agreement, lc.s.cfg.MinAgreement, t.total))
		return
	}
	if chalF1 < champF1-f1Tolerance {
		lc.finishTrial(t, false, fmt.Sprintf(
			"holdout macro-F1 %.3f more than %.3f below champion %.3f",
			chalF1, f1Tolerance, champF1))
		return
	}
	lc.finishTrial(t, true, "")
}

// holdoutF1 evaluates challenger and champion on the split's held-out
// test set. No lock is held: both models are immutable snapshots.
func (lc *lifecycle) holdoutF1(chal *snapshot) (chalF1, champF1 float64, err error) {
	test := lc.s.cfg.Split.Test
	if len(test) == 0 {
		return 0, 0, errors.New("empty holdout split")
	}
	x := make([][]float64, len(test))
	y := make([]int, len(test))
	for k, i := range test {
		x[k] = lc.s.cfg.Data.X[i]
		y[k] = lc.s.cfg.Data.Y[i]
	}
	nc := len(lc.s.cfg.Data.Classes)
	chalRep, err := eval.EvaluateModel(chal.model, x, y, nc, lc.s.cfg.HealthyClass)
	if err != nil {
		return 0, 0, err
	}
	champ := lc.s.serving()
	if champ == nil {
		return chalRep.MacroF1, 0, nil
	}
	champRep, err := eval.EvaluateModel(champ.model, x, y, nc, lc.s.cfg.HealthyClass)
	if err != nil {
		return 0, 0, err
	}
	return chalRep.MacroF1, champRep.MacroF1, nil
}

// f1Tolerance is how far below the champion's holdout macro-F1 a
// challenger may score and still promote.
const f1Tolerance = 0.02

// finishTrial promotes or quarantines the challenger. Registry ops run
// with no mutex held.
func (lc *lifecycle) finishTrial(t *trial, promote bool, reason string) {
	lc.trialMu.Lock()
	if lc.trial != t {
		lc.trialMu.Unlock()
		return
	}
	lc.trial = nil
	lc.trialMu.Unlock()

	if promote {
		if err := lc.s.reg.Promote(t.entry.Version); err != nil {
			lc.s.cfg.Log.Printf("server: promoting challenger %d: %v", t.entry.Version, err)
			return
		}
		lc.promotions.Add(1)
		promotionsTotal.Inc()
		lc.s.afterSwap(t.entry.Payload)
		lc.s.cfg.Log.Printf("server: promoted model version %d after %d shadow rows", t.entry.Version, t.total)
		return
	}
	if err := lc.s.reg.Quarantine(t.entry.Version, reason); err != nil {
		lc.s.cfg.Log.Printf("server: quarantining challenger %d: %v", t.entry.Version, err)
	}
	lc.quarantines.Add(1)
	quarantinesTotal.Inc()
	lc.s.cfg.Log.Printf("server: quarantined model version %d: %s", t.entry.Version, reason)
}

// StartChallenger registers a candidate model for shadow evaluation
// against the live champion. The candidate serves no live traffic until
// (and unless) it wins the promotion gate. Returns the registry version
// assigned to the candidate. Errors if the lifecycle is disabled or a
// trial is already in flight. The registry records the size and hash of
// the labeled set as of the last annotation.
func (s *Server) StartChallenger(m ml.Classifier, origin string) (uint64, error) {
	if s.lc == nil {
		return 0, errors.New("server: lifecycle is disabled")
	}
	if origin == "" {
		origin = "challenger"
	}
	v := s.training()
	e := s.reg.Add(func(version uint64) *snapshot {
		return s.newSnapshot(m, version)
	}, registry.Meta{TrainHash: v.hash, TrainSize: len(v.x), Origin: origin})
	t := &trial{entry: e, deadline: time.Now().Add(s.cfg.ShadowMaxWait)}
	s.lc.trialMu.Lock()
	if s.lc.trial != nil {
		s.lc.trialMu.Unlock()
		// The entry stays a candidate in the registry; quarantine it so
		// retention can reclaim it.
		if err := s.reg.Quarantine(e.Version, "superseded: another challenger is already under trial"); err != nil {
			s.cfg.Log.Printf("server: quarantining superseded challenger: %v", err)
		}
		return 0, errors.New("server: a challenger is already under shadow evaluation")
	}
	s.lc.trial = t
	s.lc.trialMu.Unlock()
	return e.Version, nil
}

// RollbackModel restores the most recent retired version in one
// registry pointer swap. The deposed version is marked rolled-back and
// will not be chosen by future rollbacks. Returns the version now
// serving.
func (s *Server) RollbackModel(reason string) (uint64, error) {
	if reason == "" {
		reason = "operator rollback"
	}
	e, err := s.reg.Rollback(reason)
	if err != nil {
		return 0, err
	}
	rollbacksTotal.Inc()
	s.afterSwap(e.Payload)
	s.cfg.Log.Printf("server: rolled back to model version %d (%s)", e.Version, reason)
	return e.Version, nil
}

// challengerState summarizes the trial for health and model probes.
func (lc *lifecycle) challengerState() map[string]interface{} {
	lc.trialMu.Lock()
	t := lc.trial
	lc.trialMu.Unlock()
	if t == nil {
		return nil
	}
	return map[string]interface{}{
		"version":     t.entry.Version,
		"deadline_in": time.Until(t.deadline).Round(time.Millisecond).String(),
	}
}

// ModelStatus is /api/model's payload: the registry listing plus the
// live lifecycle state.
type ModelStatus struct {
	ActiveVersion uint64          `json:"active_version"`
	Registry      []registry.Info `json:"registry"`
	Lifecycle     bool            `json:"lifecycle"`
	Drift         *drift.Status   `json:"drift,omitempty"`
	Challenger    interface{}     `json:"challenger,omitempty"`
	Promotions    uint64          `json:"promotions"`
	Quarantines   uint64          `json:"quarantines"`
}

// Model reports the current registry and lifecycle state.
func (s *Server) Model() ModelStatus {
	st := ModelStatus{Registry: s.reg.List(), Lifecycle: s.lc != nil}
	if e := s.reg.Active(); e != nil {
		st.ActiveVersion = e.Version
	}
	if s.lc != nil {
		d := s.lc.monitor.Snapshot()
		st.Drift = &d
		st.Challenger = s.lc.challengerState()
		st.Promotions = s.lc.promotions.Load()
		st.Quarantines = s.lc.quarantines.Load()
	}
	return st
}

// handleModel serves GET /api/model.
func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	writeJSON(w, http.StatusOK, s.Model())
}

// handleRollback serves POST /api/model/rollback. 409 when no retired
// version is available to restore.
func (s *Server) handleRollback(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	v, err := s.RollbackModel("operator rollback via API")
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"active_version": v})
}

// trainFold computes TrainHash, which fingerprints a training set:
// FNV-1a 64 over the little-endian float bit patterns of every row,
// then the label stream (the result equals hash/fnv's New64a over the
// same bytes). Identical training data always hashes identically, so
// operators can tell retrain-on-same-data versions apart from genuinely
// new ones. It runs on every label, so it carries the row fold forward
// and folds only the rows appended since the last call.
type trainFold struct {
	h    uint64 // FNV-1a state after the first rows rows
	rows int
}

func newTrainFold() trainFold { return trainFold{h: fnvOffset64} }

// hash folds x's rows past those already folded, then returns the
// hash of the whole set: the labels folded on a copy of the state. x
// must extend the rows of every earlier call.
func (f *trainFold) hash(x [][]float64, y []int) uint64 {
	for _, row := range x[f.rows:] {
		for _, v := range row {
			f.h = fnvWord(f.h, math.Float64bits(v))
		}
	}
	f.rows = len(x)
	h := f.h
	for _, label := range y {
		h = fnvWord(h, uint64(label))
	}
	return h
}

// FNV-1a 64 parameters, as in hash/fnv.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvWord folds v's eight little-endian bytes into the FNV-1a state h.
func fnvWord(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}
