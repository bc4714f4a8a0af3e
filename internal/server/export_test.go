package server

// Test seams: operator-style entry points that no command calls. The
// tests drive shadow-evidence replay, forced retrains and candidate
// challengers through them.

import (
	"errors"
	"fmt"
	"math"

	"albadross/internal/fleet"
	"albadross/internal/ml"
	"albadross/internal/pipeline"
)

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

// evidence is a predict stage's running FNV-1a fold over every
// (model-space row, champion label) pair it served.
type evidence struct {
	hash uint64
	rows int // pairs folded into hash
}

func (e *evidence) observe(row []float64, label string) {
	e.hash = evidenceFold(e.hash, row, label)
	e.rows++
}

// foldEvidence is a Config.observeServed that gives every node its own
// evidence fold.
func foldEvidence() servedObserver { return new(evidence) }

// evidenceFold extends an FNV-1a evidence fingerprint by one
// (model-space row, champion label) pair: the previous state as one
// word, each float's bits, then each label byte. A zero accumulator
// seeds the FNV offset basis, so folds compose associatively
// left-to-right.
func evidenceFold(h uint64, row []float64, label string) uint64 {
	if h == 0 {
		h = fnvOffset64
	}
	h = fnvWord(fnvOffset64, h)
	for _, v := range row {
		h = fnvWord(h, math.Float64bits(v))
	}
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= fnvPrime64
	}
	return h
}

// EvidenceHash returns one node's running FNV-1a fold over every
// (model-space row, champion label) evidence pair its ingest traffic
// delivered to the serving path: the fingerprint the shadow-replay
// vetting is checked against. The server must have been built with
// Config.observeServed set to foldEvidence.
func (s *Server) EvidenceHash(node int) (uint64, error) {
	var hash uint64
	err := s.visitNode(node, func(ns *fleet.NodeStream) error {
		ev, ok := ns.Aux.(*servePredict).served.(*evidence)
		if !ok {
			return errors.New("server: node evidence is not folded")
		}
		hash = ev.hash
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
	ev := new(evidence)
	ep := &servePredict{s: s, served: ev}
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
	return ev.rows, ev.hash, nil
}

// Retrain retrains on the current labeled set and atomically swaps the
// result in, without ever blocking diagnosis reads. It is the forced
// path the concurrency tests hammer and an operational escape hatch;
// /api/label performs the same sequence after each annotation. When a
// label lands while it fits, the label's model (fit on more rows) keeps
// serving and Retrain's is quarantined as stale.
func (s *Server) Retrain() error {
	v := s.training()
	m, err := s.trainCandidate(v.x, v.y)
	if err != nil {
		return err
	}
	s.publish(m, v, "operator")
	return nil
}

// trainCandidate fits a fresh model on a training snapshot, retrying
// transient failures (see retrying).
func (s *Server) trainCandidate(x [][]float64, y []int) (ml.Classifier, error) {
	nClasses := len(s.cfg.Data.Classes)
	return s.retrying(func(m ml.Classifier) error { return m.Fit(x, y, nClasses) })
}
