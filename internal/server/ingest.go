// Per-node ingest state and its evidence trail. Every fleet node's
// predict stage (fleet.go builds the chains) runs the window through
// the REAL serving path (preprocessor transform + the same classify
// call /api/diagnose makes, on the shard worker's goroutine), so
// ingest-driven diagnoses feed the drift monitor and
// champion–challenger shadow gate exactly like /api/diagnose traffic,
// and folds what it served into a per-node evidence fingerprint that
// WAL replay can reproduce (docs/REPLAY.md).

package server

import (
	"math"

	"albadross/internal/ml"
	"albadross/internal/stream"
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
