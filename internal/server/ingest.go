// Per-node ingest state and its evidence trail. Every fleet node's
// predict stage (fleet.go builds the chains) runs the window through
// the REAL serving path (preprocessor transform + the same classify
// call /api/diagnose makes, on the shard worker's goroutine), so
// ingest-driven diagnoses feed the drift monitor and
// champion–challenger shadow gate exactly like /api/diagnose traffic.

package server

import (
	"albadross/internal/ml"
	"albadross/internal/stream"
)

// IngestConfig is the per-node stream geometry and journaling of the
// ingest subsystem (embedded in FleetConfig). It requires the
// window-mode prerequisites on the parent Config: Schema and Extractor
// (plus Prep when the model was trained on transformed vectors). The
// plausible forward timestamp jump and the GapAbstain tolerance are the
// stage chain's defaults (pipeline.ChainConfig).
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
	// Gap selects the missing-data repair policy.
	Gap stream.GapPolicy
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
// transform into model space and the server's one classify call. Only
// the goroutine driving the chain touches it.
type servePredict struct {
	s *Server
	// recovering is set while start-up WAL replay rebuilds stream state:
	// same model, same probabilities, but nothing is fed to the lifecycle,
	// so journaled rows are not double-counted as drift or shadow
	// evidence.
	recovering bool
	// served sees every pair the stage serves; nil unless a test
	// installed one through Config.observeServed.
	served servedObserver
}

// servedObserver sees each (model-space row, champion label) pair a
// predict stage serves, live, recovering or replayed for shadow
// evidence. Only tests implement it: the evidence fingerprint WAL
// replay is checked against.
type servedObserver interface {
	observe(row []float64, label string)
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
	if p.served != nil {
		p.served.observe(row, label)
	}
	return label, conf, nil
}

// Emit lets a servePredict double as the sink of a chain that is
// replayed for its evidence, not its diagnoses.
func (p *servePredict) Emit(stream.Diagnosis) error { return nil }
