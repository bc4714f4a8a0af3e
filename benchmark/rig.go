package main

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"albadross/internal/active"
	"albadross/internal/core"
	"albadross/internal/dataset"
	"albadross/internal/features/mvts"
	"albadross/internal/ml"
	"albadross/internal/ml/forest"
	"albadross/internal/ml/tree"
	"albadross/internal/server"
	"albadross/internal/stream"
	"albadross/internal/telemetry"
)

// rig is one workload's system under test: the trained annotation
// server on a loopback listener plus what the generator and the traced
// pass need to know about it. Everything is derived from (sizes, seed).
type rig struct {
	sz      sizes
	seed    int64
	sys     *telemetry.SystemSpec
	data    *dataset.Dataset // model-space rows
	split   *dataset.ALSplit
	prep    *core.Preprocessor
	factory ml.Factory
	fleet   server.FleetConfig
	srv     *server.Server
	http    *httptest.Server
	client  *http.Client
	walDir  string // "" when journaling is off
}

// clients is the generator's connection count; the rig sizes the
// transport's idle pool to it so every request reuses a connection.
const clients = 2

// system builds the simulated machine a workload's campaign runs on,
// trimmed to the leading apps and the smallest allocation size.
func system(sz sizes) (*telemetry.SystemSpec, error) {
	var sys *telemetry.SystemSpec
	switch sz.system {
	case "eclipse":
		sys = telemetry.Eclipse(sz.metrics)
	case "volta":
		sys = telemetry.Volta(sz.metrics)
	default:
		return nil, fmt.Errorf("unknown system %q", sz.system)
	}
	if sz.apps < len(sys.Apps) {
		sys.Apps = sys.Apps[:sz.apps]
	}
	sys.NodeCounts = sys.NodeCounts[:1]
	return sys, nil
}

// newRig runs the data-collection campaign, fits the preprocessor,
// trains the model and starts the server, mirroring `albadross serve`.
// labelPool hands the whole pool to the initial model (a full-size
// champion for the serving workloads); annotate_loop leaves it
// unlabeled. tmp roots the per-node WAL when the sizes ask for one.
func newRig(sz sizes, seed int64, labelPool bool, tmp string) (*rig, error) {
	sys, err := system(sz)
	if err != nil {
		return nil, err
	}
	raw, err := core.GenerateDataset(core.DataConfig{
		System: sys, Extractor: mvts.Extractor{},
		RunsPerAppInput: sz.runs, Steps: sz.steps, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	split, err := dataset.MakeALSplit(raw, dataset.ALSplitConfig{
		TestFraction: 0.3, AnomalyRatio: 0.10, HealthyClass: 0, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	train := append(append([]int{}, split.Initial...), split.Pool...)
	prep, err := core.FitPreprocessor(raw, train, sz.topK)
	if err != nil {
		return nil, err
	}
	data, err := prep.Transform(raw)
	if err != nil {
		return nil, err
	}
	if labelPool {
		split.Initial, split.Pool = train, nil
	}
	r := &rig{
		sz: sz, seed: seed, sys: sys, data: data, split: split, prep: prep,
		factory: forest.NewFactory(forest.Config{
			NEstimators: sz.trees, MaxDepth: 8, Criterion: tree.Entropy, Seed: seed,
		}),
	}
	cfg := server.Config{
		Data: data, Split: split, Factory: r.factory,
		Strategy: active.Uncertainty{}, FeatureNames: prep.Names,
		Seed: seed + 7, Log: log.New(io.Discard, "", 0),
		BatchMaxSize: 64, Prep: prep,
	}
	if sz.nodes > 0 {
		r.fleet = server.FleetConfig{IngestConfig: server.IngestConfig{
			Shards: 2, Window: sz.window, Stride: sz.stride, Reorder: 8,
			Gap: stream.GapAbstain, WALSegmentBytes: 1 << 20,
		}}
		if sz.wal {
			if r.walDir, err = os.MkdirTemp(tmp, "wal-"); err != nil {
				return nil, err
			}
			r.fleet.WALDir = r.walDir
		}
		cfg.Schema, cfg.Extractor, cfg.Fleet = sys.Metrics, mvts.Extractor{}, r.fleet
	}
	if r.srv, err = server.New(cfg); err != nil {
		r.close()
		return nil, err
	}
	r.http = httptest.NewServer(r.srv.Handler())
	r.client = &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: clients},
	}
	return r, nil
}

// close stops the listener and the server and deletes the WAL.
func (r *rig) close() {
	if r.http != nil {
		r.client.CloseIdleConnections()
		r.http.Close()
	}
	if r.srv != nil {
		r.srv.Close()
	}
	if r.walDir != "" {
		if err := os.RemoveAll(r.walDir); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: leaving WAL behind:", err)
		}
	}
}

// trainingSet returns the rows and labels the initial model was fitted
// on, for the direct ml-layer measurements.
func (r *rig) trainingSet() ([][]float64, []int) {
	x := make([][]float64, len(r.split.Initial))
	y := make([]int, len(r.split.Initial))
	for k, i := range r.split.Initial {
		x[k], y[k] = r.data.X[i], r.data.Y[i]
	}
	return x, y
}
