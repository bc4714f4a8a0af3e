package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"albadross/internal/core"
	"albadross/internal/dataset"
	"albadross/internal/drift"
	"albadross/internal/features"
	"albadross/internal/features/mvts"
	"albadross/internal/features/tsfresh"
	"albadross/internal/ml/forest"
	"albadross/internal/ml/tree"
	"albadross/internal/server"
	"albadross/internal/stream"
	"albadross/internal/telemetry"
)

// serveExtractor resolves an ingest extractor name, mirroring the
// experiments runner's switch.
func serveExtractor(name string) (features.Extractor, error) {
	switch name {
	case "mvts":
		return mvts.Extractor{}, nil
	case "tsfresh":
		return tsfresh.Extractor{}, nil
	default:
		return nil, fmt.Errorf("unknown extractor %q (mvts or tsfresh)", name)
	}
}

// serve starts the annotation console (the paper's future-work
// dashboard): it loads a dataset, builds the Fig. 2 split, trains the
// initial model, and serves the query/label/status/health/metrics API
// plus a built-in web page on -addr (metrics: GET /api/metrics, JSON or
// Prometheus text; profiling: -pprof mounts /debug/pprof/). The HTTP server carries production
// defaults — read/write timeouts, panic recovery (in the handler tree),
// and SIGINT/SIGTERM graceful shutdown that drains in-flight requests.
func serve(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		dataFile = fs.String("data", "", "dataset file from cmd/datagen (gob, required)")
		addr     = fs.String("addr", "127.0.0.1:8080", "listen address")
		strategy = fs.String("strategy", "uncertainty", strategyHelp)
		topK     = fs.Int("topk", 150, "chi-square feature budget")
		seed     = fs.Int64("seed", 1, "random seed")
		trees    = fs.Int("trees", 20, "random-forest size")
		reqTimeo = fs.Duration("request-timeout", 30*time.Second, "per-request read/write timeout")
		drain    = fs.Duration("drain", 10*time.Second, "graceful-shutdown drain window")
		pprofOn  = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (see docs/OBSERVABILITY.md)")
		batchMax = fs.Int("batch-max", 64, "max rows (or raw windows) one /api/diagnose request may carry")

		lifecycle = fs.Bool("lifecycle", false, "enable the drift-aware model lifecycle (see docs/LIFECYCLE.md)")
		regKeep   = fs.Int("registry-keep", 5, "model versions retained for rollback")
		driftWin  = fs.Int("drift-window", 512, "drift window rows")
		driftPSI  = fs.Float64("drift-psi", 0.2, "per-feature PSI threshold")
		driftFrac = fs.Float64("drift-fraction", 0.25, "drifted-feature fraction that triggers retraining")
		shadowRow = fs.Int("shadow-rows", 256, "duplicated rows before the promotion decision")
		minAgree  = fs.Float64("min-agreement", 0.85, "champion-agreement floor for promotion")
		cooldown  = fs.Duration("trigger-cooldown", 30*time.Second, "min spacing between drift triggers")

		ingShards  = fs.Int("ingest-shards", 0, "ingest shard workers: node streams from POST /api/ingest and /api/ingest/bulk are hashed onto them, plus /api/fleet rollup serving (0 disables ingest; see docs/FLEET.md and docs/REPLAY.md)")
		ingMetrics = fs.Int("ingest-metrics", 0, "raw metrics per ingest reading (builds the telemetry schema; required with -ingest-shards)")
		ingExtract = fs.String("ingest-extractor", "mvts", "ingest feature extractor: mvts or tsfresh")
		ingWindow  = fs.Int("ingest-window", 64, "ingest diagnosis window length (samples)")
		ingStride  = fs.Int("ingest-stride", 0, "ingest window hop (0 = window length)")
		ingReorder = fs.Int("ingest-reorder", 8, "ingest reordering-buffer horizon (samples)")
		walDir     = fs.String("wal-dir", "", "write-ahead window log directory (empty disables journaling and crash recovery)")
		walSegment = fs.Int64("wal-segment", 1<<20, "WAL segment rotation size in bytes")
		walRetain  = fs.Int("wal-retain", 0, "WAL segments retained per node (0 keeps all)")

		fleetQueue = fs.Int("fleet-queue-depth", 0, "per-shard ingest task queue bound; full queues shed with 429 + Retry-After (0 = 32)")
		fleetNodes = fs.Int("fleet-max-nodes", 0, "node streams admitted per shard worker (0 = 1024)")
		fleetTop   = fs.Int("fleet-recent", 0, "diagnosis windows per node in the rollup recency score (0 = 16)")
	)
	fs.Parse(args) //albacheck:ignore errsilent flag.ExitOnError: Parse exits the process on error, the return is dead
	if *dataFile == "" {
		usage()
	}
	d := loadDataset(*dataFile)
	strat := strategyByName(*strategy)
	split, err := dataset.MakeALSplit(d, dataset.ALSplitConfig{
		TestFraction: 0.3, AnomalyRatio: 0.10, HealthyClass: 0, Seed: *seed,
	})
	if err != nil {
		fatal(err)
	}
	trainIdx := append(append([]int{}, split.Initial...), split.Pool...)
	prep, err := core.FitPreprocessor(d, trainIdx, *topK)
	if err != nil {
		fatal(err)
	}
	tr, err := prep.Transform(d)
	if err != nil {
		fatal(err)
	}
	logger := log.New(os.Stderr, "albadross: ", log.LstdFlags)
	var (
		schema []telemetry.Metric
		ext    features.Extractor
		flcfg  server.FleetConfig
	)
	if *ingShards > 0 {
		if *ingMetrics <= 0 {
			fatal(fmt.Errorf("-ingest-shards requires -ingest-metrics"))
		}
		schema = telemetry.BuildSchema(*ingMetrics)
		if ext, err = serveExtractor(*ingExtract); err != nil {
			fatal(err)
		}
		flcfg = server.FleetConfig{
			IngestConfig: server.IngestConfig{
				Shards:          *ingShards,
				Window:          *ingWindow,
				Stride:          *ingStride,
				Reorder:         *ingReorder,
				Gap:             stream.GapAbstain,
				WALSegmentBytes: *walSegment,
				WALRetain:       *walRetain,
			},
			QueueDepth:       *fleetQueue,
			MaxNodesPerShard: *fleetNodes,
			RollupRecent:     *fleetTop,
		}
		if *walDir != "" {
			// Per-node WALs live at <wal-dir>/fleet/node-NNNNNN — where
			// fleet deployments have always kept them.
			flcfg.WALDir = filepath.Join(*walDir, "fleet")
		}
	}
	srv, err := server.New(server.Config{
		Data:  tr,
		Split: split,
		Factory: forest.NewFactory(forest.Config{
			NEstimators: *trees, MaxDepth: 8, Criterion: tree.Entropy, Seed: *seed,
		}),
		Strategy:     strat,
		FeatureNames: prep.Names,
		Seed:         *seed + 7,
		Log:          logger,
		EnablePprof:  *pprofOn,
		BatchMaxSize: *batchMax,
		Prep:         prep,
		Lifecycle:    *lifecycle,
		RegistryKeep: *regKeep,
		Drift: drift.Config{
			Window:          *driftWin,
			PSIThreshold:    *driftPSI,
			TriggerFraction: *driftFrac,
			Seed:            *seed + 13,
		},
		ShadowMinRows:   *shadowRow,
		MinAgreement:    *minAgree,
		TriggerCooldown: *cooldown,
		Schema:          schema,
		Extractor:       ext,
		Fleet:           flcfg,
	})
	if err != nil {
		fatal(err)
	}
	defer srv.Close()
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadTimeout:       *reqTimeo,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      *reqTimeo,
		IdleTimeout:       2 * *reqTimeo,
		ErrorLog:          logger,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Printf("annotation console on http://%s/ (pool %d, initial %d, test %d, strategy %s)\n",
		*addr, len(split.Pool), len(split.Initial), len(split.Test), strat.Name())
	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
		stop()
		logger.Printf("shutting down, draining for up to %s", *drain)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			logger.Printf("forced shutdown: %v", err)
			if cerr := httpSrv.Close(); cerr != nil {
				logger.Printf("close after forced shutdown: %v", cerr)
			}
		}
	}
}
