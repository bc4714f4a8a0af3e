// Command albadross trains and serves the active-learning anomaly
// diagnosis framework.
//
// Usage:
//
//	albadross train -data volta.gob -model out/ [-strategy uncertainty] [-target 0.95]
//	albadross train -system volta -model out/            # generate data inline
//	albadross diagnose -model out/ -data volta.gob -index 17
//	albadross serve -data volta.gob -addr 127.0.0.1:8080 # annotation console
//	albadross feed -addr http://127.0.0.1:8080 -nodes 32  # simulated fleet load
//
// `train` runs the Fig. 1 pipeline — feature selection, initial
// supervised training, and the query loop with an oracle annotator — and
// saves the deployable bundle. `diagnose` loads a bundle and diagnoses a
// sample from a dataset file. `feed` posts simulated telemetry with
// known anomalies to a serving fleet and prints a JSON report and the
// table of each node's last served label against its injected anomaly.
package main

import (
	"encoding/gob"
	"flag"
	"fmt"
	"os"
	"strings"

	"albadross/internal/active"
	"albadross/internal/core"
	"albadross/internal/dataset"
	"albadross/internal/features"
	"albadross/internal/features/mvts"
	"albadross/internal/features/tsfresh"
	"albadross/internal/ml/forest"
	"albadross/internal/ml/tree"
	"albadross/internal/telemetry"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "train":
		train(os.Args[2:])
	case "diagnose":
		diagnose(os.Args[2:])
	case "serve":
		serve(os.Args[2:])
	case "feed":
		runFeed(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  albadross train    -model DIR (-data FILE | -system volta|eclipse) [flags]
  albadross diagnose -model DIR -data FILE -index N
  albadross serve    -data FILE [-addr host:port] [-strategy uncertainty]
  albadross feed     [-addr URL] [-system volta|eclipse] [-nodes N] [-rows N]`)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "albadross:", err)
	os.Exit(1)
}

// strategyHelp is the -strategy flag text of train and serve.
var strategyHelp = "query strategy: " + strings.Join(active.StrategyNames(), ", ")

// strategyByName resolves a -strategy value, or exits naming the valid ones.
func strategyByName(name string) active.Strategy {
	s, ok := active.ByName(name)
	if !ok {
		fatal(fmt.Errorf("unknown strategy %q; %s", name, strategyHelp))
	}
	return s
}

func loadDataset(path string) *dataset.Dataset {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close() //albacheck:ignore errsilent read-only file; a close error cannot lose data and the decode error is already fatal
	var d dataset.Dataset
	if err := gob.NewDecoder(f).Decode(&d); err != nil {
		fatal(fmt.Errorf("decoding %s: %w", path, err))
	}
	return &d
}

func train(args []string) {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	var (
		dataFile  = fs.String("data", "", "dataset file from cmd/datagen (gob)")
		system    = fs.String("system", "", "generate data inline for this system instead of -data")
		modelDir  = fs.String("model", "", "output directory for the trained bundle (required)")
		strategy  = fs.String("strategy", "uncertainty", strategyHelp)
		topK      = fs.Int("topk", 150, "chi-square feature budget")
		queries   = fs.Int("queries", 250, "query budget")
		target    = fs.Float64("target", 0.95, "stop early at this test F1 (0: disabled)")
		seed      = fs.Int64("seed", 1, "random seed")
		trees     = fs.Int("trees", 20, "random-forest size")
		extractor = fs.String("extractor", "", "extractor when generating inline (mvts/tsfresh)")
	)
	fs.Parse(args) //albacheck:ignore errsilent flag.ExitOnError: Parse exits the process on error, the return is dead
	if *modelDir == "" || (*dataFile == "" && *system == "") {
		usage()
	}
	var d *dataset.Dataset
	if *dataFile != "" {
		d = loadDataset(*dataFile)
	} else {
		var sys *telemetry.SystemSpec
		switch *system {
		case "volta":
			sys = telemetry.Volta(54)
		case "eclipse":
			sys = telemetry.Eclipse(54)
		default:
			fatal(fmt.Errorf("unknown system %q", *system))
		}
		var ex features.Extractor = tsfresh.Extractor{}
		if *extractor == "mvts" || (*extractor == "" && *system == "eclipse") {
			ex = mvts.Extractor{}
		}
		var err error
		d, err = core.GenerateDataset(core.DataConfig{
			System: sys, Extractor: ex, RunsPerAppInput: 24, Steps: 150, Seed: *seed,
		})
		if err != nil {
			fatal(err)
		}
	}
	strat := strategyByName(*strategy)
	fw, err := core.New(core.Config{
		TopK: *topK,
		Factory: forest.NewFactory(forest.Config{
			NEstimators: *trees, MaxDepth: 8, Criterion: tree.Entropy, Seed: *seed,
		}),
		Strategy:   strat,
		MaxQueries: *queries,
		TargetF1:   *target,
		Seed:       *seed,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("training on %d samples (%d features) with %s querying...\n", d.Len(), d.Dim(), strat.Name())
	if err := fw.Fit(d); err != nil {
		fatal(err)
	}
	recs := fw.Result.Records
	first, last := recs[0], recs[len(recs)-1]
	fmt.Printf("initial labeled: %d samples, F1 %.3f, FAR %.3f\n",
		len(fw.Split.Initial), first.F1, first.FalseAlarmRate)
	fmt.Printf("after %d queries: F1 %.3f, FAR %.3f, AMR %.3f\n",
		last.Queried, last.F1, last.FalseAlarmRate, last.AnomalyMissRate)
	if *target > 0 {
		if q := fw.Result.QueriesTo(*target); q >= 0 {
			fmt.Printf("reached F1 >= %.2f after %d queries (%d labeled samples total)\n",
				*target, q, len(fw.Split.Initial)+q)
		} else {
			fmt.Printf("target F1 %.2f not reached within %d queries\n", *target, *queries)
		}
	}
	if err := fw.Save(*modelDir); err != nil {
		fatal(err)
	}
	fmt.Printf("saved bundle to %s\n", *modelDir)
}

func diagnose(args []string) {
	fs := flag.NewFlagSet("diagnose", flag.ExitOnError)
	var (
		modelDir = fs.String("model", "", "trained bundle directory (required)")
		dataFile = fs.String("data", "", "dataset file with samples to diagnose (required)")
		index    = fs.Int("index", 0, "sample index to diagnose")
	)
	fs.Parse(args) //albacheck:ignore errsilent flag.ExitOnError: Parse exits the process on error, the return is dead
	if *modelDir == "" || *dataFile == "" {
		usage()
	}
	dep, err := core.LoadDeployment(*modelDir)
	if err != nil {
		fatal(err)
	}
	d := loadDataset(*dataFile)
	if *index < 0 || *index >= d.Len() {
		fatal(fmt.Errorf("index %d outside dataset of %d samples", *index, d.Len()))
	}
	diag, err := dep.Diagnose(d.X[*index])
	if err != nil {
		fatal(err)
	}
	meta := d.Meta[*index]
	fmt.Printf("sample %d: app=%s input=%d node=%d\n", *index, meta.App, meta.Input, meta.Node)
	fmt.Printf("diagnosis: %s (confidence %.2f)\n", diag.Label, diag.Confidence)
	fmt.Printf("ground truth: %s\n", meta.Label())
	for c, p := range diag.Probs {
		fmt.Printf("  %-12s %.3f\n", dep.Classes[c], p)
	}
}
