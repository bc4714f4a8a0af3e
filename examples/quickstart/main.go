// Quickstart: the whole ALBADross pipeline in one file.
//
// It simulates a small Volta-like telemetry campaign, trains the
// framework with uncertainty querying and an oracle annotator, prints
// the query trajectory, and diagnoses fresh telemetry through the online
// path — the minimal end-to-end tour of the public API.
//
// For continuous diagnosis at ingest rates see examples/stream_replay;
// docs/PERFORMANCE.md and benchmark/MEASURED.md record what the ingest
// path costs per row.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"albadross/internal/active"
	"albadross/internal/core"
	"albadross/internal/features/mvts"
	"albadross/internal/hpas"
	"albadross/internal/ml/forest"
	"albadross/internal/ml/tree"
	"albadross/internal/obs"
	"albadross/internal/telemetry"
)

func main() {
	// 1. Simulate a data-collection campaign on the Volta testbed:
	//    every application x input deck x (healthy | HPAS anomaly).
	sys := telemetry.Volta(27) // 27 metrics/node keeps the demo fast
	data, err := core.GenerateDataset(core.DataConfig{
		System:          sys,
		Extractor:       mvts.Extractor{},
		RunsPerAppInput: 10,
		Steps:           120,
		Seed:            42,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collected %d node-samples, %d raw features each\n", data.Len(), data.Dim())

	// 2. Assemble the framework: chi-square feature selection, a random
	//    forest, and the classification-uncertainty query strategy.
	fw, err := core.New(core.Config{
		TopK:       80,
		Factory:    forest.NewFactory(forest.Config{NEstimators: 20, MaxDepth: 8, Criterion: tree.Entropy, Seed: 1}),
		Strategy:   active.Uncertainty{},
		MaxQueries: 60,
		TargetF1:   0.92,
		Seed:       7,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 3. Fit: split per Fig. 2 of the paper (initial labeled set = one
	//    sample per application-anomaly pair), then query the oracle
	//    annotator until the target F1 is reached.
	if err := fw.Fit(data); err != nil {
		log.Fatal(err)
	}
	recs := fw.Result.Records
	fmt.Printf("\ninitial labeled set: %d samples\n", len(fw.Split.Initial))
	fmt.Printf("%-8s %8s %8s %8s  %s\n", "queries", "F1", "FAR", "AMR", "queried label")
	for _, r := range recs {
		label := "-"
		if r.Label >= 0 {
			label = fw.Classes[r.Label] + " (" + r.App + ")"
		}
		if r.Queried%5 == 0 || r.Queried == len(recs)-1 {
			fmt.Printf("%-8d %8.3f %8.3f %8.3f  %s\n",
				r.Queried, r.F1, r.FalseAlarmRate, r.AnomalyMissRate, label)
		}
	}

	// 4. Diagnose fresh telemetry through the deployment path: a new run
	//    with a memory leak injected on node 0.
	inj, err := hpas.New(hpas.MemLeak)
	if err != nil {
		log.Fatal(err)
	}
	fresh, err := sys.GenerateRun(telemetry.RunConfig{
		App: sys.App("Kripke"), Input: 1, Nodes: 4, Steps: 120,
		Injector: inj, Intensity: 0.5, AnomalyNode: 0, Seed: 1234,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ndiagnosing a fresh 4-node Kripke run (memleak on node 0):")
	for _, s := range fresh {
		diag, err := fw.DiagnoseRun(s, sys, mvts.Extractor{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  node %d: %-10s (confidence %.2f, truth %s)\n",
			s.Meta.Node, diag.Label, diag.Confidence, s.Meta.Label())
	}

	// 5. Every stage above reported into the process-wide obs registry
	//    (the same one `albadross serve` exposes on /api/metrics); print
	//    the stage-level profile of this run.
	fmt.Println("\nrun profile (obs registry snapshot):")
	fmt.Print(obs.Default().Snapshot().Summary())
}
