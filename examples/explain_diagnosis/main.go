// Explain diagnosis: the paper's future-work direction (Sec. VI) of
// pointing annotators at the most important metrics. After training,
// the example diagnoses one anomalous node and prints which telemetry
// metrics drove the decision — the random forest's impurity-based
// importances aggregated per metric and weighted by how far the sample
// sits from typical training behaviour.
//
//	go run ./examples/explain_diagnosis
package main

import (
	"fmt"
	"log"

	"albadross/internal/active"
	"albadross/internal/core"
	"albadross/internal/explain"
	"albadross/internal/features/mvts"
	"albadross/internal/hpas"
	"albadross/internal/ml/forest"
	"albadross/internal/ml/tree"
	"albadross/internal/telemetry"
)

func main() {
	sys := telemetry.Volta(27)
	data, err := core.GenerateDataset(core.DataConfig{
		System:          sys,
		Extractor:       mvts.Extractor{},
		RunsPerAppInput: 10,
		Steps:           120,
		Seed:            19,
	})
	if err != nil {
		log.Fatal(err)
	}
	fw, err := core.New(core.Config{
		TopK:       80,
		Factory:    forest.NewFactory(forest.Config{NEstimators: 25, MaxDepth: 8, Criterion: tree.Entropy, Seed: 1}),
		Strategy:   active.Uncertainty{},
		MaxQueries: 50,
		TargetF1:   0.92,
		Seed:       20,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := fw.Fit(data); err != nil {
		log.Fatal(err)
	}
	model, ok := fw.Model().(*forest.Forest)
	if !ok {
		log.Fatal("expected a random forest model")
	}

	// Globally, which metrics does the model rely on?
	fmt.Println("global top features (model importance):")
	top, err := explain.TopFeatures(model, fw.Prep.Names, 5)
	if err != nil {
		log.Fatal(err)
	}
	for _, f := range top {
		fmt.Printf("  %-40s %.3f\n", f.Metric, f.Importance)
	}

	// Diagnose an injected membw run and explain the decision.
	inj, err := hpas.New(hpas.MemBW)
	if err != nil {
		log.Fatal(err)
	}
	fresh, err := sys.GenerateRun(telemetry.RunConfig{
		App: sys.App("MG"), Input: 2, Nodes: 2, Steps: 120,
		Injector: inj, Intensity: 0.5, AnomalyNode: 0, Seed: 777,
	})
	if err != nil {
		log.Fatal(err)
	}
	victim := fresh[0]
	raw, err := core.RunVector(victim, telemetry.CumulativeFlags(sys.Metrics), mvts.Extractor{})
	if err != nil {
		log.Fatal(err)
	}
	diag, err := fw.DiagnoseVector(raw)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndiagnosis of the victim node: %s (confidence %.2f, truth %s)\n",
		diag.Label, diag.Confidence, victim.Meta.Label())

	row, err := fw.Prep.TransformRow(raw)
	if err != nil {
		log.Fatal(err)
	}
	metrics, err := explain.TopMetrics(model, fw.Prep.Names, row, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("metrics driving the decision (importance x deviation):")
	for _, m := range metrics {
		fmt.Printf("  %-20s importance %.3f  deviation %.3f  score %.4f\n",
			m.Metric, m.Importance, m.Deviation, m.Score)
	}
	fmt.Println("\na membw injection should surface cray.* bandwidth/write-back and vmstat metrics.")
}
