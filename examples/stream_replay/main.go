// Stream replay: online diagnosis of telemetry as it arrives (the
// deployment mode of the paper's future work). A framework is trained
// offline, then a fresh run — healthy for its first half, with a memory
// leak started mid-run — is replayed sample by sample through a sliding
// window; the diagnosis flips once the leak's footprint fills the
// window.
//
//	go run ./examples/stream_replay
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
	"albadross/internal/pipeline"
	"albadross/internal/telemetry"
)

// midRunLeak wraps the memleak injector so it only acts in the second
// half of the run — emulating an anomaly that starts while the
// application is already running.
type midRunLeak struct{ inner telemetry.Injector }

func (m midRunLeak) Name() string { return m.inner.Name() }
func (m midRunLeak) Modulate(metric telemetry.Metric, t, steps int, intensity float64) (float64, float64) {
	if t < steps/2 {
		return 1, 0
	}
	// Re-map time so the leak grows from the midpoint.
	return m.inner.Modulate(metric, t-steps/2, steps-steps/2, intensity)
}

func main() {
	sys := telemetry.Volta(27)
	data, err := core.GenerateDataset(core.DataConfig{
		System:          sys,
		Extractor:       mvts.Extractor{},
		RunsPerAppInput: 10,
		Steps:           120,
		Seed:            29,
	})
	if err != nil {
		log.Fatal(err)
	}
	fw, err := core.New(core.Config{
		TopK:       80,
		Factory:    forest.NewFactory(forest.Config{NEstimators: 20, MaxDepth: 8, Criterion: tree.Entropy, Seed: 1}),
		Strategy:   active.Uncertainty{},
		MaxQueries: 40,
		TargetF1:   0.92,
		Seed:       30,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := fw.Fit(data); err != nil {
		log.Fatal(err)
	}
	last := fw.Result.Records[len(fw.Result.Records)-1]
	fmt.Printf("trained: F1 %.3f after %d queries\n\n", last.F1, last.Queried)

	// Fresh telemetry: memleak starts halfway through a 400-sample run.
	leak, err := hpas.New(hpas.MemLeak)
	if err != nil {
		log.Fatal(err)
	}
	fresh, err := sys.GenerateRun(telemetry.RunConfig{
		App: sys.App("MiniAMR"), Input: 0, Nodes: 1, Steps: 400,
		Injector: midRunLeak{leak}, Intensity: 1, AnomalyNode: 0, Seed: 31,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The extractor must match the one the model was trained with (see
	// docs/PERFORMANCE.md for expected throughput).
	sink := &pipeline.Collector{}
	chain, err := pipeline.NewChain(pipeline.ChainConfig{
		Metrics:  len(sys.Metrics),
		Window:   90,
		Stride:   30,
		Features: pipeline.BatchFeatures{Schema: sys.Metrics, Extractor: mvts.Extractor{}},
		Predict: pipeline.PredictFunc(func(vec []float64) (string, float64, error) {
			d, err := fw.DiagnoseVector(vec)
			if err != nil {
				return "", 0, err
			}
			return d.Label, d.Confidence, nil
		}),
		Sink: sink,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("replaying a 400-sample run; memleak starts at sample 200:")
	run := fresh[0].Data
	reading := make([]float64, len(run.Metrics))
	for t := 0; t < run.Steps(); t++ {
		for m := range run.Metrics {
			reading[m] = run.Metrics[m][t]
		}
		if err := chain.PushAt(t, reading); err != nil {
			log.Fatal(err)
		}
	}
	for _, d := range sink.Diagnoses {
		marker := ""
		if d.WindowEnd >= 200 && d.Label == hpas.MemLeak {
			marker = "  <-- leak detected"
		}
		fmt.Printf("  window ending at t=%3d: %-10s (%.2f)%s\n",
			d.WindowEnd, d.Label, d.Confidence, marker)
	}
}
