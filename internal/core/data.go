package core

import (
	"fmt"
	"slices"

	"albadross/internal/dataset"
	"albadross/internal/features"
	"albadross/internal/hpas"
	"albadross/internal/runner"
	"albadross/internal/telemetry"
)

// DataConfig describes one data-collection campaign on a simulated
// system, mirroring Sec. IV-A/C: every application runs with every input
// deck several times, alternating healthy runs and runs with an HPAS
// anomaly injected on the first allocated node, cycling through anomaly
// types and intensity settings so every (application, anomaly) pair is
// covered.
type DataConfig struct {
	// System is the simulated machine (telemetry.Volta / Eclipse).
	System *telemetry.SystemSpec
	// Extractor computes per-metric statistical features.
	Extractor features.Extractor
	// RunsPerAppInput is the number of runs per (application, input deck);
	// even runs are healthy, odd runs carry an anomaly, so values >= 10
	// guarantee every anomaly type appears for every pair.
	RunsPerAppInput int
	// Steps fixes the run length in samples; 0 draws from the system's
	// [MinSteps, MaxSteps].
	Steps int
	// Seed drives all randomness.
	Seed int64
	// Workers bounds generation/extraction parallelism; 0 = GOMAXPROCS.
	Workers int
}

// campaign plans the runs of cfg's data-collection campaign, in order.
// Every (application, input deck) pair runs RunsPerAppInput times; even
// runs are healthy, and odd runs carry an HPAS anomaly on node 0.
func campaign(cfg DataConfig) ([]telemetry.RunConfig, error) {
	if cfg.System == nil {
		return nil, fmt.Errorf("core: DataConfig.System is nil")
	}
	if cfg.RunsPerAppInput <= 0 {
		return nil, fmt.Errorf("core: RunsPerAppInput must be positive, got %d", cfg.RunsPerAppInput)
	}
	sys := cfg.System
	injectors := hpas.All()
	intensities := sys.Intensities
	var plan []telemetry.RunConfig
	runSeed := cfg.Seed
	for ai := range sys.Apps {
		app := &sys.Apps[ai]
		for deck := range app.Inputs {
			for r := 0; r < cfg.RunsPerAppInput; r++ {
				rc := telemetry.RunConfig{
					App:   app,
					Input: deck,
					Nodes: sys.NodeCounts[r%len(sys.NodeCounts)],
					Steps: cfg.Steps,
					Seed:  runSeed,
				}
				runSeed++
				if r%2 == 1 {
					// Anomaly types cycle with the run index; the intensity
					// setting is decorrelated from the type by mixing in the
					// application and deck indices, so even shallow campaigns
					// expose every type at several intensities.
					k := r / 2
					rc.Injector = injectors[k%len(injectors)]
					rc.Intensity = intensities[(k/len(injectors)+k+ai*3+deck)%len(intensities)]
				}
				plan = append(plan, rc)
			}
		}
	}
	return plan, nil
}

// GenerateDataset runs the campaign and returns a dataset of raw
// (unscaled, unselected) feature vectors with full provenance metadata.
// Classes are healthy plus the five HPAS anomalies. Each run's telemetry
// is extracted and released inside its worker, so at most one run per
// worker is held in memory.
func GenerateDataset(cfg DataConfig) (*dataset.Dataset, error) {
	if cfg.Extractor == nil {
		return nil, fmt.Errorf("core: DataConfig.Extractor is nil")
	}
	plan, err := campaign(cfg)
	if err != nil {
		return nil, err
	}
	cumulative := telemetry.CumulativeFlags(cfg.System.Metrics)
	samples := make([][]*telemetry.NodeSample, len(plan))
	vectors := make([][][]float64, len(plan))
	if err := runner.ForEach(len(plan), cfg.Workers, func(pi int) error {
		run, err := cfg.System.GenerateRun(plan[pi])
		if err != nil {
			return fmt.Errorf("core: run %d: %w", pi, err)
		}
		vecs := make([][]float64, len(run))
		for si, s := range run {
			if vecs[si], err = RunVector(s, cumulative, cfg.Extractor); err != nil {
				return fmt.Errorf("core: run %d: %w", pi, err)
			}
			s.Data = nil // telemetry is consumed; free the series
		}
		samples[pi], vectors[pi] = run, vecs
		return nil
	}); err != nil {
		return nil, err
	}
	return newDataset(cfg, slices.Concat(samples...), slices.Concat(vectors...))
}

// GenerateRuns runs the campaign and returns every node sample with its
// raw telemetry, in campaign order, for callers that corrupt or replay
// the telemetry itself. cfg.Extractor is not used; RunsDataset extracts
// the samples into the dataset GenerateDataset would build.
func GenerateRuns(cfg DataConfig) ([]*telemetry.NodeSample, error) {
	plan, err := campaign(cfg)
	if err != nil {
		return nil, err
	}
	runs := make([][]*telemetry.NodeSample, len(plan))
	if err := runner.ForEach(len(plan), cfg.Workers, func(pi int) error {
		var err error
		if runs[pi], err = cfg.System.GenerateRun(plan[pi]); err != nil {
			return fmt.Errorf("core: run %d: %w", pi, err)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return slices.Concat(runs...), nil
}

// RunsDataset extracts samples (GenerateRuns' output for cfg) into the
// dataset GenerateDataset builds for cfg. The samples are only read:
// each one's telemetry is cloned before RunVector consumes it.
func RunsDataset(cfg DataConfig, samples []*telemetry.NodeSample) (*dataset.Dataset, error) {
	if cfg.System == nil || cfg.Extractor == nil {
		return nil, fmt.Errorf("core: DataConfig needs a System and an Extractor")
	}
	cumulative := telemetry.CumulativeFlags(cfg.System.Metrics)
	vecs := make([][]float64, len(samples))
	if err := runner.ForEach(len(samples), cfg.Workers, func(i int) error {
		var err error
		vecs[i], err = RunVector(&telemetry.NodeSample{Meta: samples[i].Meta, Data: samples[i].Data.Clone()}, cumulative, cfg.Extractor)
		return err
	}); err != nil {
		return nil, err
	}
	return newDataset(cfg, samples, vecs)
}

// newDataset assembles the campaign's dataset: one row per sample, its
// raw vector, label and provenance, under cfg's feature names.
func newDataset(cfg DataConfig, samples []*telemetry.NodeSample, vecs [][]float64) (*dataset.Dataset, error) {
	metricNames := make([]string, len(cfg.System.Metrics))
	for i, m := range cfg.System.Metrics {
		metricNames[i] = m.Name
	}
	d := dataset.New(hpas.Labels())
	d.FeatureNames = features.VectorNames(cfg.Extractor, metricNames)
	for i, s := range samples {
		if err := d.Add(vecs[i], s.Meta.Label(), s.Meta); err != nil {
			return nil, err
		}
	}
	return d, nil
}
