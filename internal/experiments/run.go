package experiments

import (
	"fmt"

	"albadross/internal/active"
	"albadross/internal/core"
	"albadross/internal/dataset"
	"albadross/internal/features"
	"albadross/internal/ml"
	"albadross/internal/proctor"
	"albadross/internal/telemetry"
)

// dataConfig is cfg's data-collection campaign on sys, extracted by ex.
func dataConfig(cfg Config, sys *telemetry.SystemSpec, ex features.Extractor) core.DataConfig {
	return core.DataConfig{
		System:          sys,
		Extractor:       ex,
		RunsPerAppInput: cfg.RunsPerAppInput,
		Steps:           cfg.Steps,
		Seed:            cfg.Seed,
		Workers:         cfg.Workers,
	}
}

// generate builds the raw-feature dataset via the core pipeline.
func generate(cfg Config, sys *telemetry.SystemSpec, ex features.Extractor) (*dataset.Dataset, error) {
	return core.GenerateDataset(dataConfig(cfg, sys, ex))
}

// prepared bundles a transformed dataset with its split, ready for query
// loops.
type prepared struct {
	tr      *dataset.Dataset
	split   *dataset.ALSplit
	test    *dataset.Dataset
	healthy int
}

// prepare fits the feature pipeline on the split's training rows and
// transforms the dataset.
func prepare(d *dataset.Dataset, split *dataset.ALSplit, topK int) (*prepared, error) {
	healthy, ok := d.ClassIndex(telemetry.HealthyLabel)
	if !ok {
		return nil, fmt.Errorf("experiments: dataset lacks the healthy class")
	}
	trainIdx := append(append([]int{}, split.Initial...), split.Pool...)
	prep, err := core.FitPreprocessor(d, trainIdx, topK)
	if err != nil {
		return nil, err
	}
	tr, err := prep.Transform(d)
	if err != nil {
		return nil, err
	}
	return &prepared{tr: tr, split: split, test: tr.Subset(split.Test), healthy: healthy}, nil
}

// runLoop executes one query loop on a prepared split.
func runLoop(p *prepared, factory ml.Factory, strategy active.Strategy, cfg Config, seed int64, target float64) (*active.Result, error) {
	loop := &active.Loop{
		Factory:      factory,
		Strategy:     strategy,
		Annotator:    active.Oracle{D: p.tr},
		HealthyClass: p.healthy,
		Seed:         seed,
		EvalEvery:    cfg.EvalEvery,
		Workers:      cfg.Workers,
	}
	return loop.Run(p.tr, p.split.Initial, p.split.Pool, p.test, active.RunConfig{
		MaxQueries: cfg.MaxQueries,
		TargetF1:   target,
	})
}

// proctorFactory trains the Proctor representation on the split's pool
// and returns its classifier factory (Sec. IV-D: the autoencoder learns
// from the unlabeled data once; only the head retrains per query).
func proctorFactory(p *prepared, cfg Config, seed int64) (ml.Factory, error) {
	poolX := make([][]float64, 0, len(p.split.Pool))
	for _, i := range p.split.Pool {
		poolX = append(poolX, p.tr.X[i])
	}
	code := p.tr.Dim() / 2
	if code < 2 {
		code = 2
	}
	pr := proctor.New(proctor.Config{
		Encoder: []int{p.tr.Dim(), code},
		Epochs:  30,
		Seed:    seed,
	})
	if err := pr.FitRepresentation(poolX); err != nil {
		return nil, err
	}
	return pr.Factory(), nil
}

// MethodNames lists the compared methods of Figs. 3 and 5 in plot order:
// the three query strategies and the three baselines.
func MethodNames() []string {
	return []string{"uncertainty", "margin", "entropy", "random", "equal-app", "proctor"}
}

// methodRun dispatches one named method on a prepared split.
func methodRun(name string, p *prepared, cfg Config, seed int64, target float64) (*active.Result, error) {
	if name == "proctor" {
		fac, err := proctorFactory(p, cfg, seed)
		if err != nil {
			return nil, err
		}
		return runLoop(p, fac, active.Random{}, cfg, seed, target)
	}
	strat, ok := active.ByName(name)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown method %q", name)
	}
	return runLoop(p, cfg.rfFactory(seed), strat, cfg, seed, target)
}
