package core

import (
	"errors"
	"fmt"

	"albadross/internal/active"
	"albadross/internal/dataset"
	"albadross/internal/features"
	"albadross/internal/ml"
	"albadross/internal/telemetry"
)

// Config assembles one ALBADross deployment (Fig. 1).
type Config struct {
	// TopK is the chi-square feature budget (the paper's best settings
	// use 2000 at full scale).
	TopK int
	// Factory builds the supervised model retrained at each query.
	Factory ml.Factory
	// Strategy is the query strategy (uncertainty/margin/entropy or a
	// baseline).
	Strategy active.Strategy
	// Annotator reveals labels; nil uses the dataset's ground truth (the
	// Oracle), matching the paper's experimental protocol.
	Annotator active.Annotator
	// TestFraction of each class is withheld for evaluation (Fig. 2).
	TestFraction float64
	// AnomalyRatio caps the anomalous fraction of the AL training data
	// (the paper uses 10%).
	AnomalyRatio float64
	// MaxQueries bounds the query loop.
	MaxQueries int
	// TargetF1 stops the loop early when reached (0 disables).
	TargetF1 float64
	// EvalEvery re-scores on the test set every n queries (default 1).
	EvalEvery int
	// Seed drives splits, training and querying.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.TopK <= 0 {
		c.TopK = 250
	}
	if c.TestFraction <= 0 || c.TestFraction >= 1 {
		c.TestFraction = 0.3
	}
	if c.AnomalyRatio <= 0 || c.AnomalyRatio >= 1 {
		c.AnomalyRatio = 0.10
	}
	if c.MaxQueries <= 0 {
		c.MaxQueries = 250
	}
	return c
}

// Framework is a fitted ALBADross instance: the feature pipeline, the
// final model, and the query trajectory that produced it.
type Framework struct {
	Cfg Config
	// Prep is the fitted feature pipeline.
	Prep *Preprocessor
	// Split is the Fig. 2 dataset split used during fitting.
	Split *dataset.ALSplit
	// Result is the active-learning trajectory.
	Result *active.Result
	// Classes maps class index to label.
	Classes []string
}

// New validates the configuration and returns an unfitted framework.
func New(cfg Config) (*Framework, error) {
	cfg = cfg.withDefaults()
	if cfg.Factory == nil {
		return nil, errors.New("core: Config.Factory is required")
	}
	if cfg.Strategy == nil {
		return nil, errors.New("core: Config.Strategy is required")
	}
	return &Framework{Cfg: cfg}, nil
}

// Fit runs the full pipeline on a raw-feature dataset (as produced by
// GenerateDataset): split per Fig. 2, fit the feature pipeline on the AL
// training rows, run the query loop, and keep the final model.
func (f *Framework) Fit(d *dataset.Dataset) error {
	if d == nil || d.Len() == 0 {
		return errors.New("core: empty dataset")
	}
	healthy, ok := d.ClassIndex(telemetry.HealthyLabel)
	if !ok {
		return fmt.Errorf("core: dataset has no %q class", telemetry.HealthyLabel)
	}
	split, err := dataset.MakeALSplit(d, dataset.ALSplitConfig{
		TestFraction: f.Cfg.TestFraction,
		AnomalyRatio: f.Cfg.AnomalyRatio,
		HealthyClass: healthy,
		Seed:         f.Cfg.Seed,
	})
	if err != nil {
		return err
	}
	return f.FitSplit(d, split)
}

// FitSplit runs the pipeline with a caller-provided split (the robustness
// experiments build custom splits with held-out applications or inputs).
func (f *Framework) FitSplit(d *dataset.Dataset, split *dataset.ALSplit) error {
	healthy, ok := d.ClassIndex(telemetry.HealthyLabel)
	if !ok {
		return fmt.Errorf("core: dataset has no %q class", telemetry.HealthyLabel)
	}
	trainIdx := append(append([]int{}, split.Initial...), split.Pool...)
	prep, err := FitPreprocessor(d, trainIdx, f.Cfg.TopK)
	if err != nil {
		return err
	}
	tr, err := prep.Transform(d)
	if err != nil {
		return err
	}
	annotator := f.Cfg.Annotator
	if annotator == nil {
		annotator = active.Oracle{D: tr}
	}
	loop := &active.Loop{
		Factory:      f.Cfg.Factory,
		Strategy:     f.Cfg.Strategy,
		Annotator:    annotator,
		HealthyClass: healthy,
		Seed:         f.Cfg.Seed + 7,
		EvalEvery:    f.Cfg.EvalEvery,
	}
	test := tr.Subset(split.Test)
	res, err := loop.Run(tr, split.Initial, split.Pool, test, active.RunConfig{
		MaxQueries: f.Cfg.MaxQueries,
		TargetF1:   f.Cfg.TargetF1,
	})
	if err != nil {
		return err
	}
	f.Prep = prep
	f.Split = split
	f.Result = res
	f.Classes = d.Classes
	return nil
}

// Model returns the final trained classifier (nil before Fit).
func (f *Framework) Model() ml.Classifier {
	if f.Result == nil {
		return nil
	}
	return f.Result.Model
}

// Diagnosis is the deployment-facing output for one sample: the diagnosed
// class and the model's confidence (Sec. III-E).
type Diagnosis struct {
	Label      string
	Confidence float64
	// Probs holds the full class distribution, indexed like Classes.
	Probs []float64
}

// DiagnoseVector diagnoses a raw (extracted, untransformed) feature
// vector.
func (f *Framework) DiagnoseVector(x []float64) (*Diagnosis, error) {
	if f.Result == nil {
		return nil, errors.New("core: Fit must run before Diagnose")
	}
	return (&Deployment{Classes: f.Classes, Prep: f.Prep, Model: f.Result.Model}).Diagnose(x)
}

// DiagnoseRun extracts one raw node sample through RunVector (the
// sample itself is left untouched) and diagnoses it — the full online
// path a deployed instance would run on fresh telemetry.
func (f *Framework) DiagnoseRun(s *telemetry.NodeSample, sys *telemetry.SystemSpec, ex features.Extractor) (*Diagnosis, error) {
	if s == nil || s.Data == nil {
		return nil, errors.New("core: nil sample")
	}
	x, err := RunVector(&telemetry.NodeSample{Meta: s.Meta, Data: s.Data.Clone()}, telemetry.CumulativeFlags(sys.Metrics), ex)
	if err != nil {
		return nil, err
	}
	return f.DiagnoseVector(x)
}
