// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. V) on the synthetic telemetry substrate: Table IV
// (hyperparameter grid search), Table V (samples to reach target
// F1-scores), Figs. 3/5 (query-strategy trajectories on Volta/Eclipse),
// Fig. 4 (drill-down of queried labels), Fig. 6 (previously unseen
// applications), Fig. 7 (supervised robustness motivation), and Fig. 8
// (previously unseen application inputs).
//
// Every runner is deterministic given its Config and returns a typed
// result with text and CSV renderers; cmd/experiments wires them to the
// command line and bench_test.go exercises one miniature instance per
// artifact.
package experiments

import (
	"fmt"
	"math"

	"albadross/internal/dataset"
	"albadross/internal/features"
	"albadross/internal/features/mvts"
	"albadross/internal/features/tsfresh"
	"albadross/internal/ml"
	"albadross/internal/ml/forest"
	"albadross/internal/ml/tree"
	"albadross/internal/telemetry"
)

// Scale selects experiment sizing.
type Scale int

// Sizing presets. Compact keeps a laptop run in minutes while preserving
// every qualitative shape; Paper approaches the paper's sample counts
// (hours of compute).
const (
	Tiny Scale = iota // CI/test sizing
	Compact
	Paper
)

// ParseScale converts "tiny"/"compact"/"paper".
func ParseScale(s string) (Scale, error) {
	switch s {
	case "tiny":
		return Tiny, nil
	case "compact":
		return Compact, nil
	case "paper":
		return Paper, nil
	default:
		return Compact, fmt.Errorf("experiments: unknown scale %q", s)
	}
}

// Config sizes one experiment run.
type Config struct {
	// System is "volta" or "eclipse".
	System string
	// Extractor is "mvts" or "tsfresh"; empty uses the dataset's best
	// method from Table V (TSFRESH on Volta, MVTS on Eclipse).
	Extractor string
	// Metrics is the telemetry schema size per node.
	Metrics int
	// RunsPerAppInput is the data-collection depth.
	RunsPerAppInput int
	// Steps is the run length in samples.
	Steps int
	// TopK is the chi-square feature budget.
	TopK int
	// Splits is the number of repeated train/test splits (paper: 5).
	Splits int
	// MaxQueries bounds the query curves (paper plots 250).
	MaxQueries int
	// EvalEvery re-scores the test set every n queries.
	EvalEvery int
	// Seed drives everything.
	Seed int64
	// Workers bounds parallelism (0 = GOMAXPROCS).
	Workers int
}

// Default returns the sizing preset for a system.
func Default(system string, scale Scale) Config {
	cfg := Config{System: system, Seed: 1}
	switch scale {
	case Tiny:
		cfg.Metrics = 27
		cfg.RunsPerAppInput = 10
		cfg.Steps = 100
		cfg.TopK = 60
		cfg.Splits = 2
		cfg.MaxQueries = 30
		cfg.EvalEvery = 1
	case Paper:
		cfg.Metrics = 721
		if system == "eclipse" {
			cfg.Metrics = 806
		}
		cfg.RunsPerAppInput = 120
		cfg.Steps = 0 // system-spec durations
		cfg.TopK = 2000
		cfg.Splits = 5
		cfg.MaxQueries = 250
		cfg.EvalEvery = 1
	default: // Compact
		cfg.Metrics = 54
		cfg.RunsPerAppInput = 24
		cfg.Steps = 150
		cfg.TopK = 150
		cfg.Splits = 3
		cfg.MaxQueries = 120
		cfg.EvalEvery = 2
	}
	return cfg
}

// BestExtractor returns the Table V winner for a system: TSFRESH on
// Volta, MVTS on Eclipse.
func BestExtractor(system string) string {
	if system == "eclipse" {
		return "mvts"
	}
	return "tsfresh"
}

// BestStrategy returns the Table V winning query strategy per system:
// uncertainty on Volta, margin on Eclipse.
func BestStrategy(system string) string {
	if system == "eclipse" {
		return "margin"
	}
	return "uncertainty"
}

// systemSpec builds the simulated system for a config.
func (c Config) systemSpec() (*telemetry.SystemSpec, error) {
	switch c.System {
	case "volta":
		return telemetry.Volta(c.Metrics), nil
	case "eclipse":
		return telemetry.Eclipse(c.Metrics), nil
	default:
		return nil, fmt.Errorf("experiments: unknown system %q (volta or eclipse)", c.System)
	}
}

// extractor resolves the feature extractor name.
func (c Config) extractor() (features.Extractor, error) {
	name := c.Extractor
	if name == "" {
		name = BestExtractor(c.System)
	}
	switch name {
	case "mvts":
		return mvts.Extractor{}, nil
	case "tsfresh":
		return tsfresh.Extractor{}, nil
	default:
		return nil, fmt.Errorf("experiments: unknown extractor %q (mvts or tsfresh)", name)
	}
}

// rfFactory is the experiments' supervised model: a random forest with
// the Table IV optimal hyperparameters (entropy criterion, max_depth 8),
// sized to the scale (the paper uses 200/20 estimators on
// Eclipse/Volta; compact runs use 20).
func (c Config) rfFactory(seed int64) ml.Factory {
	n := 20
	if c.RunsPerAppInput >= 100 && c.System == "eclipse" {
		n = 200
	}
	return forest.NewFactory(forest.Config{
		NEstimators: n,
		MaxDepth:    8,
		Criterion:   tree.Entropy,
		Seed:        seed,
		Workers:     c.Workers,
	})
}

// Mean returns the arithmetic mean of xs (NaN for empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// CI95 returns the 95% confidence half-width of the mean (normal
// approximation), 0 for fewer than two values.
func CI95(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, v := range xs {
		ss += (v - m) * (v - m)
	}
	sd := math.Sqrt(ss / float64(n-1))
	return 1.96 * sd / math.Sqrt(float64(n))
}

// BuildData generates the raw-feature dataset for a config.
func BuildData(cfg Config) (*dataset.Dataset, *telemetry.SystemSpec, error) {
	sys, err := cfg.systemSpec()
	if err != nil {
		return nil, nil, err
	}
	ex, err := cfg.extractor()
	if err != nil {
		return nil, nil, err
	}
	d, err := generate(cfg, sys, ex)
	if err != nil {
		return nil, nil, err
	}
	return d, sys, nil
}
