package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"

	"albadross/internal/chaos"
	"albadross/internal/core"
	"albadross/internal/dataset"
	"albadross/internal/eval"
	"albadross/internal/features"
	"albadross/internal/pipeline"
	"albadross/internal/runner"
	"albadross/internal/stream"
	"albadross/internal/telemetry"
)

// ---------------------------------------------------------------------------
// Chaos matrix — robustness degradation under telemetry faults
//
// The paper evaluates on clean, complete telemetry; a production
// deployment (the Sec. VI future work) never sees that. RunChaosMatrix
// trains the paper's pipeline on clean data and then measures the
// diagnosis quality (macro F1 / false-alarm rate / anomaly-miss rate)
// on test telemetry corrupted with each chaos fault class at several
// intensities — the Fig. 7/8-style degradation curves for data quality
// instead of workload novelty. A streaming leg replays gap- and
// reorder-corrupted telemetry through the hardened stream consumer and
// accounts for every window: diagnosed or explicitly abstained.

// ChaosOptions sizes the matrix; the zero value picks defaults.
type ChaosOptions struct {
	// Intensities are the per-fault corruption levels; 0 must be first
	// to anchor the curves at the fault-free baseline (default
	// 0, 0.25, 0.5, 1).
	Intensities []float64
	// Kinds are the fault classes to sweep (default all).
	Kinds []chaos.Kind
	// MaxTest caps the test samples evaluated per cell (0 = all); the
	// baseline uses the same capped subset so intensity-0 cells match
	// it exactly.
	MaxTest int
	// StreamRuns is the number of test samples replayed through the
	// streaming consumer under combined gap+reorder faults (default 4).
	StreamRuns int
}

// ChaosDefaults sizes the matrix for a scale preset: the cap on
// evaluated test samples and the streaming-leg depth grow with scale.
func ChaosDefaults(scale Scale) ChaosOptions {
	switch scale {
	case Tiny:
		return ChaosOptions{MaxTest: 48, StreamRuns: 2}
	case Paper:
		return ChaosOptions{StreamRuns: 8}
	default:
		return ChaosOptions{MaxTest: 240, StreamRuns: 4}
	}
}

func (o ChaosOptions) withDefaults() ChaosOptions {
	if len(o.Intensities) == 0 {
		o.Intensities = []float64{0, 0.25, 0.5, 1}
	}
	if len(o.Kinds) == 0 {
		o.Kinds = chaos.Kinds()
	}
	if o.StreamRuns <= 0 {
		o.StreamRuns = 4
	}
	return o
}

// ChaosCell is one (fault, intensity) measurement.
type ChaosCell struct {
	Fault       string
	Intensity   float64
	F1          float64
	FalseAlarm  float64
	AnomalyMiss float64
}

// ChaosStream is the accounting of the streaming leg.
type ChaosStream struct {
	Runs       int
	Windows    int
	Diagnosed  int
	Abstained  int
	Duplicates int
	Late       int
	GapsFilled int
}

// ChaosResult is the full fault-type × intensity sweep.
type ChaosResult struct {
	Config      Config
	Intensities []float64
	// Baseline scores on the fault-free capped test subset.
	BaselineF1, BaselineFAR, BaselineAMR float64
	Cells                                []ChaosCell
	Stream                               ChaosStream
}

// RunChaosMatrix trains on clean telemetry, sweeps fault type ×
// intensity over the test set, and replays corrupted telemetry through
// the streaming consumer. It fails loudly if any cell produces a
// non-finite metric or the streaming leg loses a window unaccounted.
func RunChaosMatrix(cfg Config, opts ChaosOptions) (*ChaosResult, error) {
	opts = opts.withDefaults()
	sys, err := cfg.systemSpec()
	if err != nil {
		return nil, err
	}
	ex, err := cfg.extractor()
	if err != nil {
		return nil, err
	}
	// The clean dataset, keeping the raw telemetry for later corruption.
	dc := dataConfig(cfg, sys, ex)
	raw, err := core.GenerateRuns(dc)
	if err != nil {
		return nil, err
	}
	d, err := core.RunsDataset(dc, raw)
	if err != nil {
		return nil, err
	}
	cumulative := telemetry.CumulativeFlags(sys.Metrics)

	trainIdx, testIdx, err := dataset.StratifiedSplit(d.Y, len(d.Classes), 0.3, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if opts.MaxTest > 0 && len(testIdx) > opts.MaxTest {
		testIdx = testIdx[:opts.MaxTest]
	}
	healthy, ok := d.ClassIndex(telemetry.HealthyLabel)
	if !ok {
		return nil, fmt.Errorf("experiments: dataset lacks the healthy class")
	}
	prep, err := core.FitPreprocessor(d, trainIdx, cfg.TopK)
	if err != nil {
		return nil, err
	}
	xTr := make([][]float64, len(trainIdx))
	yTr := make([]int, len(trainIdx))
	for k, i := range trainIdx {
		if xTr[k], err = prep.TransformRow(d.X[i]); err != nil {
			return nil, err
		}
		yTr[k] = d.Y[i]
	}
	model := cfg.rfFactory(cfg.Seed)()
	if err := model.Fit(xTr, yTr, len(d.Classes)); err != nil {
		return nil, err
	}

	// Baseline on the fault-free capped test subset.
	yTe := make([]int, len(testIdx))
	xTe := make([][]float64, len(testIdx))
	for k, i := range testIdx {
		if xTe[k], err = prep.TransformRow(d.X[i]); err != nil {
			return nil, err
		}
		yTe[k] = d.Y[i]
	}
	base, err := eval.EvaluateModel(model, xTe, yTe, len(d.Classes), healthy)
	if err != nil {
		return nil, err
	}

	res := &ChaosResult{
		Config:      cfg,
		Intensities: opts.Intensities,
		BaselineF1:  base.MacroF1, BaselineFAR: base.FalseAlarmRate, BaselineAMR: base.AnomalyMissRate,
	}

	// The matrix: cells are independent, sweep them in parallel.
	type cellJob struct {
		kind      chaos.Kind
		intensity float64
	}
	var jobs []cellJob
	for _, k := range opts.Kinds {
		for _, p := range opts.Intensities {
			jobs = append(jobs, cellJob{k, p})
		}
	}
	cells := make([]ChaosCell, len(jobs))
	if err := runner.ForEach(len(jobs), cfg.Workers, func(ji int) error {
		job := jobs[ji]
		xs := make([][]float64, len(testIdx))
		for k, i := range testIdx {
			inj, err := chaos.New(chaosSeed(cfg.Seed, job.kind, job.intensity, i),
				chaos.Fault{Kind: job.kind, Intensity: job.intensity})
			if err != nil {
				return err
			}
			vec, err := core.RunVector(inj.CorruptSample(raw[i]), cumulative, ex)
			if err != nil {
				return fmt.Errorf("experiments: chaos %s@%g sample %d: %w", job.kind, job.intensity, i, err)
			}
			if xs[k], err = prep.TransformRow(vec); err != nil {
				return err
			}
		}
		rep, err := eval.EvaluateModel(model, xs, yTe, len(d.Classes), healthy)
		if err != nil {
			return err
		}
		cell := ChaosCell{
			Fault: job.kind.String(), Intensity: job.intensity,
			F1: rep.MacroF1, FalseAlarm: rep.FalseAlarmRate, AnomalyMiss: rep.AnomalyMissRate,
		}
		for _, v := range []float64{cell.F1, cell.FalseAlarm, cell.AnomalyMiss} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("experiments: chaos %s@%g produced non-finite metric", job.kind, job.intensity)
			}
		}
		cells[ji] = cell
		return nil
	}); err != nil {
		return nil, err
	}
	res.Cells = cells

	// Streaming leg: combined gap + out-of-order delivery through the
	// hardened stream consumer; every window must resolve to a
	// diagnosis or an explicit abstention.
	dep := &core.Deployment{Classes: d.Classes, Prep: prep, Model: model}
	if err := runChaosStream(res, raw, testIdx, sys, ex, dep, opts, cfg); err != nil {
		return nil, err
	}
	return res, nil
}

// runChaosStream replays corrupted test telemetry through the streaming
// consumer and records the window accounting on res.
func runChaosStream(res *ChaosResult, raw []*telemetry.NodeSample, testIdx []int,
	sys *telemetry.SystemSpec, ex features.Extractor, dep *core.Deployment,
	opts ChaosOptions, cfg Config) error {
	n := opts.StreamRuns
	if n > len(testIdx) {
		n = len(testIdx)
	}
	if n == 0 {
		return nil
	}
	diagnose := func(v []float64) (string, float64, error) {
		dg, err := dep.Diagnose(v)
		if err != nil {
			return "", 0, err
		}
		return dg.Label, dg.Confidence, nil
	}
	for si := 0; si < n; si++ {
		i := testIdx[si]
		steps := raw[i].Data.Steps()
		window := steps / 3
		if window < 16 {
			window = 16
		}
		if window > 64 {
			window = 64
		}
		sink := &pipeline.Collector{}
		st, err := pipeline.NewChain(pipeline.ChainConfig{
			Metrics:  len(sys.Metrics),
			Window:   window,
			Stride:   window / 2,
			Reorder:  8,
			Gap:      stream.GapAbstain,
			Features: pipeline.BatchFeatures{Schema: sys.Metrics, Gap: stream.GapAbstain, Extractor: ex},
			Predict:  pipeline.PredictFunc(diagnose),
			Sink:     sink,
		})
		if err != nil {
			return err
		}
		inj, err := chaos.New(chaosSeed(cfg.Seed, chaos.Reorder, 0.5, i),
			chaos.Fault{Kind: chaos.Drop, Intensity: 0.3},
			chaos.Fault{Kind: chaos.GapBurst, Intensity: 0.5},
			chaos.Fault{Kind: chaos.Duplicate, Intensity: 0.3},
			chaos.Fault{Kind: chaos.Reorder, Intensity: 0.5},
			chaos.Fault{Kind: chaos.ClockSkew, Intensity: 0.3})
		if err != nil {
			return err
		}
		for _, r := range inj.DeliverStream(raw[i].Data) {
			if err := st.PushAt(r.T, r.Values); err != nil {
				return fmt.Errorf("experiments: chaos stream sample %d: %w", i, err)
			}
		}
		if err := st.Flush(); err != nil {
			return err
		}
		got := sink.Diagnoses
		stats := st.Stats()
		if len(got) != stats.Windows {
			return fmt.Errorf("experiments: chaos stream sample %d: %d diagnoses for %d windows",
				i, len(got), stats.Windows)
		}
		for _, dg := range got {
			if !dg.Abstained && (math.IsNaN(dg.Confidence) || math.IsInf(dg.Confidence, 0)) {
				return fmt.Errorf("experiments: chaos stream sample %d: non-finite confidence", i)
			}
		}
		res.Stream.Runs++
		res.Stream.Windows += stats.Windows
		res.Stream.Diagnosed += stats.Windows - stats.Abstained
		res.Stream.Abstained += stats.Abstained
		res.Stream.Duplicates += stats.Duplicates
		res.Stream.Late += stats.Late
		res.Stream.GapsFilled += stats.GapsFilled
	}
	return nil
}

// chaosSeed derives a deterministic per-(kind, intensity, sample) seed.
func chaosSeed(base int64, k chaos.Kind, intensity float64, sample int) int64 {
	return base*1_000_003 + int64(k)*10_007 + int64(intensity*1000)*101 + int64(sample)
}

// WriteCSV emits one row per cell plus the baseline.
func (r *ChaosResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "fault,intensity,f1,false_alarm_rate,anomaly_miss_rate"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "baseline,0,%.4f,%.4f,%.4f\n", r.BaselineF1, r.BaselineFAR, r.BaselineAMR); err != nil {
		return err
	}
	for _, c := range r.Cells {
		if _, err := fmt.Fprintf(w, "%s,%.2f,%.4f,%.4f,%.4f\n",
			c.Fault, c.Intensity, c.F1, c.FalseAlarm, c.AnomalyMiss); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "stream,,%d,%d,%d\n", r.Stream.Windows, r.Stream.Diagnosed, r.Stream.Abstained)
	return err
}

// Summary renders the degradation matrix and the streaming accounting.
func (r *ChaosResult) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CHAOS (%s): diagnosis quality vs telemetry fault intensity\n", r.Config.System)
	fmt.Fprintf(&b, "  baseline: F1 %.3f  FAR %.3f  AMR %.3f\n", r.BaselineF1, r.BaselineFAR, r.BaselineAMR)
	fmt.Fprintf(&b, "  %-10s", "fault\\int")
	for _, p := range r.Intensities {
		fmt.Fprintf(&b, " %8.2f", p)
	}
	b.WriteString("  (macro F1)\n")
	byFault := map[string][]ChaosCell{}
	var order []string
	for _, c := range r.Cells {
		if _, seen := byFault[c.Fault]; !seen {
			order = append(order, c.Fault)
		}
		byFault[c.Fault] = append(byFault[c.Fault], c)
	}
	for _, f := range order {
		fmt.Fprintf(&b, "  %-10s", f)
		for _, c := range byFault[f] {
			fmt.Fprintf(&b, " %8.3f", c.F1)
		}
		b.WriteByte('\n')
	}
	if r.Stream.Runs > 0 {
		fmt.Fprintf(&b, "  stream: %d runs, %d windows = %d diagnosed + %d abstained (dups %d, late %d, gaps filled %d)\n",
			r.Stream.Runs, r.Stream.Windows, r.Stream.Diagnosed, r.Stream.Abstained,
			r.Stream.Duplicates, r.Stream.Late, r.Stream.GapsFilled)
	}
	return b.String()
}
