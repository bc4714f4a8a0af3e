package experiments

import (
	"fmt"
	"io"
	"strings"

	"albadross/internal/dataset"
	"albadross/internal/eval"
	"albadross/internal/runner"
)

// Table5Result reproduces Table V for one dataset: with the best feature
// extraction method and query strategy, the total labeled samples
// (initial + queried) needed to reach F1 targets, the starting F1, the
// F1 achievable with the entire active-learning training dataset, and
// the maximum 5-fold CV score on the full dataset.
type Table5Result struct {
	Config            Config
	FeatureExtraction string
	QueryStrategy     string
	InitialSamples    int
	StartingF1        float64
	// SamplesTo maps an F1 target to the mean total labeled samples
	// needed (-1: never reached within the budget; equal to
	// InitialSamples: already passed at the start).
	SamplesTo map[float64]float64
	// Targets lists SamplesTo's keys in ascending order.
	Targets []float64
	// PoolF1 is the test F1 when training on the whole AL training
	// dataset; PoolSize is its sample count.
	PoolF1   float64
	PoolSize int
	// CVF1 is the max 5-fold CV F1 on the full dataset of FullSize
	// samples.
	CVF1     float64
	FullSize int
}

// RunTable5 regenerates one dataset row of Table V.
func RunTable5(cfg Config) (*Table5Result, error) {
	d, _, err := BuildData(cfg)
	if err != nil {
		return nil, err
	}
	return runTable5(cfg, d)
}

// runTable5 is RunTable5 on the dataset BuildData(cfg) returns; it only
// reads d.
func runTable5(cfg Config, d *dataset.Dataset) (*Table5Result, error) {
	res := &Table5Result{
		Config:            cfg,
		FeatureExtraction: cfg.Extractor,
		QueryStrategy:     BestStrategy(cfg.System),
		Targets:           []float64{0.85, 0.90, 0.95},
		SamplesTo:         map[float64]float64{},
		FullSize:          d.Len(),
	}
	if res.FeatureExtraction == "" {
		res.FeatureExtraction = BestExtractor(cfg.System)
	}

	// Splits are independent cells with index-derived seeds; they fan out
	// across cfg.Workers and fold in split order afterwards, so the means
	// sum floats in the same order the serial loop did.
	type splitOut struct {
		startF1, poolF1   float64
		initial, poolSize int
		queriesTo         map[float64]int // -1: not reached
	}
	outs := make([]splitOut, cfg.Splits)
	if err := runner.ForEach(cfg.Splits, cfg.Workers, func(split int) error {
		alSplit, err := dataset.MakeALSplit(d, dataset.ALSplitConfig{
			TestFraction: 0.3, AnomalyRatio: 0.10, HealthyClass: 0,
			Seed: cfg.Seed + int64(split)*101,
		})
		if err != nil {
			return err
		}
		o := &outs[split]
		o.initial = len(alSplit.Initial)
		o.poolSize = len(alSplit.Initial) + len(alSplit.Pool)
		p, err := prepare(d, alSplit, cfg.TopK)
		if err != nil {
			return err
		}
		r, err := methodRun(res.QueryStrategy, p, cfg, cfg.Seed+int64(split)*977+13, 0)
		if err != nil {
			return err
		}
		o.startF1 = r.Records[0].F1
		o.queriesTo = map[float64]int{}
		for _, t := range res.Targets {
			o.queriesTo[t] = r.QueriesTo(t)
		}
		// Whole-pool supervised reference: train on initial+pool with all
		// labels revealed.
		trainIdx := append(append([]int{}, alSplit.Initial...), alSplit.Pool...)
		var xTr [][]float64
		var yTr []int
		for _, i := range trainIdx {
			xTr = append(xTr, p.tr.X[i])
			yTr = append(yTr, p.tr.Y[i])
		}
		m := cfg.rfFactory(cfg.Seed + int64(split))()
		if err := m.Fit(xTr, yTr, len(d.Classes)); err != nil {
			return err
		}
		rep, err := eval.EvaluateModel(m, p.test.X, p.test.Y, len(d.Classes), p.healthy)
		if err != nil {
			return err
		}
		o.poolF1 = rep.MacroF1
		return nil
	}); err != nil {
		return nil, err
	}

	type agg struct {
		sum float64
		n   int
	}
	reach := map[float64]*agg{}
	for _, t := range res.Targets {
		reach[t] = &agg{}
	}
	var startF1s, poolF1s []float64
	for split := 0; split < cfg.Splits; split++ {
		o := outs[split]
		res.InitialSamples = o.initial
		res.PoolSize = o.poolSize
		startF1s = append(startF1s, o.startF1)
		poolF1s = append(poolF1s, o.poolF1)
		for _, t := range res.Targets {
			if q := o.queriesTo[t]; q >= 0 {
				reach[t].sum += float64(o.initial + q)
				reach[t].n++
			}
		}
	}
	res.StartingF1 = Mean(startF1s)
	res.PoolF1 = Mean(poolF1s)
	for _, t := range res.Targets {
		if reach[t].n == 0 {
			res.SamplesTo[t] = -1
		} else {
			res.SamplesTo[t] = reach[t].sum / float64(reach[t].n)
		}
	}

	// Max-score reference: 5-fold CV on the entire (feature-selected)
	// dataset. The pipeline is fitted on everything here on purpose — the
	// paper's "Max Score 5-fold CV" column is the ceiling with all
	// labels available.
	all := make([]int, d.Len())
	for i := range all {
		all[i] = i
	}
	fullSplit := &dataset.ALSplit{Initial: all[:1], Pool: all[1:], Test: all}
	pFull, err := prepare(d, fullSplit, cfg.TopK)
	if err != nil {
		return nil, err
	}
	cv, err := eval.CrossValidate(cfg.rfFactory(cfg.Seed), pFull.tr.X, pFull.tr.Y, len(d.Classes), pFull.healthy, 5, cfg.Seed+5)
	if err != nil {
		return nil, err
	}
	res.CVF1 = cv.MeanF1
	return res, nil
}

// describeSamples renders one SamplesTo cell the way Table V does.
func (r *Table5Result) describeSamples(t float64) string {
	v := r.SamplesTo[t]
	switch {
	case v < 0:
		return "Not Reached"
	case r.StartingF1 >= t:
		return "Already Passed"
	default:
		return fmt.Sprintf("%.0f Samples", v)
	}
}

// WriteCSV emits the row in machine-readable form.
func (r *Table5Result) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "dataset,feature_extraction,query_strategy,initial_samples,starting_f1,samples_to_085,samples_to_090,samples_to_095,pool_f1,pool_size,cv_f1,full_size"); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s,%s,%s,%d,%.4f,%.1f,%.1f,%.1f,%.4f,%d,%.4f,%d\n",
		r.Config.System, r.FeatureExtraction, r.QueryStrategy, r.InitialSamples, r.StartingF1,
		r.SamplesTo[0.85], r.SamplesTo[0.90], r.SamplesTo[0.95], r.PoolF1, r.PoolSize, r.CVF1, r.FullSize)
	return err
}

// Summary renders the Table V row.
func (r *Table5Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE5 (%s): %s features, %s query strategy\n",
		r.Config.System, r.FeatureExtraction, r.QueryStrategy)
	fmt.Fprintf(&b, "  initial samples:      %d\n", r.InitialSamples)
	fmt.Fprintf(&b, "  starting F1:          %.3f\n", r.StartingF1)
	for _, t := range r.Targets {
		fmt.Fprintf(&b, "  F1 >= %.2f:           %s\n", t, r.describeSamples(t))
	}
	fmt.Fprintf(&b, "  AL training set F1:   %.3f (%d samples)\n", r.PoolF1, r.PoolSize)
	fmt.Fprintf(&b, "  max 5-fold CV F1:     %.3f (%d samples)\n", r.CVF1, r.FullSize)
	if v := r.SamplesTo[0.95]; v > 0 && r.PoolF1 >= 0.0 {
		fmt.Fprintf(&b, "  label reduction vs whole pool: %.0fx fewer samples\n", float64(r.PoolSize)/v)
	}
	return b.String()
}
