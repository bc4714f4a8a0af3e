package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"albadross/internal/dataset"
	"albadross/internal/report"
	"albadross/internal/runner"
)

// CurvePoint is one aggregated point of a query-trajectory plot: the
// mean and 95% CI of a score across train/test splits after `Queried`
// extra labels.
type CurvePoint struct {
	Queried                  int
	F1, F1CI                 float64
	FalseAlarm, FalseAlarmCI float64
	AnomalyMiss, AnomalyMsCI float64
}

// Curve is one method's aggregated trajectory.
type Curve struct {
	Method string
	Points []CurvePoint
}

// QueriesTo returns the smallest query count whose mean F1 reached the
// target, or -1.
func (c Curve) QueriesTo(f1 float64) int {
	for _, p := range c.Points {
		if p.F1 >= f1 {
			return p.Queried
		}
	}
	return -1
}

// CurvesResult reproduces Fig. 3 (Volta) or Fig. 5 (Eclipse): the F1,
// false-alarm-rate, and anomaly-miss-rate trajectories of every query
// strategy and baseline over the first MaxQueries queries, averaged over
// Splits train/test splits.
type CurvesResult struct {
	Figure string // "fig3" or "fig5"
	Config Config
	Curves []Curve
}

// RunCurves regenerates Fig. 3 (system "volta") or Fig. 5 ("eclipse").
func RunCurves(cfg Config) (*CurvesResult, error) {
	d, _, err := BuildData(cfg)
	if err != nil {
		return nil, err
	}
	return runCurves(cfg, d)
}

// runCurves is RunCurves on the dataset BuildData(cfg) returns. It only
// reads d, so one dataset serves every runner of a claims seed.
func runCurves(cfg Config, d *dataset.Dataset) (*CurvesResult, error) {
	figure := "fig3"
	if cfg.System == "eclipse" {
		figure = "fig5"
	}
	res := &CurvesResult{Figure: figure, Config: cfg}

	// Every (split × method) cell is an independent query loop whose seed
	// is a pure function of its split index, so the cells fan out across
	// cfg.Workers with bit-identical results for any worker count (the
	// worker-parity test in parallel_test.go pins this). Splits prepare
	// first — one preprocessing fit each, shared read-only by the split's
	// six method cells — which holds all splits' transformed matrices in
	// memory at once (fine at every scale preset).
	preps, err := prepareSplits(d, cfg)
	if err != nil {
		return nil, err
	}
	methods := MethodNames()
	type cell struct{ f1s, fas, ams []float64 }
	cells := make([]cell, cfg.Splits*len(methods))
	if err := runner.ForEach(len(cells), cfg.Workers, func(ci int) error {
		split, m := ci/len(methods), methods[ci%len(methods)]
		r, err := methodRun(m, preps[split], cfg, cfg.Seed+int64(split)*977+13, 0)
		if err != nil {
			return fmt.Errorf("experiments: %s split %d: %w", m, split, err)
		}
		c := &cells[ci]
		c.f1s = make([]float64, len(r.Records))
		c.fas = make([]float64, len(r.Records))
		c.ams = make([]float64, len(r.Records))
		for i, rec := range r.Records {
			c.f1s[i], c.fas[i], c.ams[i] = rec.F1, rec.FalseAlarmRate, rec.AnomalyMissRate
		}
		return nil
	}); err != nil {
		return nil, err
	}
	// Aggregate in (method, split) order — the same float-summation order
	// the serial loop used, which exact-match fixtures depend on.
	for mi, m := range methods {
		var f1s, fas, ams [][]float64
		for split := 0; split < cfg.Splits; split++ {
			c := cells[split*len(methods)+mi]
			f1s = append(f1s, c.f1s)
			fas = append(fas, c.fas)
			ams = append(ams, c.ams)
		}
		res.Curves = append(res.Curves, aggregate(m, f1s, fas, ams))
	}
	return res, nil
}

// prepareSplits builds every split's prepared dataset concurrently. The
// split seeds (cfg.Seed + split*101) are the published per-split
// derivation every sweep shares.
func prepareSplits(d *dataset.Dataset, cfg Config) ([]*prepared, error) {
	preps := make([]*prepared, cfg.Splits)
	err := runner.ForEach(cfg.Splits, cfg.Workers, func(split int) error {
		alSplit, err := dataset.MakeALSplit(d, dataset.ALSplitConfig{
			TestFraction: 0.3, AnomalyRatio: 0.10, HealthyClass: 0,
			Seed: cfg.Seed + int64(split)*101,
		})
		if err != nil {
			return err
		}
		p, err := prepare(d, alSplit, cfg.TopK)
		if err != nil {
			return err
		}
		preps[split] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	return preps, nil
}

// aggregate averages per-split trajectories pointwise (trajectories may
// differ in length when pools are exhausted; aggregation stops at the
// shortest).
func aggregate(method string, f1s, fas, ams [][]float64) Curve {
	n := -1
	for _, t := range f1s {
		if n == -1 || len(t) < n {
			n = len(t)
		}
	}
	if n < 0 {
		n = 0
	}
	c := Curve{Method: method}
	for q := 0; q < n; q++ {
		var a, b, e []float64
		for s := range f1s {
			a = append(a, f1s[s][q])
			b = append(b, fas[s][q])
			e = append(e, ams[s][q])
		}
		c.Points = append(c.Points, CurvePoint{
			Queried: q,
			F1:      Mean(a), F1CI: CI95(a),
			FalseAlarm: Mean(b), FalseAlarmCI: CI95(b),
			AnomalyMiss: Mean(e), AnomalyMsCI: CI95(e),
		})
	}
	return c
}

// WriteCSV emits the figure's series: one row per (method, query).
func (r *CurvesResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "method,queried,f1,f1_ci95,false_alarm_rate,far_ci95,anomaly_miss_rate,amr_ci95"); err != nil {
		return err
	}
	for _, c := range r.Curves {
		for _, p := range c.Points {
			if _, err := fmt.Fprintf(w, "%s,%d,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f\n",
				c.Method, p.Queried, p.F1, p.F1CI, p.FalseAlarm, p.FalseAlarmCI, p.AnomalyMiss, p.AnomalyMsCI); err != nil {
				return err
			}
		}
	}
	return nil
}

// Summary renders the figure's headline: queries each method needed to
// reach a 0.95 mean F1 (the paper's red dashed line), plus start/end
// scores.
func (r *CurvesResult) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s): query trajectories over %d splits, %d queries\n",
		strings.ToUpper(r.Figure), r.Config.System, r.Config.Splits, r.Config.MaxQueries)
	fmt.Fprintf(&b, "%-12s %8s %8s %12s %10s %10s\n", "method", "startF1", "endF1", "to F1>=0.95", "endFAR", "endAMR")
	curves := append([]Curve{}, r.Curves...)
	sort.SliceStable(curves, func(i, j int) bool {
		return lastF1(curves[i]) > lastF1(curves[j])
	})
	for _, c := range curves {
		if len(c.Points) == 0 {
			continue
		}
		first, last := c.Points[0], c.Points[len(c.Points)-1]
		to95 := "never"
		if q := c.QueriesTo(0.95); q >= 0 {
			to95 = fmt.Sprintf("%d", q)
		}
		fmt.Fprintf(&b, "%-12s %8.3f %8.3f %12s %10.3f %10.3f\n",
			c.Method, first.F1, last.F1, to95, last.FalseAlarm, last.AnomalyMiss)
	}
	return b.String()
}

// Plot renders the figure's F1 trajectories as an ASCII chart.
func (r *CurvesResult) Plot() string {
	series := make([]report.Series, 0, len(r.Curves))
	for _, c := range r.Curves {
		s := report.Series{Name: c.Method}
		for _, p := range c.Points {
			s.X = append(s.X, float64(p.Queried))
			s.Y = append(s.Y, p.F1)
		}
		series = append(series, s)
	}
	return report.Chart(fmt.Sprintf("%s: macro F1 vs queries (%s)", strings.ToUpper(r.Figure), r.Config.System),
		series, 72, 18)
}

func lastF1(c Curve) float64 {
	if len(c.Points) == 0 {
		return 0
	}
	return c.Points[len(c.Points)-1].F1
}
