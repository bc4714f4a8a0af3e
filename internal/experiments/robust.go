package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"

	"albadross/internal/dataset"
	"albadross/internal/eval"
	"albadross/internal/telemetry"
)

// ---------------------------------------------------------------------------
// Fig. 7 — supervised robustness motivation

// Fig7Point is the supervised performance with nApps applications in the
// training set, averaged over application combinations.
type Fig7Point struct {
	NApps                    int
	F1, F1CI                 float64
	FalseAlarm, FalseAlarmCI float64
	AnomalyMiss, AnomalyMsCI float64
	Combos                   int
}

// Fig7Result reproduces Fig. 7: a random forest trained on a growing set
// of applications and evaluated on a fixed set of held-out applications —
// no active learning — next to the 5-fold CV reference where all
// applications appear on both sides.
type Fig7Result struct {
	Config Config
	Points []Fig7Point
	// RefF1/RefFAR/RefAMR are the 5-fold CV reference scores (the dashed
	// lines of the figure).
	RefF1, RefFAR, RefAMR float64
}

// RunFig7 regenerates Fig. 7. Per repetition a 3-application test set is
// drawn; training grows over the remaining applications.
func RunFig7(cfg Config) (*Fig7Result, error) {
	d, sys, err := BuildData(cfg)
	if err != nil {
		return nil, err
	}
	apps := sys.AppNames()
	if len(apps) < 5 {
		return nil, fmt.Errorf("experiments: fig7 needs >= 5 applications, have %d", len(apps))
	}
	res := &Fig7Result{Config: cfg}
	maxTrain := len(apps) - 3
	if maxTrain > 8 {
		maxTrain = 8
	}

	byApp := map[string][]int{}
	for i := range d.Meta {
		byApp[d.Meta[i].App] = append(byApp[d.Meta[i].App], i)
	}
	type scores struct{ f1, far, amr []float64 }
	perN := map[int]*scores{}
	for n := 2; n <= maxTrain; n++ {
		perN[n] = &scores{}
	}
	for rep := 0; rep < cfg.Splits; rep++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(rep)*131))
		perm := rng.Perm(len(apps))
		testApps := []string{apps[perm[0]], apps[perm[1]], apps[perm[2]]}
		trainApps := make([]string, 0, len(apps)-3)
		for _, pi := range perm[3:] {
			trainApps = append(trainApps, apps[pi])
		}
		var testIdx []int
		for _, a := range testApps {
			testIdx = append(testIdx, byApp[a]...)
		}
		for n := 2; n <= maxTrain; n++ {
			var trainIdx []int
			for _, a := range trainApps[:n] {
				trainIdx = append(trainIdx, byApp[a]...)
			}
			rep, err := supervisedScore(d, trainIdx, testIdx, cfg)
			if err != nil {
				return nil, err
			}
			perN[n].f1 = append(perN[n].f1, rep.MacroF1)
			perN[n].far = append(perN[n].far, rep.FalseAlarmRate)
			perN[n].amr = append(perN[n].amr, rep.AnomalyMissRate)
		}
	}
	for n := 2; n <= maxTrain; n++ {
		s := perN[n]
		res.Points = append(res.Points, Fig7Point{
			NApps: n, Combos: len(s.f1),
			F1: Mean(s.f1), F1CI: CI95(s.f1),
			FalseAlarm: Mean(s.far), FalseAlarmCI: CI95(s.far),
			AnomalyMiss: Mean(s.amr), AnomalyMsCI: CI95(s.amr),
		})
	}
	// Reference: 5-fold CV with every application present.
	all := make([]int, d.Len())
	for i := range all {
		all[i] = i
	}
	pAll, err := prepare(d, &dataset.ALSplit{Initial: all[:1], Pool: all[1:], Test: all}, cfg.TopK)
	if err != nil {
		return nil, err
	}
	folds, err := dataset.StratifiedKFold(pAll.tr.Y, len(d.Classes), 5, cfg.Seed+9)
	if err != nil {
		return nil, err
	}
	var f1s, fars, amrs []float64
	inFold := make([]int, d.Len())
	for f, fold := range folds {
		for _, i := range fold {
			inFold[i] = f
		}
	}
	for f := range folds {
		var xTr [][]float64
		var yTr []int
		var xTe [][]float64
		var yTe []int
		for i := range pAll.tr.Y {
			if inFold[i] == f {
				xTe = append(xTe, pAll.tr.X[i])
				yTe = append(yTe, pAll.tr.Y[i])
			} else {
				xTr = append(xTr, pAll.tr.X[i])
				yTr = append(yTr, pAll.tr.Y[i])
			}
		}
		m := cfg.rfFactory(cfg.Seed + int64(f))()
		if err := m.Fit(xTr, yTr, len(d.Classes)); err != nil {
			return nil, err
		}
		rep, err := eval.EvaluateModel(m, xTe, yTe, len(d.Classes), pAll.healthy)
		if err != nil {
			return nil, err
		}
		f1s = append(f1s, rep.MacroF1)
		fars = append(fars, rep.FalseAlarmRate)
		amrs = append(amrs, rep.AnomalyMissRate)
	}
	res.RefF1, res.RefFAR, res.RefAMR = Mean(f1s), Mean(fars), Mean(amrs)
	return res, nil
}

// supervisedScore fits the pipeline + RF on trainIdx and scores testIdx.
func supervisedScore(d *dataset.Dataset, trainIdx, testIdx []int, cfg Config) (*eval.Report, error) {
	split := &dataset.ALSplit{Initial: trainIdx[:1], Pool: trainIdx[1:], Test: testIdx}
	p, err := prepare(d, split, cfg.TopK)
	if err != nil {
		return nil, err
	}
	var xTr [][]float64
	var yTr []int
	for _, i := range trainIdx {
		xTr = append(xTr, p.tr.X[i])
		yTr = append(yTr, p.tr.Y[i])
	}
	m := cfg.rfFactory(cfg.Seed)()
	if err := m.Fit(xTr, yTr, len(d.Classes)); err != nil {
		return nil, err
	}
	return eval.EvaluateModel(m, p.test.X, p.test.Y, len(d.Classes), p.healthy)
}

// WriteCSV emits nApps rows plus the reference row.
func (r *Fig7Result) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "n_apps,f1,f1_ci95,false_alarm_rate,far_ci95,anomaly_miss_rate,amr_ci95,combos"); err != nil {
		return err
	}
	for _, p := range r.Points {
		if _, err := fmt.Fprintf(w, "%d,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%d\n",
			p.NApps, p.F1, p.F1CI, p.FalseAlarm, p.FalseAlarmCI, p.AnomalyMiss, p.AnomalyMsCI, p.Combos); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "ref_5fold_cv,%.4f,,%.4f,,%.4f,,\n", r.RefF1, r.RefFAR, r.RefAMR)
	return err
}

// Summary renders the robustness curve.
func (r *Fig7Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIG7 (%s): supervised RF, unseen-application robustness (no active learning)\n", r.Config.System)
	fmt.Fprintf(&b, "  %-8s %8s %8s %8s\n", "n_apps", "F1", "FAR", "AMR")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "  %-8d %8.3f %8.3f %8.3f\n", p.NApps, p.F1, p.FalseAlarm, p.AnomalyMiss)
	}
	fmt.Fprintf(&b, "  %-8s %8.3f %8.3f %8.3f (all apps in train and test)\n", "5foldCV", r.RefF1, r.RefFAR, r.RefAMR)
	return b.String()
}

// ---------------------------------------------------------------------------
// Fig. 6 — previously unseen applications, with active learning

// UnseenAppsResult reproduces Fig. 6: F1 query curves of the best
// strategy vs Random when the training side holds only 2/4/6
// applications and the test side holds the rest.
type UnseenAppsResult struct {
	Config Config
	// Curves maps "<nApps>/<method>" to the aggregated curve.
	Curves []UnseenAppsCurve
}

// UnseenAppsCurve is one (training-app count, method) trajectory.
type UnseenAppsCurve struct {
	NApps  int
	Method string
	Curve  Curve
}

// RunUnseenApps regenerates Fig. 6 for training-app counts 2, 4, 6. The
// unlabeled pool keeps samples of every application (a production system
// has telemetry from everything; what it lacks is labels) — only the
// initial labeled set is restricted to the seen applications, and the
// test set is a held-out half of the unseen applications' samples.
func RunUnseenApps(cfg Config) (*UnseenAppsResult, error) {
	d, sys, err := BuildData(cfg)
	if err != nil {
		return nil, err
	}
	return runUnseenApps(cfg, d, sys)
}

// runUnseenApps is RunUnseenApps on what BuildData(cfg) returns; it
// only reads d.
func runUnseenApps(cfg Config, d *dataset.Dataset, sys *telemetry.SystemSpec) (*UnseenAppsResult, error) {
	apps := sys.AppNames()
	res := &UnseenAppsResult{Config: cfg}
	methods := []string{BestStrategy(cfg.System), "random"}
	for _, nApps := range []int{2, 4, 6} {
		if nApps >= len(apps) {
			continue
		}
		perMethod := map[string][][]float64{}
		farPer := map[string][][]float64{}
		amrPer := map[string][][]float64{}
		for rep := 0; rep < cfg.Splits; rep++ {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(nApps*1000+rep)))
			perm := rng.Perm(len(apps))
			trainApps := map[string]bool{}
			for _, pi := range perm[:nApps] {
				trainApps[apps[pi]] = true
			}
			// Held-out test: half of the unseen applications' samples,
			// stratified by class; the rest (seen apps + remaining unseen
			// samples) form the unlabeled side.
			unseenIdx := d.FilterIndices(func(m telemetry.RunMeta) bool { return !trainApps[m.App] })
			unseen := d.Subset(unseenIdx)
			keepPos, testPos, err := dataset.StratifiedSplit(unseen.Y, len(d.Classes), 0.5, cfg.Seed+int64(rep)*31)
			if err != nil {
				return nil, err
			}
			testIdx := make([]int, len(testPos))
			for k, pos := range testPos {
				testIdx[k] = unseenIdx[pos]
			}
			trainIdx := d.FilterIndices(func(m telemetry.RunMeta) bool { return trainApps[m.App] })
			for _, pos := range keepPos {
				trainIdx = append(trainIdx, unseenIdx[pos])
			}
			split, err := dataset.MakeALSplitFrom(d, trainIdx, testIdx, dataset.ALSplitConfig{
				AnomalyRatio: 0.10, HealthyClass: 0, Seed: cfg.Seed + int64(rep)*31,
				InitialFilter: func(m telemetry.RunMeta) bool { return trainApps[m.App] },
			})
			if err != nil {
				return nil, err
			}
			p, err := prepare(d, split, cfg.TopK)
			if err != nil {
				return nil, err
			}
			for _, m := range methods {
				r, err := methodRun(m, p, cfg, cfg.Seed+int64(rep)*977, 0)
				if err != nil {
					return nil, err
				}
				f1s := make([]float64, len(r.Records))
				fas := make([]float64, len(r.Records))
				ams := make([]float64, len(r.Records))
				for i, rec := range r.Records {
					f1s[i], fas[i], ams[i] = rec.F1, rec.FalseAlarmRate, rec.AnomalyMissRate
				}
				perMethod[m] = append(perMethod[m], f1s)
				farPer[m] = append(farPer[m], fas)
				amrPer[m] = append(amrPer[m], ams)
			}
		}
		for _, m := range methods {
			res.Curves = append(res.Curves, UnseenAppsCurve{
				NApps: nApps, Method: m,
				Curve: aggregate(m, perMethod[m], farPer[m], amrPer[m]),
			})
		}
	}
	return res, nil
}

// WriteCSV emits rows n_apps,method,queried,f1,f1_ci95.
func (r *UnseenAppsResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "n_apps,method,queried,f1,f1_ci95"); err != nil {
		return err
	}
	for _, uc := range r.Curves {
		for _, p := range uc.Curve.Points {
			if _, err := fmt.Fprintf(w, "%d,%s,%d,%.4f,%.4f\n", uc.NApps, uc.Method, p.Queried, p.F1, p.F1CI); err != nil {
				return err
			}
		}
	}
	return nil
}

// Summary renders the queries-to-0.95 table of Fig. 6.
func (r *UnseenAppsResult) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIG6 (%s): previously unseen applications\n", r.Config.System)
	fmt.Fprintf(&b, "  %-8s %-12s %8s %8s %12s\n", "n_apps", "method", "startF1", "endF1", "to F1>=0.95")
	curves := append([]UnseenAppsCurve{}, r.Curves...)
	sort.SliceStable(curves, func(i, j int) bool {
		if curves[i].NApps != curves[j].NApps {
			return curves[i].NApps < curves[j].NApps
		}
		return curves[i].Method < curves[j].Method
	})
	for _, uc := range curves {
		if len(uc.Curve.Points) == 0 {
			continue
		}
		first, last := uc.Curve.Points[0], uc.Curve.Points[len(uc.Curve.Points)-1]
		to95 := "never"
		if q := uc.Curve.QueriesTo(0.95); q >= 0 {
			to95 = fmt.Sprintf("%d", q)
		}
		fmt.Fprintf(&b, "  %-8d %-12s %8.3f %8.3f %12s\n", uc.NApps, uc.Method, first.F1, last.F1, to95)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Fig. 8 — previously unseen application inputs

// UnseenInputsResult reproduces Fig. 8: query curves (F1/FAR/AMR) of the
// best strategy vs Random when training uses a single input deck per
// application and testing uses the remaining decks.
type UnseenInputsResult struct {
	Config Config
	Curves []Curve
}

// RunUnseenInputs regenerates Fig. 8; the held-in deck rotates across
// repetitions (the paper's "different input combinations").
func RunUnseenInputs(cfg Config) (*UnseenInputsResult, error) {
	d, _, err := BuildData(cfg)
	if err != nil {
		return nil, err
	}
	return runUnseenInputs(cfg, d)
}

// runUnseenInputs is RunUnseenInputs on the dataset BuildData(cfg)
// returns; it only reads d.
func runUnseenInputs(cfg Config, d *dataset.Dataset) (*UnseenInputsResult, error) {
	res := &UnseenInputsResult{Config: cfg}
	methods := []string{BestStrategy(cfg.System), "random"}
	perMethod := map[string][][]float64{}
	farPer := map[string][][]float64{}
	amrPer := map[string][][]float64{}
	for rep := 0; rep < cfg.Splits; rep++ {
		deck := rep % 3
		// Initial labels come only from the held-in deck; the unlabeled
		// pool keeps every deck's samples and the test set is a held-out
		// half of the unseen decks' samples (see RunUnseenApps).
		unseenIdx := d.FilterIndices(func(m telemetry.RunMeta) bool { return m.Input != deck })
		unseen := d.Subset(unseenIdx)
		keepPos, testPos, err := dataset.StratifiedSplit(unseen.Y, len(d.Classes), 0.5, cfg.Seed+int64(rep)*31)
		if err != nil {
			return nil, err
		}
		testIdx := make([]int, len(testPos))
		for k, pos := range testPos {
			testIdx[k] = unseenIdx[pos]
		}
		trainIdx := d.FilterIndices(func(m telemetry.RunMeta) bool { return m.Input == deck })
		for _, pos := range keepPos {
			trainIdx = append(trainIdx, unseenIdx[pos])
		}
		split, err := dataset.MakeALSplitFrom(d, trainIdx, testIdx, dataset.ALSplitConfig{
			AnomalyRatio: 0.10, HealthyClass: 0, Seed: cfg.Seed + int64(rep)*31,
			InitialFilter: func(m telemetry.RunMeta) bool { return m.Input == deck },
		})
		if err != nil {
			return nil, err
		}
		p, err := prepare(d, split, cfg.TopK)
		if err != nil {
			return nil, err
		}
		for _, m := range methods {
			r, err := methodRun(m, p, cfg, cfg.Seed+int64(rep)*977, 0)
			if err != nil {
				return nil, err
			}
			f1s := make([]float64, len(r.Records))
			fas := make([]float64, len(r.Records))
			ams := make([]float64, len(r.Records))
			for i, rec := range r.Records {
				f1s[i], fas[i], ams[i] = rec.F1, rec.FalseAlarmRate, rec.AnomalyMissRate
			}
			perMethod[m] = append(perMethod[m], f1s)
			farPer[m] = append(farPer[m], fas)
			amrPer[m] = append(amrPer[m], ams)
		}
	}
	for _, m := range methods {
		res.Curves = append(res.Curves, aggregate(m, perMethod[m], farPer[m], amrPer[m]))
	}
	return res, nil
}

// WriteCSV emits rows method,queried,f1,f1_ci95,far,far_ci95,amr,amr_ci95.
func (r *UnseenInputsResult) WriteCSV(w io.Writer) error {
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

// Summary renders start/end scores and queries-to-0.95 per method.
func (r *UnseenInputsResult) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIG8 (%s): previously unseen application inputs\n", r.Config.System)
	fmt.Fprintf(&b, "  %-12s %8s %8s %8s %12s\n", "method", "startF1", "startFAR", "endF1", "to F1>=0.95")
	for _, c := range r.Curves {
		if len(c.Points) == 0 {
			continue
		}
		first, last := c.Points[0], c.Points[len(c.Points)-1]
		to95 := "never"
		if q := c.QueriesTo(0.95); q >= 0 {
			to95 = fmt.Sprintf("%d", q)
		}
		fmt.Fprintf(&b, "  %-12s %8.3f %8.3f %8.3f %12s\n", c.Method, first.F1, first.FalseAlarm, last.F1, to95)
	}
	return b.String()
}
