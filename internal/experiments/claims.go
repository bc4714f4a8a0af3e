package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"
)

// ClaimSeeds is how many seeds RunClaims sweeps, from Config.Seed on.
const ClaimSeeds = 5

// ClaimsResult is the paper-claims gate: the query-trajectory curves
// (Figs. 3 and 5), Table V on both systems, and the unseen-application
// and unseen-input sweeps (Figs. 6 and 8) on Volta, each rerun over
// ClaimSeeds seeds, with every claim the paper makes from them written
// as an inequality with a margin and judged per seed.
type ClaimsResult struct {
	Runs     []ClaimsRun
	Verdicts []ClaimVerdict
	Wall     time.Duration
}

// ClaimsRun is one seed's results.
type ClaimsRun struct {
	Seed                   int64
	VoltaCurves, EclCurves *CurvesResult
	VoltaT5, EclT5         *Table5Result
	Apps                   *UnseenAppsResult
	Inputs                 *UnseenInputsResult
	Wall                   time.Duration
}

// ClaimVerdict is one claim's outcome: it holds when at least Need of
// the seeds satisfy it.
type ClaimVerdict struct {
	ID, System, Statement string
	Need                  int
	Held                  []bool // per seed, in Runs order
	Detail                []string
}

// Holds reports whether the claim held in at least Need seeds.
func (v ClaimVerdict) Holds() bool { return v.HeldCount() >= v.Need }

// HeldCount is how many seeds satisfied the claim.
func (v ClaimVerdict) HeldCount() int {
	n := 0
	for _, h := range v.Held {
		if h {
			n++
		}
	}
	return n
}

// claimTargets are the F1 levels labels are counted to (Table V's).
var claimTargets = []float64{0.85, 0.90, 0.95}

// RunClaims runs the claims sweep. cfg sizes both systems (its System
// is ignored; Metrics follows each system's preset at scale) and its
// Seed is the first of ClaimSeeds consecutive seeds.
func RunClaims(cfg Config, scale Scale) (*ClaimsResult, error) {
	start := time.Now()
	res := &ClaimsResult{}
	sys := func(name string, seed int64) Config {
		c := cfg
		c.System, c.Metrics, c.Seed = name, Default(name, scale).Metrics, seed
		return c
	}
	for s := int64(0); s < ClaimSeeds; s++ {
		seed := cfg.Seed + s
		runStart := time.Now()
		r := ClaimsRun{Seed: seed}
		// Each system's dataset is built once per seed and shared: the
		// runners only read it.
		v, e := sys("volta", seed), sys("eclipse", seed)
		vd, vsys, err := BuildData(v)
		if err != nil {
			return nil, err
		}
		if r.VoltaCurves, err = runCurves(v, vd); err != nil {
			return nil, err
		}
		if r.VoltaT5, err = runTable5(v, vd); err != nil {
			return nil, err
		}
		if r.Apps, err = runUnseenApps(v, vd, vsys); err != nil {
			return nil, err
		}
		if r.Inputs, err = runUnseenInputs(v, vd); err != nil {
			return nil, err
		}
		ed, _, err := BuildData(e)
		if err != nil {
			return nil, err
		}
		if r.EclCurves, err = runCurves(e, ed); err != nil {
			return nil, err
		}
		if r.EclT5, err = runTable5(e, ed); err != nil {
			return nil, err
		}
		r.Wall = time.Since(runStart)
		res.Runs = append(res.Runs, r)
	}
	res.Verdicts = judgeClaims(res.Runs)
	res.Wall = time.Since(start)
	return res, nil
}

// claim is one paper claim as a per-seed test; check returns whether
// the seed satisfies it and the numbers it compared.
type claim struct {
	id, system, statement string
	check                 func(r ClaimsRun) (bool, string)
}

// claimNeed is how many of ClaimSeeds seeds a claim must hold in.
const claimNeed = 4

// paperClaims lists the claims, each citing where the paper makes it.
func paperClaims() []claim {
	return []claim{
		{"fig3-order", "volta", "uncertainty reaches mean F1 0.90 in fewer queried labels than random (Fig. 3)",
			func(r ClaimsRun) (bool, string) { return fewerLabels(r.VoltaCurves, "uncertainty", "random", 0.90) }},
		{"fig3-end", "volta", "uncertainty's final mean F1 is at least random's + 0.02 (Fig. 3)",
			func(r ClaimsRun) (bool, string) { return endAhead(r.VoltaCurves.Curves, "uncertainty", "random", 0.02) }},
		{"fig3-best", "volta", "uncertainty reaches mean F1 0.90 within 10 queried labels of the fastest method (Table V winner)",
			func(r ClaimsRun) (bool, string) { return nearFastest(r.VoltaCurves, "uncertainty", 0.90, 10) }},
		{"fig3-proctor", "volta", "proctor ends with the lowest mean F1 of the six methods (Fig. 3)",
			func(r ClaimsRun) (bool, string) { return endsLowest(r.VoltaCurves, "proctor") }},
		{"fig5-order", "eclipse", "margin reaches mean F1 0.90 in fewer queried labels than random (Fig. 5)",
			func(r ClaimsRun) (bool, string) { return fewerLabels(r.EclCurves, "margin", "random", 0.90) }},
		{"fig5-end", "eclipse", "margin's final mean F1 is at least random's + 0.02 (Fig. 5)",
			func(r ClaimsRun) (bool, string) { return endAhead(r.EclCurves.Curves, "margin", "random", 0.02) }},
		{"fig5-best", "eclipse", "margin reaches mean F1 0.95 within 10 queried labels of the fastest method (Table V winner)",
			func(r ClaimsRun) (bool, string) { return nearFastest(r.EclCurves, "margin", 0.95, 10) }},
		{"table5-start", "both", "Eclipse's starting F1 is at least 0.05 below Volta's (Table V)",
			func(r ClaimsRun) (bool, string) {
				return r.EclT5.StartingF1+0.05 <= r.VoltaT5.StartingF1, fmt.Sprintf("%.3f vs %.3f", r.EclT5.StartingF1, r.VoltaT5.StartingF1)
			}},
		{"table5-reduction", "volta", "the best strategy reaches F1 0.95 with at least 10x fewer labels than the whole pool (Table V)",
			func(r ClaimsRun) (bool, string) { return reduction(r.VoltaT5, 10) }},
		{"table5-reduction", "eclipse", "the best strategy reaches F1 0.95 with at least 10x fewer labels than the whole pool (Table V)",
			func(r ClaimsRun) (bool, string) { return reduction(r.EclT5, 10) }},
		{"fig6-gap", "volta", "with unseen applications, uncertainty's final mean F1 is at least random's + 0.05 at 2, 4 and 6 seen apps (Fig. 6)",
			func(r ClaimsRun) (bool, string) { return appsGap(r.Apps, 0.05) }},
		{"fig6-start", "volta", "the starting F1 with 6 seen apps is at least that with 2 + 0.05 (Fig. 6)",
			func(r ClaimsRun) (bool, string) { return appsStart(r.Apps, 0.05) }},
		{"fig8-end", "volta", "with unseen inputs, uncertainty's final mean F1 is at least random's + 0.02 (Fig. 8)",
			func(r ClaimsRun) (bool, string) { return endAhead(r.Inputs.Curves, "uncertainty", "random", 0.02) }},
		{"fig8-start", "volta", "with unseen inputs, the starting false-alarm rate is at least 0.5 (Fig. 8)",
			func(r ClaimsRun) (bool, string) {
				c, ok := curveOf(r.Inputs.Curves, "uncertainty")
				if !ok || len(c.Points) == 0 {
					return false, "no curve"
				}
				far := c.Points[0].FalseAlarm
				return far >= 0.5, fmt.Sprintf("%.3f", far)
			}},
	}
}

// judgeClaims evaluates every claim on every seed's run.
func judgeClaims(runs []ClaimsRun) []ClaimVerdict {
	var out []ClaimVerdict
	for _, c := range paperClaims() {
		v := ClaimVerdict{ID: c.id, System: c.system, Statement: c.statement, Need: claimNeed}
		for _, r := range runs {
			ok, detail := c.check(r)
			v.Held = append(v.Held, ok)
			v.Detail = append(v.Detail, detail)
		}
		out = append(out, v)
	}
	return out
}

func curveOf(cs []Curve, method string) (Curve, bool) {
	for _, c := range cs {
		if c.Method == method {
			return c, true
		}
	}
	return Curve{}, false
}

// labelsText renders a QueriesTo result.
func labelsText(q int) string {
	if q < 0 {
		return "never"
	}
	return strconv.Itoa(q)
}

// fewerLabels holds when a reaches f1 and b does not, or does later.
func fewerLabels(r *CurvesResult, a, b string, f1 float64) (bool, string) {
	ca, okA := curveOf(r.Curves, a)
	cb, okB := curveOf(r.Curves, b)
	if !okA || !okB {
		return false, "missing curve"
	}
	qa, qb := ca.QueriesTo(f1), cb.QueriesTo(f1)
	return qa >= 0 && (qb < 0 || qa < qb), labelsText(qa) + " vs " + labelsText(qb)
}

// endF1 is a curve's last mean F1.
func endF1(c Curve) float64 {
	if len(c.Points) == 0 {
		return math.NaN()
	}
	return c.Points[len(c.Points)-1].F1
}

// endAhead holds when a's final F1 is at least b's + margin.
func endAhead(cs []Curve, a, b string, margin float64) (bool, string) {
	ca, okA := curveOf(cs, a)
	cb, okB := curveOf(cs, b)
	if !okA || !okB {
		return false, "missing curve"
	}
	ea, eb := endF1(ca), endF1(cb)
	return ea >= eb+margin, fmt.Sprintf("%.3f vs %.3f", ea, eb)
}

// nearFastest holds when method reaches f1 within slack queried labels
// of the fastest method that reaches it.
func nearFastest(r *CurvesResult, method string, f1 float64, slack int) (bool, string) {
	best, bestName := -1, ""
	for _, c := range r.Curves {
		if q := c.QueriesTo(f1); q >= 0 && (best < 0 || q < best) {
			best, bestName = q, c.Method
		}
	}
	c, ok := curveOf(r.Curves, method)
	if !ok {
		return false, "missing curve"
	}
	q := c.QueriesTo(f1)
	return q >= 0 && q <= best+slack, fmt.Sprintf("%s vs %s %s", labelsText(q), bestName, labelsText(best))
}

// endsLowest holds when method's final F1 is below every other's.
func endsLowest(r *CurvesResult, method string) (bool, string) {
	c, ok := curveOf(r.Curves, method)
	if !ok {
		return false, "missing curve"
	}
	e := endF1(c)
	low, lowName := math.Inf(1), ""
	for _, o := range r.Curves {
		if o.Method != method && endF1(o) < low {
			low, lowName = endF1(o), o.Method
		}
	}
	return e < low, fmt.Sprintf("%.3f vs %s %.3f", e, lowName, low)
}

// reductionFactor is Table V's whole pool over labels to 0.95, or -1
// when 0.95 was not reached.
func reductionFactor(t *Table5Result) float64 {
	if v := t.SamplesTo[0.95]; v > 0 {
		return float64(t.PoolSize) / v
	}
	return -1
}

// reduction holds when Table V's reduction factor is at least min.
func reduction(t *Table5Result, min float64) (bool, string) {
	f := reductionFactor(t)
	if f < 0 {
		return false, "0.95 never reached"
	}
	return f >= min, fmt.Sprintf("%.1fx", f)
}

// appsCurve finds Fig. 6's curve for (nApps, method).
func appsCurve(r *UnseenAppsResult, nApps int, method string) (Curve, bool) {
	for _, uc := range r.Curves {
		if uc.NApps == nApps && uc.Method == method {
			return uc.Curve, true
		}
	}
	return Curve{}, false
}

// appsGap holds when uncertainty ends margin ahead of random at every
// seen-app count.
func appsGap(r *UnseenAppsResult, margin float64) (bool, string) {
	ok, parts := true, []string(nil)
	for _, n := range []int{2, 4, 6} {
		u, okU := appsCurve(r, n, "uncertainty")
		rd, okR := appsCurve(r, n, "random")
		if !okU || !okR {
			return false, fmt.Sprintf("missing %d-app curve", n)
		}
		eu, er := endF1(u), endF1(rd)
		ok = ok && eu >= er+margin
		parts = append(parts, fmt.Sprintf("%d: %.3f vs %.3f", n, eu, er))
	}
	return ok, strings.Join(parts, "; ")
}

// appsStart holds when the 6-app start is margin above the 2-app one.
func appsStart(r *UnseenAppsResult, margin float64) (bool, string) {
	c2, ok2 := appsCurve(r, 2, "uncertainty")
	c6, ok6 := appsCurve(r, 6, "uncertainty")
	if !ok2 || !ok6 || len(c2.Points) == 0 || len(c6.Points) == 0 {
		return false, "missing curve"
	}
	s2, s6 := c2.Points[0].F1, c6.Points[0].F1
	return s6 >= s2+margin, fmt.Sprintf("%.3f vs %.3f", s6, s2)
}

// span summarizes a per-seed quantity: its mean, min and max over the
// values present (v >= 0) and how many seeds had one.
type span struct {
	mean, min, max float64
	n, of          int
}

func spanOf(vals []float64) span {
	s := span{min: math.Inf(1), max: math.Inf(-1), of: len(vals)}
	sum := 0.0
	for _, v := range vals {
		if v < 0 || math.IsNaN(v) {
			continue
		}
		sum += v
		s.n++
		s.min, s.max = math.Min(s.min, v), math.Max(s.max, v)
	}
	if s.n > 0 {
		s.mean = sum / float64(s.n)
	}
	return s
}

// text renders a span with prec decimals, or "never" when no seed had
// a value; a count suffix says how many did when not all.
func (s span) text(prec int) string {
	if s.n == 0 {
		return "never"
	}
	t := fmt.Sprintf("%.*f [%.*f-%.*f]", prec, s.mean, prec, s.min, prec, s.max)
	if s.n < s.of {
		t += fmt.Sprintf(" %d/%d", s.n, s.of)
	}
	return t
}

// perSeed collects f over the runs.
func (r *ClaimsResult) perSeed(f func(ClaimsRun) float64) span {
	vals := make([]float64, len(r.Runs))
	for i, run := range r.Runs {
		vals[i] = f(run)
	}
	return spanOf(vals)
}

// WriteCSV emits one row per claim:
// claim,system,statement,seeds_held,seeds,required,verdict,per_seed.
func (r *ClaimsResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"claim", "system", "statement", "seeds_held", "seeds", "required", "verdict", "per_seed"}); err != nil {
		return err
	}
	for _, v := range r.Verdicts {
		if err := cw.Write([]string{v.ID, v.System, v.Statement, strconv.Itoa(v.HeldCount()), strconv.Itoa(len(v.Held)),
			strconv.Itoa(v.Need), verdictText(v), r.perSeedText(v)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func verdictText(v ClaimVerdict) string {
	if v.Holds() {
		return "holds"
	}
	return "fails"
}

// perSeedText renders "seed:y (detail)" for every seed.
func (r *ClaimsResult) perSeedText(v ClaimVerdict) string {
	parts := make([]string, len(v.Held))
	for i, h := range v.Held {
		mark := "n"
		if h {
			mark = "y"
		}
		parts[i] = fmt.Sprintf("%d:%s (%s)", r.Runs[i].Seed, mark, v.Detail[i])
	}
	return strings.Join(parts, "; ")
}

// Summary renders the per-strategy label counts, Table V, the unseen
// sweeps' F1 and the verdicts; every cell is mean [min-max] over seeds.
func (r *ClaimsResult) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CLAIMS: seeds %d-%d, %s\n", r.Runs[0].Seed, r.Runs[len(r.Runs)-1].Seed, r.Wall.Round(time.Second))
	for _, run := range r.Runs {
		fmt.Fprintf(&b, "  seed %d: %s\n", run.Seed, run.Wall.Round(time.Second))
	}
	fmt.Fprintf(&b, "  queried labels until the mean curve reaches F1 (mean [min-max], seeds reached when not all):\n")
	fmt.Fprintf(&b, "  %-8s %-12s %-22s %-22s %-22s\n", "system", "method", "0.85", "0.90", "0.95")
	for _, sys := range []string{"volta", "eclipse"} {
		for _, m := range MethodNames() {
			cells := make([]string, len(claimTargets))
			for ti, t := range claimTargets {
				cells[ti] = r.perSeed(func(run ClaimsRun) float64 {
					c, _ := curveOf(run.curves(sys).Curves, m)
					return float64(c.QueriesTo(t))
				}).text(1)
			}
			fmt.Fprintf(&b, "  %-8s %-12s %-22s %-22s %-22s\n", sys, m, cells[0], cells[1], cells[2])
		}
	}
	fmt.Fprintf(&b, "  Table V, best strategy: labeled samples to F1, and whole pool / samples to 0.95:\n")
	for _, sys := range []string{"volta", "eclipse"} {
		t5 := func(run ClaimsRun) *Table5Result { return run.table5(sys) }
		fmt.Fprintf(&b, "  %-8s start %s", sys, r.perSeed(func(run ClaimsRun) float64 { return t5(run).StartingF1 }).text(3))
		for _, t := range claimTargets {
			fmt.Fprintf(&b, "  %.2f: %s", t, r.perSeed(func(run ClaimsRun) float64 { return t5(run).SamplesTo[t] }).text(1))
		}
		fmt.Fprintf(&b, "  reduction (x) %s\n", r.perSeed(func(run ClaimsRun) float64 { return reductionFactor(t5(run)) }).text(1))
	}
	fmt.Fprintf(&b, "  unseen applications (Volta), start and final mean F1:\n")
	for _, n := range []int{2, 4, 6} {
		for _, m := range []string{"uncertainty", "random"} {
			start := r.perSeed(func(run ClaimsRun) float64 {
				c, _ := appsCurve(run.Apps, n, m)
				if len(c.Points) == 0 {
					return math.NaN()
				}
				return c.Points[0].F1
			})
			end := r.perSeed(func(run ClaimsRun) float64 { c, _ := appsCurve(run.Apps, n, m); return endF1(c) })
			fmt.Fprintf(&b, "  %d apps %-12s start %-24s final %s\n", n, m, start.text(3), end.text(3))
		}
	}
	fmt.Fprintf(&b, "  unseen inputs (Volta), start FAR and final mean F1:\n")
	for _, m := range []string{"uncertainty", "random"} {
		far := r.perSeed(func(run ClaimsRun) float64 {
			c, _ := curveOf(run.Inputs.Curves, m)
			if len(c.Points) == 0 {
				return math.NaN()
			}
			return c.Points[0].FalseAlarm
		})
		end := r.perSeed(func(run ClaimsRun) float64 { c, _ := curveOf(run.Inputs.Curves, m); return endF1(c) })
		fmt.Fprintf(&b, "  %-12s start FAR %-24s final %s\n", m, far.text(3), end.text(3))
	}
	held := 0
	for _, v := range r.Verdicts {
		if v.Holds() {
			held++
		}
	}
	fmt.Fprintf(&b, "  verdicts: %d of %d claims hold\n", held, len(r.Verdicts))
	for _, v := range r.Verdicts {
		fmt.Fprintf(&b, "  %-5s %d/%d (need %d) %-16s %-7s %s\n", verdictText(v), v.HeldCount(), len(v.Held), v.Need, v.ID, v.System, v.Statement)
	}
	return b.String()
}

func (run ClaimsRun) curves(sys string) *CurvesResult {
	if sys == "eclipse" {
		return run.EclCurves
	}
	return run.VoltaCurves
}

func (run ClaimsRun) table5(sys string) *Table5Result {
	if sys == "eclipse" {
		return run.EclT5
	}
	return run.VoltaT5
}
