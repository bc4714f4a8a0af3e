package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"sync"
	"time"

	"albadross/internal/active"
	"albadross/internal/core"
	"albadross/internal/dataset"
	"albadross/internal/drift"
	"albadross/internal/features"
	"albadross/internal/hpas"
	"albadross/internal/ml"
	"albadross/internal/obs"
	"albadross/internal/server"
	"albadross/internal/telemetry"
)

// ---------------------------------------------------------------------------
// Lifecycle chaos — end-to-end drift/promotion/rollback scenario
//
// RunLifecycle stands up the real annotation server with the drift-aware
// lifecycle enabled and walks it through the failure sequence a
// production deployment must survive: in-distribution traffic (no
// trigger), a workload shift built from an unseen application plus
// maximum-intensity hpas anomalies (drift trigger → shadow retrain →
// promotion), a poisoned candidate (quarantined, never serves), an
// operator rollback (byte-identical restoration), and a wedged shadow
// scorer (bounded queue sheds, champion latency unaffected). Every
// phase's invariant is asserted in-process; a violation fails the run.

// LifecycleOptions sizes the scenario; zero values pick defaults.
type LifecycleOptions struct {
	// DriftWindow / MinWindow size the drift monitor.
	DriftWindow int
	MinWindow   int
	// ShadowMinRows is the evidence the promotion gate requires.
	ShadowMinRows int
	// ShadowQueue bounds the duplicated-batch queue.
	ShadowQueue int
	// TriggerCooldown spaces drift triggers.
	TriggerCooldown time.Duration
	// ProbeRows sizes the fixed probe set for the byte-identity check.
	ProbeRows int
	// PhaseTimeout bounds each phase's wait for an async lifecycle
	// decision.
	PhaseTimeout time.Duration
}

// LifecycleDefaults sizes the scenario for a scale preset.
func LifecycleDefaults(scale Scale) LifecycleOptions {
	switch scale {
	case Tiny:
		return LifecycleOptions{
			DriftWindow: 96, MinWindow: 48, ShadowMinRows: 48,
			ShadowQueue: 8, TriggerCooldown: 50 * time.Millisecond,
			ProbeRows: 12,
		}
	case Paper:
		return LifecycleOptions{
			DriftWindow: 512, MinWindow: 256, ShadowMinRows: 256,
			ShadowQueue: 32, TriggerCooldown: 250 * time.Millisecond,
			ProbeRows: 32,
		}
	default:
		return LifecycleOptions{
			DriftWindow: 256, MinWindow: 128, ShadowMinRows: 128,
			ShadowQueue: 16, TriggerCooldown: 100 * time.Millisecond,
			ProbeRows: 16,
		}
	}
}

func (o LifecycleOptions) withDefaults() LifecycleOptions {
	d := LifecycleDefaults(Compact)
	if o.DriftWindow <= 0 {
		o.DriftWindow = d.DriftWindow
	}
	if o.MinWindow <= 0 {
		o.MinWindow = d.MinWindow
	}
	if o.ShadowMinRows <= 0 {
		o.ShadowMinRows = d.ShadowMinRows
	}
	if o.ShadowQueue <= 0 {
		o.ShadowQueue = d.ShadowQueue
	}
	if o.TriggerCooldown <= 0 {
		o.TriggerCooldown = d.TriggerCooldown
	}
	if o.ProbeRows <= 0 {
		o.ProbeRows = d.ProbeRows
	}
	if o.PhaseTimeout <= 0 {
		o.PhaseTimeout = 60 * time.Second
	}
	return o
}

// LifecyclePhase is one scenario phase's outcome.
type LifecyclePhase struct {
	Name          string
	Rows          int
	ActiveVersion uint64
	Drifted       bool
	Promotions    uint64
	Quarantines   uint64
	Detail        string
}

// LifecycleResult is the full scenario record.
type LifecycleResult struct {
	Config    Config
	UnseenApp string
	Phases    []LifecyclePhase
	// Shed counts duplicated batches dropped during the overload phase.
	Shed uint64
	// FinalVersion is the serving version at scenario end.
	FinalVersion uint64
	// RegistryLen is the number of registry entries at scenario end.
	RegistryLen int
}

// RunLifecycle executes the lifecycle chaos scenario.
func RunLifecycle(cfg Config, opts LifecycleOptions) (*LifecycleResult, error) {
	opts = opts.withDefaults()
	sys, err := cfg.systemSpec()
	if err != nil {
		return nil, err
	}
	ex, err := cfg.extractor()
	if err != nil {
		return nil, err
	}
	d, err := generate(cfg, sys, ex)
	if err != nil {
		return nil, err
	}
	healthy, ok := d.ClassIndex(telemetry.HealthyLabel)
	if !ok {
		return nil, fmt.Errorf("experiments: dataset lacks the healthy class")
	}

	// Unseen-app split: the alphabetically last application is held out
	// of training entirely — its rows are the workload-shift traffic.
	apps := sys.AppNames()
	unseenApp := apps[len(apps)-1]
	var seen, unseen []int
	for i := range d.Meta {
		if d.Meta[i].App == unseenApp {
			unseen = append(unseen, i)
		} else {
			seen = append(seen, i)
		}
	}
	if len(unseen) == 0 || len(seen) == 0 {
		return nil, fmt.Errorf("experiments: unseen-app partition is degenerate (%d seen, %d unseen)", len(seen), len(unseen))
	}
	ySeen := make([]int, len(seen))
	for k, i := range seen {
		ySeen[k] = d.Y[i]
	}
	trLocal, teLocal, err := dataset.StratifiedSplit(ySeen, len(d.Classes), 0.3, cfg.Seed)
	if err != nil {
		return nil, err
	}
	train := make([]int, len(trLocal))
	for k, i := range trLocal {
		train[k] = seen[i]
	}
	test := make([]int, len(teLocal))
	for k, i := range teLocal {
		test[k] = seen[i]
	}
	alSplit, err := dataset.MakeALSplitFrom(d, train, test, dataset.ALSplitConfig{
		AnomalyRatio: 0.10, HealthyClass: healthy, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	trainIdx := append(append([]int{}, alSplit.Initial...), alSplit.Pool...)
	prep, err := core.FitPreprocessor(d, trainIdx, cfg.TopK)
	if err != nil {
		return nil, err
	}
	tr, err := prep.Transform(d)
	if err != nil {
		return nil, err
	}

	srv, err := server.New(server.Config{
		Data:         tr,
		Split:        alSplit,
		Factory:      cfg.rfFactory(cfg.Seed),
		Strategy:     active.Uncertainty{},
		FeatureNames: tr.FeatureNames,
		HealthyClass: healthy,
		Seed:         cfg.Seed + 7,
		Lifecycle:    true,
		Drift: drift.Config{
			Window: opts.DriftWindow, MinWindow: opts.MinWindow,
			Seed: cfg.Seed + 13,
		},
		ShadowMinRows:   opts.ShadowMinRows,
		ShadowQueue:     opts.ShadowQueue,
		TriggerCooldown: opts.TriggerCooldown,
		ShadowMaxWait:   opts.PhaseTimeout,
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	res := &LifecycleResult{Config: cfg, UnseenApp: unseenApp}
	record := func(name string, rows int, detail string) {
		st := srv.Model()
		p := LifecyclePhase{
			Name: name, Rows: rows, ActiveVersion: st.ActiveVersion,
			Promotions: st.Promotions, Quarantines: st.Quarantines,
			Detail: detail,
		}
		if st.Drift != nil {
			p.Drifted = st.Drift.Drifted
		}
		res.Phases = append(res.Phases, p)
	}

	// Clean traffic is drawn from the training universe itself (shuffled
	// labeled+pool rows) — in-distribution by construction, at every
	// scale. Anything else is subtly shifted at small sizes: the
	// stratified test side keeps the campaign's ~40% anomaly share,
	// and freshly generated "production-like" traffic has ~10%, while
	// the universe sits in between (the anomalies-only AL initial set
	// is a large fraction of a tiny universe).
	cleanRows := make([][]float64, len(trainIdx))
	for k, i := range trainIdx {
		cleanRows[k] = tr.X[i]
	}
	shuf := rand.New(rand.NewSource(cfg.Seed + 31))
	shuf.Shuffle(len(cleanRows), func(a, b int) { cleanRows[a], cleanRows[b] = cleanRows[b], cleanRows[a] })
	if len(cleanRows) < opts.ProbeRows {
		return nil, fmt.Errorf("experiments: training universe too small for a %d-row probe", opts.ProbeRows)
	}
	probe := cleanRows[:opts.ProbeRows]

	// Baseline probe on the initial champion — the rollback target.
	baseline, err := srv.DiagnoseVectors(probe)
	if err != nil {
		return nil, err
	}
	v1 := baseline[0].ModelVersion

	// --- Phase 1: clean traffic must not trigger -----------------------
	fed, err := feedUntil(srv, cleanRows, opts.PhaseTimeout, func(st server.ModelStatus) bool {
		return st.Drift != nil && st.Drift.Ready
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: lifecycle clean phase: %w", err)
	}
	st := srv.Model()
	if st.Drift.Drifted {
		return nil, fmt.Errorf("experiments: clean in-distribution traffic reported drift (fraction %.2f)", st.Drift.DriftedFraction)
	}
	if st.Promotions != 0 || st.ActiveVersion != v1 {
		return nil, fmt.Errorf("experiments: clean traffic changed the serving model (version %d, %d promotions)", st.ActiveVersion, st.Promotions)
	}
	record("clean", fed, "in-distribution traffic, no trigger")

	// --- Phase 2: injected drift must trigger retrain and promote ------
	driftRows, err := driftTraffic(cfg, sys, ex, prep, unseenApp, unseen, tr)
	if err != nil {
		return nil, err
	}
	fed, err = feedUntil(srv, driftRows, opts.PhaseTimeout, func(st server.ModelStatus) bool {
		return st.Promotions >= 1
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: injected drift never promoted a retrained model: %w", err)
	}
	st = srv.Model()
	v2 := st.ActiveVersion
	if v2 == v1 {
		return nil, fmt.Errorf("experiments: promotion did not change the serving version (%d)", v1)
	}
	record("drift", fed, fmt.Sprintf("unseen app %s + max-intensity anomalies -> promoted v%d", unseenApp, v2))

	// --- Phase 3: a poisoned candidate must be quarantined -------------
	poisonedModel, err := fitOn(tr, alSplit.Initial, cfg.rfFactory(cfg.Seed+101), len(d.Classes))
	if err != nil {
		return nil, err
	}
	poisonVer, err := srv.StartChallenger(rotateProbs{poisonedModel}, "lifecycle-chaos-poison")
	if err != nil {
		return nil, fmt.Errorf("experiments: submitting poisoned challenger: %w", err)
	}
	served := map[uint64]bool{}
	fed, err = feedUntilServed(srv, cleanRows, opts.PhaseTimeout, served, func(st server.ModelStatus) bool {
		return st.Quarantines >= 1
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: poisoned challenger was never quarantined: %w", err)
	}
	if served[poisonVer] {
		return nil, fmt.Errorf("experiments: poisoned version %d served live traffic", poisonVer)
	}
	st = srv.Model()
	if st.ActiveVersion != v2 {
		return nil, fmt.Errorf("experiments: poisoned challenger deposed the champion (v%d -> v%d)", v2, st.ActiveVersion)
	}
	reason := ""
	for _, info := range st.Registry {
		if info.Version == poisonVer {
			if info.State != "quarantined" {
				return nil, fmt.Errorf("experiments: poisoned version %d in state %q, want quarantined", poisonVer, info.State)
			}
			reason = info.Reason
		}
	}
	record("poison", fed, "quarantined: "+reason)

	// --- Phase 4: rollback must restore byte-identical predictions -----
	restored, err := srv.RollbackModel("lifecycle-chaos rollback")
	if err != nil {
		return nil, fmt.Errorf("experiments: rollback: %w", err)
	}
	if restored != v1 {
		return nil, fmt.Errorf("experiments: rollback landed on v%d, want v%d", restored, v1)
	}
	after, err := srv.DiagnoseVectors(probe)
	if err != nil {
		return nil, err
	}
	for i := range probe {
		if after[i].ModelVersion != v1 {
			return nil, fmt.Errorf("experiments: probe row %d served by v%d after rollback", i, after[i].ModelVersion)
		}
		if len(after[i].Probs) != len(baseline[i].Probs) {
			return nil, fmt.Errorf("experiments: probe row %d probability width changed after rollback", i)
		}
		for c := range after[i].Probs {
			if math.Float64bits(after[i].Probs[c]) != math.Float64bits(baseline[i].Probs[c]) {
				return nil, fmt.Errorf("experiments: rollback not byte-identical at probe row %d class %d: %v vs %v",
					i, c, after[i].Probs[c], baseline[i].Probs[c])
			}
		}
	}
	record("rollback", len(probe), fmt.Sprintf("restored v%d, %d-row probe byte-identical", v1, len(probe)))

	// --- Phase 5: a wedged shadow scorer must shed, not slow serving ---
	blockedModel, err := fitOn(tr, alSplit.Initial, cfg.rfFactory(cfg.Seed+202), len(d.Classes))
	if err != nil {
		return nil, err
	}
	blocked := &blockingModel{Classifier: blockedModel, release: make(chan struct{}), entered: make(chan struct{})}
	if _, err := srv.StartChallenger(blocked, "lifecycle-chaos-overload"); err != nil {
		return nil, fmt.Errorf("experiments: submitting blocking challenger: %w", err)
	}
	shedBefore := shedTotal()
	if _, err := srv.DiagnoseVectors(cleanRows[:min(len(cleanRows), 32)]); err != nil {
		return nil, err
	}
	select {
	case <-blocked.entered:
	case <-time.After(opts.PhaseTimeout):
		return nil, fmt.Errorf("experiments: shadow worker never scored the blocking challenger")
	}
	// The worker is wedged inside the challenger. Champion traffic must
	// keep completing promptly while the bounded queue sheds.
	overloadDeadline := time.Now().Add(opts.PhaseTimeout)
	calls := 0
	for shedTotal() <= shedBefore {
		if time.Now().After(overloadDeadline) {
			close(blocked.release)
			return nil, fmt.Errorf("experiments: bounded shadow queue never shed under overload (%d calls)", calls)
		}
		if _, err := srv.DiagnoseVectors(cleanRows[:min(len(cleanRows), 32)]); err != nil {
			close(blocked.release)
			return nil, err
		}
		calls++
	}
	close(blocked.release)
	res.Shed = shedTotal() - shedBefore
	record("overload", calls*min(len(cleanRows), 32), fmt.Sprintf("%d duplicated batches shed, champion unaffected", res.Shed))

	final := srv.Model()
	res.FinalVersion = final.ActiveVersion
	res.RegistryLen = len(final.Registry)
	return res, nil
}

// driftTraffic builds the workload-shift rows: every row of the held-out
// application plus fresh runs of that application under each hpas
// injector at the system's maximum intensity knob.
func driftTraffic(cfg Config, sys *telemetry.SystemSpec, ex features.Extractor,
	prep *core.Preprocessor, unseenApp string, unseen []int, tr *dataset.Dataset) ([][]float64, error) {
	rows := make([][]float64, 0, len(unseen))
	for _, i := range unseen {
		rows = append(rows, tr.X[i])
	}
	var app *telemetry.AppSpec
	for ai := range sys.Apps {
		if sys.Apps[ai].Name == unseenApp {
			app = &sys.Apps[ai]
		}
	}
	if app == nil {
		return nil, fmt.Errorf("experiments: app %q missing from system spec", unseenApp)
	}
	maxIntensity := sys.Intensities[len(sys.Intensities)-1]
	cumulative := telemetry.CumulativeFlags(sys.Metrics)
	for ii, inj := range hpas.All() {
		samples, err := sys.GenerateRun(telemetry.RunConfig{
			App: app, Input: 0,
			Nodes: sys.NodeCounts[0], Steps: cfg.Steps,
			Seed:     cfg.Seed + 100_000 + int64(ii),
			Injector: inj, Intensity: maxIntensity,
		})
		if err != nil {
			return nil, err
		}
		for _, s := range samples {
			vec, err := core.RunVector(s, cumulative, ex)
			if err != nil {
				return nil, err
			}
			row, err := prep.TransformRow(vec)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// feedUntil cycles rows through the serving path until done(status) or
// the deadline. Returns the number of rows fed.
func feedUntil(srv *server.Server, rows [][]float64, timeout time.Duration, done func(server.ModelStatus) bool) (int, error) {
	return feedUntilServed(srv, rows, timeout, nil, done)
}

// feedUntilServed is feedUntil, additionally recording every served
// model version into seen (when non-nil).
func feedUntilServed(srv *server.Server, rows [][]float64, timeout time.Duration,
	seen map[uint64]bool, done func(server.ModelStatus) bool) (int, error) {
	deadline := time.Now().Add(timeout)
	fed := 0
	chunk := 32
	if chunk > len(rows) {
		chunk = len(rows)
	}
	for at := 0; ; at = (at + chunk) % len(rows) {
		if done(srv.Model()) {
			return fed, nil
		}
		if time.Now().After(deadline) {
			return fed, fmt.Errorf("deadline after %d rows", fed)
		}
		end := at + chunk
		if end > len(rows) {
			end = len(rows)
		}
		res, err := srv.DiagnoseVectors(rows[at:end])
		if err != nil {
			return fed, err
		}
		if seen != nil {
			for _, r := range res {
				seen[r.ModelVersion] = true
			}
		}
		fed += end - at
		// Let the async worker drain between chunks so the monitor and
		// trial see the traffic.
		time.Sleep(time.Millisecond)
	}
}

// fitOn trains a fresh model from factory on the given dataset rows.
func fitOn(tr *dataset.Dataset, idx []int, factory ml.Factory, nClasses int) (ml.Classifier, error) {
	x := make([][]float64, len(idx))
	y := make([]int, len(idx))
	for k, i := range idx {
		x[k] = tr.X[i]
		y[k] = tr.Y[i]
	}
	m := factory()
	if err := m.Fit(x, y, nClasses); err != nil {
		return nil, err
	}
	return m, nil
}

// rotateProbs is the poisoned candidate: it rotates the wrapped model's
// probability vector so its argmax is (nearly) always wrong. Embedding
// the interface keeps any batch fast-path from leaking through.
type rotateProbs struct {
	ml.Classifier
}

func (r rotateProbs) PredictProba(x []float64) []float64 {
	p := r.Classifier.PredictProba(x)
	out := make([]float64, len(p))
	for i := range p {
		out[i] = p[(i+1)%len(p)]
	}
	return out
}

// blockingModel wedges the shadow scorer: batch scoring parks until
// release is closed. Champion serving must be unaffected.
type blockingModel struct {
	ml.Classifier
	release chan struct{}
	entered chan struct{}
	once    sync.Once
}

func (b *blockingModel) PredictProbaBatch(x [][]float64) [][]float64 {
	b.once.Do(func() { close(b.entered) })
	<-b.release
	return ml.ProbaBatch(b.Classifier, x)
}

// shedTotal reads shadow_shed_total from the default obs registry.
func shedTotal() uint64 {
	for _, f := range obs.Default().Snapshot().Families {
		if f.Name != "shadow_shed_total" {
			continue
		}
		for _, s := range f.Series {
			return uint64(s.Value)
		}
	}
	return 0
}

// WriteCSV emits one row per phase.
func (r *LifecycleResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "phase,rows,active_version,drifted,promotions,quarantines,detail"); err != nil {
		return err
	}
	for _, p := range r.Phases {
		if _, err := fmt.Fprintf(w, "%s,%d,%d,%t,%d,%d,%q\n",
			p.Name, p.Rows, p.ActiveVersion, p.Drifted, p.Promotions, p.Quarantines, p.Detail); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "final,,%d,,,,\"%d registry entries, %d shed\"\n", r.FinalVersion, r.RegistryLen, r.Shed)
	return err
}

// Summary renders the phase walk.
func (r *LifecycleResult) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "LIFECYCLE (%s): drift-aware model lifecycle chaos scenario\n", r.Config.System)
	fmt.Fprintf(&b, "  unseen app held out of training: %s\n", r.UnseenApp)
	fmt.Fprintf(&b, "  %-10s %6s %8s %8s %6s %6s  detail\n", "phase", "rows", "version", "drifted", "promo", "quar")
	for _, p := range r.Phases {
		fmt.Fprintf(&b, "  %-10s %6d %8d %8t %6d %6d  %s\n",
			p.Name, p.Rows, p.ActiveVersion, p.Drifted, p.Promotions, p.Quarantines, p.Detail)
	}
	fmt.Fprintf(&b, "  final: serving v%d, %d registry entries, %d shadow batches shed under overload\n",
		r.FinalVersion, r.RegistryLen, r.Shed)
	return b.String()
}
