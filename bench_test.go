package albadross

// One benchmark per paper artifact (Tables IV-V, Figs. 3-8) plus
// substrate benchmarks for the stages the pipeline spends its time in:
// telemetry generation, feature extraction, feature selection, model
// training, and query selection. The artifact benchmarks run miniature
// (Tiny-scale) instances — they measure and exercise the exact code path
// cmd/experiments uses to regenerate each table/figure.
//
// Run with: go test -bench=. -benchmem

import (
	"math/rand"
	"testing"

	"albadross/internal/active"
	"albadross/internal/core"
	"albadross/internal/dataset"
	"albadross/internal/experiments"
	"albadross/internal/featsel"
	"albadross/internal/features"
	"albadross/internal/features/mvts"
	"albadross/internal/features/tsfresh"
	"albadross/internal/ml"
	"albadross/internal/ml/forest"
	"albadross/internal/ml/gbm"
	"albadross/internal/ml/linear"
	"albadross/internal/ml/neural"
	"albadross/internal/ml/tree"
	"albadross/internal/obs"
	"albadross/internal/runner"
	"albadross/internal/telemetry"
)

// benchCfg returns the miniature experiment configuration used by the
// artifact benchmarks.
func benchCfg(system string) experiments.Config {
	cfg := experiments.Default(system, experiments.Tiny)
	cfg.Splits = 1
	cfg.MaxQueries = 8
	cfg.RunsPerAppInput = 10
	cfg.Extractor = "mvts"
	return cfg
}

// --- Artifact benchmarks -------------------------------------------------

func BenchmarkTable4GridSearch(b *testing.B) {
	cfg := benchCfg("volta")
	cfg.TopK = 40
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable4(cfg, experiments.Tiny); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5(b *testing.B) {
	cfg := benchCfg("volta")
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable5(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3QueryCurveVolta(b *testing.B) {
	cfg := benchCfg("volta")
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunCurves(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4Drilldown(b *testing.B) {
	cfg := benchCfg("volta")
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunDrilldown(cfg, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5QueryCurveEclipse(b *testing.B) {
	cfg := benchCfg("eclipse")
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunCurves(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6UnseenApps(b *testing.B) {
	cfg := benchCfg("volta")
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunUnseenApps(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7Robustness(b *testing.B) {
	cfg := benchCfg("volta")
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig7(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8UnseenInputs(b *testing.B) {
	cfg := benchCfg("volta")
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunUnseenInputs(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtensionsStrategies(b *testing.B) {
	cfg := benchCfg("volta")
	cfg.MaxQueries = 5
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunExtensions(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationFeatureBudget(b *testing.B) {
	cfg := benchCfg("volta")
	cfg.Splits = 1
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblation(cfg, experiments.Tiny); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Substrate benchmarks ------------------------------------------------

func benchRun(b *testing.B, metrics, steps int) *telemetry.NodeSample {
	b.Helper()
	sys := telemetry.Volta(metrics)
	samples, err := sys.GenerateRun(telemetry.RunConfig{
		App: sys.App("CG"), Input: 0, Nodes: 1, Steps: steps, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	// RunVector leaves the sample holding its prepared series.
	if _, err := core.RunVector(samples[0], telemetry.CumulativeFlags(sys.Metrics), mvts.Extractor{}); err != nil {
		b.Fatal(err)
	}
	return samples[0]
}

func BenchmarkTelemetryGenerateRun(b *testing.B) {
	sys := telemetry.Volta(54)
	cfg := telemetry.RunConfig{App: sys.App("CG"), Input: 0, Nodes: 4, Steps: 600, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.GenerateRun(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtractMVTS(b *testing.B) {
	s := benchRun(b, 54, 600)
	ex := mvts.Extractor{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		features.ExtractSample(ex, s.Data)
	}
}

func BenchmarkExtractTSFRESH(b *testing.B) {
	s := benchRun(b, 54, 600)
	ex := tsfresh.Extractor{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		features.ExtractSample(ex, s.Data)
	}
}

func benchMatrix(n, d, k int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		x[i] = make([]float64, d)
		for j := range x[i] {
			x[i][j] = rng.Float64()
		}
		y[i] = rng.Intn(k)
	}
	return x, y
}

func BenchmarkChi2SelectTopK(b *testing.B) {
	x, y := benchMatrix(1000, 2000, 6, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := featsel.SelectTopK(x, y, 6, 250); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForestFit(b *testing.B) {
	x, y := benchMatrix(500, 250, 6, 2)
	f := forest.New(forest.Config{NEstimators: 20, MaxDepth: 8, Seed: 3})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Fit(x, y, 6); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGBMFit(b *testing.B) {
	x, y := benchMatrix(300, 100, 6, 3)
	m := gbm.New(gbm.Config{NEstimators: 10, NumLeaves: 16, Seed: 4})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Fit(x, y, 6); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLogisticRegressionFit(b *testing.B) {
	x, y := benchMatrix(500, 250, 6, 5)
	m := linear.New(linear.Config{C: 1, MaxIter: 100})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Fit(x, y, 6); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMLPFit(b *testing.B) {
	x, y := benchMatrix(300, 100, 6, 6)
	m := neural.NewMLP(neural.MLPConfig{HiddenLayerSizes: []int{50}, MaxIter: 10, Optimizer: neural.Adam, Seed: 7})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Fit(x, y, 6); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTreeFit(b *testing.B) {
	x, y := benchMatrix(1000, 250, 6, 8)
	t := tree.NewClassifier(tree.Config{MaxDepth: 8, MaxFeatures: -1, Seed: 9})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := t.Fit(x, y, 6); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryStrategySelection(b *testing.B) {
	// Strategy scoring over a 5000-sample pool with 6 classes.
	rng := rand.New(rand.NewSource(10))
	probs := make([][]float64, 5000)
	meta := make([]telemetry.RunMeta, len(probs))
	for i := range probs {
		p := make([]float64, 6)
		sum := 0.0
		for c := range p {
			p[c] = rng.Float64()
			sum += p[c]
		}
		for c := range p {
			p[c] /= sum
		}
		probs[i] = p
	}
	ctx := &active.QueryContext{Probs: probs, Meta: meta, Rng: rng}
	strategies := []active.Strategy{active.Uncertainty{}, active.Margin{}, active.Entropy{}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range strategies {
			s.Next(ctx)
		}
	}
}

func BenchmarkActiveLearningLoop(b *testing.B) {
	// One full 10-query loop on a small pool, the paper's inner cycle.
	classes := []string{"healthy", "a1", "a2"}
	rng := rand.New(rand.NewSource(11))
	mk := func(n int) *dataset.Dataset {
		d := dataset.New(classes)
		for i := 0; i < n; i++ {
			label := 0
			if rng.Float64() < 0.2 {
				label = 1 + rng.Intn(2)
			}
			x := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
			if label > 0 {
				x[label] += 2
			}
			_ = d.Add(x, classes[label], telemetry.RunMeta{App: "BT"})
		}
		return d
	}
	d := mk(600)
	test := mk(200)
	split, err := dataset.MakeALSplit(d, dataset.ALSplitConfig{
		TestFraction: 0.2, AnomalyRatio: 0.1, Seed: 12,
	})
	if err != nil {
		b.Fatal(err)
	}
	loop := &active.Loop{
		Factory:   forest.NewFactory(forest.Config{NEstimators: 10, MaxDepth: 6, Seed: 1}),
		Strategy:  active.Uncertainty{},
		Annotator: active.Oracle{D: d},
		Seed:      13,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := loop.Run(d, split.Initial, split.Pool, test, active.RunConfig{MaxQueries: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkALLoopPerQuery(b *testing.B) {
	// Per-query cost of the incremental loop hot path: batched pool
	// scoring plus the splice-based labeled/pool bookkeeping. The custom
	// metric divides out the query budget.
	classes := []string{"healthy", "a1", "a2"}
	rng := rand.New(rand.NewSource(21))
	mk := func(n int) *dataset.Dataset {
		d := dataset.New(classes)
		for i := 0; i < n; i++ {
			label := 0
			if rng.Float64() < 0.2 {
				label = 1 + rng.Intn(2)
			}
			x := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
			if label > 0 {
				x[label] += 2
			}
			_ = d.Add(x, classes[label], telemetry.RunMeta{App: "BT"})
		}
		return d
	}
	d := mk(900)
	test := mk(200)
	split, err := dataset.MakeALSplit(d, dataset.ALSplitConfig{
		TestFraction: 0.2, AnomalyRatio: 0.1, Seed: 22,
	})
	if err != nil {
		b.Fatal(err)
	}
	const queries = 16
	loop := &active.Loop{
		Factory:   forest.NewFactory(forest.Config{NEstimators: 10, MaxDepth: 6, Seed: 1}),
		Strategy:  active.Entropy{},
		Annotator: active.Oracle{D: d},
		Seed:      23,
		EvalEvery: 4,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := loop.Run(d, split.Initial, split.Pool, test, active.RunConfig{MaxQueries: queries}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/queries, "ns/query")
}

func BenchmarkPoolScoringSerial(b *testing.B) {
	// The pre-batching hot path: one PredictProba dispatch per pool row.
	x, y := benchMatrix(512, 32, 3, 24)
	f := forest.New(forest.Config{NEstimators: 20, MaxDepth: 8, Seed: 25})
	if err := f.Fit(x, y, 3); err != nil {
		b.Fatal(err)
	}
	pool := x[:256]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ml.ProbaBatch(f, pool)
	}
}

func BenchmarkPoolScoringBatched(b *testing.B) {
	// The loop's current pool scorer: one batch pass, flat output matrix.
	x, y := benchMatrix(512, 32, 3, 24)
	f := forest.New(forest.Config{NEstimators: 20, MaxDepth: 8, Seed: 25})
	if err := f.Fit(x, y, 3); err != nil {
		b.Fatal(err)
	}
	pool := x[:256]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ml.ProbaBatchParallel(f, pool, 0)
	}
}

func BenchmarkSweepRunner(b *testing.B) {
	// Raw fan-out overhead of the shared bounded runner over trivial cells.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := runner.ForEach(64, 8, func(int) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Observability benchmarks --------------------------------------------
//
// The obs registry sits on every hot path above, so its own cost must be
// negligible. BenchmarkObsCounterInc is the acceptance gate: one counter
// increment well under 100ns. reportStages demonstrates that benchmark
// runs and server sessions share one snapshot surface: the pipeline-stage
// histograms populated by the artifact benchmarks are folded into the
// benchmark output as custom metrics.

func BenchmarkObsCounterInc(b *testing.B) {
	c := obs.NewRegistry().Counter(obs.Opts{
		Name: "bench_counter_total", Help: "bench", Unit: "events",
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkObsCounterIncParallel(b *testing.B) {
	c := obs.NewRegistry().Counter(obs.Opts{
		Name: "bench_counter_total", Help: "bench", Unit: "events",
	})
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkObsHistogramObserve(b *testing.B) {
	h := obs.NewRegistry().Histogram(obs.Opts{
		Name: "bench_seconds", Help: "bench", Unit: "seconds",
		Buckets: obs.LatencyBuckets,
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.00042)
	}
}

func BenchmarkObsCounterVecWith(b *testing.B) {
	v := obs.NewRegistry().CounterVec(obs.Opts{
		Name: "bench_labeled_total", Help: "bench", Unit: "events",
	}, "endpoint", "code")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.With("/api/next", "200").Inc()
	}
}

func BenchmarkObsSnapshot(b *testing.B) {
	// Snapshot cost over the real default registry, as /api/metrics pays it.
	for i := 0; i < b.N; i++ {
		obs.Default().Snapshot()
	}
}

// reportStages folds the pipeline-stage histograms accumulated in the
// default obs registry into a benchmark's output as custom metrics
// (mean seconds per operation), so `go test -bench` emits the same
// stage-level profile a chaos sweep or a server session exposes on
// /api/metrics.
func reportStages(b *testing.B, names ...string) {
	b.Helper()
	snap := obs.Default().Snapshot()
	for _, fam := range snap.Families {
		for _, want := range names {
			if fam.Name != want {
				continue
			}
			for _, s := range fam.Series {
				if s.Count == 0 {
					continue
				}
				unit := fam.Name
				for _, k := range []string{"strategy", "model"} {
					if v, ok := s.Labels[k]; ok {
						unit += "{" + k + "=" + v + "}"
					}
				}
				b.ReportMetric(s.Sum/float64(s.Count), unit+"/mean")
			}
		}
	}
}

func BenchmarkPipelineStageProfile(b *testing.B) {
	// One Tiny Table-V run per iteration; afterwards, report the mean
	// stage latencies the run left in the obs registry.
	cfg := benchCfg("volta")
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable5(cfg); err != nil {
			b.Fatal(err)
		}
	}
	reportStages(b, "ml_fit_seconds", "ml_predict_seconds",
		"active_query_seconds", "features_extract_seconds")
}
