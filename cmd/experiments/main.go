// Command experiments regenerates the paper's tables and figures on the
// synthetic telemetry substrate. Each artifact prints a human-readable
// summary to stdout and, with -out, writes the underlying series as CSV.
//
// Usage:
//
//	experiments -run fig3 [-scale compact] [-out results/]
//	experiments -run all -scale tiny
//
// Artifacts: table4, table5, fig3, fig4, fig5, fig6, fig7, fig8,
// ablation (the Sec. IV-E-1 feature-budget sweep), extensions (custom
// query strategies vs the paper's best), chaos (the telemetry
// fault-injection robustness matrix), lifecycle (the drift-aware
// model-lifecycle chaos scenario), or all.
// Figures 3/4/6/7/8 default to the Volta dataset and fig5 to Eclipse,
// matching the paper; tables run on the system given by -system.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"albadross/internal/experiments"
	"albadross/internal/obs"
)

// artifact couples an experiment id with its runner.
type artifact struct {
	name   string
	system string // default system
	run    func(cfg experiments.Config, scale experiments.Scale) (summarizer, error)
}

// summarizer is the common surface of every experiment result.
type summarizer interface {
	Summary() string
	WriteCSV(w io.Writer) error
}

func artifacts() []artifact {
	return []artifact{
		{"table4", "volta", func(cfg experiments.Config, sc experiments.Scale) (summarizer, error) {
			return experiments.RunTable4(cfg, sc)
		}},
		{"table5", "volta", func(cfg experiments.Config, sc experiments.Scale) (summarizer, error) {
			return experiments.RunTable5(cfg)
		}},
		{"fig3", "volta", func(cfg experiments.Config, sc experiments.Scale) (summarizer, error) {
			return experiments.RunCurves(cfg)
		}},
		{"fig4", "volta", func(cfg experiments.Config, sc experiments.Scale) (summarizer, error) {
			return experiments.RunDrilldown(cfg, 50)
		}},
		{"fig5", "eclipse", func(cfg experiments.Config, sc experiments.Scale) (summarizer, error) {
			return experiments.RunCurves(cfg)
		}},
		{"fig6", "volta", func(cfg experiments.Config, sc experiments.Scale) (summarizer, error) {
			return experiments.RunUnseenApps(cfg)
		}},
		{"fig7", "volta", func(cfg experiments.Config, sc experiments.Scale) (summarizer, error) {
			return experiments.RunFig7(cfg)
		}},
		{"fig8", "volta", func(cfg experiments.Config, sc experiments.Scale) (summarizer, error) {
			return experiments.RunUnseenInputs(cfg)
		}},
		{"ablation", "volta", func(cfg experiments.Config, sc experiments.Scale) (summarizer, error) {
			return experiments.RunAblation(cfg, sc)
		}},
		{"extensions", "volta", func(cfg experiments.Config, sc experiments.Scale) (summarizer, error) {
			return experiments.RunExtensions(cfg)
		}},
		{"chaos", "volta", func(cfg experiments.Config, sc experiments.Scale) (summarizer, error) {
			return experiments.RunChaosMatrix(cfg, experiments.ChaosDefaults(sc))
		}},
		{"lifecycle", "volta", func(cfg experiments.Config, sc experiments.Scale) (summarizer, error) {
			return experiments.RunLifecycle(cfg, experiments.LifecycleDefaults(sc))
		}},
	}
}

func main() {
	var (
		runFlag   = flag.String("run", "", "artifact to regenerate: table4, table5, fig3..fig8, or all")
		scaleFlag = flag.String("scale", "compact", "sizing preset: tiny, compact, paper")
		system    = flag.String("system", "", "override the artifact's default system (volta or eclipse)")
		extractor = flag.String("extractor", "", "override the feature extractor (mvts or tsfresh)")
		outDir    = flag.String("out", "", "directory for CSV output (optional)")
		seed      = flag.Int64("seed", 1, "random seed")
		queries   = flag.Int("queries", 0, "override the query budget")
		splits    = flag.Int("splits", 0, "override the number of train/test splits")
		workers   = flag.Int("workers", 0, "parallelism (0 = all cores)")
		plot      = flag.Bool("plot", false, "render ASCII charts for curve artifacts")
		metrics   = flag.Bool("metrics", false, "print the obs registry (Prometheus text) after the run: per-stage latencies and counters (see docs/OBSERVABILITY.md)")

		bench      = flag.Bool("bench", false, "run the sweep/AL/GBM benchmark (BENCH_5.json) instead of an artifact")
		benchOut   = flag.String("bench-out", "", "write the benchmark report (BENCH_5.json) here")
		benchBase  = flag.String("bench-baseline", "", "compare the benchmark report against this committed baseline")
		benchTol   = flag.Float64("bench-tolerance", 0.20, "allowed fractional regression vs the baseline")
		benchSpeed = flag.Float64("bench-min-speedup", 2.5, "required sweep speedup at full parallelism (scaled down on hosts with fewer cores)")
		benchTry   = flag.Int("bench-trials", 1, "trials per sweep configuration; best is reported")

		bench7      = flag.Bool("bench7", false, "run the raw-speed benchmark (BENCH_7.json): flat SoA batch inference")
		bench7Out   = flag.String("bench7-out", "", "write the raw-speed report (BENCH_7.json) here")
		bench7Base  = flag.String("bench7-baseline", "", "compare the raw-speed report against this committed baseline")
		bench7Speed = flag.Float64("bench7-min-speedup", 3.0, "required forest flat-vs-pointer batch speedup (same-run ratio)")
		markdown    = flag.Bool("markdown", false, "print the BENCH_4 -> BENCH_7 performance-trajectory table (README format); reads committed BENCH_*.json from the working directory, or the fresh report with -bench7")

		bench6      = flag.Bool("bench6", false, "run the fleet-scale ingest benchmark (BENCH_6.json): bulk multi-node batches, back-pressure, rollup invariance")
		bench6Out   = flag.String("bench6-out", "", "write the fleet report (BENCH_6.json) here")
		bench6Base  = flag.String("bench6-baseline", "", "compare the fleet report against this committed baseline")
		bench6Speed = flag.Float64("bench6-min-speedup", 2.0, "required bulk-vs-single ingest speedup at 64+ nodes (same-run ratio)")
		bench6Dur   = flag.Duration("bench6-duration", time.Second, "fleet load-phase duration per trial")
	)
	flag.Parse()
	if *bench6 {
		runBench6(*bench6Out, *bench6Base, *benchTol, *bench6Speed, *benchTry, *seed, *bench6Dur)
		return
	}
	if *bench7 {
		runBench7(*bench7Out, *bench7Base, *benchTol, *bench7Speed, *seed, *markdown)
		return
	}
	if *bench {
		runBench(*benchOut, *benchBase, *benchTol, *benchSpeed, *benchTry, *seed, *workers)
		if *markdown {
			printTrajectory(nil)
		}
		return
	}
	if *markdown {
		printTrajectory(nil)
		return
	}
	if *runFlag == "" {
		flag.Usage()
		os.Exit(2)
	}
	scale, err := experiments.ParseScale(*scaleFlag)
	if err != nil {
		fatal(err)
	}
	var selected []artifact
	for _, a := range artifacts() {
		if *runFlag == "all" || *runFlag == a.name {
			selected = append(selected, a)
		}
	}
	if len(selected) == 0 {
		fatal(fmt.Errorf("unknown artifact %q", *runFlag))
	}
	for _, a := range selected {
		sys := a.system
		if *system != "" {
			sys = *system
		}
		cfg := experiments.Default(sys, scale)
		cfg.Seed = *seed
		cfg.Workers = *workers
		if *extractor != "" {
			cfg.Extractor = *extractor
		}
		if *queries > 0 {
			cfg.MaxQueries = *queries
		}
		if *splits > 0 {
			cfg.Splits = *splits
		}
		fmt.Printf("== %s (%s, %s scale) ==\n", a.name, sys, *scaleFlag)
		start := time.Now()
		res, err := a.run(cfg, scale)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", a.name, err))
		}
		fmt.Println(res.Summary())
		if *plot {
			if p, ok := res.(interface{ Plot() string }); ok {
				fmt.Println(p.Plot())
			}
		}
		fmt.Printf("   [%s in %s]\n\n", a.name, time.Since(start).Round(time.Millisecond))
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				fatal(err)
			}
			path := filepath.Join(*outDir, a.name+".csv")
			f, err := os.Create(path)
			if err != nil {
				fatal(err)
			}
			if err := res.WriteCSV(f); err != nil {
				if cerr := f.Close(); cerr != nil {
					fmt.Fprintln(os.Stderr, "experiments: close:", cerr)
				}
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("   wrote %s\n\n", path)
		}
	}
	if *metrics {
		// The same snapshot the annotation server serves on /api/metrics
		// and bench_test.go summarizes — stage-level profiles of this run.
		fmt.Println("== metrics (obs registry, Prometheus text exposition) ==")
		if err := obs.Default().WritePrometheus(os.Stdout); err != nil {
			fatal(err)
		}
	}
}

// runBench runs the experiment-engine benchmark (committed as
// BENCH_5.json; verify.sh --deep runs the comparison form).
func runBench(out, baseline string, tolerance, minSpeedup float64, trials int, seed int64, workers int) {
	logf := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
	}
	report, err := experiments.RunBench5(experiments.Bench5Config{
		Workers: workers,
		Trials:  trials,
		Seed:    seed,
	}, runtime.GOMAXPROCS(0), logf)
	if err != nil {
		fatal(err)
	}
	raw, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatal(err)
	}
	if out != "" {
		if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
			fatal(err)
		}
		logf("wrote %s", out)
	}
	if baseline != "" {
		base, err := experiments.LoadBench5(baseline)
		if err != nil {
			fatal(err)
		}
		if bad := experiments.CompareBench5(report, base, tolerance, minSpeedup); len(bad) > 0 {
			for _, b := range bad {
				fmt.Fprintln(os.Stderr, "experiments: FAIL:", b)
			}
			os.Exit(1)
		}
		logf("within %.0f%% of baseline, sweep %.2fx at %d workers (gomaxprocs %d)",
			tolerance*100, report.Sweep.Speedup, report.Sweep.Workers, report.GoMaxProcs)
	}
	if out == "" && baseline == "" {
		fmt.Println(string(raw))
	}
}

// runBench7 runs the raw-speed benchmark (committed as BENCH_7.json;
// verify.sh --deep runs the comparison form).
func runBench7(out, baseline string, tolerance, minSpeedup float64, seed int64, markdown bool) {
	logf := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
	}
	report, err := experiments.RunBench7(seed, runtime.GOMAXPROCS(0), logf)
	if err != nil {
		fatal(err)
	}
	raw, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatal(err)
	}
	if out != "" {
		if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
			fatal(err)
		}
		logf("wrote %s", out)
	}
	if baseline != "" {
		base, err := experiments.LoadBench7(baseline)
		if err != nil {
			fatal(err)
		}
		if bad := experiments.CompareBench7(report, base, tolerance, minSpeedup); len(bad) > 0 {
			for _, b := range bad {
				fmt.Fprintln(os.Stderr, "experiments: FAIL:", b)
			}
			os.Exit(1)
		}
		logf("forest flat batch %.2fx (floor %.2fx), gbm %.2fx (gomaxprocs %d)",
			report.Forest.Speedup, minSpeedup, report.GBM.Speedup, report.GoMaxProcs)
	}
	if markdown {
		printTrajectory(report)
		return
	}
	if out == "" && baseline == "" {
		fmt.Println(string(raw))
	}
}

// runBench6 runs the fleet-scale ingest benchmark (committed as
// BENCH_6.json; verify.sh --deep runs the comparison form).
func runBench6(out, baseline string, tolerance, minSpeedup float64, trials int, seed int64, duration time.Duration) {
	logf := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
	}
	report, err := experiments.RunBench6(experiments.Bench6Config{
		Trials:   trials,
		Seed:     seed,
		Duration: duration,
	}, runtime.GOMAXPROCS(0), logf)
	if err != nil {
		fatal(err)
	}
	raw, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatal(err)
	}
	if out != "" {
		if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
			fatal(err)
		}
		logf("wrote %s", out)
	}
	if baseline != "" {
		base, err := experiments.LoadBench6(baseline)
		if err != nil {
			fatal(err)
		}
		if bad := experiments.CompareBench6(report, base, tolerance, minSpeedup); len(bad) > 0 {
			for _, b := range bad {
				fmt.Fprintln(os.Stderr, "experiments: FAIL:", b)
			}
			os.Exit(1)
		}
		top := report.Scale[len(report.Scale)-1]
		logf("bulk/single %.2fx at %d nodes (floor %.2fx), demux 0-alloc %v, overload bounded %v, recovery bitwise %v, rollup invariant %v",
			top.Speedup, top.Nodes, minSpeedup,
			report.Demux.SmallAllocsPerOp == 0 && report.Demux.LargeAllocsPerOp == 0,
			report.Overload.ShedBounded, report.Recovery.TopKBitwise && report.Recovery.NodesBitwise,
			report.Rollup.TopKBitwise && report.Rollup.AppsBitwise)
	}
	if out == "" && baseline == "" {
		fmt.Println(string(raw))
	}
}

// printTrajectory renders the README performance-trajectory table from
// the committed BENCH_4.json plus either a fresh BENCH_7 report or the
// committed BENCH_7.json in the working directory; the BENCH_6 row is
// included when BENCH_6.json is present.
func printTrajectory(fresh *experiments.Bench7Report) {
	if fresh == nil {
		loaded, err := experiments.LoadBench7("BENCH_7.json")
		if err != nil {
			fatal(fmt.Errorf("trajectory table needs BENCH_7.json in the working directory (or -bench7): %w", err))
		}
		fresh = loaded
	}
	b6, err := experiments.LoadBench6("BENCH_6.json")
	if err != nil {
		b6 = nil // committed fleet report is optional for the table
	}
	table, err := experiments.TrajectoryMarkdown("BENCH_4.json", fresh, b6)
	if err != nil {
		fatal(err)
	}
	fmt.Print(table)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", strings.TrimSpace(err.Error()))
	os.Exit(1)
}
