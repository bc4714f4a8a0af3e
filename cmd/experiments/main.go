// Command experiments regenerates the paper's tables and figures on the
// synthetic telemetry substrate. Each artifact prints a human-readable
// summary to stdout and, with -out, writes the underlying series as CSV.
//
// Usage:
//
//	experiments -run fig3 [-scale compact] [-out results/]
//	experiments -run all -scale tiny
//	experiments -run claims [-seed 1] [-out results/]
//
// Artifacts: table4, table5, fig3, fig4, fig5, fig6, fig7, fig8,
// ablation (the Sec. IV-E-1 feature-budget sweep), extensions (custom
// query strategies vs the paper's best), chaos (the telemetry
// fault-injection robustness matrix), lifecycle (the drift-aware
// model-lifecycle chaos scenario), or all. claims, which all leaves
// out, reruns Figs. 3, 5, 6, 8 and Table V on both systems over five
// seeds from -seed and judges each paper claim on them.
// Figures 3/4/6/7/8 default to the Volta dataset and fig5 to Eclipse,
// matching the paper; tables run on the system given by -system.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
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
		{"claims", "both", func(cfg experiments.Config, sc experiments.Scale) (summarizer, error) {
			return experiments.RunClaims(cfg, sc)
		}},
	}
}

func main() {
	var (
		runFlag   = flag.String("run", "", "artifact to regenerate: table4, table5, fig3..fig8, claims, or all")
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
	)
	flag.Parse()
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
		// claims reruns the other artifacts five times over: all skips it.
		if (*runFlag == "all" && a.name != "claims") || *runFlag == a.name {
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", strings.TrimSpace(err.Error()))
	os.Exit(1)
}
