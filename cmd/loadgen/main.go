// Command loadgen drives an albadross annotation server's
// /api/diagnose endpoint with synthetic traffic and reports throughput
// and latency percentiles. It has two modes:
//
//	loadgen -addr http://127.0.0.1:8080 -duration 10s -c 8 -rows 16
//
// targets a live server (feature width discovered via /api/schema), and
//
//	loadgen -selfcheck [-out BENCH_4.json] [-baseline BENCH_4.json]
//
// runs the fully self-contained serving benchmark: it builds the
// synthetic dataset, starts the real server in-process, measures bulk
// {"batch": …} request throughput plus the model-level micro numbers,
// and either writes the report or compares it with a committed baseline
// (non-zero exit on regression). verify.sh --deep runs the comparison
// form.
//
// A third mode drives fleet-scale bulk ingest instead of diagnosis:
//
//	loadgen -addr http://127.0.0.1:8080 -fleet 128 -fleet-rows 8
//
// posts interleaved multi-node batches at POST /api/ingest/bulk on a
// live fleet-mode server (per-node streams seeded deterministically,
// 429 back-pressure folded into the accounting), and
//
//	loadgen -fleet 128 -fleet-selfcheck [-out fleet_load.json]
//
// runs the in-process single-row-vs-bulk fleet comparison that backs
// the BENCH_6 load phases.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"albadross/internal/loadgen"
)

func main() {
	var (
		addr      = flag.String("addr", "", "base URL of a live server to drive (live mode)")
		duration  = flag.Duration("duration", 5*time.Second, "load duration (per trial in selfcheck mode)")
		conc      = flag.Int("c", 8, "concurrent request loops")
		qps       = flag.Float64("qps", 0, "target aggregate request rate; 0 = closed loop (live mode)")
		rows      = flag.Int("rows", 1, "feature vectors per request (live mode; selfcheck uses -selfcheck-rows)")
		seed      = flag.Int64("seed", 1, "seed for generated traffic")
		selfcheck = flag.Bool("selfcheck", false, "run the in-process serving benchmark")
		scRows    = flag.Int("selfcheck-rows", 64, "rows per request in selfcheck mode")
		trials    = flag.Int("trials", 1, "selfcheck trials; best is reported")
		out       = flag.String("out", "", "write the selfcheck report (BENCH_4.json) here")
		baseline  = flag.String("baseline", "", "compare the selfcheck report against this committed baseline")
		tolerance = flag.Float64("tolerance", 0.20, "allowed fractional regression vs the baseline")
		quiet     = flag.Bool("q", false, "suppress progress logging")

		fleetNodes  = flag.Int("fleet", 0, "drive bulk ingest across this many logical nodes instead of /api/diagnose")
		fleetRows   = flag.Int("fleet-rows", 8, "readings per node per bulk batch")
		fleetGroup  = flag.Int("fleet-nodes-per-req", 0, "nodes interleaved per batch; 0 = all of a worker's nodes")
		fleetRetry  = flag.Bool("fleet-honor-retry", false, "sleep out Retry-After advice after a 429 instead of hammering")
		fleetSelf   = flag.Bool("fleet-selfcheck", false, "run the in-process single-row-vs-bulk fleet benchmark")
		fleetShards = flag.Int("fleet-shards", 4, "server ingest workers in fleet selfcheck mode")
	)
	flag.Parse()

	logf := func(format string, args ...interface{}) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "loadgen: "+format+"\n", args...)
		}
	}

	if *fleetSelf {
		report, err := loadgen.FleetSelfcheck(loadgen.FleetSelfcheckConfig{
			Duration:    *duration,
			Trials:      *trials,
			Concurrency: *conc,
			Nodes:       *fleetNodes,
			Shards:      *fleetShards,
			RowsPerNode: *fleetRows,
			Seed:        *seed,
		}, logf)
		if err != nil {
			fatal(err)
		}
		if *out != "" {
			writeJSON(*out, report)
			logf("wrote %s", *out)
		} else {
			emit(report)
		}
		return
	}

	if *fleetNodes > 0 {
		if *addr == "" {
			fmt.Fprintln(os.Stderr, "loadgen: -fleet live mode needs -addr (or add -fleet-selfcheck); see -h")
			os.Exit(2)
		}
		res, err := loadgen.Fleet(loadgen.FleetConfig{
			BaseURL:         *addr,
			Duration:        *duration,
			Concurrency:     *conc,
			Nodes:           *fleetNodes,
			RowsPerNode:     *fleetRows,
			NodesPerRequest: *fleetGroup,
			Seed:            *seed,
			HonorRetry:      *fleetRetry,
		})
		if err != nil {
			fatal(err)
		}
		emit(res)
		if res.Errors > 0 {
			os.Exit(1)
		}
		return
	}

	if *selfcheck {
		report, err := loadgen.Selfcheck(loadgen.SelfcheckConfig{
			Duration:    *duration,
			Trials:      *trials,
			Concurrency: *conc,
			Rows:        *scRows,
			Seed:        *seed,
		}, runtime.GOMAXPROCS(0), logf)
		if err != nil {
			fatal(err)
		}
		if *out != "" {
			writeJSON(*out, report)
			logf("wrote %s", *out)
		}
		if *baseline != "" {
			base, err := loadgen.LoadReport(*baseline)
			if err != nil {
				fatal(err)
			}
			if bad := loadgen.Compare(report, base, *tolerance); len(bad) > 0 {
				for _, b := range bad {
					fmt.Fprintln(os.Stderr, "loadgen: FAIL:", b)
				}
				os.Exit(1)
			}
			logf("within %.0f%% of baseline", *tolerance*100)
		}
		if *out == "" && *baseline == "" {
			emit(report)
		}
		return
	}

	if *addr == "" {
		fmt.Fprintln(os.Stderr, "loadgen: need -addr (live mode) or -selfcheck; see -h")
		os.Exit(2)
	}
	res, err := loadgen.Run(loadgen.Config{
		BaseURL:     *addr,
		Duration:    *duration,
		Concurrency: *conc,
		QPS:         *qps,
		Rows:        *rows,
		Seed:        *seed,
	})
	if err != nil {
		fatal(err)
	}
	emit(res)
	if res.Errors > 0 {
		os.Exit(1)
	}
}

// writeJSON persists a report as indented JSON, fatal on failure.
func writeJSON(path string, v interface{}) {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		fatal(err)
	}
}

// emit prints a report as indented JSON on stdout.
func emit(v interface{}) {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(raw))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}
