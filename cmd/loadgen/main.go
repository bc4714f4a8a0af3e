// Command loadgen drives a live albadross annotation server with
// synthetic traffic and reports throughput and latency percentiles as
// JSON. It has two modes:
//
//	loadgen -addr http://127.0.0.1:8080 -duration 10s -c 8 -rows 16
//
// posts feature vectors at /api/diagnose (feature width discovered via
// /api/schema), and
//
//	loadgen -addr http://127.0.0.1:8080 -fleet 128 -fleet-rows 8
//
// posts interleaved multi-node batches at POST /api/ingest/bulk on a
// fleet-mode server (per-node streams seeded deterministically, 429
// back-pressure folded into the accounting). Either mode exits non-zero
// when any request failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"albadross/internal/loadgen"
)

func main() {
	var (
		addr     = flag.String("addr", "", "base URL of the live server to drive")
		duration = flag.Duration("duration", 5*time.Second, "load duration")
		conc     = flag.Int("c", 8, "concurrent request loops")
		qps      = flag.Float64("qps", 0, "target aggregate request rate; 0 = closed loop (diagnose mode)")
		rows     = flag.Int("rows", 1, "feature vectors per request (diagnose mode)")
		seed     = flag.Int64("seed", 1, "seed for generated traffic")

		fleetNodes = flag.Int("fleet", 0, "drive bulk ingest across this many logical nodes instead of /api/diagnose")
		fleetRows  = flag.Int("fleet-rows", 8, "readings per node per bulk batch")
		fleetGroup = flag.Int("fleet-nodes-per-req", 0, "nodes interleaved per batch; 0 = all of a worker's nodes")
		fleetRetry = flag.Bool("fleet-honor-retry", false, "sleep out Retry-After advice after a 429 instead of hammering")
	)
	flag.Parse()

	if *addr == "" {
		fmt.Fprintln(os.Stderr, "loadgen: need -addr; see -h")
		os.Exit(2)
	}

	var res interface{}
	var failed int
	if *fleetNodes > 0 {
		fr, err := loadgen.Fleet(loadgen.FleetConfig{
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
		res, failed = fr, fr.Errors
	} else {
		dr, err := loadgen.Run(loadgen.Config{
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
		res, failed = dr, dr.Errors
	}
	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(raw))
	if failed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}
