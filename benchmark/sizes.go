package main

import "fmt"

// refSeconds is the run length the fixed-work lengths below were sized
// for; a traced run scales them linearly with -seconds so its counts
// repeat exactly for a given -seconds.
const refSeconds = 10

// sizes is one workload's geometry and run lengths — the single table
// to edit when the benchmark has to fit a different time cap. Fields a
// workload does not use stay zero.
type sizes struct {
	// Training campaign behind the served model.
	system  string // "eclipse" or "volta"
	metrics int    // telemetry.BuildSchema floors this at 27
	apps    int    // leading catalog applications kept
	runs    int    // runs per (application, input deck)
	steps   int    // samples per run
	topK    int    // chi-square feature budget
	trees   int    // forest size (depth 8, entropy, as `serve`)

	// Fleet ingest geometry.
	nodes      int
	perRequest int // nodes per bulk request, one row each
	window     int
	stride     int
	wal        bool
	cycle      int     // pre-encoded ticks per node; traffic repeats after this
	pacedRate  float64 // open-loop aggregate rows/s
	pacedTicks int     // open-loop requests per node group (traced run)
	traceTicks int     // ticks of the live-then-replayed slice at refSeconds

	// diagnose_batch.
	batchRows int // vectors per request
	bodies    int // distinct pre-encoded bodies

	// annotate_loop.
	traceLabels int // labels of the traced run at refSeconds

	// tail is the percentile latency_tail_ms reports; fixed per workload
	// so runs compare, and low enough that the measured phase always
	// leaves at least ten samples beyond it.
	tail float64
	// op names what ops_per_s and cpu_us_per_op count.
	op string
	// systemNodes scales cpu_us_per_op to the whole machine at 1 Hz.
	systemNodes int
}

// workloadNames fixes the order workloads run and print in.
var workloadNames = []string{"eclipse_1hz", "volta_dense", "diagnose_batch", "annotate_loop"}

// table holds the committed sizes, chosen for a shared 2-core box:
// 2 fleet shards, 2 client connections, one generator process.
var table = map[string]sizes{
	// 128 of Eclipse's 1488 nodes at full metric width. 64 nodes per
	// request with window phases staggered over all 64 residues means
	// every request completes exactly one tumbling window, so request
	// latency is unimodal.
	"eclipse_1hz": {
		system: "eclipse", metrics: 806, apps: 2, runs: 10, steps: 40, topK: 2000, trees: 20,
		nodes: 128, perRequest: 64, window: 64, stride: 64, wal: true, cycle: 16,
		pacedRate: 1488, pacedTicks: 24, traceTicks: 48,
		tail: 0.95, op: "row", systemNodes: 1488,
	},
	// Volta whole. Stride 8 emits eight times the windows per row and
	// the WAL is off, so the per-window layers dominate.
	"volta_dense": {
		system: "volta", metrics: 721, apps: 2, runs: 10, steps: 40, topK: 2000, trees: 20,
		nodes: 52, perRequest: 26, window: 64, stride: 8, wal: false, cycle: 16,
		pacedRate: 520, pacedTicks: 40, traceTicks: 96,
		tail: 0.95, op: "row", systemNodes: 52,
	},
	"diagnose_batch": {
		system: "eclipse", metrics: 806, apps: 2, runs: 10, steps: 40, topK: 2000, trees: 20,
		batchRows: 64, bodies: 4, traceTicks: 128,
		tail: 0.95, op: "vector",
	},
	// The paper's own loop on the Compact campaign, shortened from 24
	// to 10 runs per app-input to keep set-up near a second.
	"annotate_loop": {
		system: "volta", metrics: 54, apps: 11, runs: 10, steps: 150, topK: 2000, trees: 20,
		traceLabels: 96,
		tail:        0.90, op: "label",
	},
}

// lookup returns a workload's committed sizes.
func lookup(name string) (sizes, error) {
	sz, ok := table[name]
	if !ok {
		return sizes{}, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	return sz, nil
}

// scaled returns a refSeconds-sized length scaled to the requested run
// length, never below one.
func scaled(n int, seconds float64) int {
	v := int(float64(n) * seconds / refSeconds)
	if v < 1 {
		v = 1
	}
	return v
}
