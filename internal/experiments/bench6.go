// Bench6 is the reproducible fleet-scale ingest benchmark behind the
// committed BENCH_6.json: it measures the ISSUE 10 bulk path — the
// consistent-hash router, the allocation-free demux, bulk multi-node
// batches with back-pressure, and the incrementally maintained fleet
// rollup — and pins its correctness contracts (accounting identity
// under overload, bounded shed with a Retry-After hint, bitwise WAL
// recovery, shard-count-invariant rollup artifacts). verify.sh --deep
// re-runs the measurement and fails on regression.
//
// Like BENCH_7, every gated number is load-invariant: same-run
// bulk-vs-single speedups, steady-state allocation counts, and
// booleans. Absolute rows/s and latency percentiles are recorded for
// the report but never gated — they flake with host load.
package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"albadross/internal/fleet"
	"albadross/internal/loadgen"
	"albadross/internal/pipeline"
	"albadross/internal/server"
)

// Bench6Config sizes the fleet benchmark.
type Bench6Config struct {
	// Trials per load phase; the best trial is kept.
	Trials int
	// Seed drives the synthetic training data and traffic.
	Seed int64
	// Duration of each load phase per trial (default 1s).
	Duration time.Duration
	// NodeCounts is the scale ladder (default 16, 64, 256 nodes).
	NodeCounts []int
	// Shards is the server ingest worker count (default 4).
	Shards int
	// Concurrency is the client fleet per load phase (default 8).
	Concurrency int
	// RowsPerNode is the per-node reading count per bulk batch
	// (default 8).
	RowsPerNode int
}

// FleetDemuxBench pins the demux hot path: a warmed Demux splits a
// steady-state batch shape without allocating, at any batch size.
type FleetDemuxBench struct {
	SmallNodes int `json:"small_nodes"`
	SmallRows  int `json:"small_rows"`
	LargeNodes int `json:"large_nodes"`
	LargeRows  int `json:"large_rows"`
	// SmallAllocsPerOp / LargeAllocsPerOp are testing.AllocsPerRun over
	// warmed Split calls; the gate requires both to be zero.
	SmallAllocsPerOp float64 `json:"demux_small_allocs_per_op"`
	LargeAllocsPerOp float64 `json:"demux_large_allocs_per_op"`
	// NsPerRowLarge is the large-batch Split cost per row (recorded,
	// not gated).
	NsPerRowLarge float64 `json:"demux_ns_per_row_large"`
}

// FleetOverloadBench drives a deliberately undersized coordinator
// (slow predictions, queue depth 1) from concurrent offerers and pins
// how overload degrades: explicit bounded shed with accounting intact,
// never a stall or a leak.
type FleetOverloadBench struct {
	Offered  int64 `json:"offered"`
	Accepted int64 `json:"accepted"`
	Rejected int64 `json:"rejected"`
	Shed     int64 `json:"shed"`
	// AccountingIdentity: Offered == Accepted + Rejected + Shed after
	// the storm.
	AccountingIdentity bool `json:"accounting_identity"`
	// ShedBounded: the coordinator shed some rows AND accepted some —
	// partial degradation, not collapse in either direction.
	ShedBounded bool `json:"shed_bounded"`
	// RetryHinted: every shedding batch carried a positive Retry-After.
	RetryHinted bool `json:"retry_hinted"`
	// ClosedCleanly: Close returned within the deadline right after the
	// storm — no wedged worker, no deadlock.
	ClosedCleanly bool `json:"closed_cleanly"`
}

// FleetRecoveryBench restarts a journaled fleet server and compares
// rollup and per-node state across the restart.
type FleetRecoveryBench struct {
	NodesCompared int `json:"nodes_compared"`
	// TopKBitwise: /api/fleet/topk rendered byte-identical JSON before
	// and after recovery.
	TopKBitwise bool `json:"topk_bitwise"`
	// NodesBitwise: every node's chain accounting matched bitwise.
	NodesBitwise bool `json:"nodes_bitwise"`
}

// FleetRollupInvariance feeds the identical row sequence through two
// fleets with different worker counts and compares the rollup
// artifacts byte for byte — the router acceptance criterion.
type FleetRollupInvariance struct {
	ShardCounts []int `json:"shard_counts"`
	TopKBitwise bool  `json:"topk_bitwise"`
	AppsBitwise bool  `json:"apps_bitwise"`
}

// Bench6Report is the BENCH_6.json document.
type Bench6Report struct {
	SchemaVersion int `json:"schema_version"`
	GoMaxProcs    int `json:"gomaxprocs"`
	// Scale holds the single-row-vs-bulk load comparison at each node
	// count; the speedup gate reads the 64+-node entries.
	Scale    []loadgen.FleetLoadReport `json:"scale"`
	Demux    FleetDemuxBench           `json:"demux"`
	Overload FleetOverloadBench        `json:"overload"`
	Recovery FleetRecoveryBench        `json:"recovery"`
	Rollup   FleetRollupInvariance     `json:"rollup"`
}

// bench6Metrics matches the fleet bench server's schema width.
const bench6Metrics = loadgen.FleetMetrics

// bench6Rows builds a deterministic interleaved bulk batch: perNode
// readings per node starting at t0, round-robin across node ids
// 0..nodes-1. Every third node runs hot on the first metric (level 6
// vs 1 — the training problem's anomaly signature), so the rollup ranks
// a stable anomalous subset. Values are pure functions of (node, t):
// no clock, no shared rng, so every construction is bitwise identical.
func bench6Rows(nodes, t0, perNode int, apps bool) []fleet.Row {
	rows := make([]fleet.Row, 0, nodes*perNode)
	for r := 0; r < perNode; r++ {
		for n := 0; n < nodes; n++ {
			level := 1.0
			if n%3 == 1 {
				level = 6.0
			}
			t := t0 + r
			jitter := 0.01 * float64((n*31+t*7)%11)
			row := fleet.Row{
				Node: n, T: t,
				Values: fleet.Values{level + jitter, 1 + jitter/2, 0.5 + jitter/4},
			}
			if apps {
				row.App = [...]string{"BT", "LU", "SP"}[n%3]
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// runDemuxBench measures warmed Split allocations at two batch shapes.
func runDemuxBench() (FleetDemuxBench, error) {
	db := FleetDemuxBench{SmallNodes: 8, SmallRows: 4, LargeNodes: 256, LargeRows: 8}
	router, err := fleet.NewRouter(4)
	if err != nil {
		return db, err
	}
	d := fleet.NewDemux(router)
	small := bench6Rows(db.SmallNodes, 0, db.SmallRows, true)
	large := bench6Rows(db.LargeNodes, 0, db.LargeRows, true)
	// Warm the scratch past its growth phase: the gate pins steady
	// state, and a demux alternating between shapes must stay
	// allocation-free at both.
	for i := 0; i < 4; i++ {
		d.Split(small)
		d.Split(large)
	}
	db.SmallAllocsPerOp = testing.AllocsPerRun(50, func() { d.Split(small) })
	db.LargeAllocsPerOp = testing.AllocsPerRun(50, func() { d.Split(large) })
	bench := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d.Split(large)
		}
	})
	db.NsPerRowLarge = float64(bench.NsPerOp()) / float64(len(large))
	return db, nil
}

// bench6SlowPredict implements the chain predict stage with a fixed
// per-window stall, so a tiny queue fills under concurrent offers.
type bench6SlowPredict struct{ stall time.Duration }

func (p bench6SlowPredict) Predict(vec []float64) (string, float64, error) {
	time.Sleep(p.stall)
	if vec[0] > 3 {
		return "cpuoccupy", 0.9, nil
	}
	return "healthy", 0.8, nil
}

// bench6MeanFeatures renders a window into per-metric means.
type bench6MeanFeatures struct{ metrics int }

func (f bench6MeanFeatures) Vector(rows [][]float64) ([]float64, error) {
	out := make([]float64, f.metrics)
	for _, row := range rows {
		for m, v := range row {
			out[m] += v / float64(len(rows))
		}
	}
	return out, nil
}

// runOverloadBench storms an undersized coordinator and verifies that
// overload degrades by explicit partial accept.
func runOverloadBench() (FleetOverloadBench, error) {
	var ob FleetOverloadBench
	const window = 8
	c, err := fleet.NewCoordinator(fleet.Config{
		Shards: 2, QueueDepth: 1, Metrics: bench6Metrics,
		NewNode: func(node int, sink pipeline.Sink) (*fleet.NodeStream, error) {
			chain, err := pipeline.NewChain(pipeline.ChainConfig{
				Metrics:  bench6Metrics,
				Window:   window,
				Features: bench6MeanFeatures{metrics: bench6Metrics},
				Predict:  bench6SlowPredict{stall: 2 * time.Millisecond},
				Sink:     sink,
			})
			if err != nil {
				return nil, err
			}
			return &fleet.NodeStream{Chain: chain}, nil
		},
	})
	if err != nil {
		return ob, err
	}

	// 8 offerers, each driving its own node so per-node timestamps stay
	// monotone; every offer carries a full window, so every accepted
	// task pays the stalled prediction and the depth-1 queues fill.
	const offerers, offersEach = 8, 10
	retryHinted := true
	var hintMu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < offerers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < offersEach; i++ {
				rows := make([]fleet.Row, window)
				for r := range rows {
					rows[r] = fleet.Row{
						Node: g, T: i*window + r,
						Values: fleet.Values{1, 2, 3},
					}
				}
				res, err := c.Offer(rows)
				if err != nil {
					return // coordinator closed under us; counters still hold
				}
				if res.Shed > 0 && res.RetryAfter <= 0 {
					hintMu.Lock()
					retryHinted = false
					hintMu.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()

	st := c.Stats()
	ob.Offered, ob.Accepted, ob.Rejected, ob.Shed = st.Offered, st.Accepted, st.Rejected, st.Shed
	ob.AccountingIdentity = st.Offered == st.Accepted+st.Rejected+st.Shed
	ob.ShedBounded = st.Shed > 0 && st.Accepted > 0
	ob.RetryHinted = retryHinted && st.Shed > 0

	done := make(chan error, 1)
	go func() { done <- c.Close() }()
	select {
	case err := <-done:
		ob.ClosedCleanly = err == nil
	case <-time.After(30 * time.Second):
		return ob, fmt.Errorf("coordinator Close deadlocked after overload (stats %+v)", st)
	}
	return ob, nil
}

// bench6Get fetches one fleet endpoint's raw JSON.
func bench6Get(baseURL, path string) ([]byte, error) {
	resp, err := http.Get(baseURL + path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }() //albacheck:ignore errsilent read-only GET; close failure cannot corrupt the read bytes
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, raw)
	}
	return raw, nil
}

// bench6Post offers one bulk batch to a fleet server and fails on
// anything but full acceptance — the correctness benches feed well
// under capacity.
func bench6Post(baseURL string, rows []fleet.Row) error {
	raw, err := json.Marshal(server.BulkIngestRequest{Rows: rows})
	if err != nil {
		return err
	}
	resp, err := http.Post(baseURL+"/api/ingest/bulk", "application/json", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("bulk ingest: status %d: %s", resp.StatusCode, body)
	}
	var res server.BulkIngestResponse
	if err := json.Unmarshal(body, &res); err != nil {
		return err
	}
	if res.Accepted != res.Offered {
		return fmt.Errorf("bulk ingest under capacity accepted %d of %d rows: %s", res.Accepted, res.Offered, body)
	}
	return nil
}

// bench6NodesJSON snapshots a fleet server's per-node accounting with
// the WAL stats blanked: recovery replays the journal without
// rewriting it, but segment geometry is an implementation detail the
// bitwise gate should not pin.
func bench6NodesJSON(srv *server.Server) ([]byte, int, error) {
	nodes, err := srv.FleetNodes()
	if err != nil {
		return nil, 0, err
	}
	for i := range nodes {
		nodes[i].WAL = nil
	}
	raw, err := json.Marshal(nodes)
	return raw, len(nodes), err
}

// runRecoveryBench feeds a journaled fleet, snapshots its artifacts,
// restarts it from the WAL, and compares.
func runRecoveryBench(cfg Bench6Config) (FleetRecoveryBench, error) {
	var rb FleetRecoveryBench
	dir, err := os.MkdirTemp("", "bench6-wal-")
	if err != nil {
		return rb, err
	}
	defer func() { _ = os.RemoveAll(dir) }() //albacheck:ignore errsilent best-effort temp cleanup

	fcfg := server.FleetConfig{IngestConfig: server.IngestConfig{
		Shards: 3, WALDir: dir, WALSegmentBytes: 4 << 10,
	}}
	// App attribution travels on live rows only, never in the journal,
	// so the bitwise comparison feeds app-less rows — the one field
	// recovery legitimately cannot restore is then empty on both sides.
	snapshot := func(feed bool) (topk, nodes []byte, count int, err error) {
		srv, err := loadgen.NewFleetBenchServer(cfg.Seed, fcfg)
		if err != nil {
			return nil, nil, 0, err
		}
		defer srv.Close()
		hts := httptest.NewServer(srv.Handler())
		defer hts.Close()
		if feed {
			if err := bench6Post(hts.URL, bench6Rows(24, 0, 32, false)); err != nil {
				return nil, nil, 0, err
			}
		}
		if err := srv.FleetQuiesce(); err != nil {
			return nil, nil, 0, err
		}
		if topk, err = bench6Get(hts.URL, "/api/fleet/topk?k=64"); err != nil {
			return nil, nil, 0, err
		}
		nodes, count, err = bench6NodesJSON(srv)
		return topk, nodes, count, err
	}
	topk1, nodes1, count1, err := snapshot(true)
	if err != nil {
		return rb, fmt.Errorf("before restart: %w", err)
	}
	topk2, nodes2, count2, err := snapshot(false)
	if err != nil {
		return rb, fmt.Errorf("after restart: %w", err)
	}
	rb.NodesCompared = count1
	rb.TopKBitwise = bytes.Equal(topk1, topk2)
	rb.NodesBitwise = count1 == count2 && bytes.Equal(nodes1, nodes2)
	return rb, nil
}

// runRollupInvariance feeds the identical sequence through two worker
// geometries and compares the rollup artifacts byte for byte.
func runRollupInvariance(cfg Bench6Config) (FleetRollupInvariance, error) {
	ri := FleetRollupInvariance{ShardCounts: []int{3, 5}}
	artifacts := func(shards int) (topk, apps []byte, err error) {
		srv, err := loadgen.NewFleetBenchServer(cfg.Seed, server.FleetConfig{
			IngestConfig: server.IngestConfig{Shards: shards},
		})
		if err != nil {
			return nil, nil, err
		}
		defer srv.Close()
		hts := httptest.NewServer(srv.Handler())
		defer hts.Close()
		if err := bench6Post(hts.URL, bench6Rows(24, 0, 32, true)); err != nil {
			return nil, nil, err
		}
		if err := srv.FleetQuiesce(); err != nil {
			return nil, nil, err
		}
		if topk, err = bench6Get(hts.URL, "/api/fleet/topk?k=64"); err != nil {
			return nil, nil, err
		}
		apps, err = bench6Get(hts.URL, "/api/fleet/apps")
		return topk, apps, err
	}
	topkA, appsA, err := artifacts(ri.ShardCounts[0])
	if err != nil {
		return ri, fmt.Errorf("%d shards: %w", ri.ShardCounts[0], err)
	}
	topkB, appsB, err := artifacts(ri.ShardCounts[1])
	if err != nil {
		return ri, fmt.Errorf("%d shards: %w", ri.ShardCounts[1], err)
	}
	ri.TopKBitwise = bytes.Equal(topkA, topkB)
	ri.AppsBitwise = bytes.Equal(appsA, appsB)
	return ri, nil
}

// RunBench6 runs the full fleet benchmark and returns the report.
func RunBench6(cfg Bench6Config, gomaxprocs int, logf func(string, ...interface{})) (*Bench6Report, error) {
	if cfg.Trials <= 0 {
		cfg.Trials = 1
	}
	if cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}
	if len(cfg.NodeCounts) == 0 {
		cfg.NodeCounts = []int{16, 64, 256}
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 8
	}
	if cfg.RowsPerNode <= 0 {
		cfg.RowsPerNode = 8
	}
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}

	report := &Bench6Report{SchemaVersion: 1, GoMaxProcs: gomaxprocs}
	for _, n := range cfg.NodeCounts {
		rep, err := loadgen.FleetSelfcheck(loadgen.FleetSelfcheckConfig{
			Duration:    cfg.Duration,
			Trials:      cfg.Trials,
			Concurrency: cfg.Concurrency,
			Nodes:       n,
			Shards:      cfg.Shards,
			RowsPerNode: cfg.RowsPerNode,
			Seed:        cfg.Seed,
		}, logf)
		if err != nil {
			return nil, fmt.Errorf("scale %d nodes: %w", n, err)
		}
		report.Scale = append(report.Scale, *rep)
	}

	db, err := runDemuxBench()
	if err != nil {
		return nil, fmt.Errorf("demux bench: %w", err)
	}
	report.Demux = db
	logf("demux: %.1f allocs/op at %d nodes, %.1f at %d nodes, %.0f ns/row large",
		db.SmallAllocsPerOp, db.SmallNodes, db.LargeAllocsPerOp, db.LargeNodes, db.NsPerRowLarge)

	ob, err := runOverloadBench()
	if err != nil {
		return nil, fmt.Errorf("overload bench: %w", err)
	}
	report.Overload = ob
	logf("overload: offered %d accepted %d shed %d (identity %v, bounded %v, hinted %v, closed %v)",
		ob.Offered, ob.Accepted, ob.Shed, ob.AccountingIdentity, ob.ShedBounded, ob.RetryHinted, ob.ClosedCleanly)

	rb, err := runRecoveryBench(cfg)
	if err != nil {
		return nil, fmt.Errorf("recovery bench: %w", err)
	}
	report.Recovery = rb
	logf("recovery: %d nodes, topk bitwise %v, node accounting bitwise %v",
		rb.NodesCompared, rb.TopKBitwise, rb.NodesBitwise)

	ri, err := runRollupInvariance(cfg)
	if err != nil {
		return nil, fmt.Errorf("rollup invariance: %w", err)
	}
	report.Rollup = ri
	logf("rollup invariance %v shards: topk bitwise %v, apps bitwise %v",
		ri.ShardCounts, ri.TopKBitwise, ri.AppsBitwise)
	return report, nil
}

// LoadBench6 reads a committed BENCH_6.json.
func LoadBench6(path string) (*Bench6Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Bench6Report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// CompareBench6 checks a fresh report against the committed baseline
// and returns human-readable violations (empty when the run passes).
// minSpeedup is the ISSUE 10 acceptance bar: bulk-vs-single throughput
// at every 64+-node scale (default 2.0). The largest-scale speedup is
// additionally gated against the baseline's own ratio shrunk by
// tolerance, so a demux or queueing regression trips even above the
// absolute floor.
func CompareBench6(fresh, baseline *Bench6Report, tolerance, minSpeedup float64) []string {
	var bad []string
	for _, s := range fresh.Scale {
		if s.Nodes >= 64 && s.Speedup < minSpeedup {
			bad = append(bad, fmt.Sprintf(
				"bulk/single speedup %.2fx at %d nodes is below the %.2fx floor (bulk %.0f vs single %.0f rows/s)",
				s.Speedup, s.Nodes, minSpeedup, s.Bulk.RowsPerSec, s.Single.RowsPerSec))
		}
	}
	if n := len(fresh.Scale); n > 0 && len(baseline.Scale) > 0 {
		freshTop := fresh.Scale[n-1]
		baseTop := baseline.Scale[len(baseline.Scale)-1]
		if floor := baseTop.Speedup * (1 - tolerance); baseTop.Speedup > 0 && freshTop.Nodes == baseTop.Nodes && freshTop.Speedup < floor {
			bad = append(bad, fmt.Sprintf(
				"bulk/single speedup at %d nodes regressed: %.2fx vs baseline %.2fx (floor %.2fx)",
				freshTop.Nodes, freshTop.Speedup, baseTop.Speedup, floor))
		}
	}
	if fresh.Demux.SmallAllocsPerOp != 0 || fresh.Demux.LargeAllocsPerOp != 0 {
		bad = append(bad, fmt.Sprintf(
			"warmed demux Split allocates (%.1f allocs/op small, %.1f large), want 0 at both shapes",
			fresh.Demux.SmallAllocsPerOp, fresh.Demux.LargeAllocsPerOp))
	}
	if !fresh.Overload.AccountingIdentity {
		bad = append(bad, fmt.Sprintf(
			"overload accounting leaked: offered %d != accepted %d + rejected %d + shed %d",
			fresh.Overload.Offered, fresh.Overload.Accepted, fresh.Overload.Rejected, fresh.Overload.Shed))
	}
	if !fresh.Overload.ShedBounded {
		bad = append(bad, fmt.Sprintf(
			"overload did not degrade by partial accept (accepted %d, shed %d); the storm must shed some rows and accept others",
			fresh.Overload.Accepted, fresh.Overload.Shed))
	}
	if !fresh.Overload.RetryHinted {
		bad = append(bad, "a shedding batch returned without a positive Retry-After hint")
	}
	if !fresh.Overload.ClosedCleanly {
		bad = append(bad, "coordinator Close errored after the overload storm")
	}
	if !fresh.Recovery.TopKBitwise || !fresh.Recovery.NodesBitwise {
		bad = append(bad, fmt.Sprintf(
			"WAL recovery is not bitwise: topk %v, node accounting %v (%d nodes)",
			fresh.Recovery.TopKBitwise, fresh.Recovery.NodesBitwise, fresh.Recovery.NodesCompared))
	}
	if !fresh.Rollup.TopKBitwise || !fresh.Rollup.AppsBitwise {
		bad = append(bad, fmt.Sprintf(
			"rollup artifacts differ across %v shards: topk %v, apps %v",
			fresh.Rollup.ShardCounts, fresh.Rollup.TopKBitwise, fresh.Rollup.AppsBitwise))
	}
	return bad
}
