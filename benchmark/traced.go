package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"albadross/internal/active"
	"albadross/internal/features"
	"albadross/internal/features/mvts"
	"albadross/internal/fleet"
	"albadross/internal/ml"
	"albadross/internal/pipeline"
	"albadross/internal/server"
	"albadross/internal/stream"
	"albadross/internal/wal"
)

// layerUnits names every per-layer metric and its unit; BENCHMARK.json
// lists the same set. A traced pass prints all of them, zero for the
// layers its workload bypasses. Every *_ns_per_value metric of the
// ingest workloads divides by the same count — raw telemetry values
// ingested — so they add up to a per-value budget.
var layerUnits = map[string]string{
	"server.decode_ns_per_value":     "ns",
	"server.encode_ns_per_value":     "ns",
	"server.wire_bytes_per_value":    "B",
	"server.predict_us_per_window":   "us",
	"server.predict_rows_per_call":   "count",
	"server.next_p50_ms":             "ms",
	"server.label_p50_ms":            "ms",
	"fleet.demux_ns_per_value":       "ns",
	"fleet.rollup_ns_per_window":     "ns",
	"fleet.topk_p50_ms":              "ms",
	"fleet.apps_p50_ms":              "ms",
	"fleet.shard_skew":               "ratio",
	"wal.append_ns_per_value":        "ns",
	"wal.sync_ns_per_value":          "ns",
	"wal.syncs_per_row":              "count",
	"wal.bytes_per_value":            "B",
	"pipeline.replay_ns_per_value":   "ns",
	"pipeline.windows":               "count",
	"pipeline.abstained":             "count",
	"stream.window_ns_per_value":     "ns",
	"stream.gap_filled":              "count",
	"features.extract_us_per_window": "us",
	"features.extract_ns_per_value":  "ns",
	"features.sanitize_ns_per_value": "ns",
	"core.transform_us_per_window":   "us",
	"ml.predict1_ns_per_row":         "ns",
	"ml.predict64_ns_per_row":        "ns",
	"ml.fit_ms":                      "ms",
	"active.pool_score_ns_per_row":   "ns",
	"active.query_sequence_hash":     "hash",
	"runtime.allocs_per_op":          "count",
	"runtime.alloc_bytes_per_op":     "B",
	"runtime.gc_cpu_share":           "ratio",
	"runtime.peak_rss_mb":            "MB",
	"runtime.gomaxprocs":             "count",
	"loadgen.paced_p50_ms":           "ms",
	"loadgen.paced_p90_ms":           "ms",
	"loadgen.paced_late_max_ms":      "ms",
	"trace.coverage":                 "ratio",
	"trace.replay_rows_per_s":        "1/s",
	"trace.replay_vs_live_ratio":     "ratio",
}

// layers collects a traced pass's measurements by metric name.
type layers map[string]float64

// runTraced runs one workload's traced pass and shapes its output.
func runTraced(name string, sz sizes, seed int64, seconds float64, rec *recorder, tmp string) (*result, error) {
	var (
		out layers
		ph  phase
		err error
	)
	switch name {
	case "diagnose_batch":
		out, ph, err = traceDiagnose(sz, seed, seconds, rec)
	case "annotate_loop":
		out, ph, err = traceAnnotate(sz, seed, seconds, rec)
	default:
		out, ph, err = traceIngest(sz, seed, seconds, rec, tmp)
	}
	if out == nil {
		return nil, err
	}
	cause := errors.Join(ph.firstErr, err)
	if cause != nil {
		fmt.Fprintln(os.Stderr, "benchmark: FAILED:", cause)
	}
	out["runtime.peak_rss_mb"] = peakRSSMB()
	out["runtime.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	res := &result{
		Correct:   cause == nil && ph.failed() == 0 && ph.ok > 0,
		Attempted: max(ph.tried, 1),
		Failed:    ph.failed(),
		Metrics:   map[string]metric{},
		cause:     cause,
	}
	for name, unit := range layerUnits {
		res.Metrics[name] = metric{out[name], unit}
	}
	for name := range out {
		if _, ok := layerUnits[name]; !ok {
			return nil, fmt.Errorf("traced pass produced unlisted metric %q", name)
		}
	}
	return res, nil
}

// runtimeSnap is the allocator and collector state at one instant.
type runtimeSnap struct {
	mallocs, bytes uint64
	gcCPU          float64 // seconds
}

func readRuntime() runtimeSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	snap := runtimeSnap{mallocs: m.Mallocs, bytes: m.TotalAlloc}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		snap.gcCPU = s[0].Value.Float64()
	}
	return snap
}

// measured runs a live phase between two runtime snapshots and records
// the allocator's and collector's share of it.
func (out layers) measured(run func() phase) phase {
	runtime.GC()
	before := readRuntime()
	ph := run()
	after := readRuntime()
	ops := math.Max(float64(ph.ok), 1)
	out["runtime.allocs_per_op"] = float64(after.mallocs-before.mallocs) / ops
	out["runtime.alloc_bytes_per_op"] = float64(after.bytes-before.bytes) / ops
	if ph.cpu > 0 {
		out["runtime.gc_cpu_share"] = (after.gcCPU - before.gcCPU) / ph.cpu.Seconds()
	}
	return ph
}

// budget fills the trace.* metrics and the per-value and per-window
// layer costs from the recorded spans. values is the denominator of
// the *_ns_per_value metrics, windows that of the *_per_window ones.
func (out layers) budget(spans []span, ops, values, windows int, live phase) {
	self, count := selfTimes(spans)
	var wall int64 // all self times together: the requests' durations
	for _, ns := range self {
		wall += ns
	}
	perValue := map[string]string{
		"server.decode":     "server.decode_ns_per_value",
		"server.encode":     "server.encode_ns_per_value",
		"fleet.demux":       "fleet.demux_ns_per_value",
		"wal.append":        "wal.append_ns_per_value",
		"wal.sync":          "wal.sync_ns_per_value",
		"stream.window":     "stream.window_ns_per_value",
		"features.extract":  "features.extract_ns_per_value",
		"features.sanitize": "features.sanitize_ns_per_value",
	}
	for spanName, metricName := range perValue {
		out[metricName] = float64(self[spanName]) / math.Max(float64(values), 1)
	}
	w := math.Max(float64(windows), 1)
	out["features.extract_us_per_window"] = float64(self["features.extract"]) / 1e3 / w
	out["core.transform_us_per_window"] = float64(self["core.transform"]) / 1e3 / w
	out["server.predict_us_per_window"] = float64(self["server.predict"]) / 1e3 / w
	out["fleet.rollup_ns_per_window"] = float64(self["fleet.rollup"]) / w
	if n := count["wal.sync"]; n > 0 {
		out["wal.syncs_per_row"] = float64(n) / float64(ops)
	}
	out["trace.coverage"] = 1 - float64(self["request"])/float64(wall)
	out["trace.replay_rows_per_s"] = float64(ops) / (float64(wall) / 1e9)
	replayUs := float64(wall) / 1e3 / float64(ops)
	liveUs := float64(live.cpu) / 1e3 / math.Max(float64(live.ok), 1)
	out["trace.replay_vs_live_ratio"] = replayUs / liveUs
}

// errImplausible marks a replay that did the right work but whose
// timing cannot stand in for the live server's.
var errImplausible = errors.New("traced pass is not a plausible account of the live pass")

// validate rejects a replay whose spans do not account for its time or
// whose cost per op is far from the live server's CPU per op — either
// means the per-layer numbers describe something else.
func (out layers) validate() error {
	if c := out["trace.coverage"]; c < 0.95 {
		return fmt.Errorf("%w: spans cover %.3f of the replay, need 0.95", errImplausible, c)
	}
	if r := out["trace.replay_vs_live_ratio"]; r < 0.5 || r > 2 {
		return fmt.Errorf("%w: replay time per op is %.2f of live CPU per op, outside [0.5, 2]", errImplausible, r)
	}
	return nil
}

// mlDirect times the ml layer on its own: one forest fit on the
// server's initial training set, then flat predict one row at a time
// and in batches of 64, through the same entry point the server uses.
// It returns the fitted model.
func (out layers) mlDirect(r *rig, rec *recorder) (ml.Classifier, error) {
	x, y := r.trainingSet()
	m := r.factory()
	rec.begin("ml.fit")
	err := m.Fit(x, y, len(r.data.Classes))
	rec.end()
	if err != nil {
		return nil, err
	}
	out["ml.fit_ms"] = float64(rec.lastNs()) / 1e6
	ml.Warm(m)
	rows := make([][]float64, 64)
	for i := range rows {
		rows[i] = r.data.X[i%len(r.data.X)]
	}
	const rounds = 200
	t0 := time.Now()
	for i := 0; i < rounds*64; i++ {
		ml.ProbaBatchParallel(m, rows[i%64:i%64+1], 0)
	}
	out["ml.predict1_ns_per_row"] = float64(time.Since(t0)) / (rounds * 64)
	t0 = time.Now()
	for i := 0; i < rounds; i++ {
		ml.ProbaBatchParallel(m, rows, 0)
	}
	out["ml.predict64_ns_per_row"] = float64(time.Since(t0)) / (rounds * 64)
	return m, nil
}

// tracedFleet replays bulk request bodies on one goroutine through the
// layers' public functions in the order the server calls them, with a
// span around each call. It owns its own demux, rollup, per-node
// windowers and WAL; classification goes through the live server's
// DiagnoseVectors, so it sees the same model.
type tracedFleet struct {
	r       *rig
	rec     *recorder
	demux   *fleet.Demux
	roll    *fleet.Rollup
	nodes   map[int]*tracedNode
	router  *fleet.Router
	walDir  string
	rows    int
	windows int
	wire    int64
	abstain int
}

type tracedNode struct {
	id  int
	app string
	log *wal.Log
	win *stream.Windower
}

func newTracedFleet(r *rig, rec *recorder, walDir string) (*tracedFleet, error) {
	router, err := fleet.NewRouter(r.fleet.Shards)
	if err != nil {
		return nil, err
	}
	return &tracedFleet{
		r: r, rec: rec, walDir: walDir, router: router,
		demux: fleet.NewDemux(router),
		roll: fleet.NewRollup(fleet.RollupConfig{
			Recent: r.fleet.RollupRecent, HealthyLabel: r.data.Classes[0],
		}),
		nodes: map[int]*tracedNode{},
	}, nil
}

// node returns (building on first use) one node's windower and journal,
// as the server's node factory does.
func (t *tracedFleet) node(id int) (*tracedNode, error) {
	if n, ok := t.nodes[id]; ok {
		return n, nil
	}
	n := &tracedNode{id: id}
	var err error
	if t.walDir != "" {
		if n.log, err = wal.Open(fleet.NodeWALDir(t.walDir, id), wal.Options{SegmentBytes: t.r.fleet.WALSegmentBytes}); err != nil {
			return nil, err
		}
	}
	n.win, err = stream.NewWindower(stream.WindowerConfig{
		Metrics: len(t.r.sys.Metrics), Window: t.r.fleet.Window,
		Stride: t.r.fleet.Stride, Reorder: t.r.fleet.Reorder,
	}, nil, func(rows [][]float64, end int) error { return t.window(n, rows, end) })
	if err != nil {
		return nil, err
	}
	t.nodes[id] = n
	return n, nil
}

// window is the per-window decision sequence of pipeline.Chain, one
// span per layer call.
func (t *tracedFleet) window(n *tracedNode, rows [][]float64, end int) error {
	rec := t.rec
	missing := stream.MissingFraction(rows)
	d := stream.Diagnosis{Label: stream.AbstainLabel, Abstained: true, MissingFrac: missing, WindowEnd: end}
	if missing <= 0.5 {
		rec.begin("features.extract")
		vec, err := stream.BatchVector(rows, t.r.sys.Metrics, t.r.fleet.Gap, mvts.Extractor{})
		rec.end()
		if err != nil {
			return err
		}
		rec.begin("features.sanitize")
		features.Sanitize(vec)
		rec.end()
		rec.begin("core.transform")
		row, err := t.r.prep.TransformRow(append([]float64(nil), vec...))
		rec.end()
		if err != nil {
			return err
		}
		rec.begin("server.predict")
		resp, err := t.r.srv.DiagnoseVectors([][]float64{row})
		rec.end()
		if err != nil {
			return err
		}
		if c := resp[0].Confidence; !math.IsNaN(c) && !math.IsInf(c, 0) {
			d = stream.Diagnosis{Label: resp[0].Label, Confidence: c, MissingFrac: missing, WindowEnd: end}
		}
	}
	t.windows++
	if d.Abstained {
		t.abstain++
	}
	rec.begin("fleet.rollup")
	t.roll.Observe(n.id, n.app, d)
	rec.end()
	return nil
}

// request replays one bulk body.
func (t *tracedFleet) request(body []byte) error {
	rec := t.rec
	rec.req++
	rec.begin("request")
	defer rec.end()

	rec.begin("server.decode")
	var req server.BulkIngestRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	rec.end()
	if err != nil {
		return err
	}
	rec.begin("fleet.demux")
	batches := t.demux.Split(req.Rows)
	rec.end()

	res := fleet.BatchResult{Offered: len(req.Rows)}
	for _, sb := range batches {
		sr := fleet.ShardResult{Shard: sb.Shard, Nodes: len(sb.Nodes)}
		for i := range sb.Nodes {
			nb := &sb.Nodes[i]
			n, err := t.node(nb.Node)
			if err != nil {
				return err
			}
			if nb.App != "" {
				n.app = nb.App
			}
			for j := range nb.Rows {
				row := &nb.Rows[j]
				if n.log != nil {
					rec.begin("wal.append")
					err := n.log.Append(wal.Record{T: int64(row.T), Values: row.Values})
					rec.end()
					if err != nil {
						return err
					}
				}
				rec.begin("stream.window")
				err := n.win.PushAt(row.T, row.Values)
				rec.end()
				if err != nil {
					return err
				}
			}
			if n.log != nil {
				rec.begin("wal.sync")
				err := n.log.Sync()
				rec.end()
				if err != nil {
					return err
				}
			}
			sr.Offered += len(nb.Rows)
		}
		sr.Accepted = sr.Offered
		res.PerShard = append(res.PerShard, sr)
		res.Accepted += sr.Accepted
		res.Nodes += sr.Nodes
	}
	t.rows += len(req.Rows)
	t.wire += int64(len(body))

	rec.begin("server.encode")
	err = json.NewEncoder(io.Discard).Encode(server.BulkIngestResponse{BatchResult: res})
	rec.end()
	return err
}

// close seals every node journal so the WAL can be reopened.
func (t *tracedFleet) close() (walBytes int64, err error) {
	for _, n := range t.nodes {
		if n.log == nil {
			continue
		}
		walBytes += n.log.Stats().Bytes
		if cerr := n.log.Close(); err == nil {
			err = cerr
		}
	}
	return walBytes, err
}

// replayWAL reopens every node's journal of the traced pass, drives it
// through a fresh pipeline.Chain with pipeline.Replay, and checks the
// chain ends with the accounting the live server's chain reported.
func replayWAL(r *rig, rec *recorder, walDir string, live []fleet.NodeInfo) error {
	predict := pipeline.PredictFunc(func(vec []float64) (string, float64, error) {
		row, err := r.prep.TransformRow(append([]float64(nil), vec...))
		if err != nil {
			return "", 0, err
		}
		resp, err := r.srv.DiagnoseVectors([][]float64{row})
		if err != nil {
			return "", 0, err
		}
		return resp[0].Label, resp[0].Confidence, nil
	})
	for _, info := range live {
		log, err := wal.Open(fleet.NodeWALDir(walDir, info.Node), wal.Options{SegmentBytes: r.fleet.WALSegmentBytes})
		if err != nil {
			return err
		}
		chain, err := pipeline.NewChain(pipeline.ChainConfig{
			Metrics: len(r.sys.Metrics), Window: r.fleet.Window, Stride: r.fleet.Stride,
			Reorder: r.fleet.Reorder, Gap: r.fleet.Gap,
			Features: pipeline.BatchFeatures{Schema: r.sys.Metrics, Gap: r.fleet.Gap, Extractor: mvts.Extractor{}},
			Predict:  predict, Sink: &pipeline.Collector{},
		})
		if err == nil {
			rec.begin("pipeline.replay")
			err = pipeline.Replay(log, chain)
			rec.end()
		}
		if cerr := log.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if got := chain.Stats(); got != info.Stats {
			return fmt.Errorf("node %d: replayed chain stats %+v, live chain %+v", info.Node, got, info.Stats)
		}
	}
	return nil
}

// traceIngest is the traced pass of eclipse_1hz and volta_dense: a
// fixed slice of ticks goes through the live server, the same bodies
// are replayed through the traced layers, and the two must agree.
func traceIngest(sz sizes, seed int64, seconds float64, rec *recorder, tmp string) (layers, phase, error) {
	r, f, err := setUpIngest(sz, seed, tmp)
	if err != nil {
		return nil, phase{}, err
	}
	defer r.close()
	out := layers{"server.predict_rows_per_call": 1}
	ticks := scaled(sz.traceTicks, seconds)
	owned := len(f.groups) / clients
	live := out.measured(func() phase { return closedLoop(clients, 0, ticks*owned, f.tick) })
	out["fleet.topk_p50_ms"] = percentile(f.topkLat, 0.5)
	out["fleet.apps_p50_ms"] = percentile(f.appsLat, 0.5)
	windows, err := f.settle()
	if err != nil {
		return out, live, err
	}
	liveTopK, _, err := f.get(fmt.Sprintf("/api/fleet/topk?k=%d", sz.nodes))
	if err != nil {
		return out, live, err
	}
	liveApps, _, err := f.get("/api/fleet/apps")
	if err != nil {
		return out, live, err
	}
	liveNodes, err := r.srv.FleetNodes()
	if err != nil {
		return out, live, err
	}

	// The same rows, in one deterministic order, through the traced
	// layers.
	walDir := ""
	if sz.wal {
		if walDir, err = os.MkdirTemp(tmp, "traced-wal-"); err != nil {
			return out, live, err
		}
		defer os.RemoveAll(walDir)
	}
	t, err := newTracedFleet(r, rec, walDir)
	if err != nil {
		return out, live, err
	}
	next := make([]int, sz.nodes)
	var body []byte
	send := func(nodes []int) error {
		body = f.tr.appendBody(body, nodes, next)
		for _, n := range nodes {
			next[n]++
		}
		return t.request(body)
	}
	t.rec = newRecorder() // the warm-up rows are replayed, not budgeted
	for c := 0; c < clients && err == nil; c++ {
		err = warmUp(f.groups, sz.window, sz.stride, c, send)
	}
	t.rec = rec
	warmRows, warmWindows, warmWire := t.rows, t.windows, t.wire
	for tick := 0; tick < ticks && err == nil; tick++ {
		for g := 0; g < len(f.groups) && err == nil; g++ {
			err = send(f.groups[g])
		}
	}
	walBytes, cerr := t.close()
	if err == nil {
		err = cerr
	}
	if err != nil {
		return out, live, err
	}
	if t.windows != windows {
		return out, live, fmt.Errorf("traced pass completed %d windows, live server %d", t.windows, windows)
	}
	rows, windows := t.rows-warmRows, t.windows-warmWindows
	values := rows * f.tr.values
	out["server.wire_bytes_per_value"] = float64(t.wire-warmWire) / float64(values)
	out["wal.bytes_per_value"] = float64(walBytes) / float64(t.rows*f.tr.values)
	out["pipeline.windows"] = float64(windows)
	out["pipeline.abstained"] = float64(t.abstain)
	shardRows := make([]float64, r.fleet.Shards)
	for n := 0; n < sz.nodes; n++ {
		shardRows[t.router.Shard(n)] += float64(next[n])
	}
	most := 0.0
	for _, v := range shardRows {
		most = math.Max(most, v)
	}
	out["fleet.shard_skew"] = most * float64(len(shardRows)) / float64(t.rows)
	replaySpans := len(rec.spans)
	out.budget(rec.spans, rows, values, windows, live)

	// The traced pass is only evidence if it did what the server did.
	topK, err := json.Marshal(server.FleetTopKResponse{K: sz.nodes, Tracked: t.roll.Tracked(), Nodes: t.roll.TopK(sz.nodes)})
	if err != nil {
		return out, live, err
	}
	apps, err := json.Marshal(server.FleetAppsResponse{Apps: t.roll.Apps()})
	if err != nil {
		return out, live, err
	}
	if !bytes.Equal(topK, bytes.TrimSpace(liveTopK)) || !bytes.Equal(apps, bytes.TrimSpace(liveApps)) {
		return out, live, fmt.Errorf("traced rollup differs from the live server's:\n traced %s\n live   %s", apps, liveApps)
	}
	for _, info := range liveNodes {
		st := t.nodes[info.Node].win.Stats()
		out["stream.gap_filled"] += float64(st.GapsFilled)
		if st.Windows != info.Stats.Windows || st.Pushed != info.Stats.Pushed {
			return out, live, fmt.Errorf("node %d: traced windower %+v, live chain %+v", info.Node, st, info.Stats)
		}
	}
	if int(out["pipeline.abstained"]) != sumAbstained(liveNodes) {
		return out, live, fmt.Errorf("traced pass abstained %d windows, live server %d", t.abstain, sumAbstained(liveNodes))
	}
	if sz.wal {
		if err := replayWAL(r, rec, walDir, liveNodes); err != nil {
			return out, live, err
		}
		self, _ := selfTimes(rec.spans[replaySpans:])
		out["pipeline.replay_ns_per_value"] = float64(self["pipeline.replay"]) / float64(t.rows*f.tr.values)
	}

	lat, late, err := f.paced(scaled(sz.pacedTicks, seconds))
	if err != nil {
		return out, live, err
	}
	out["loadgen.paced_p50_ms"] = percentile(lat, 0.5)
	out["loadgen.paced_p90_ms"] = percentile(lat, 0.9)
	out["loadgen.paced_late_max_ms"] = percentile(late, 1)
	if _, err := f.settle(); err != nil {
		return out, live, err
	}
	if _, err := out.mlDirect(r, rec); err != nil {
		return out, live, err
	}
	return out, live, out.validate()
}

// paced continues the feed open loop at the table's fixed rate: every
// client issues its requests on its own schedule, ticks rounds of its
// groups, and latencies are timed from the due instants.
func (f *feed) paced(ticks int) (lat, late []float64, err error) {
	sz := f.r.sz
	interval := time.Duration(float64(clients*sz.perRequest) / sz.pacedRate * float64(time.Second))
	start := time.Now().Add(10 * time.Millisecond)
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		errs [clients]error
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l, lt, err := wallPacer.run(start, interval, ticks*len(f.groups)/clients, func(int) error {
				_, _, _, err := f.tick(c)
				return err
			})
			mu.Lock()
			lat, late, errs[c] = append(lat, l...), append(late, lt...), err
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return lat, late, errors.Join(errs[:]...)
}

func sumAbstained(nodes []fleet.NodeInfo) (n int) {
	for _, info := range nodes {
		n += info.Stats.Abstained
	}
	return n
}

// traceDiagnose is the traced pass of diagnose_batch: decode, classify
// and encode each body directly, after a live slice for comparison.
func traceDiagnose(sz sizes, seed int64, seconds float64, rec *recorder) (layers, phase, error) {
	r, d, err := setUpDiagnose(sz, seed)
	if err != nil {
		return nil, phase{}, err
	}
	defer r.close()
	out := layers{"server.predict_rows_per_call": float64(sz.batchRows)}
	calls := scaled(sz.traceTicks, seconds)
	live := out.measured(func() phase { return closedLoop(clients, 0, calls, d.call) })
	var wire int64
	for i := 0; i < calls*clients; i++ {
		b := i % len(d.bodies)
		wire += int64(len(d.bodies[b]))
		rec.req++
		rec.begin("request")
		rec.begin("server.decode")
		var req server.DiagnoseRequest
		err := json.NewDecoder(bytes.NewReader(d.bodies[b])).Decode(&req)
		rec.end()
		if err != nil {
			return out, live, err
		}
		rec.begin("server.predict")
		resp, err := r.srv.DiagnoseVectors(req.Batch)
		rec.end()
		if err != nil {
			return out, live, err
		}
		rec.begin("server.encode")
		err = json.NewEncoder(io.Discard).Encode(server.BatchDiagnoseResponse{Results: resp, ModelVersion: resp[0].ModelVersion})
		rec.end()
		rec.end()
		if err != nil {
			return out, live, err
		}
		for j := range resp {
			if resp[j].Label != d.want[b][j] || resp[j].ModelVersion != d.version {
				return out, live, fmt.Errorf("traced diagnose: body %d vector %d got %q v%d, reference %q v%d",
					b, j, resp[j].Label, resp[j].ModelVersion, d.want[b][j], d.version)
			}
		}
	}
	vectors := calls * clients * sz.batchRows
	values := vectors * r.data.Dim()
	out["server.wire_bytes_per_value"] = float64(wire) / float64(values)
	out.budget(rec.spans, vectors, values, vectors, live)
	if _, err := out.mlDirect(r, rec); err != nil {
		return out, live, err
	}
	return out, live, out.validate()
}

// traceAnnotate is the traced pass of annotate_loop: a fixed number of
// label cycles with a span around each HTTP call, then the fit and the
// pool scoring the label handler performs, called directly.
func traceAnnotate(sz sizes, seed int64, seconds float64, rec *recorder) (layers, phase, error) {
	r, err := newRig(sz, seed, false, "")
	if err != nil {
		return nil, phase{}, err
	}
	defer r.close()
	out := layers{}
	a := newAnnotator(r)
	a.rec = rec
	live := out.measured(func() phase { return closedLoop(1, 0, scaled(sz.traceLabels, seconds), a.cycle) })
	if _, err := a.finish(); err != nil {
		return out, live, err
	}
	out["server.next_p50_ms"] = percentile(a.nextLat, 0.5)
	out["server.label_p50_ms"] = percentile(a.labelLat, 0.5)
	h := fnv.New32a()
	for _, id := range a.ids {
		fmt.Fprintf(h, "%d,", id)
	}
	out["active.query_sequence_hash"] = float64(h.Sum32())
	out.budget(rec.spans, len(a.ids), 0, 0, live)

	// What the last label's retrain and the next query cost, directly.
	r.split.Initial = append(r.split.Initial, a.ids...)
	m, err := out.mlDirect(r, rec)
	if err != nil {
		return out, live, err
	}
	labeled := map[int]bool{}
	for _, id := range a.ids {
		labeled[id] = true
	}
	ctx := &active.QueryContext{}
	rec.begin("active.score")
	for _, i := range r.split.Pool {
		if !labeled[i] {
			ctx.Probs = append(ctx.Probs, m.PredictProba(r.data.X[i]))
		}
	}
	active.Uncertainty{}.Next(ctx)
	rec.end()
	out["active.pool_score_ns_per_row"] = float64(rec.lastNs()) / float64(len(ctx.Probs))
	return out, live, nil
}
