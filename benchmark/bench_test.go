package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"albadross/internal/fleet"
	"albadross/internal/server"
)

func TestPercentileAndTailRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	for p, want := range map[float64]float64{0.5: 50, 0.95: 95, 0.99: 99, 1: 100, 0.001: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", p, got, want)
		}
	}
	// The reported tail is the highest percentile with at least ten
	// samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{10000, 0.999}, {1000, 0.99}, {999, 0.95}, {200, 0.95}, {199, 0.90}, {100, 0.90}, {99, 0.75}, {40, 0.75}, {39, 0.5}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v (beyond: %d)", c.n, got, c.want, beyond(c.n, got))
		}
	}
	if beyond(1000, 0.99) != 10 || beyond(999, 0.99) != 9 {
		t.Errorf("beyond(1000,.99)=%d beyond(999,.99)=%d, want 10 and 9", beyond(1000, 0.99), beyond(999, 0.99))
	}
}

// TestPacerSchedule drives the open-loop pacer with a fake clock: a
// slow call must not delay the schedule, its successors are timed from
// their due instants, and their lateness is reported.
func TestPacerSchedule(t *testing.T) {
	start := time.Unix(1000, 0)
	now := start
	p := pacer{
		now:   func() time.Time { return now },
		sleep: func(d time.Duration) { now = now.Add(d) },
	}
	cost := []time.Duration{5, 25, 5, 5} // ms per call; the second stalls
	lat, late, err := p.run(start, 10*time.Millisecond, len(cost), func(i int) error {
		now = now.Add(cost[i] * time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// due at 0, 10, 20, 30 ms; issued at 0, 10, 35, 40; done at 5, 35, 40, 45.
	if want := []float64{5, 25, 20, 15}; !reflect.DeepEqual(lat, want) {
		t.Errorf("latency from due instant = %v, want %v", lat, want)
	}
	if want := []float64{0, 0, 15, 10}; !reflect.DeepEqual(late, want) {
		t.Errorf("lateness = %v, want %v", late, want)
	}
	boom := errors.New("boom")
	if _, _, err := p.run(now, time.Millisecond, 3, func(int) error { return boom }); err != boom {
		t.Errorf("pacer swallowed the send error: %v", err)
	}
}

func TestSelfTime(t *testing.T) {
	// a [0,100] holds b [10,30] and c [30,50], adjacent; c holds d [35,45].
	spans := []span{
		{Name: "a", Start: 0, End: 100, Parent: -1},
		{Name: "b", Start: 10, End: 30, Parent: 0},
		{Name: "c", Start: 30, End: 50, Parent: 0},
		{Name: "b", Start: 35, End: 45, Parent: 2},
	}
	self, count := selfTimes(spans)
	if want := map[string]int64{"a": 60, "b": 30, "c": 10}; !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	if want := map[string]int{"a": 1, "b": 2, "c": 1}; !reflect.DeepEqual(count, want) {
		t.Errorf("span counts %v, want %v", count, want)
	}

	rec := newRecorder()
	rec.req = 7
	rec.begin("outer")
	rec.begin("inner")
	rec.end()
	rec.begin("inner")
	rec.end()
	rec.end()
	rec.begin("next")
	rec.end()
	var parents []int32
	for _, s := range rec.spans {
		parents = append(parents, s.Parent)
		if s.End < s.Start || s.Req != 7 {
			t.Errorf("span %+v: bad interval or request id", s)
		}
	}
	if want := []int32{-1, 0, 0, -1}; !reflect.DeepEqual(parents, want) {
		t.Errorf("parents %v, want %v", parents, want)
	}
	path := filepath.Join(t.TempDir(), "sub", "spans.jsonl")
	if err := rec.write(path); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(path); err != nil || len(data) == 0 {
		t.Errorf("span file: %d bytes, %v", len(data), err)
	}
}

// TestBodySplice checks a spliced request decodes, through the server's
// own wire types, to the rows it was built from: node, app, monotone
// timestep, fragment cycling, and null for a missing sample.
func TestBodySplice(t *testing.T) {
	tr := &traffic{values: 3, cycle: 2, apps: []string{"LAMMPS", "HACC"}}
	cells := [][]float64{{1.5, math.NaN(), -3e9}, {2, 4, 8}, {0.1, 0.2, 0.3}, {math.NaN(), 7, 1e-7}}
	for _, row := range cells {
		enc, err := fleet.Values(row).MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		tr.frags = append(tr.frags, append([]byte(`"values":`), enc...))
	}
	next := []int{0, 5}
	var body []byte
	for round := 0; round < 3; round++ {
		body = tr.appendBody(body, []int{1, 0}, next)
		var req server.BulkIngestRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("round %d: %v\n%s", round, err, body)
		}
		if len(req.Rows) != 2 {
			t.Fatalf("round %d: %d rows", round, len(req.Rows))
		}
		for i, node := range []int{1, 0} {
			row := req.Rows[i]
			if row.Node != node || row.App != tr.apps[node] || row.T != next[node] {
				t.Errorf("round %d row %d: %+v, want node %d app %s t %d", round, i, row, node, tr.apps[node], next[node])
			}
			want := cells[node*tr.cycle+next[node]%tr.cycle]
			for m := range want {
				if got := row.Values[m]; got != want[m] && !(math.IsNaN(got) && math.IsNaN(want[m])) {
					t.Errorf("round %d node %d metric %d: %v, want %v", round, node, m, got, want[m])
				}
			}
		}
		next[0]++
		next[1]++
	}
}

func TestWarmUpPhases(t *testing.T) {
	for _, c := range []struct{ nodes, window, stride int }{{64, 64, 64}, {26, 64, 8}, {2, 8, 4}} {
		group := make([]int, c.nodes)
		for i := range group {
			group[i] = i
		}
		sent := make([]int, c.nodes)
		for cl := 0; cl < clients; cl++ {
			err := warmUp([][]int{group, nil}, c.window, c.stride, cl, func(nodes []int) error {
				for _, n := range nodes {
					sent[n]++
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		for i, rows := range sent {
			// Every node exists, none is more than a stride from its
			// next window, and window phases cover every residue.
			toNext := c.window - rows
			if rows > c.window {
				t.Fatalf("%+v node %d: %d warm-up rows", c, i, rows)
			}
			if windowsFor(rows, c.window, c.stride) == 1 {
				toNext = c.stride
			}
			want := c.stride - 1 - i%c.stride
			if want == 0 {
				want = c.stride
			}
			if rows < 1 || toNext != want {
				t.Errorf("%+v node %d: %d warm-up rows, next window in %d", c, i, rows, toNext)
			}
		}
	}
}

// toy shrinks every workload to a geometry a race-enabled test runs in
// well under a second (8 metrics ask for the schema's floor of 27).
func toy(t *testing.T) {
	saved := table
	t.Cleanup(func() { table = saved })
	table = map[string]sizes{}
	for name, sz := range saved {
		sz.metrics, sz.apps, sz.runs, sz.steps, sz.topK, sz.trees = 8, 1, 10, 30, 40, 4
		if sz.nodes > 0 {
			sz.nodes, sz.perRequest, sz.window, sz.stride, sz.cycle = 4, 2, 8, sz.stride/8, 16
			sz.pacedRate, sz.pacedTicks, sz.traceTicks = 400, 400, 800
		}
		if sz.batchRows > 0 {
			sz.batchRows, sz.bodies, sz.traceTicks = 8, 2, 800
		}
		if sz.traceLabels > 0 {
			sz.apps, sz.traceLabels = 2, 600
		}
		table[name] = sz
	}
}

// TestSmoke runs both passes of all four workloads at toy geometry and
// checks the output against BENCHMARK.json: every listed metric, with
// its unit and a finite value, and nothing else.
func TestSmoke(t *testing.T) {
	toy(t)
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloadNames))
	}
	tmp := t.TempDir()
	for i, name := range workloadNames {
		if spec.Workloads[i].Name != name {
			t.Errorf("BENCHMARK.json workload %d is %q, want %q", i, spec.Workloads[i].Name, name)
		}
		for _, traced := range []bool{false, true} {
			res, err := runOne(name, 3, 0.1, traced, filepath.Join(tmp, name+".spans.jsonl"), tmp)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			// Toy rows are too small for a replay's time per op to say
			// anything about the live CPU per op; every other check holds.
			if !res.Correct && !errors.Is(res.cause, errImplausible) {
				t.Errorf("%s traced=%v: incorrect: %v (%d of %d failed)", name, traced, res.cause, res.Failed, res.Attempted)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, BENCHMARK.json lists %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v), want a finite value in %s", name, traced, m.Name, got, ok, m.Unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", name, m.Name, got.Value)
				}
			}
		}
	}
	if left, _ := filepath.Glob(filepath.Join(tmp, "*wal-*")); len(left) > 0 {
		t.Errorf("WAL directories left behind: %v", left)
	}
}

// TestAnnotateRepeats pins the annotate_loop determinism contract: the
// same seed gives the same query sequence and final macro-F1.
func TestAnnotateRepeats(t *testing.T) {
	toy(t)
	run := func(seed int64) ([]int, float64) {
		r, err := newRig(table["annotate_loop"], seed, false, "")
		if err != nil {
			t.Fatal(err)
		}
		defer r.close()
		a := newAnnotator(r)
		if ph := closedLoop(1, 0, 12, a.cycle); ph.firstErr != nil || ph.ok != 12 {
			t.Fatalf("loop: %d ok, %v", ph.ok, ph.firstErr)
		}
		f1, err := a.finish()
		if err != nil {
			t.Fatal(err)
		}
		return a.ids, f1
	}
	ids1, f1a := run(5)
	ids2, f1b := run(5)
	if !reflect.DeepEqual(ids1, ids2) || f1a != f1b {
		t.Errorf("seed 5 twice: queries %v vs %v, F1 %v vs %v", ids1, ids2, f1a, f1b)
	}
}
