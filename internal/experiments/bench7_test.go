package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"albadross/internal/loadgen"
)

// passingBench7 is a report that satisfies every gate against itself.
func passingBench7() *Bench7Report {
	r := &Bench7Report{SchemaVersion: 1, GoMaxProcs: 1}
	r.Forest.Rows, r.Forest.Trees = 256, 20
	r.Forest.PointerNsPerRow, r.Forest.FlatNsPerRow = 1400, 350
	r.Forest.Speedup = 4.0
	r.Forest.FlatAllocsPerOp = 3
	r.Forest.BitwiseIdentical = true
	r.GBM.Rows, r.GBM.Rounds = 256, 15
	r.GBM.PointerNsPerRow, r.GBM.FlatNsPerRow = 2200, 600
	r.GBM.Speedup = 3.7
	r.GBM.FlatAllocsPerOp = 3
	r.GBM.BitwiseIdentical = true
	return r
}

// TestCompareBench7 exercises the gate's pass and fail paths.
func TestCompareBench7(t *testing.T) {
	base := passingBench7()
	if bad := CompareBench7(passingBench7(), base, 0.2, 3.0); len(bad) != 0 {
		t.Fatalf("self-comparison should pass, got %v", bad)
	}
	// The committed baseline predates the deletion of its rolling and
	// stream sections; it must still load and hold its own gates.
	committed, err := LoadBench7(filepath.Join("..", "..", "BENCH_7.json"))
	if err != nil {
		t.Fatal(err)
	}
	if bad := CompareBench7(committed, committed, 0.2, 3.0); len(bad) != 0 {
		t.Fatalf("committed BENCH_7.json fails its own gates: %v", bad)
	}
	cases := []struct {
		name  string
		mut   func(r *Bench7Report)
		gripe string
	}{
		{"forest not bitwise", func(r *Bench7Report) { r.Forest.BitwiseIdentical = false }, "bitwise"},
		{"gbm not bitwise", func(r *Bench7Report) { r.GBM.BitwiseIdentical = false }, "bitwise"},
		{"forest below floor", func(r *Bench7Report) { r.Forest.Speedup = 2.5 }, "below the 3.00x floor"},
		{"gbm regressed", func(r *Bench7Report) { r.GBM.Speedup = 1.2 }, "gbm flat batch speedup regressed"},
		{"forest leaks", func(r *Bench7Report) { r.Forest.FlatAllocsPerOp = 40 }, "allocates more"},
		{"gbm leaks", func(r *Bench7Report) { r.GBM.FlatAllocsPerOp = 40 }, "allocates more"},
	}
	for _, tc := range cases {
		fresh := passingBench7()
		tc.mut(fresh)
		bad := CompareBench7(fresh, base, 0.2, 3.0)
		if len(bad) == 0 {
			t.Fatalf("%s: expected a violation", tc.name)
		}
		found := false
		for _, b := range bad {
			if strings.Contains(b, tc.gripe) {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s: violations %v do not mention %q", tc.name, bad, tc.gripe)
		}
	}
}

// TestTrajectoryMarkdown renders the README table from a miniature
// BENCH_4.json and the passing report.
func TestTrajectoryMarkdown(t *testing.T) {
	dir := t.TempDir()
	b4 := filepath.Join(dir, "BENCH_4.json")
	doc := `{"micro":{"forest_serial_ns_per_row":1066.4,"forest_batch_ns_per_row":978.3},` +
		`"serial":{"rows_per_sec":20655},"batched":{"rows_per_sec":75669}}`
	if err := os.WriteFile(b4, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	table, err := TrajectoryMarkdown(b4, passingBench7(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"| BENCH_4 |", "| BENCH_7 |", "978", "350", "4.00x", "75669", "| — | in-process flat SoA batch |"} {
		if !strings.Contains(table, want) {
			t.Fatalf("trajectory table missing %q:\n%s", want, table)
		}
	}
	if strings.Contains(table, "BENCH_6") {
		t.Fatalf("nil BENCH_6 report should omit the fleet row:\n%s", table)
	}
	b6 := &Bench6Report{Scale: []loadgen.FleetLoadReport{{
		Nodes: 256, Shards: 4, Speedup: 5.5,
		Bulk: &loadgen.FleetResult{Result: loadgen.Result{RowsPerSec: 180000}},
	}}}
	table, err = TrajectoryMarkdown(b4, passingBench7(), b6)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"| BENCH_6 |", "5.50x", "180000", "256 nodes"} {
		if !strings.Contains(table, want) {
			t.Fatalf("trajectory table missing %q:\n%s", want, table)
		}
	}
	if _, err := TrajectoryMarkdown(filepath.Join(dir, "missing.json"), passingBench7(), nil); err == nil {
		t.Fatal("missing BENCH_4.json should error")
	}
}
