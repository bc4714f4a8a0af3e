package stream

// Direct tests of the seams this package exports to every consumer of
// the decision loop (internal/pipeline.Chain, the benchmark's traced
// replay). The behavioural suites — reordering, gap policy, the PushAt
// fuzz target — drive these seams through Chain in internal/pipeline;
// what is pinned here is the contract a consumer wiring them by hand
// relies on.

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// TestWindowerCallbackOrder pins the load-bearing callback shape: one
// PushAt that releases several buffered rows fires onCommit per row in
// commit order, and onWindow at the exact boundary commit — before the
// rows the same drain commits after it — with the ring holding exactly
// the window's rows.
func TestWindowerCallbackOrder(t *testing.T) {
	var events []string
	w, err := NewWindower(WindowerConfig{Metrics: 1, Window: 8, Stride: 4, Reorder: 4},
		func(row []float64) { events = append(events, fmt.Sprintf("c%v", row[0])) },
		func(rows [][]float64, end int) error {
			events = append(events, fmt.Sprintf("w%d[%v..%v]", end, rows[0][0], rows[len(rows)-1][0]))
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range []int{0, 1, 2, 3, 4, 5} {
		if err := w.PushAt(ts, []float64{float64(ts)}); err != nil {
			t.Fatal(err)
		}
	}
	// 7, 8, 9 buffer behind the missing 6; its arrival drains all four
	// and crosses the window boundary at 7 mid-drain.
	for _, ts := range []int{7, 8, 9} {
		if err := w.PushAt(ts, []float64{float64(ts)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.PendingDepth(); got != 3 {
		t.Fatalf("pending depth %d, want 3", got)
	}
	events = nil
	if err := w.PushAt(6, []float64{6}); err != nil {
		t.Fatal(err)
	}
	want := []string{"c6", "c7", "w7[0..7]", "c8", "c9"}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("drain fired %v, want %v", events, want)
	}
	if st := w.Stats(); st.Pushed != 10 || st.Windows != 1 || st.Abstained != 0 || w.Committed() != 10 || w.PendingDepth() != 0 {
		t.Fatalf("stats %+v committed %d pending %d", st, w.Committed(), w.PendingDepth())
	}

	// Both callbacks are optional, and a window error aborts the push.
	bare, err := NewWindower(WindowerConfig{Metrics: 1, Window: 8}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for ts := 0; ts < 8; ts++ {
		if err := bare.PushAt(ts, []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	if bare.Stats().Windows != 1 {
		t.Fatalf("callback-less windower counted %d windows", bare.Stats().Windows)
	}
	failing, err := NewWindower(WindowerConfig{Metrics: 1, Window: 8}, nil,
		func([][]float64, int) error { return fmt.Errorf("boom") })
	if err != nil {
		t.Fatal(err)
	}
	for ts := 0; ts < 8; ts++ {
		err = failing.PushAt(ts, []float64{1})
	}
	if err == nil {
		t.Fatal("window callback error did not surface from the boundary push")
	}
	if _, err := NewWindower(WindowerConfig{Metrics: 0, Window: 8}, nil, nil); err == nil {
		t.Fatal("zero-width windower accepted")
	}
	if _, err := NewWindower(WindowerConfig{Metrics: 1, Window: 8, Reorder: -1}, nil, nil); err == nil {
		t.Fatal("negative reorder horizon accepted")
	}
}

// TestWindowerAccounting walks every delivery verdict once — accepted,
// duplicate, late, implausible, synthesized gap — and checks each lands
// in exactly its Stats counter, Flush drains the tail, and Reset
// forgets everything including the timestamp anchor.
func TestWindowerAccounting(t *testing.T) {
	w, err := NewWindower(WindowerConfig{Metrics: 2, Window: 8, Reorder: 2, MaxJump: 10}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	row := []float64{1, 2}
	for _, ts := range []int{100, 101, 104, 104, 99, 200} { // accepted ×3, duplicate, late, implausible
		if err := w.PushAt(ts, row); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.PushAt(105, []float64{1}); err == nil {
		t.Fatal("wrong-width row accepted")
	}
	want := Stats{Pushed: 3, Duplicates: 1, Late: 1, Implausible: 1, GapsFilled: 1}
	if got := w.Stats(); got != want {
		t.Fatalf("stats %+v, want %+v", got, want)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want.GapsFilled = 2 // slots 102 and 103
	if got := w.Stats(); got != want || w.Committed() != 5 || w.PendingDepth() != 0 {
		t.Fatalf("after flush: stats %+v committed %d pending %d", got, w.Committed(), w.PendingDepth())
	}
	if cfg := w.Config(); cfg.Stride != 8 || cfg.MaxJump != 10 {
		t.Fatalf("resolved config %+v", cfg)
	}
}

func TestMissingFraction(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		rows [][]float64
		want float64
	}{
		{nil, 0},
		{[][]float64{{}}, 0},
		{[][]float64{{1, 2}, {3, 4}}, 0},
		{[][]float64{{1, nan}, {nan, 4}}, 0.5},
		{[][]float64{{nan, nan}}, 1},
	} {
		if got := MissingFraction(tc.rows); got != tc.want {
			t.Errorf("MissingFraction(%v) = %v, want %v", tc.rows, got, tc.want)
		}
	}
}
