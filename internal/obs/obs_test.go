package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter(Opts{Name: "c_total", Help: "h", Unit: "events"})
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("Value = %d, want 42", got)
	}
	// Re-registering an identical family returns the same series.
	if again := r.Counter(Opts{Name: "c_total", Help: "h", Unit: "events"}); again != c {
		t.Fatal("identical re-registration returned a different counter")
	}
}

func TestGaugeBasics(t *testing.T) {
	g := NewRegistry().Gauge(Opts{Name: "g", Help: "h"})
	g.Set(3.5)
	if got := g.Value(); got != 3.5 {
		t.Fatalf("Value = %v, want 3.5", got)
	}
	g.Set(-7)
	if got := g.Value(); got != -7 {
		t.Fatalf("Value after Set = %v, want -7", got)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(Opts{Name: "h_seconds", Help: "h", Unit: "seconds", Buckets: []float64{1, 2, 5}})

	// le semantics: a value equal to an upper bound lands in that bucket.
	h.Observe(1)          // bucket le=1
	h.Observe(2)          // bucket le=2
	h.Observe(5)          // bucket le=5
	h.Observe(0.5)        // bucket le=1
	h.Observe(3)          // bucket le=5
	h.Observe(6)          // overflow (+Inf)
	h.Observe(math.NaN()) // dropped

	if got := h.Count(); got != 6 {
		t.Fatalf("Count = %d, want 6 (NaN must be dropped)", got)
	}
	if got, want := h.Sum(), 1.0+2+5+0.5+3+6; got != want {
		t.Fatalf("Sum = %v, want %v", got, want)
	}

	snap := r.Snapshot()
	if len(snap.Families) != 1 || len(snap.Families[0].Series) != 1 {
		t.Fatalf("unexpected snapshot shape: %+v", snap)
	}
	ss := snap.Families[0].Series[0]
	// Cumulative finite buckets: le=1 → 2 (1, 0.5); le=2 → 3; le=5 → 5.
	want := []Bucket{{1, 2}, {2, 3}, {5, 5}}
	if len(ss.Buckets) != len(want) {
		t.Fatalf("got %d buckets, want %d", len(ss.Buckets), len(want))
	}
	for i, b := range ss.Buckets {
		if b != want[i] {
			t.Errorf("bucket %d = %+v, want %+v", i, b, want[i])
		}
	}
	// The +Inf bucket is implied: cumulative count equals Count.
	if ss.Count != 6 {
		t.Fatalf("snapshot Count = %d, want 6", ss.Count)
	}
}

func TestRegistrationMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter(Opts{Name: "m_total", Help: "h"})
	mustPanic(t, "kind mismatch", func() { r.Gauge(Opts{Name: "m_total", Help: "h"}) })

	r.CounterVec(Opts{Name: "v_total", Help: "h"}, "a", "b")
	mustPanic(t, "label-key mismatch", func() { r.CounterVec(Opts{Name: "v_total", Help: "h"}, "a") })
	mustPanic(t, "label-value arity", func() { r.CounterVec(Opts{Name: "v_total", Help: "h"}, "a", "b").With("only-one") })

	mustPanic(t, "invalid name", func() { r.Counter(Opts{Name: "bad name", Help: "h"}) })
	mustPanic(t, "empty name", func() { r.Counter(Opts{Help: "h"}) })
	mustPanic(t, "unsorted buckets", func() {
		r.Histogram(Opts{Name: "hh", Help: "h", Buckets: []float64{2, 1}})
	})
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic, got none", what)
		}
	}()
	f()
}

func TestConcurrentHammering(t *testing.T) {
	// Hammer every instrument kind from many goroutines while other
	// goroutines snapshot and export; run under -race this is the
	// registry's central safety test.
	r := NewRegistry()
	c := r.Counter(Opts{Name: "c_total", Help: "h"})
	cv := r.CounterVec(Opts{Name: "cv_total", Help: "h"}, "k")
	g := r.Gauge(Opts{Name: "g", Help: "h"})
	h := r.Histogram(Opts{Name: "h_seconds", Help: "h", Buckets: LatencyBuckets})
	hv := r.HistogramVec(Opts{Name: "hv_seconds", Help: "h", Buckets: []float64{0.5, 1}}, "k")

	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	labels := []string{"a", "b", "c"}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				cv.With(labels[i%len(labels)]).Add(2)
				g.Set(float64(w))
				h.Observe(float64(i) * 1e-5)
				hv.With(labels[(i+w)%len(labels)]).Observe(0.75)
			}
		}(w)
	}
	// Concurrent readers: snapshots and both exports must not race.
	for rdr := 0; rdr < 3; rdr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_ = r.Snapshot()
				_ = r.WritePrometheus(&strings.Builder{})
				var b strings.Builder
				_ = r.Snapshot().WriteJSON(&b)
			}
		}()
	}
	wg.Wait()

	const total = workers * perWorker
	if got := c.Value(); got != total {
		t.Errorf("counter = %d, want %d", got, total)
	}
	if got := g.Value(); got < 0 || got >= workers || got != math.Trunc(got) {
		t.Errorf("gauge = %v, want the last worker's index", got)
	}
	if got := h.Count(); got != total {
		t.Errorf("histogram count = %d, want %d", got, total)
	}
	var labeled uint64
	for _, l := range labels {
		labeled += cv.With(l).Value()
	}
	if labeled != 2*total {
		t.Errorf("summed labeled counters = %d, want %d", labeled, 2*total)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter(Opts{Name: "jobs_total", Help: "Jobs done."}).Add(3)
	r.GaugeVec(Opts{Name: "depth", Help: "Queue depth."}, "queue").With("in").Set(7)
	h := r.Histogram(Opts{Name: "lat_seconds", Help: "Latency.", Buckets: []float64{0.1, 1}})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP jobs_total Jobs done.",
		"# TYPE jobs_total counter",
		"jobs_total 3",
		"# TYPE depth gauge",
		`depth{queue="in"} 7`,
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 2`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		"lat_seconds_sum 2.55",
		"lat_seconds_count 3",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing line %q\n---\n%s", want, out)
		}
	}
}

func TestJSONSnapshotRoundTrips(t *testing.T) {
	r := NewRegistry()
	r.Counter(Opts{Name: "n_total", Help: "h", Unit: "events"}).Inc()
	h := r.Histogram(Opts{Name: "d_seconds", Help: "h", Unit: "seconds", Buckets: []float64{1}})
	h.Observe(0.5)
	h.Observe(3) // overflow: must not put +Inf into the JSON

	var b strings.Builder
	if err := r.Snapshot().WriteJSON(&b); err != nil {
		t.Fatalf("WriteJSON: %v (JSON cannot carry Inf — finite buckets only)", err)
	}
	var back Snapshot
	if err := json.Unmarshal([]byte(b.String()), &back); err != nil {
		t.Fatalf("round-trip unmarshal: %v", err)
	}
	if len(back.Families) != 2 {
		t.Fatalf("got %d families, want 2", len(back.Families))
	}
	for _, fs := range back.Families {
		if fs.Name == "d_seconds" {
			if fs.Series[0].Count != 2 || len(fs.Series[0].Buckets) != 1 {
				t.Fatalf("histogram series mangled: %+v", fs.Series[0])
			}
		}
	}
}

func TestFamiliesListsSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter(Opts{Name: "zz_total", Help: "z"})
	r.Gauge(Opts{Name: "aa", Help: "a"})
	r.HistogramVec(Opts{Name: "mm_seconds", Help: "m", Unit: "seconds"}, "stage")
	fams := r.Families()
	if len(fams) != 3 {
		t.Fatalf("got %d families, want 3", len(fams))
	}
	for i := 1; i < len(fams); i++ {
		if fams[i-1].Name > fams[i].Name {
			t.Fatalf("families not sorted: %v before %v", fams[i-1].Name, fams[i].Name)
		}
	}
	if fams[1].Kind != KindHistogram || fams[1].LabelKeys[0] != "stage" {
		t.Fatalf("family metadata wrong: %+v", fams[1])
	}
}
