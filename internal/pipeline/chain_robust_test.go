package pipeline

import (
	"math"
	"testing"

	"albadross/internal/chaos"
	"albadross/internal/features/mvts"
	"albadross/internal/stream"
	"albadross/internal/telemetry"
	"albadross/internal/ts"
)

func newRobustChain(t *testing.T, cfg chainSpec) (*testChain, *countingDiagnoser, []telemetry.Metric) {
	t.Helper()
	schema := telemetry.BuildSchema(9)
	cd := &countingDiagnoser{}
	cfg.Schema = schema
	cfg.Extractor = mvts.Extractor{}
	if cfg.Diagnose == nil {
		cfg.Diagnose = cd.diagnose
	}
	return mustTestChain(t, cfg), cd, schema
}

func reading(schema []telemetry.Metric, i int) []float64 {
	row := make([]float64, len(schema))
	for m := range row {
		row[m] = float64(i + m)
	}
	return row
}

// feedAt delivers reading(schema, ts-base) at every listed timestamp.
func feedAt(t *testing.T, c *testChain, schema []telemetry.Metric, base int, timestamps ...int) {
	t.Helper()
	for _, ts := range timestamps {
		if _, err := c.pushAt(ts, reading(schema, ts-base)); err != nil {
			t.Fatal(err)
		}
	}
}

// upTo lists lo, lo+1, ..., hi-1.
func upTo(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

func TestPushAtInOrderMatchesArrivalOrder(t *testing.T) {
	a, cda, schema := newRobustChain(t, chainSpec{Window: 16, Stride: 8, Reorder: 4})
	b, cdb, _ := newRobustChain(t, chainSpec{Window: 16, Stride: 8})
	for i := 0; i < 40; i++ {
		if _, err := a.pushAt(100+i, reading(schema, i)); err != nil {
			t.Fatal(err)
		}
		if _, err := b.push(reading(schema, i)); err != nil {
			t.Fatal(err)
		}
	}
	if cda.calls != cdb.calls {
		t.Fatalf("buffered PushAt emitted %d diagnoses, unbuffered arrival order emitted %d", cda.calls, cdb.calls)
	}
	st := a.Stats()
	if st.Pushed != 40 || st.Duplicates != 0 || st.Late != 0 || st.GapsFilled != 0 {
		t.Fatalf("clean in-order feed left dirty stats: %+v", st)
	}
}

func TestPushAtReordersWithinHorizon(t *testing.T) {
	c, _, schema := newRobustChain(t, chainSpec{Window: 8, Stride: 8, Reorder: 4})
	// Anchor on 0, then deliver 1..15 with adjacent pairs swapped:
	// 0, 2, 1, 4, 3, ..., 14, 13, 15. All jitter is within the horizon.
	order := []int{0}
	for i := 1; i < 15; i += 2 {
		order = append(order, i+1, i)
	}
	order = append(order, 15)
	feedAt(t, c, schema, 0, order...)
	st := c.Stats()
	if st.Late != 0 || st.GapsFilled != 0 || st.Duplicates != 0 {
		t.Fatalf("in-horizon jitter mis-accounted: %+v", st)
	}
	if got := len(c.sink.Diagnoses); got != 2 || st.Windows != 2 {
		t.Fatalf("want 2 tumbling windows, got %d (stats %+v)", got, st)
	}
}

func TestPushAtDuplicatesAndLate(t *testing.T) {
	c, _, schema := newRobustChain(t, chainSpec{Window: 8, Stride: 8, Reorder: 2})
	feedAt(t, c, schema, 0, upTo(0, 6)...)
	// Timestamp 3 again: a duplicate of a committed slot arrives as "late"
	// (the frontier has moved past it). Then a pending-slot duplicate:
	// deliver 8 (buffered, 7 missing), then 8 again.
	feedAt(t, c, schema, 0, 3, 8, 8)
	st := c.Stats()
	if st.Late != 1 {
		t.Fatalf("late = %d, want 1", st.Late)
	}
	if st.Duplicates != 1 {
		t.Fatalf("duplicates = %d, want 1", st.Duplicates)
	}
}

func TestPushAtFillsGapsBeyondHorizon(t *testing.T) {
	c, _, schema := newRobustChain(t, chainSpec{Window: 8, Stride: 8, Reorder: 3, Gap: stream.GapHoldLast})
	// Timestamps 0,1,2 then jump to 10: slots 3..6 fall out of the
	// horizon as maxT advances and must be synthesized as gap rows.
	feedAt(t, c, schema, 0, 0, 1, 2, 10, 11, 12)
	st := c.Stats()
	if st.GapsFilled == 0 {
		t.Fatalf("no gaps synthesized: %+v", st)
	}
	// Flush drains the rest (slots 7..9 plus buffered 10..12).
	if _, err := c.flush(); err != nil {
		t.Fatal(err)
	}
	st = c.Stats()
	if st.GapsFilled != 7 {
		t.Fatalf("gaps filled = %d, want 7 (slots 3..9)", st.GapsFilled)
	}
	if got := c.Committed(); got != 13 {
		t.Fatalf("committed %d samples, want 13 (0..12)", got)
	}
}

func TestImplausibleTimestampDropped(t *testing.T) {
	// A corrupt far-future timestamp must be dropped, not trusted: the
	// default MaxJump (4*Window+Reorder) would otherwise synthesize one
	// gap row per skipped timestep up to it.
	c, _, schema := newRobustChain(t, chainSpec{Window: 8, Stride: 8, Reorder: 2})
	feedAt(t, c, schema, 0, upTo(0, 4)...)
	feedAt(t, c, schema, 1_000_000_000, 1_000_000_000)
	st := c.Stats()
	if st.Implausible != 1 {
		t.Fatalf("implausible = %d, want 1", st.Implausible)
	}
	if st.GapsFilled != 0 {
		t.Fatalf("corrupt timestamp synthesized %d gap rows", st.GapsFilled)
	}
	// The stream recovers: in-sequence readings keep committing.
	feedAt(t, c, schema, 0, upTo(4, 8)...)
	if _, err := c.flush(); err != nil {
		t.Fatal(err)
	}
	if got := c.Committed(); got != 8 {
		t.Fatalf("committed %d samples, want 8", got)
	}

	// A jump at the cap is still trusted and gap-filled.
	c2, _, _ := newRobustChain(t, chainSpec{Window: 8, Stride: 8, Reorder: 2})
	feedAt(t, c2, schema, 0, 0, 1+4*8+2)
	if _, err := c2.flush(); err != nil {
		t.Fatal(err)
	}
	st2 := c2.Stats()
	if st2.Implausible != 0 || st2.GapsFilled != 4*8+2 {
		t.Fatalf("in-cap jump mishandled: %+v", st2)
	}

	if _, err := newTestChain(chainSpec{Schema: schema, Extractor: mvts.Extractor{},
		Diagnose: (&countingDiagnoser{}).diagnose, Window: 8, Reorder: 4, MaxJump: 2}); err == nil {
		t.Fatal("MaxJump below the reorder horizon should be rejected")
	}
}

func TestClockSkewIsAnchoredAway(t *testing.T) {
	c, cd, schema := newRobustChain(t, chainSpec{Window: 8, Stride: 8, Reorder: 2})
	// A constant +1e6 skew must behave exactly like t starting at 0.
	feedAt(t, c, schema, 1_000_000, upTo(1_000_000, 1_000_016)...)
	st := c.Stats()
	if st.GapsFilled != 0 || st.Late != 0 || cd.calls != 2 {
		t.Fatalf("skewed feed mishandled: stats %+v, calls %d", st, cd.calls)
	}
}

func TestGapAbstainPolicy(t *testing.T) {
	c, cd, schema := newRobustChain(t, chainSpec{Window: 8, Stride: 8, Gap: stream.GapAbstain, MaxMissing: 0.3})
	// First window: half the cells missing -> abstain.
	for i := 0; i < 8; i++ {
		row := reading(schema, i)
		if i%2 == 0 {
			for m := range row {
				row[m] = math.NaN()
			}
		}
		ds, err := c.push(row)
		if err != nil {
			t.Fatal(err)
		}
		if i == 7 {
			if len(ds) != 1 || !ds[0].Abstained || ds[0].Label != stream.AbstainLabel {
				t.Fatalf("want abstention, got %+v", ds)
			}
			d := ds[0]
			if d.MissingFrac < 0.4 || d.MissingFrac > 0.6 {
				t.Fatalf("missing frac = %v, want ~0.5", d.MissingFrac)
			}
			if d.Confidence != 0 {
				t.Fatalf("abstention carries confidence %v", d.Confidence)
			}
		}
	}
	if cd.calls != 0 {
		t.Fatal("abstained window must not reach the classifier")
	}
	// Second window: clean -> diagnosed.
	var last []stream.Diagnosis
	for i := 8; i < 16; i++ {
		ds, err := c.push(reading(schema, i))
		if err != nil {
			t.Fatal(err)
		}
		if len(ds) > 0 {
			last = ds
		}
	}
	if len(last) != 1 || last[0].Abstained || last[0].Label != "healthy" {
		t.Fatalf("clean window should diagnose, got %+v", last)
	}
	st := c.Stats()
	if st.Windows != 2 || st.Abstained != 1 {
		t.Fatalf("stats = %+v, want Windows 2 Abstained 1", st)
	}
}

func TestNonFiniteConfidenceAbstains(t *testing.T) {
	c, _, schema := newRobustChain(t, chainSpec{
		Window: 8, Stride: 8,
		Diagnose: func([]float64) (string, float64, error) { return "cpuoccupy", math.NaN(), nil },
	})
	feedAt(t, c, schema, 0, upTo(0, 8)...)
	got := c.sink.Diagnoses
	if len(got) != 1 || !got[0].Abstained || got[0].Label != stream.AbstainLabel {
		t.Fatalf("NaN confidence should abstain, got %+v", got)
	}
	if st := c.Stats(); st.Abstained != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestHoldLastRepairOnDegradedWindow(t *testing.T) {
	c, cd, schema := newRobustChain(t, chainSpec{Window: 8, Stride: 8, Gap: stream.GapHoldLast})
	// One metric entirely NaN, another frozen; features must stay finite
	// (the counting diagnoser rejects Inf).
	for i := 0; i < 8; i++ {
		row := reading(schema, i)
		row[0] = math.NaN()
		row[1] = 42
		if _, err := c.push(row); err != nil {
			t.Fatal(err)
		}
	}
	if cd.calls != 1 {
		t.Fatalf("degraded window should still diagnose, calls = %d", cd.calls)
	}
}

// TestChaoticFeedFullAccounting drives a chain with the chaos
// injector's delivery stream (gaps, duplicates, reordering, skew) and
// checks the end-to-end contract: every completed window is diagnosed or
// abstained, nothing is silently dropped, and every confidence is
// finite.
func TestChaoticFeedFullAccounting(t *testing.T) {
	sys := telemetry.Volta(9)
	samples, err := sys.GenerateRun(telemetry.RunConfig{
		App: sys.App("CG"), Input: 0, Nodes: 1, Steps: 240, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts.InterpolateAll(samples[0].Data)
	inj, err := chaos.New(5,
		chaos.Fault{Kind: chaos.GapBurst, Intensity: 0.6},
		chaos.Fault{Kind: chaos.Duplicate, Intensity: 0.4},
		chaos.Fault{Kind: chaos.Reorder, Intensity: 0.6},
		chaos.Fault{Kind: chaos.ClockSkew, Intensity: 0.5},
		chaos.Fault{Kind: chaos.Drop, Intensity: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	feed := inj.DeliverStream(samples[0].Data)

	cd := &countingDiagnoser{}
	c := mustTestChain(t, chainSpec{
		Schema:     sys.Metrics,
		Extractor:  mvts.Extractor{},
		Diagnose:   cd.diagnose,
		Window:     32,
		Stride:     16,
		Reorder:    8,
		Gap:        stream.GapAbstain,
		MaxMissing: 0.6,
	})
	for _, r := range feed {
		if err := c.PushAt(r.T, r.Values); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	got := c.sink.Diagnoses

	st := c.Stats()
	if len(got) != st.Windows {
		t.Fatalf("emitted %d diagnoses for %d completed windows", len(got), st.Windows)
	}
	if st.Windows == 0 {
		t.Fatal("chaotic feed completed no windows")
	}
	diagnosed := 0
	for _, d := range got {
		if math.IsNaN(d.Confidence) || math.IsInf(d.Confidence, 0) {
			t.Fatalf("non-finite confidence: %+v", d)
		}
		if math.IsNaN(d.MissingFrac) {
			t.Fatalf("non-finite missing fraction: %+v", d)
		}
		if !d.Abstained {
			diagnosed++
		}
	}
	if diagnosed+st.Abstained != st.Windows {
		t.Fatalf("windows %d != diagnosed %d + abstained %d", st.Windows, diagnosed, st.Abstained)
	}
	// Delivery accounting covers the whole feed.
	if st.Pushed+st.Duplicates+st.Late != len(feed) {
		t.Fatalf("feed of %d readings accounted as pushed %d + dup %d + late %d",
			len(feed), st.Pushed, st.Duplicates, st.Late)
	}
}
