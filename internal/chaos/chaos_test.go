package chaos

import (
	"math"
	"testing"

	"albadross/internal/telemetry"
	"albadross/internal/ts"
)

// genSample builds one clean simulated node sample.
func genSample(t *testing.T, steps int, seed int64) (*telemetry.NodeSample, *telemetry.SystemSpec) {
	t.Helper()
	sys := telemetry.Volta(27)
	samples, err := sys.GenerateRun(telemetry.RunConfig{
		App: sys.App("CG"), Input: 0, Nodes: 1, Steps: steps, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Remove the simulator's own missing samples so corruption accounting
	// starts from a clean slate.
	ts.InterpolateAll(samples[0].Data)
	return samples[0], sys
}

func TestNewValidatesPlan(t *testing.T) {
	if _, err := New(1, Fault{Kind: Drop, Intensity: 1.5}); err == nil {
		t.Fatal("intensity > 1 should error")
	}
	if _, err := New(1, Fault{Kind: Kind(99), Intensity: 0.5}); err == nil {
		t.Fatal("invalid kind should error")
	}
	if _, err := New(1, Fault{Kind: Drop, Intensity: math.NaN()}); err == nil {
		t.Fatal("NaN intensity should error")
	}
}

// Zero intensity must reproduce the input exactly, fault by fault.
func TestZeroIntensityIsIdentity(t *testing.T) {
	s, _ := genSample(t, 200, 3)
	for _, k := range Kinds() {
		inj, err := New(7, Fault{Kind: k, Intensity: 0})
		if err != nil {
			t.Fatal(err)
		}
		readings := inj.DeliverStream(s.Data)
		if len(readings) != s.Data.Steps() {
			t.Fatalf("%s@0: %d readings for %d steps", k, len(readings), s.Data.Steps())
		}
		for i, r := range readings {
			if r.T != i {
				t.Fatalf("%s@0: reading %d claims t=%d", k, i, r.T)
			}
			for m := range r.Values {
				if r.Values[m] != s.Data.Metrics[m][i] {
					t.Fatalf("%s@0: value changed at t=%d m=%d", k, i, m)
				}
			}
		}
	}
}

func TestDeterministicAndNonMutating(t *testing.T) {
	s, _ := genSample(t, 200, 3)
	before := s.Data.Clone()
	inj, err := New(11,
		Fault{Kind: Drop, Intensity: 0.5},
		Fault{Kind: Reorder, Intensity: 0.5},
		Fault{Kind: Duplicate, Intensity: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	a := inj.DeliverStream(s.Data)
	// Input untouched.
	for m := range before.Metrics {
		for tt := range before.Metrics[m] {
			if s.Data.Metrics[m][tt] != before.Metrics[m][tt] {
				t.Fatal("DeliverStream mutated its input")
			}
		}
	}
	inj2, _ := New(11,
		Fault{Kind: Drop, Intensity: 0.5},
		Fault{Kind: Reorder, Intensity: 0.5},
		Fault{Kind: Duplicate, Intensity: 0.5})
	b := inj2.DeliverStream(s.Data)
	if len(a) != len(b) {
		t.Fatalf("non-deterministic length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].T != b[i].T {
			t.Fatal("non-deterministic delivery order")
		}
	}
}

// countNaN returns the number of NaN samples in the block.
func countNaN(m *ts.Multivariate) int {
	n := 0
	for _, s := range m.Metrics {
		for _, v := range s {
			if math.IsNaN(v) {
				n++
			}
		}
	}
	return n
}

func TestFaultEffects(t *testing.T) {
	s, _ := genSample(t, 300, 5)
	steps := s.Data.Steps()
	nM := len(s.Data.Metrics)

	t.Run("drop", func(t *testing.T) {
		inj, _ := New(1, Fault{Kind: Drop, Intensity: 1})
		out := Materialize(inj.DeliverStream(s.Data), nM)
		if n := countNaN(out); n == 0 || n >= steps*nM/2 {
			t.Fatalf("drop@1 NaN cells = %d of %d", n, steps*nM)
		}
	})
	t.Run("gap", func(t *testing.T) {
		inj, _ := New(1, Fault{Kind: GapBurst, Intensity: 1})
		readings := inj.DeliverStream(s.Data)
		if len(readings) >= steps || len(readings) < steps/2 {
			t.Fatalf("gap@1 delivered %d of %d rows", len(readings), steps)
		}
		// Claimed timestamps must skip the lost rows.
		gaps := 0
		for i := 1; i < len(readings); i++ {
			if readings[i].T != readings[i-1].T+1 {
				gaps++
			}
		}
		if gaps == 0 {
			t.Fatal("gap fault left no timestamp gaps")
		}
	})
	t.Run("stuck", func(t *testing.T) {
		inj, _ := New(1, Fault{Kind: Stuck, Intensity: 1})
		out := Materialize(inj.DeliverStream(s.Data), nM)
		frozen := 0
		for m := 0; m < nM; m++ {
			tail := out.Metrics[m][steps-10:]
			same := true
			for _, v := range tail {
				if v != tail[0] {
					same = false
					break
				}
			}
			if same {
				frozen++
			}
		}
		if frozen == 0 {
			t.Fatal("stuck fault froze no metric tails")
		}
	})
	t.Run("dropout", func(t *testing.T) {
		inj, _ := New(1, Fault{Kind: MetricDropout, Intensity: 1})
		out := Materialize(inj.DeliverStream(s.Data), nM)
		dark := 0
		for m := 0; m < nM; m++ {
			allNaN := true
			for _, v := range out.Metrics[m] {
				if !math.IsNaN(v) {
					allNaN = false
					break
				}
			}
			if allNaN {
				dark++
			}
		}
		if dark == 0 || dark >= nM {
			t.Fatalf("dropout@1 darkened %d of %d metrics", dark, nM)
		}
	})
	t.Run("duplicate", func(t *testing.T) {
		inj, _ := New(1, Fault{Kind: Duplicate, Intensity: 1})
		readings := inj.DeliverStream(s.Data)
		if len(readings) <= steps {
			t.Fatalf("duplicate@1 delivered %d rows for %d steps", len(readings), steps)
		}
	})
	t.Run("reorder", func(t *testing.T) {
		inj, _ := New(1, Fault{Kind: Reorder, Intensity: 1})
		readings := inj.DeliverStream(s.Data)
		inverted := 0
		for i := 1; i < len(readings); i++ {
			if readings[i].T < readings[i-1].T {
				inverted++
			}
		}
		if inverted == 0 {
			t.Fatal("reorder fault kept delivery in order")
		}
	})
	t.Run("skew", func(t *testing.T) {
		inj, _ := New(1, Fault{Kind: ClockSkew, Intensity: 1})
		readings := inj.DeliverStream(s.Data)
		if readings[0].T == 0 {
			t.Fatal("clock skew left timestamps unshifted")
		}
	})
	t.Run("truncate", func(t *testing.T) {
		inj, _ := New(1, Fault{Kind: Truncate, Intensity: 1})
		readings := inj.DeliverStream(s.Data)
		if len(readings) >= steps {
			t.Fatal("truncate delivered the full run")
		}
		if len(readings) < 2*telemetry.TransientSteps(steps)+18 {
			t.Fatalf("truncate left only %d rows — below the preprocessing floor", len(readings))
		}
	})
}

func TestCorruptSamplePreservesMeta(t *testing.T) {
	s, _ := genSample(t, 200, 9)
	inj, _ := New(2, Fault{Kind: Drop, Intensity: 0.5})
	out := inj.CorruptSample(s)
	if out.Meta != s.Meta {
		t.Fatal("meta not preserved")
	}
	if out.Data == s.Data {
		t.Fatal("corrupted sample shares the input block")
	}
}
