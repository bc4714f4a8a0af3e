package ts

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func nan() float64 { return math.NaN() }

func TestInterpolateInterior(t *testing.T) {
	s := Series{1, nan(), nan(), 4}
	filled := Interpolate(s)
	if filled != 2 {
		t.Fatalf("filled = %d, want 2", filled)
	}
	want := Series{1, 2, 3, 4}
	for i := range want {
		if math.Abs(s[i]-want[i]) > 1e-12 {
			t.Fatalf("s[%d] = %v, want %v", i, s[i], want[i])
		}
	}
}

func TestInterpolateEdges(t *testing.T) {
	s := Series{nan(), nan(), 5, 6, nan()}
	Interpolate(s)
	want := Series{5, 5, 5, 6, 6}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("s[%d] = %v, want %v", i, s[i], want[i])
		}
	}
}

func TestInterpolateAllNaN(t *testing.T) {
	s := Series{nan(), nan(), nan()}
	if filled := Interpolate(s); filled != 3 {
		t.Fatalf("filled = %d, want 3", filled)
	}
	for i, v := range s {
		if v != 0 {
			t.Fatalf("s[%d] = %v, want 0", i, v)
		}
	}
}

func TestQuickInterpolateNoNaNRemains(t *testing.T) {
	f := func(vals []float64, mask []bool) bool {
		s := make(Series, len(vals))
		for i, v := range vals {
			if math.IsInf(v, 0) {
				v = 0
			}
			if i < len(mask) && mask[i] {
				s[i] = math.NaN()
			} else {
				s[i] = v
			}
		}
		Interpolate(s)
		for _, v := range s {
			if math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickInterpolateBounded(t *testing.T) {
	// Interpolated values stay within [min, max] of the finite values.
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		n := 3 + rng.Intn(50)
		s := make(Series, n)
		lo, hi := math.Inf(1), math.Inf(-1)
		finite := 0
		for i := range s {
			if rng.Float64() < 0.4 {
				s[i] = math.NaN()
			} else {
				s[i] = rng.NormFloat64() * 10
				if s[i] < lo {
					lo = s[i]
				}
				if s[i] > hi {
					hi = s[i]
				}
				finite++
			}
		}
		if finite == 0 {
			continue
		}
		Interpolate(s)
		for i, v := range s {
			if v < lo-1e-9 || v > hi+1e-9 {
				t.Fatalf("trial %d: s[%d]=%v outside [%v,%v]", trial, i, v, lo, hi)
			}
		}
	}
}

func TestDiff(t *testing.T) {
	d := diffInPlace(Series{10, 12, 15, 14, 20})
	want := Series{2, 3, 0, 6} // negative delta clamped
	if len(d) != len(want) {
		t.Fatalf("len = %d, want %d", len(d), len(want))
	}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("d[%d] = %v, want %v", i, d[i], want[i])
		}
	}
	if len(diffInPlace(Series{5})) != 0 {
		t.Fatal("diff of single sample should be empty")
	}
}

func TestDiffCounters(t *testing.T) {
	m := &Multivariate{Metrics: []Series{
		{0, 10, 30, 60}, // cumulative
		{1, 2, 3, 4},    // gauge
	}}
	if err := DiffCounters(m, []bool{true, false}); err != nil {
		t.Fatal(err)
	}
	if m.Steps() != 3 {
		t.Fatalf("steps = %d, want 3", m.Steps())
	}
	if m.Metrics[0][0] != 10 || m.Metrics[0][2] != 30 {
		t.Fatalf("counter diffs wrong: %v", m.Metrics[0])
	}
	if m.Metrics[1][0] != 2 || m.Metrics[1][2] != 4 {
		t.Fatalf("gauge truncation wrong: %v", m.Metrics[1])
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := DiffCounters(m, []bool{true}); err == nil {
		t.Fatal("mismatched flags should error")
	}
}

func TestTrim(t *testing.T) {
	m := NewMultivariate(2, 10)
	for i := 0; i < 10; i++ {
		m.Metrics[0][i] = float64(i)
	}
	if err := Trim(m, 2, 3); err != nil {
		t.Fatal(err)
	}
	if m.Steps() != 5 {
		t.Fatalf("steps = %d, want 5", m.Steps())
	}
	if m.Metrics[0][0] != 2 || m.Metrics[0][4] != 6 {
		t.Fatalf("trim content wrong: %v", m.Metrics[0])
	}
	if err := Trim(m, 3, 3); err == nil {
		t.Fatal("over-trim should error")
	}
	if err := Trim(m, -1, 0); err == nil {
		t.Fatal("negative trim should error")
	}
}

func TestMinMaxScaler(t *testing.T) {
	train := [][]float64{{0, 10, 5}, {10, 20, 5}}
	sc, err := FitMinMax(train)
	if err != nil {
		t.Fatal(err)
	}
	test := [][]float64{{5, 15, 5}, {20, 10, 7}}
	if err := sc.Transform(test); err != nil {
		t.Fatal(err)
	}
	if test[0][0] != 0.5 || test[0][1] != 0.5 {
		t.Fatalf("row0 = %v", test[0])
	}
	if test[0][2] != 0 || test[1][2] != 0 {
		t.Fatal("constant column should map to 0")
	}
	if test[1][0] != 2 { // extrapolation beyond training max
		t.Fatalf("extrapolated = %v, want 2", test[1][0])
	}
	if _, err := FitMinMax(nil); err == nil {
		t.Fatal("empty fit should error")
	}
}

func TestMinMaxScalerNaNHandling(t *testing.T) {
	train := [][]float64{{nan(), 1}, {2, 3}}
	sc, err := FitMinMax(train)
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]float64{{nan(), 2}}
	if err := sc.Transform(rows); err != nil {
		t.Fatal(err)
	}
	if rows[0][0] != 0 {
		t.Fatalf("NaN should map to 0, got %v", rows[0][0])
	}
	if rows[0][1] != 0.5 {
		t.Fatalf("col1 = %v, want 0.5", rows[0][1])
	}
}

func TestQuickMinMaxInUnitIntervalOnTrainData(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 100; trial++ {
		rows := 1 + rng.Intn(20)
		cols := 1 + rng.Intn(10)
		x := make([][]float64, rows)
		for i := range x {
			x[i] = make([]float64, cols)
			for j := range x[i] {
				x[i][j] = rng.NormFloat64() * 100
			}
		}
		sc, err := FitMinMax(x)
		if err != nil {
			t.Fatal(err)
		}
		if err := sc.Transform(x); err != nil {
			t.Fatal(err)
		}
		for i := range x {
			for j := range x[i] {
				if x[i][j] < -1e-9 || x[i][j] > 1+1e-9 {
					t.Fatalf("train value out of [0,1]: %v", x[i][j])
				}
			}
		}
	}
}

func TestMultivariateValidateClone(t *testing.T) {
	m := NewMultivariate(3, 4)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	m.Metrics[1] = m.Metrics[1][:2]
	if err := m.Validate(); err == nil {
		t.Fatal("ragged block should fail validation")
	}
	m2 := NewMultivariate(2, 2)
	m2.Metrics[0][0] = 42
	cl := m2.Clone()
	cl.Metrics[0][0] = 0
	if m2.Metrics[0][0] != 42 {
		t.Fatal("clone must not alias")
	}
}
