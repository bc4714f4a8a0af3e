package ts

import (
	"math"
	"testing"
	"testing/quick"
)

// Property: diffInPlace output is non-negative (wrap clamping) and one shorter.
func TestQuickDiffProperties(t *testing.T) {
	f := func(raw []float64) bool {
		s := make(Series, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			s = append(s, v)
		}
		d := diffInPlace(s.Clone())
		if len(s) >= 2 && len(d) != len(s)-1 {
			return false
		}
		for _, v := range d {
			if v < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: diffInPlace of a cumulative sum recovers the rates exactly (for
// non-negative rates).
func TestQuickDiffInvertsCumsum(t *testing.T) {
	f := func(raw []float64) bool {
		rates := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			rates = append(rates, math.Abs(math.Mod(v, 1e6)))
		}
		if len(rates) == 0 {
			return true
		}
		counter := make(Series, len(rates)+1)
		for i, r := range rates {
			counter[i+1] = counter[i] + r
		}
		back := diffInPlace(counter.Clone())
		for i := range rates {
			tol := 1e-9 * (1 + counter[i+1])
			if math.Abs(back[i]-rates[i]) > tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// maskedSeries builds a series from raw values (Inf mapped to 0) with
// NaN holes where mask is true.
func maskedSeries(raw []float64, mask []bool) Series {
	s := make(Series, len(raw))
	for i, v := range raw {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			v = 0
		}
		if i < len(mask) && mask[i] {
			s[i] = math.NaN()
		} else {
			s[i] = v
		}
	}
	return s
}

// Property: after Interpolate no NaN remains — whatever the gap layout
// (leading, trailing, interior, or every sample missing) — and the
// finite samples are untouched.
func TestQuickInterpolateTotal(t *testing.T) {
	f := func(raw []float64, mask []bool) bool {
		s := maskedSeries(raw, mask)
		orig := s.Clone()
		Interpolate(s)
		for i := range s {
			if math.IsNaN(s[i]) || math.IsInf(s[i], 0) {
				return false
			}
			if !math.IsNaN(orig[i]) && s[i] != orig[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: HoldLast is total, causal and idempotent — no NaN remains,
// every filled sample equals the nearest finite sample at or before it
// (after leading backfill), finite samples are untouched, and a second
// pass changes nothing.
func TestQuickHoldLastProperties(t *testing.T) {
	f := func(raw []float64, mask []bool) bool {
		s := maskedSeries(raw, mask)
		orig := s.Clone()
		HoldLast(s)
		first := -1
		for i, v := range orig {
			if !math.IsNaN(v) {
				first = i
				break
			}
		}
		for i := range s {
			if math.IsNaN(s[i]) {
				return false
			}
			switch {
			case first == -1:
				if s[i] != 0 {
					return false
				}
			case !math.IsNaN(orig[i]):
				if s[i] != orig[i] {
					return false
				}
			case i < first:
				if s[i] != orig[first] {
					return false
				}
			default:
				// Nearest finite original at or before i.
				j := i
				for math.IsNaN(orig[j]) {
					j--
				}
				if s[i] != orig[j] {
					return false
				}
			}
		}
		cp := s.Clone()
		if n := HoldLast(s); n != 0 {
			return false
		}
		for i := range s {
			if s[i] != cp[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Edge cases that matter under telemetry chaos: leading, trailing and
// total gaps.
func TestGapEdgeRepairs(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name         string
		in           Series
		wantInterp   Series
		wantHoldLast Series
	}{
		{"leading", Series{nan, nan, 4, 6}, Series{4, 4, 4, 6}, Series{4, 4, 4, 6}},
		{"trailing", Series{2, 4, nan, nan}, Series{2, 4, 4, 4}, Series{2, 4, 4, 4}},
		{"interior", Series{0, nan, nan, 6}, Series{0, 2, 4, 6}, Series{0, 0, 0, 6}},
		{"all-nan", Series{nan, nan, nan}, Series{0, 0, 0}, Series{0, 0, 0}},
		{"single", Series{nan, 5, nan}, Series{5, 5, 5}, Series{5, 5, 5}},
	}
	for _, c := range cases {
		got := c.in.Clone()
		Interpolate(got)
		for i := range got {
			if got[i] != c.wantInterp[i] {
				t.Errorf("%s: Interpolate = %v, want %v", c.name, got, c.wantInterp)
				break
			}
		}
		got = c.in.Clone()
		HoldLast(got)
		for i := range got {
			if got[i] != c.wantHoldLast[i] {
				t.Errorf("%s: HoldLast = %v, want %v", c.name, got, c.wantHoldLast)
				break
			}
		}
	}
}

// countNaN returns the number of NaN samples in the block.
func countNaN(m *Multivariate) int {
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

// Property: the NaN count agrees with what InterpolateAll ends up filling on
// blocks that have at least one finite sample per series.
func TestQuickCountNaNMatchesFill(t *testing.T) {
	f := func(raw []float64, mask []bool) bool {
		s := maskedSeries(raw, mask)
		if len(s) == 0 {
			return true
		}
		s[0] = 1 // ensure a finite anchor so fills == NaN count
		m := &Multivariate{Metrics: []Series{s}}
		want := countNaN(m)
		return InterpolateAll(m) == want && countNaN(m) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: interpolation is idempotent — a second pass changes nothing.
func TestQuickInterpolateIdempotent(t *testing.T) {
	f := func(raw []float64, mask []bool) bool {
		s := make(Series, len(raw))
		for i, v := range raw {
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
		cp := s.Clone()
		if n := Interpolate(s); n != 0 {
			return false
		}
		for i := range s {
			if s[i] != cp[i] && !(math.IsNaN(s[i]) && math.IsNaN(cp[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
