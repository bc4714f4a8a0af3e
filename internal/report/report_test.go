package report

import (
	"math"
	"strings"
	"testing"
)

func TestChartBasics(t *testing.T) {
	s := []Series{
		{Name: "up", X: []float64{0, 1, 2, 3}, Y: []float64{0, 1, 2, 3}},
		{Name: "down", X: []float64{0, 1, 2, 3}, Y: []float64{3, 2, 1, 0}},
	}
	out := Chart("title", s, 40, 10)
	if !strings.HasPrefix(out, "title\n") {
		t.Fatal("title missing")
	}
	if !strings.Contains(out, "* up") || !strings.Contains(out, "+ down") {
		t.Fatalf("legend missing:\n%s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "+") {
		t.Fatal("glyphs missing")
	}
	// Axis labels: min and max y.
	if !strings.Contains(out, "3") || !strings.Contains(out, "0") {
		t.Fatal("axis labels missing")
	}
	lines := strings.Split(out, "\n")
	// 10 grid rows + axis + x labels + title + 2 legend rows.
	if len(lines) < 14 {
		t.Fatalf("output too short: %d lines", len(lines))
	}
}

func TestChartRisingSeriesTopRight(t *testing.T) {
	s := []Series{{Name: "f1", X: []float64{0, 100}, Y: []float64{0.2, 0.9}}}
	out := Chart("", s, 20, 5)
	rows := strings.Split(out, "\n")
	top := rows[0]
	bottom := rows[4]
	// The max point lands in the top row's right side, the min in the
	// bottom row's left side.
	if !strings.Contains(top, "*") {
		t.Fatalf("top row has no point:\n%s", out)
	}
	if !strings.Contains(bottom, "*") {
		t.Fatalf("bottom row has no point:\n%s", out)
	}
	if strings.Index(top, "*") < strings.Index(bottom, "*") {
		t.Fatalf("rising series should end top-right:\n%s", out)
	}
}

func TestChartDegenerateInputs(t *testing.T) {
	if out := Chart("t", nil, 40, 10); !strings.Contains(out, "no data") {
		t.Fatal("empty input should say so")
	}
	// All-NaN series.
	s := []Series{{Name: "n", X: []float64{math.NaN()}, Y: []float64{math.NaN()}}}
	if out := Chart("", s, 40, 10); !strings.Contains(out, "no data") {
		t.Fatal("all-NaN should say no data")
	}
	// Constant series must not divide by zero.
	s = []Series{{Name: "c", X: []float64{1, 1}, Y: []float64{2, 2}}}
	out := Chart("", s, 40, 10)
	if !strings.Contains(out, "*") {
		t.Fatal("constant series should still plot")
	}
	// Tiny dimensions clamp.
	out = Chart("", s, 1, 1)
	if len(out) == 0 {
		t.Fatal("clamped chart should render")
	}
}

func TestChartMismatchedLengths(t *testing.T) {
	s := []Series{{Name: "m", X: []float64{0, 1, 2}, Y: []float64{5}}}
	out := Chart("", s, 30, 5)
	if !strings.Contains(out, "*") {
		t.Fatal("should plot the overlapping prefix")
	}
}
