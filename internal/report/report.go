// Package report renders experiment series as ASCII charts, so the
// tables and figures regenerated by cmd/experiments can be eyeballed in
// a terminal without any plotting stack — the text equivalent of the
// paper's figure panels.
package report

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named line of a chart.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// glyphs mark successive series; they cycle if there are more series.
var glyphs = []byte{'*', '+', 'o', 'x', '#', '@', '%', '~'}

// Chart renders the series into a width x height character grid with a
// y-axis (min/max labels), an x-axis, and a legend. NaN points are
// skipped. Empty input yields a note instead of a panic.
func Chart(title string, series []Series, width, height int) string {
	if width < 16 {
		width = 16
	}
	if height < 4 {
		height = 4
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	points := 0
	for _, s := range series {
		for i := range s.X {
			if i >= len(s.Y) || math.IsNaN(s.X[i]) || math.IsNaN(s.Y[i]) {
				continue
			}
			points++
			minX = math.Min(minX, s.X[i])
			maxX = math.Max(maxX, s.X[i])
			minY = math.Min(minY, s.Y[i])
			maxY = math.Max(maxY, s.Y[i])
		}
	}
	var b strings.Builder
	if title != "" {
		b.WriteString(title)
		b.WriteByte('\n')
	}
	if points == 0 {
		b.WriteString("  (no data)\n")
		return b.String()
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		g := glyphs[si%len(glyphs)]
		for i := range s.X {
			if i >= len(s.Y) || math.IsNaN(s.X[i]) || math.IsNaN(s.Y[i]) {
				continue
			}
			col := int((s.X[i] - minX) / (maxX - minX) * float64(width-1))
			row := height - 1 - int((s.Y[i]-minY)/(maxY-minY)*float64(height-1))
			grid[row][col] = g
		}
	}
	yTop := fmt.Sprintf("%.3g", maxY)
	yBot := fmt.Sprintf("%.3g", minY)
	pad := len(yTop)
	if len(yBot) > pad {
		pad = len(yBot)
	}
	for r := range grid {
		label := strings.Repeat(" ", pad)
		switch r {
		case 0:
			label = fmt.Sprintf("%*s", pad, yTop)
		case height - 1:
			label = fmt.Sprintf("%*s", pad, yBot)
		}
		fmt.Fprintf(&b, "%s |%s\n", label, string(grid[r]))
	}
	fmt.Fprintf(&b, "%s +%s\n", strings.Repeat(" ", pad), strings.Repeat("-", width))
	fmt.Fprintf(&b, "%s  %-*.4g%*.4g\n", strings.Repeat(" ", pad), width/2, minX, width-width/2, maxX)
	// Legend.
	for si, s := range series {
		fmt.Fprintf(&b, "  %c %s\n", glyphs[si%len(glyphs)], s.Name)
	}
	return b.String()
}
