package core

import (
	"math"
	"testing"

	"albadross/internal/features"
	"albadross/internal/features/mvts"
	"albadross/internal/features/tsfresh"
	"albadross/internal/hpas"
	"albadross/internal/telemetry"
	"albadross/internal/ts"
)

// referenceRunVector is the run preparation as a sequence of separate
// steps, kept as RunVector's oracle: interpolate the whole run, trim the
// transients into freshly allocated series, difference the counters,
// extract. It works on a clone, so s is untouched; it returns the vector
// and the prepared block.
func referenceRunVector(t *testing.T, s *telemetry.NodeSample, cumulative []bool, ex features.Extractor) ([]float64, *ts.Multivariate) {
	t.Helper()
	m := s.Data.Clone()
	ts.InterpolateAll(m)
	n := m.Steps()
	trim := telemetry.TransientSteps(n)
	for i, series := range m.Metrics {
		m.Metrics[i] = series[trim : n-trim].Clone()
	}
	if err := ts.DiffCounters(m, cumulative); err != nil {
		t.Fatal(err)
	}
	return features.ExtractSample(ex, m), m
}

// punchHoles writes NaN where preparation order matters: runs of cells
// straddling both trim boundaries, scattered cells inside both
// transients (first and last samples included), and one metric missing
// for the whole run.
func punchHoles(m *ts.Multivariate, seed int) {
	n := m.Steps()
	trim := telemetry.TransientSteps(n)
	nan := math.NaN()
	for mi, series := range m.Metrics {
		switch (mi + seed) % 4 {
		case 0: // the first kept step, and a gap across the head boundary
			series[trim] = nan
			for t := trim - 2; t <= trim+2; t++ {
				series[t] = nan
			}
		case 1: // the last kept step, and a gap across the tail boundary
			series[n-trim-1] = nan
			for t := n - trim - 3; t <= n-trim+1; t++ {
				series[t] = nan
			}
		case 2: // inside the transients only
			series[0], series[trim-1], series[n-1], series[n-trim] = nan, nan, nan, nan
		}
	}
	for t := range m.Metrics[seed%len(m.Metrics)] {
		m.Metrics[seed%len(m.Metrics)][t] = nan
	}
}

// sameBits compares two vectors bitwise, with every NaN equal to every
// other.
func sameBits(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for j := range a {
		if math.IsNaN(a[j]) && math.IsNaN(b[j]) {
			continue
		}
		if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
			return j, false
		}
	}
	return 0, true
}

// TestRunVectorMatchesReference pins RunVector — stream.BlockVector with
// the run's transients trimmed — bitwise to the reference sequence, over
// generated Volta and Eclipse runs whose NaN cells sit where trimming
// before repair, or not trimming, changes the answer, with both
// extractors on a narrow schema. The prepared block RunVector leaves in
// the sample must equal the reference's too. (Trimming after
// differencing keeps the same cells and the same pairwise deltas, so it
// is not a distinguishable order.)
func TestRunVectorMatchesReference(t *testing.T) {
	memleak, err := hpas.New(hpas.MemLeak)
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []*telemetry.SystemSpec{telemetry.Volta(12), telemetry.Eclipse(12)} {
		cumulative := telemetry.CumulativeFlags(sys.Metrics)
		var counters int
		for _, c := range cumulative {
			if c {
				counters++
			}
		}
		if counters == 0 || counters == len(cumulative) {
			t.Fatalf("%s: schema needs both counters and gauges, has %d of %d counters", sys.Name, counters, len(cumulative))
		}
		var runs []*telemetry.NodeSample
		for ri, rc := range []telemetry.RunConfig{
			{App: &sys.Apps[0], Input: 0, Nodes: 2, Steps: 150, Seed: 11},
			{App: &sys.Apps[1], Input: 1, Nodes: 1, Steps: 420, Seed: 12, Injector: memleak, Intensity: sys.Intensities[0]},
		} {
			samples, err := sys.GenerateRun(rc)
			if err != nil {
				t.Fatal(err)
			}
			for si, s := range samples {
				punchHoles(s.Data, ri*2+si)
			}
			runs = append(runs, samples...)
		}
		for _, ex := range []features.Extractor{mvts.Extractor{}, tsfresh.Extractor{}} {
			for ri, s := range runs {
				want, wantBlock := referenceRunVector(t, s, cumulative, ex)
				work := &telemetry.NodeSample{Meta: s.Meta, Data: s.Data.Clone()}
				got, err := RunVector(work, cumulative, ex)
				if err != nil {
					t.Fatal(err)
				}
				if j, ok := sameBits(got, want); !ok {
					t.Fatalf("%s %s run %d: RunVector differs from the reference at feature %d (widths %d, %d)",
						sys.Name, ex.Name(), ri, j, len(got), len(want))
				}
				if work.Data.Steps() != wantBlock.Steps() {
					t.Fatalf("%s %s run %d: prepared block has %d steps, reference %d",
						sys.Name, ex.Name(), ri, work.Data.Steps(), wantBlock.Steps())
				}
				for mi := range wantBlock.Metrics {
					if _, ok := sameBits(work.Data.Metrics[mi], wantBlock.Metrics[mi]); !ok {
						t.Fatalf("%s %s run %d: prepared metric %d differs from the reference", sys.Name, ex.Name(), ri, mi)
					}
				}
			}
		}
	}
}
