package core

import (
	"testing"

	"albadross/internal/features/mvts"
	"albadross/internal/telemetry"
)

// TestGenerateDatasetEclipse checks the Eclipse campaign's specific
// structure: allocation sizes cycle over 4/8/16 nodes and the
// (app, anomaly) coverage holds with only six applications.
func TestGenerateDatasetEclipse(t *testing.T) {
	sys := telemetry.Eclipse(27)
	d, err := GenerateDataset(DataConfig{
		System:          sys,
		Extractor:       mvts.Extractor{},
		RunsPerAppInput: 10,
		Steps:           120,
		Seed:            2,
	})
	if err != nil {
		t.Fatal(err)
	}
	nodeCounts := map[int]int{}
	for i := range d.Meta {
		nodeCounts[d.Meta[i].Nodes]++
	}
	for _, n := range []int{4, 8, 16} {
		if nodeCounts[n] == 0 {
			t.Fatalf("no runs with %d nodes: %v", n, nodeCounts)
		}
	}
	// Eclipse: 6 apps x 5 anomalies = 30 pairs.
	pairs := map[string]bool{}
	for i := range d.Meta {
		if d.Y[i] != 0 {
			pairs[d.Meta[i].App+"#"+d.Classes[d.Y[i]]] = true
		}
	}
	if len(pairs) != 30 {
		t.Fatalf("pairs = %d, want 30", len(pairs))
	}
	// Intensities drawn from the Eclipse settings only.
	for i := range d.Meta {
		if d.Y[i] == 0 {
			continue
		}
		in := d.Meta[i].Intensity
		if in != 0.10 && in != 0.50 && in != 1.00 {
			t.Fatalf("unexpected eclipse intensity %v", in)
		}
	}
	// Anomaly types decorrelate from intensity: every type appears at
	// more than one intensity setting.
	seen := map[string]map[float64]bool{}
	for i := range d.Meta {
		if d.Y[i] == 0 {
			continue
		}
		cls := d.Classes[d.Y[i]]
		if seen[cls] == nil {
			seen[cls] = map[float64]bool{}
		}
		seen[cls][d.Meta[i].Intensity] = true
	}
	for cls, ins := range seen {
		if len(ins) < 2 {
			t.Fatalf("anomaly %s appears at only %d intensity setting(s)", cls, len(ins))
		}
	}
}

// TestNetworkLoadGrowsWithAllocation checks the simulator's
// node-count effect: a 16-node allocation pushes more network traffic
// per node than a 4-node one for the same application.
func TestNetworkLoadGrowsWithAllocation(t *testing.T) {
	// Averaged over every application so the per-(app, metric, nodes)
	// regime fingerprint washes out and the systematic netBoost remains.
	sys := telemetry.Eclipse(54)
	meanNetRate := func(nodes int) float64 {
		sum, n := 0.0, 0
		for ai := range sys.Apps {
			samples, err := sys.GenerateRun(telemetry.RunConfig{
				App: &sys.Apps[ai], Input: 0, Nodes: nodes, Steps: 200, Seed: 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			s := samples[0]
			if _, err := RunVector(s, telemetry.CumulativeFlags(sys.Metrics), mvts.Extractor{}); err != nil {
				t.Fatal(err)
			}
			for mi, m := range sys.Metrics {
				if m.Subsystem != telemetry.Network {
					continue
				}
				for _, v := range s.Data.Metrics[mi] {
					sum += v
					n++
				}
			}
		}
		return sum / float64(n)
	}
	small := meanNetRate(4)
	big := meanNetRate(16)
	if !(big > small*1.05) {
		t.Fatalf("16-node network rate %v not above 4-node %v", big, small)
	}
}
