package pipeline

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"albadross/internal/chaos"
	"albadross/internal/features/mvts"
	"albadross/internal/stream"
	"albadross/internal/telemetry"
	"albadross/internal/ts"
)

// synthSeries builds a deterministic multivariate series: trend,
// periodicity and noise per metric, with cumulative metrics growing
// monotonically.
func synthSeries(schema []telemetry.Metric, steps int, seed int64) *ts.Multivariate {
	rng := rand.New(rand.NewSource(seed))
	cum := telemetry.CumulativeFlags(schema)
	data := ts.NewMultivariate(len(schema), steps)
	acc := make([]float64, len(schema))
	for t := 0; t < steps; t++ {
		for m := range schema {
			v := 10*math.Sin(float64(t)/5+float64(m)) + rng.NormFloat64()
			if cum[m] {
				acc[m] += math.Abs(v)
				v = acc[m]
			}
			data.Metrics[m][t] = v
		}
	}
	return data
}

// chaosFeed produces the perturbed arrival sequence a streaming
// consumer would see for one shard.
func chaosFeed(t *testing.T, schema []telemetry.Metric, steps int, seed int64) []chaos.Reading {
	t.Helper()
	inj, err := chaos.New(seed,
		chaos.Fault{Kind: chaos.Drop, Intensity: 0.3},
		chaos.Fault{Kind: chaos.GapBurst, Intensity: 0.3},
		chaos.Fault{Kind: chaos.Duplicate, Intensity: 0.4},
		chaos.Fault{Kind: chaos.Reorder, Intensity: 0.5},
		chaos.Fault{Kind: chaos.ClockSkew, Intensity: 0.3},
	)
	if err != nil {
		t.Fatal(err)
	}
	return inj.DeliverStream(synthSeries(schema, steps, seed))
}

// bitPredict is a deterministic PredictFunc whose output
// depends on every bit of the feature vector: any single-ULP
// divergence between two paths flips the label or the confidence.
func bitPredict(vec []float64) (string, float64, error) {
	var h uint64 = 1469598103934665603
	for _, v := range vec {
		h ^= math.Float64bits(v)
		h *= 1099511628211
	}
	label := fmt.Sprintf("class-%d", h%5)
	conf := float64(h%1000003) / 1000003
	return label, conf, nil
}

// sameDiag compares two diagnoses bitwise (confidence and missing
// fraction included).
func sameDiag(a, b stream.Diagnosis) bool {
	return a.Label == b.Label &&
		math.Float64bits(a.Confidence) == math.Float64bits(b.Confidence) &&
		a.WindowEnd == b.WindowEnd &&
		a.Abstained == b.Abstained &&
		math.Float64bits(a.MissingFrac) == math.Float64bits(b.MissingFrac)
}

// streamerCfg is the shared test geometry under one of the two gap
// policies the replay and parity tests alternate: causal GapHoldLast
// repair, or GapAbstain refusing windows more than 40% missing.
func streamerCfg(schema []telemetry.Metric, gap stream.GapPolicy) chainSpec {
	cfg := chainSpec{
		Schema:    schema,
		Extractor: mvts.Extractor{},
		Diagnose:  bitPredict,
		Window:    32,
		Stride:    8,
		Reorder:   6,
		Gap:       gap,
	}
	if gap == stream.GapAbstain {
		cfg.MaxMissing = 0.4
	}
	return cfg
}

// TestGraphWorkerCountParity runs the same multi-shard source through
// graphs at several worker counts and requires byte-identical per-shard
// outputs — the runner determinism contract extended to the stage
// graph.
func TestGraphWorkerCountParity(t *testing.T) {
	schema := telemetry.BuildSchema(8)
	const shards = 6
	src := make(SliceSource, shards)
	for sh := range src {
		for _, r := range chaosFeed(t, schema, 300, int64(100+sh)) {
			src[sh] = append(src[sh], Event{T: r.T, Values: r.Values})
		}
	}
	run := func(workers int) ([][]stream.Diagnosis, []stream.Stats) {
		sinks := make([]*Collector, shards)
		chains := make([]*Chain, shards)
		for i := range chains {
			sinks[i] = &Collector{}
			gap := stream.GapAbstain
			if i%2 == 1 {
				gap = stream.GapHoldLast
			}
			chains[i] = buildChain(t, streamerCfg(schema, gap), sinks[i])
		}
		if err := NewGraph(chains...).Run(src, workers); err != nil {
			t.Fatal(err)
		}
		outs := make([][]stream.Diagnosis, shards)
		stats := make([]stream.Stats, shards)
		for i := range sinks {
			outs[i] = sinks[i].Diagnoses
			stats[i] = chains[i].Stats()
		}
		return outs, stats
	}
	wantOut, wantStats := run(1)
	for _, workers := range []int{2, 4, 8} {
		gotOut, gotStats := run(workers)
		for sh := 0; sh < shards; sh++ {
			if len(gotOut[sh]) != len(wantOut[sh]) {
				t.Fatalf("workers=%d shard %d: %d diagnoses vs %d", workers, sh, len(gotOut[sh]), len(wantOut[sh]))
			}
			for i := range wantOut[sh] {
				if !sameDiag(gotOut[sh][i], wantOut[sh][i]) {
					t.Fatalf("workers=%d shard %d diagnosis %d diverged", workers, sh, i)
				}
			}
			if gotStats[sh] != wantStats[sh] {
				t.Fatalf("workers=%d shard %d stats diverged", workers, sh)
			}
		}
	}
}
