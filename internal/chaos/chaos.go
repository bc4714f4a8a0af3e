// Package chaos is a seeded, composable telemetry fault injector for the
// robustness harness: it corrupts simulated (or recorded) LDMS node
// telemetry with the failure modes production monitoring actually
// exhibits — dropped samples, NaN bursts, stuck-at-value sensors,
// whole-metric dropout, duplicated and out-of-order delivery, clock
// skew, and truncated runs — each with a configurable intensity in
// [0, 1].
//
// The injector has two output surfaces matching the two consumption
// paths of the pipeline:
//
//   - DeliverStream turns a clean multivariate block into the arrival
//     sequence a streaming consumer (internal/stream) would observe,
//     with per-reading claimed timestamps carrying the delivery faults;
//   - Materialize / CorruptSample rebuild the telemetry a naive batch
//     consumer records from that sequence, for the offline pipeline
//     (preprocess → extract → diagnose).
//
// Every fault at intensity 0 is a strict no-op, so a zero-intensity
// injector reproduces its input exactly — the property the chaos-matrix
// experiment (internal/experiments.RunChaosMatrix) relies on to anchor
// its degradation curves at the fault-free baseline. All randomness is
// derived from the injector seed, so a given (seed, plan, input) triple
// always yields the same corruption.
package chaos

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"albadross/internal/telemetry"
	"albadross/internal/ts"
)

// Kind enumerates the injectable telemetry fault classes.
type Kind int

// The fault classes, roughly ordered from cell-level to run-level.
const (
	// Drop loses individual sensor readings: random cells become NaN,
	// like an LDMS sampler missing its deadline on one metric set.
	Drop Kind = iota
	// GapBurst loses whole sampling intervals in contiguous bursts: the
	// affected rows are never delivered, leaving gaps in the timestamp
	// sequence (aggregator outage, network partition).
	GapBurst
	// Stuck freezes a subset of sensors at their current value from a
	// random onset to the end of the run (hung sampler, saturated
	// counter).
	Stuck
	// MetricDropout blacks out whole metrics for the entire run (a
	// sampler plugin failing to load), i.e. missing columns.
	MetricDropout
	// Duplicate re-delivers readings with the same claimed timestamp
	// (at-least-once transport).
	Duplicate
	// Reorder jitters arrival order within a bounded horizon while
	// claimed timestamps stay correct (multi-path delivery).
	Reorder
	// ClockSkew offsets every claimed timestamp by a constant (an
	// unsynchronized node clock).
	ClockSkew
	// Truncate ends the run early (job killed, daemon restart).
	Truncate
	numKinds
)

// Kinds returns every fault class in declaration order.
func Kinds() []Kind {
	out := make([]Kind, numKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// String returns the canonical lower-case fault name.
func (k Kind) String() string {
	switch k {
	case Drop:
		return "drop"
	case GapBurst:
		return "gap"
	case Stuck:
		return "stuck"
	case MetricDropout:
		return "dropout"
	case Duplicate:
		return "duplicate"
	case Reorder:
		return "reorder"
	case ClockSkew:
		return "skew"
	case Truncate:
		return "truncate"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Fault is one fault class armed at an intensity in [0, 1]; 0 disables
// it entirely and 1 is the worst configured corruption, not total data
// loss — every intensity leaves enough telemetry for the pipeline to
// produce an answer (possibly an abstention).
type Fault struct {
	Kind      Kind
	Intensity float64
}

// Injector applies a composed fault plan deterministically.
type Injector struct {
	seed   int64
	faults []Fault
}

// New validates the plan and returns an injector. Multiple faults
// compose; repeating a kind keeps the maximum intensity.
func New(seed int64, faults ...Fault) (*Injector, error) {
	for _, f := range faults {
		if f.Kind < 0 || f.Kind >= numKinds {
			return nil, fmt.Errorf("chaos: invalid fault kind %d", int(f.Kind))
		}
		if f.Intensity < 0 || f.Intensity > 1 || math.IsNaN(f.Intensity) {
			return nil, fmt.Errorf("chaos: %s intensity %v outside [0,1]", f.Kind, f.Intensity)
		}
	}
	return &Injector{seed: seed, faults: append([]Fault{}, faults...)}, nil
}

// intensity returns the armed intensity for a kind (0 when absent).
func (inj *Injector) intensity(k Kind) float64 {
	p := 0.0
	for _, f := range inj.faults {
		if f.Kind == k && f.Intensity > p {
			p = f.Intensity
		}
	}
	return p
}

// Reading is one delivered stream record: the claimed sample timestep
// and the metric values observed at it (NaN marks missing cells).
type Reading struct {
	T      int
	Values []float64
}

// minKeep is the shortest run Truncate may leave: enough samples for
// transient trimming plus counter differencing downstream.
func minKeep(steps int) int {
	return 2*telemetry.TransientSteps(steps) + 18
}

// DeliverStream corrupts data (without mutating it) and returns the
// arrival sequence a streaming consumer would observe. Value faults
// (Drop, Stuck, MetricDropout) corrupt cells; GapBurst and Truncate
// remove rows from delivery; Duplicate, Reorder, and ClockSkew disturb
// the delivery itself. A plan with every intensity at 0 returns the
// input verbatim, one in-order reading per timestep.
func (inj *Injector) DeliverStream(data *ts.Multivariate) []Reading {
	nM := len(data.Metrics)
	steps := data.Steps()
	rng := rand.New(rand.NewSource(inj.seed))

	// Copy into row-major readings.
	rows := make([][]float64, steps)
	for t := 0; t < steps; t++ {
		row := make([]float64, nM)
		for m := 0; m < nM; m++ {
			row[m] = data.Metrics[m][t]
		}
		rows[t] = row
	}

	// Truncate: the run ends early, bounded so downstream preprocessing
	// still has room to trim transients and difference counters.
	if p := inj.intensity(Truncate); p > 0 && steps > minKeep(steps) {
		keep := steps - int(p*0.5*float64(steps))
		if floor := minKeep(steps); keep < floor {
			keep = floor
		}
		rows = rows[:keep]
	}

	// MetricDropout: whole metrics go dark for the run.
	if p := inj.intensity(MetricDropout); p > 0 && nM > 1 {
		dark := int(p * 0.4 * float64(nM))
		if dark >= nM {
			dark = nM - 1
		}
		for _, m := range rng.Perm(nM)[:dark] {
			for _, row := range rows {
				row[m] = math.NaN()
			}
		}
	}

	// Stuck: sensors freeze at their onset value until the end.
	if p := inj.intensity(Stuck); p > 0 && nM > 1 && len(rows) > 1 {
		stuck := 1 + int(p*0.5*float64(nM-1))
		for _, m := range rng.Perm(nM)[:stuck] {
			onset := rng.Intn(len(rows)-1) / 2 // bias early: longer stuck spans
			held := rows[onset][m]
			if math.IsNaN(held) {
				held = 0
			}
			for t := onset; t < len(rows); t++ {
				rows[t][m] = held
			}
		}
	}

	// Drop: individual cells are lost.
	if p := inj.intensity(Drop); p > 0 {
		prob := 0.3 * p
		for _, row := range rows {
			for m := range row {
				if rng.Float64() < prob {
					row[m] = math.NaN()
				}
			}
		}
	}

	// GapBurst: contiguous rows are never delivered.
	delivered := make([]bool, len(rows))
	for i := range delivered {
		delivered[i] = true
	}
	if p := inj.intensity(GapBurst); p > 0 && len(rows) > 4 {
		bursts := 1 + int(p*float64(len(rows))/25)
		maxLen := len(rows) / 20
		if maxLen < 2 {
			maxLen = 2
		}
		for b := 0; b < bursts; b++ {
			start := rng.Intn(len(rows))
			length := 1 + rng.Intn(maxLen)
			for t := start; t < start+length && t < len(rows); t++ {
				delivered[t] = false
			}
		}
		// Never black out everything: keep at least half the rows.
		kept := 0
		for _, d := range delivered {
			if d {
				kept++
			}
		}
		for t := 0; kept < (len(rows)+1)/2 && t < len(rows); t++ {
			if !delivered[t] {
				delivered[t] = true
				kept++
			}
		}
	}

	// Assemble the arrival sequence with claimed timestamps.
	skew := 0
	if p := inj.intensity(ClockSkew); p > 0 {
		skew = 1 + int(p*7)
	}
	dupProb := 0.2 * inj.intensity(Duplicate)
	out := make([]Reading, 0, len(rows))
	for t, row := range rows {
		if !delivered[t] {
			continue
		}
		r := Reading{T: t + skew, Values: row}
		out = append(out, r)
		if dupProb > 0 && rng.Float64() < dupProb {
			out = append(out, Reading{T: r.T, Values: append([]float64{}, row...)})
		}
	}

	// Reorder: jitter arrival positions within a bounded horizon.
	if p := inj.intensity(Reorder); p > 0 && len(out) > 1 {
		jitter := p * 6
		keys := make([]float64, len(out))
		for i := range out {
			keys[i] = float64(i) + rng.Float64()*jitter
		}
		idx := make([]int, len(out))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
		shuffled := make([]Reading, len(out))
		for i, j := range idx {
			shuffled[i] = out[j]
		}
		out = shuffled
	}
	return out
}

// Materialize rebuilds the telemetry block a naive batch consumer
// records from an arrival sequence: rows are appended in arrival order
// and claimed timestamps are ignored, so duplicates lengthen the run
// and reordering scrambles the local time axis — exactly the damage an
// unhardened collector ingests.
func Materialize(readings []Reading, nMetrics int) *ts.Multivariate {
	out := ts.NewMultivariate(nMetrics, len(readings))
	for t, r := range readings {
		for m := 0; m < nMetrics; m++ {
			v := math.NaN()
			if m < len(r.Values) {
				v = r.Values[m]
			}
			out.Metrics[m][t] = v
		}
	}
	return out
}

// CorruptSample returns a corrupted deep copy of a node sample (meta
// preserved), routing the telemetry through DeliverStream+Materialize
// so batch consumers see the same damage a stream would.
func (inj *Injector) CorruptSample(s *telemetry.NodeSample) *telemetry.NodeSample {
	return &telemetry.NodeSample{
		Meta: s.Meta,
		Data: Materialize(inj.DeliverStream(s.Data), len(s.Data.Metrics)),
	}
}
