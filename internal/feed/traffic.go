package feed

import (
	"strconv"

	"albadross/internal/fleet"
	"albadross/internal/hpas"
	"albadross/internal/runner"
	"albadross/internal/telemetry"
)

// Traffic is the pre-encoded fleet feed: for every node, the
// `"values":[…]` fragment of each tick of one cycle, rendered once
// during set-up. A request body is spliced from fragments at send time,
// so the generator costs a memcpy per row and its memory is bounded by
// nodes × cycle however long the run is.
type Traffic struct {
	cycle  int      // ticks before a node's readings repeat
	apps   []string // application attributed to each node
	labels []string // anomaly injected into each node (HealthyLabel if none)
	frags  [][]byte // frags[node*cycle+tick]
}

// NewTraffic simulates the fleet's telemetry: nodes are filled job by
// job (the system's smallest allocation), jobs cycle through the
// catalog's applications and input decks, and every second job carries
// an HPAS anomaly on its first node so the rollup has something to
// rank. Init/teardown transients are cut; the simulator's missing
// samples stay and travel as null.
func NewTraffic(sys *telemetry.SystemSpec, nodes, cycle int, seed int64) (*Traffic, error) {
	tr := &Traffic{
		cycle:  cycle,
		apps:   make([]string, 0, nodes),
		labels: make([]string, 0, nodes),
		frags:  make([][]byte, 0, nodes*cycle),
	}
	alloc := sys.NodeCounts[0]
	ramp := telemetry.TransientSteps(cycle)
	injectors := hpas.All()
	row := make(fleet.Values, len(sys.Metrics))
	for job := 0; len(tr.apps) < nodes; job++ {
		app := &sys.Apps[job%len(sys.Apps)]
		rc := telemetry.RunConfig{
			App: app, Input: job % len(app.Inputs), Nodes: alloc,
			Steps: cycle + 2*ramp, Seed: runner.CellSeed(seed, job),
		}
		if job%2 == 1 {
			rc.Injector = injectors[job/2%len(injectors)]
			rc.Intensity = sys.Intensities[len(sys.Intensities)-1]
		}
		samples, err := sys.GenerateRun(rc)
		if err != nil {
			return nil, err
		}
		for _, s := range samples {
			if len(tr.apps) == nodes {
				break
			}
			tr.apps = append(tr.apps, app.Name)
			tr.labels = append(tr.labels, s.Meta.Label())
			for t := ramp; t < ramp+cycle; t++ {
				for m := range row {
					row[m] = s.Data.Metrics[m][t]
				}
				enc, err := row.MarshalJSON()
				if err != nil {
					return nil, err
				}
				tr.frags = append(tr.frags, append([]byte(`"values":`), enc...))
			}
		}
	}
	return tr, nil
}

// Label is the anomaly injected into node n, as the simulator labels
// its sample.
func (tr *Traffic) Label(n int) string { return tr.labels[n] }

// AppendBody renders one bulk request into dst: one row per listed
// node, stamped with that node's next timestep.
func (tr *Traffic) AppendBody(dst []byte, nodes []int, next []int) []byte {
	dst = append(dst[:0], `{"rows":[`...)
	for i, n := range nodes {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"node":`...)
		dst = strconv.AppendInt(dst, int64(n), 10)
		dst = append(dst, `,"app":"`...)
		dst = append(dst, tr.apps[n]...)
		dst = append(dst, `","t":`...)
		dst = strconv.AppendInt(dst, int64(next[n]), 10)
		dst = append(dst, ',')
		dst = append(dst, tr.frags[n*tr.cycle+next[n]%tr.cycle]...)
		dst = append(dst, '}')
	}
	return append(dst, `]}`...)
}
