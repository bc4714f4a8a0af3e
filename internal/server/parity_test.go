package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"albadross/internal/active"
	"albadross/internal/ml/forest"
)

// TestServerMatchesLoop pins that the annotation server and active.Loop
// run the same loop: on the same data, split, factory and seed, every
// built-in strategy queries the same samples and reaches the same F1
// whether it is driven over HTTP or offline.
func TestServerMatchesLoop(t *testing.T) {
	const queries = 20
	d, split := newTestProblem(t)
	served := map[string][]int{}
	for _, name := range active.StrategyNames() {
		t.Run(name, func(t *testing.T) {
			strategy, _ := active.ByName(name)
			cfg := testConfig(d, split)
			cfg.Strategy = strategy
			// Shallow trees keep the leaves impure: with one-hot leaves the
			// committee's vote entropy equals the averaged-probability
			// entropy and the check below could not tell the two apart.
			cfg.Factory = forest.NewFactory(forest.Config{NEstimators: 8, MaxDepth: 2, Seed: 3})
			srv, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			var ids []int
			var f1 []float64
			for q := 0; q < queries; q++ {
				var next NextResponse
				getJSON(t, ts, "/api/next", &next)
				resp := postJSON(t, ts, "/api/label", LabelRequest{ID: next.ID, Label: d.Classes[d.Y[next.ID]]})
				var lr LabelResponse
				if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil || resp.StatusCode != http.StatusOK {
					t.Fatalf("query %d: label status %d, %v", q, resp.StatusCode, err)
				}
				resp.Body.Close()
				ids = append(ids, next.ID)
				f1 = append(f1, lr.Latest.F1)
			}
			served[name] = ids

			loop := &active.Loop{
				Factory: cfg.Factory, Strategy: strategy, Annotator: active.Oracle{D: d},
				HealthyClass: cfg.HealthyClass, Seed: cfg.Seed,
			}
			res, err := loop.Run(d, split.Initial, split.Pool, d.Subset(split.Test), active.RunConfig{MaxQueries: queries})
			if err != nil {
				t.Fatal(err)
			}
			var loopIDs []int
			var loopF1 []float64
			for _, rec := range res.Records[1:] {
				loopIDs = append(loopIDs, rec.DatasetIndex)
				loopF1 = append(loopF1, rec.F1)
			}
			if !reflect.DeepEqual(ids, loopIDs) {
				t.Fatalf("queried samples differ:\nserver %v\nloop   %v", ids, loopIDs)
			}
			if !reflect.DeepEqual(f1, loopF1) {
				t.Fatalf("per-query F1 differs:\nserver %v\nloop   %v", f1, loopF1)
			}
		})
	}
	// The forest is a Committee, so query-by-committee must not silently
	// degrade to its plain-entropy fallback.
	if c, e := served["committee"], served["entropy"]; c != nil && reflect.DeepEqual(c, e) {
		t.Fatalf("committee queried exactly what entropy did: %v", c)
	}
}
