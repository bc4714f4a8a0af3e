package active

import (
	"reflect"
	"strings"
	"testing"

	"albadross/internal/ml/forest"
)

// outOfRange is a strategy bug: a pool position past the end.
type outOfRange struct{ Random }

func (outOfRange) Next(ctx *QueryContext) int { return len(ctx.Meta) }

func TestSessionSteps(t *testing.T) {
	d, initial, pool, _ := buildALProblem(t, 4)
	s := NewSession(d, initial, pool, Oracle{D: d}, Uncertainty{}, 5, 0)
	fit := func() *forest.Forest {
		m := forest.New(forest.Config{NEstimators: 10, MaxDepth: 6, Seed: 1})
		x, y := s.Training()
		if err := m.Fit(x, y, len(d.Classes)); err != nil {
			t.Fatal(err)
		}
		return m
	}
	model := fit()
	if s.Pending() != -1 || s.Queries() != 0 || s.PoolSize() != len(pool) {
		t.Fatalf("fresh session: pending %d, queries %d, pool %d", s.Pending(), s.Queries(), s.PoolSize())
	}
	di, probs, err := s.Next(model)
	if err != nil {
		t.Fatal(err)
	}
	if s.Pending() != di || !reflect.DeepEqual(probs, model.PredictProba(d.X[di])) {
		t.Fatalf("pending %d after Next returned %d, probs %v", s.Pending(), di, probs)
	}
	// The pending query is re-served unchanged, whatever model is passed.
	if again, probs2, _ := s.Next(nil); again != di || !reflect.DeepEqual(probs2, probs) {
		t.Fatalf("pending query changed: %d -> %d", di, again)
	}

	x0, y0 := s.Training()
	before := append([]int{}, y0...)
	s.Label(d.Y[di])
	x1, y1 := s.Training()
	if len(x1) != len(x0)+1 || y1[len(y1)-1] != d.Y[di] || !reflect.DeepEqual(y0, before) {
		t.Fatalf("training view after Label: %d -> %d rows, earlier view now %v", len(x0), len(x1), y0)
	}
	if got := s.Labeled(); got[len(got)-1] != di || s.Pending() != -1 || s.Queries() != 1 || s.PoolSize() != len(pool)-1 {
		t.Fatalf("after Label: labeled tail %d, pending %d, queries %d, pool %d", got[len(got)-1], s.Pending(), s.Queries(), s.PoolSize())
	}
	if next, _, _ := s.Next(fit()); next == di {
		t.Fatalf("sample %d queried twice", di)
	}

	bad := NewSession(d, initial, pool, Oracle{D: d}, outOfRange{}, 5, 0)
	if _, _, err := bad.Next(model); err == nil || !strings.Contains(err.Error(), "pool position") || bad.Pending() != -1 {
		t.Fatalf("out-of-range strategy: err %v, pending %d", err, bad.Pending())
	}
}
