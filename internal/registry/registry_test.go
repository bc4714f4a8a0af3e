package registry

import (
	"strings"
	"sync"
	"testing"
)

type fake struct {
	version uint64
	name    string
}

func mk(name string) func(uint64) *fake {
	return func(v uint64) *fake { return &fake{version: v, name: name} }
}

func TestLifecycleStates(t *testing.T) {
	r := New[*fake](5)
	if r.Active() != nil {
		t.Fatal("fresh registry has an active entry")
	}
	a := r.Add(mk("a"), Meta{Origin: "initial", TrainHash: 0xabc, TrainSize: 10})
	if a.Version != 1 || a.Payload.version != 1 {
		t.Fatalf("first version = %d/%d, want 1", a.Version, a.Payload.version)
	}
	// Candidates don't serve.
	if r.Active() != nil {
		t.Fatal("candidate became active without Promote")
	}
	if err := r.Promote(a.Version); err != nil {
		t.Fatal(err)
	}
	if got := r.Active(); got != a {
		t.Fatalf("active = %+v, want entry a", got)
	}
	// Double promotion is rejected.
	if err := r.Promote(a.Version); err == nil {
		t.Fatal("promoting an active entry should error")
	}

	b := r.Add(mk("b"), Meta{Origin: "label"})
	if err := r.Promote(b.Version); err != nil {
		t.Fatal(err)
	}
	if r.Active() != b {
		t.Fatal("promotion did not swap the active pointer")
	}
	// a retired; listing reflects it.
	var aState State
	for _, info := range r.List() {
		if info.Version == a.Version {
			aState = info.State
		}
	}
	if aState != Retired {
		t.Fatalf("previous active state = %s, want retired", aState)
	}
}

func TestQuarantineIsTerminal(t *testing.T) {
	r := New[*fake](5)
	a := r.Add(mk("a"), Meta{})
	if err := r.Promote(a.Version); err != nil {
		t.Fatal(err)
	}
	bad := r.Add(mk("poisoned"), Meta{Origin: "drift-retrain"})
	if err := r.Quarantine(bad.Version, "agreement 0.12 below gate"); err != nil {
		t.Fatal(err)
	}
	if err := r.Promote(bad.Version); err == nil {
		t.Fatal("quarantined entry promoted")
	}
	if err := r.Quarantine(bad.Version, "again"); err == nil {
		t.Fatal("double quarantine should error")
	}
	if r.Active() != a {
		t.Fatal("quarantine disturbed the active pointer")
	}
	for _, info := range r.List() {
		if info.Version == bad.Version {
			if info.State != Quarantined || !strings.Contains(info.Reason, "agreement") {
				t.Fatalf("quarantined info = %+v", info)
			}
		}
	}
}

func TestRollbackSkipsQuarantinedAndRolledBack(t *testing.T) {
	r := New[*fake](10)
	versions := make([]*Entry[*fake], 0, 3)
	for _, n := range []string{"v1", "v2", "v3"} {
		e := r.Add(mk(n), Meta{})
		if err := r.Promote(e.Version); err != nil {
			t.Fatal(err)
		}
		versions = append(versions, e)
	}
	// Active v3; retired v1, v2. Roll back → v2.
	got, err := r.Rollback("operator")
	if err != nil {
		t.Fatal(err)
	}
	if got != versions[1] || r.Active() != versions[1] {
		t.Fatalf("rollback landed on %+v, want v2", got)
	}
	// v3 is RolledBack now: a second rollback must land on v1, not v3.
	got, err = r.Rollback("operator")
	if err != nil {
		t.Fatal(err)
	}
	if got != versions[0] {
		t.Fatalf("second rollback landed on version %d, want v1", got.Version)
	}
	// Nothing retired below v1 remains.
	if _, err := r.Rollback("operator"); err == nil {
		t.Fatal("rollback with no target should error")
	}
}

func TestPromoteUnlessStale(t *testing.T) {
	r := New[*fake](5)
	first := r.Add(mk("first"), Meta{TrainSize: 10})
	if ok, err := r.PromoteUnlessStale(first.Version); !ok || err != nil {
		t.Fatalf("first promotion: %v, %v", ok, err)
	}
	newer := r.Add(mk("newer"), Meta{TrainSize: 11})
	same := r.Add(mk("same"), Meta{TrainSize: 11})
	stale := r.Add(mk("stale"), Meta{TrainSize: 10})
	if ok, err := r.PromoteUnlessStale(newer.Version); !ok || err != nil {
		t.Fatalf("newer: %v, %v", ok, err)
	}
	if ok, err := r.PromoteUnlessStale(stale.Version); ok || err != nil {
		t.Fatalf("stale: %v, %v", ok, err)
	}
	if r.Active() != newer {
		t.Fatalf("active = %+v after a stale candidate, want newer", r.Active().Payload)
	}
	for _, info := range r.List() {
		if info.Version == stale.Version && (info.State != Quarantined || !strings.Contains(info.Reason, "stale")) {
			t.Fatalf("stale entry recorded as %+v", info)
		}
	}
	if ok, err := r.PromoteUnlessStale(same.Version); !ok || err != nil || r.Active() != same {
		t.Fatalf("equal size: %v, %v", ok, err)
	}
	if _, err := r.PromoteUnlessStale(stale.Version); err == nil {
		t.Fatal("a quarantined entry promoted")
	}
	if _, err := r.PromoteUnlessStale(99); err == nil {
		t.Fatal("an unknown version promoted")
	}
}

func TestRollbackWithoutActive(t *testing.T) {
	r := New[*fake](5)
	if _, err := r.Rollback("x"); err == nil {
		t.Fatal("rollback on empty registry should error")
	}
}

func TestEvictionKeepsLiveEntries(t *testing.T) {
	r := New[*fake](3)
	var last *Entry[*fake]
	for i := 0; i < 6; i++ {
		last = r.Add(mk("m"), Meta{})
		if err := r.Promote(last.Version); err != nil {
			t.Fatal(err)
		}
	}
	if r.Len() != 3 {
		t.Fatalf("len = %d, want 3 after eviction", r.Len())
	}
	if r.Active() != last {
		t.Fatal("eviction displaced the active entry")
	}
	// Lowest versions went first: the survivors are the newest three.
	for _, info := range r.List() {
		if info.Version < 4 {
			t.Fatalf("old version %d survived eviction", info.Version)
		}
	}
	// A candidate is never evicted even at capacity.
	cand := r.Add(mk("cand"), Meta{})
	for i := 0; i < 3; i++ {
		e := r.Add(mk("m"), Meta{})
		if err := r.Promote(e.Version); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.Get(cand.Version); got == nil {
		t.Fatal("candidate evicted while awaiting its decision")
	}
}

func TestStatsRoundTrip(t *testing.T) {
	r := New[*fake](5)
	e := r.Add(mk("a"), Meta{})
	if err := r.SetStats(e.Version, Stats{Agreement: 0.97, MacroF1: 0.88, ShadowRows: 512}); err != nil {
		t.Fatal(err)
	}
	infos := r.List()
	if len(infos) != 1 || infos[0].Stats == nil {
		t.Fatalf("stats missing from listing: %+v", infos)
	}
	if s := infos[0].Stats; s.ShadowRows != 512 || s.Agreement != 0.97 { //albacheck:ignore floatsafe round-trip test requires bit-exact equality
		t.Fatalf("stats = %+v", s)
	}
	if err := r.SetStats(999, Stats{}); err == nil {
		t.Fatal("stats on unknown version should error")
	}
}

func TestConcurrentReadersSeeCompleteEntries(t *testing.T) {
	r := New[*fake](4)
	e := r.Add(mk("seed"), Meta{})
	if err := r.Promote(e.Version); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				a := r.Active()
				if a == nil {
					t.Error("active pointer vanished mid-churn")
					return
				}
				// Payload must be fully built: its version matches.
				if a.Payload == nil || a.Payload.version != a.Version {
					t.Errorf("half-published entry: %+v", a)
					return
				}
				_ = r.List()
			}
		}()
	}
	for i := 0; i < 200; i++ {
		n := r.Add(mk("churn"), Meta{})
		if err := r.Promote(n.Version); err != nil {
			t.Fatal(err)
		}
		if i%3 == 2 {
			if _, err := r.Rollback("test"); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
}
