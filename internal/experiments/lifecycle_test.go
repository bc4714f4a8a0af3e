package experiments

import (
	"strings"
	"testing"
)

// TestRunLifecycleTiny drives the full lifecycle chaos scenario at CI
// sizing. The scenario asserts its own invariants (drift is reported
// and changes no model, a label publishes a model whose probe differs,
// the poisoned candidate is quarantined and never serves, rollback
// restores byte-identical predictions, the bounded shadow queue sheds
// under overload) — a violation surfaces as an error here.
func TestRunLifecycleTiny(t *testing.T) {
	cfg := Config{
		System: "volta", Extractor: "mvts", Metrics: 27,
		RunsPerAppInput: 2, Steps: 60, TopK: 40,
		Splits: 1, MaxQueries: 10, EvalEvery: 1, Seed: 1,
	}
	res, err := RunLifecycle(cfg, LifecycleDefaults(Tiny))
	if err != nil {
		t.Fatal(err)
	}
	wantPhases := []string{"clean", "drift", "label", "poison", "rollback", "overload"}
	if len(res.Phases) != len(wantPhases) {
		t.Fatalf("recorded %d phases, want %d: %+v", len(res.Phases), len(wantPhases), res.Phases)
	}
	for i, w := range wantPhases {
		if res.Phases[i].Name != w {
			t.Fatalf("phase %d = %q, want %q", i, res.Phases[i].Name, w)
		}
	}
	if res.Phases[0].Promotions != 0 || res.Phases[0].Drifted {
		t.Fatalf("clean phase saw lifecycle action: %+v", res.Phases[0])
	}
	v1 := res.Phases[0].ActiveVersion
	if p := res.Phases[1]; !p.Drifted || p.Promotions != 0 || p.ActiveVersion != v1 {
		t.Fatalf("drift phase: %+v, want drifted with no promotion, v%d serving", p, v1)
	}
	if p := res.Phases[2]; p.ActiveVersion == v1 || p.Promotions != 0 {
		t.Fatalf("label phase: %+v, want a published version other than v%d", p, v1)
	}
	if res.Phases[3].Quarantines < 1 {
		t.Fatalf("poison phase quarantines = %d, want >= 1", res.Phases[3].Quarantines)
	}
	if res.Phases[4].ActiveVersion != v1 {
		t.Fatalf("rollback landed on v%d, want v%d", res.Phases[4].ActiveVersion, v1)
	}
	if res.Shed == 0 {
		t.Fatal("overload phase shed no batches")
	}
	if res.RegistryLen < 2 {
		t.Fatalf("registry holds %d entries at scenario end", res.RegistryLen)
	}

	sum := res.Summary()
	for _, w := range append(wantPhases, "unseen app") {
		if !strings.Contains(sum, w) {
			t.Fatalf("summary missing %q:\n%s", w, sum)
		}
	}
	var csv strings.Builder
	if err := res.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "phase,rows,active_version") ||
		!strings.Contains(csv.String(), "rollback") {
		t.Fatalf("csv malformed:\n%s", csv.String())
	}
}
