package obs_test

// This test is the contract behind docs/OBSERVABILITY.md's claim of
// completeness: it imports every instrumented package (registering all
// metric families on the default registry), walks the registry, and
// fails if any family is missing from the document, or if the
// document's catalog lists a family that is not registered.

import (
	"os"
	"strings"
	"testing"

	"albadross/internal/obs"

	// Imported for their metric-registration side effects: each package
	// registers its families on obs.Default() at init.
	_ "albadross/internal/active"
	_ "albadross/internal/drift"
	_ "albadross/internal/features"
	_ "albadross/internal/fleet"
	_ "albadross/internal/ml"
	_ "albadross/internal/ml/forest"
	_ "albadross/internal/registry"
	_ "albadross/internal/server"
	_ "albadross/internal/stream"
)

func TestEveryFamilyIsDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatalf("reading docs/OBSERVABILITY.md: %v", err)
	}
	text := string(doc)
	fams := obs.Default().Families()
	if len(fams) < 20 {
		t.Fatalf("only %d families registered — instrumented packages missing from the import list?", len(fams))
	}
	registered := map[string]bool{}
	for _, f := range fams {
		registered[f.Name] = true
	}
	// Every catalog row starts with its family's name: "| `name` |".
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, "| `")
		if !ok {
			continue
		}
		name, _, _ := strings.Cut(rest, "`")
		if !registered[name] {
			t.Errorf("docs/OBSERVABILITY.md lists %s, which no package registers", name)
		}
	}
	for _, f := range fams {
		// The catalog lists each family in a table cell as `name`.
		if !strings.Contains(text, "`"+f.Name+"`") {
			t.Errorf("family %s (%v) is not documented in docs/OBSERVABILITY.md", f.Name, f.Kind)
		}
		if f.Help == "" {
			t.Errorf("family %s registered without Help text", f.Name)
		}
		if f.Unit == "" {
			t.Errorf("family %s registered without a Unit", f.Name)
		}
	}
}

// TestFamilyNamingConventions keeps the registry Prometheus-idiomatic:
// counters end in _total, histograms measuring time end in _seconds.
func TestFamilyNamingConventions(t *testing.T) {
	for _, f := range obs.Default().Families() {
		switch f.Kind {
		case obs.KindCounter:
			if !strings.HasSuffix(f.Name, "_total") {
				t.Errorf("counter %s should end in _total", f.Name)
			}
		case obs.KindHistogram:
			if f.Unit == "seconds" && !strings.HasSuffix(f.Name, "_seconds") {
				t.Errorf("seconds histogram %s should end in _seconds", f.Name)
			}
		}
	}
}
