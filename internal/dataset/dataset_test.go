package dataset

import (
	"math/rand"
	"testing"

	"albadross/internal/telemetry"
)

var classes = []string{"healthy", "cpuoccupy", "memleak"}

// synth builds a dataset of n samples over apps with roughly anomFrac
// anomalous samples split between the two anomaly classes.
func synth(t *testing.T, n int, apps []string, anomFrac float64, seed int64) *Dataset {
	t.Helper()
	d := New(classes)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		label := "healthy"
		if rng.Float64() < anomFrac {
			if rng.Float64() < 0.5 {
				label = "cpuoccupy"
			} else {
				label = "memleak"
			}
		}
		meta := telemetry.RunMeta{
			App:     apps[rng.Intn(len(apps))],
			Input:   rng.Intn(3),
			Anomaly: label,
		}
		x := []float64{rng.Float64(), rng.Float64(), float64(i)}
		if err := d.Add(x, label, meta); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestAddValidation(t *testing.T) {
	d := New(classes)
	if err := d.Add([]float64{1}, "healthy", telemetry.RunMeta{}); err != nil {
		t.Fatal(err)
	}
	if err := d.Add([]float64{1, 2}, "healthy", telemetry.RunMeta{}); err == nil {
		t.Fatal("dimension mismatch should error")
	}
	if err := d.Add([]float64{1}, "nope", telemetry.RunMeta{}); err == nil {
		t.Fatal("unknown class should error")
	}
	if d.Len() != 1 || d.Dim() != 1 {
		t.Fatalf("len=%d dim=%d", d.Len(), d.Dim())
	}
}

func TestClassIndexAfterManualConstruction(t *testing.T) {
	// A Dataset built by struct literal (e.g. from gob decode) must still
	// resolve class indices.
	d := &Dataset{Classes: []string{"a", "b"}}
	if i, ok := d.ClassIndex("b"); !ok || i != 1 {
		t.Fatalf("ClassIndex = %d, %v", i, ok)
	}
}

func TestSubset(t *testing.T) {
	d := synth(t, 20, []string{"BT"}, 0.5, 1)
	sub := d.Subset([]int{0, 5, 7})
	if sub.Len() != 3 {
		t.Fatalf("subset len = %d", sub.Len())
	}
	if sub.Y[1] != d.Y[5] || sub.Meta[2].App != d.Meta[7].App {
		t.Fatal("subset misaligned")
	}
}

func TestStratifiedSplitPreservesRatios(t *testing.T) {
	d := synth(t, 600, []string{"BT", "CG"}, 0.3, 2)
	train, test, err := StratifiedSplit(d.Y, len(classes), 0.25, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(train)+len(test) != d.Len() {
		t.Fatal("split loses samples")
	}
	seen := map[int]bool{}
	for _, i := range append(append([]int{}, train...), test...) {
		if seen[i] {
			t.Fatalf("index %d appears twice", i)
		}
		seen[i] = true
	}
	// Per-class test fraction within tolerance.
	total := d.ClassCounts()
	testCounts := make([]int, len(classes))
	for _, i := range test {
		testCounts[d.Y[i]]++
	}
	for c := range classes {
		if total[c] == 0 {
			continue
		}
		frac := float64(testCounts[c]) / float64(total[c])
		if frac < 0.15 || frac > 0.35 {
			t.Fatalf("class %d test fraction = %v, want ~0.25", c, frac)
		}
	}
}

func TestStratifiedSplitValidation(t *testing.T) {
	if _, _, err := StratifiedSplit([]int{0, 1}, 2, 0, 1); err == nil {
		t.Fatal("zero fraction should error")
	}
	if _, _, err := StratifiedSplit(nil, 2, 0.5, 1); err == nil {
		t.Fatal("empty labels should error")
	}
	// Tiny classes keep at least one sample in train.
	train, test, err := StratifiedSplit([]int{0, 1, 1}, 2, 0.9, 1)
	if err != nil {
		t.Fatal(err)
	}
	hasTrain := map[int]bool{}
	for _, i := range train {
		hasTrain[[]int{0, 1, 1}[i]] = true
	}
	if !hasTrain[0] || !hasTrain[1] {
		t.Fatalf("every class should keep a train sample: train=%v test=%v", train, test)
	}
}

func TestStratifiedKFold(t *testing.T) {
	d := synth(t, 300, []string{"BT"}, 0.4, 5)
	folds, err := StratifiedKFold(d.Y, len(classes), 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(folds) != 5 {
		t.Fatalf("folds = %d", len(folds))
	}
	seen := map[int]bool{}
	total := 0
	for _, f := range folds {
		total += len(f)
		for _, i := range f {
			if seen[i] {
				t.Fatalf("index %d in two folds", i)
			}
			seen[i] = true
		}
	}
	if total != d.Len() {
		t.Fatalf("folds cover %d of %d", total, d.Len())
	}
	if _, err := StratifiedKFold(d.Y, len(classes), 1, 7); err == nil {
		t.Fatal("k=1 should error")
	}
}

func TestMakeALSplit(t *testing.T) {
	apps := []string{"BT", "CG", "FT"}
	d := synth(t, 2000, apps, 0.45, 11)
	split, err := MakeALSplit(d, ALSplitConfig{
		TestFraction: 0.3, AnomalyRatio: 0.10, HealthyClass: 0, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Initial: one sample per (app, anomaly-class) pair present, no healthy.
	pairSeen := map[string]int{}
	for _, i := range split.Initial {
		if d.Y[i] == 0 {
			t.Fatal("initial set must not contain healthy samples")
		}
		key := d.Meta[i].App + "#" + d.Classes[d.Y[i]]
		pairSeen[key]++
	}
	if len(pairSeen) != len(split.Initial) {
		t.Fatal("initial set has duplicate (app, anomaly) pairs")
	}
	if len(split.Initial) != len(apps)*2 { // 2 anomaly classes
		t.Fatalf("initial = %d, want %d", len(split.Initial), len(apps)*2)
	}
	// Disjointness.
	seen := map[int]string{}
	mark := func(idx []int, tag string) {
		for _, i := range idx {
			if prev, ok := seen[i]; ok {
				t.Fatalf("index %d in both %s and %s", i, prev, tag)
			}
			seen[i] = tag
		}
	}
	mark(split.Initial, "initial")
	mark(split.Pool, "pool")
	mark(split.Test, "test")
	// Anomaly ratio of initial+pool at most ~10%.
	anom, tot := 0, 0
	count := func(idx []int) {
		for _, i := range idx {
			tot++
			if d.Y[i] != 0 {
				anom++
			}
		}
	}
	count(split.Initial)
	count(split.Pool)
	ratio := float64(anom) / float64(tot)
	if ratio > 0.105 {
		t.Fatalf("anomaly ratio = %v, want <= 0.10", ratio)
	}
	if ratio < 0.05 {
		t.Fatalf("anomaly ratio = %v suspiciously low", ratio)
	}
}

func TestMakeALSplitValidation(t *testing.T) {
	d := synth(t, 50, []string{"BT"}, 0.4, 1)
	if _, err := MakeALSplit(New(classes), ALSplitConfig{TestFraction: 0.3, AnomalyRatio: 0.1}); err == nil {
		t.Fatal("empty dataset should error")
	}
	if _, err := MakeALSplit(d, ALSplitConfig{TestFraction: 0.3, AnomalyRatio: 0}); err == nil {
		t.Fatal("bad ratio should error")
	}
	if _, err := MakeALSplit(d, ALSplitConfig{TestFraction: 0.3, AnomalyRatio: 0.1, HealthyClass: 9}); err == nil {
		t.Fatal("bad healthy class should error")
	}
}

func TestMakeALSplitDeterministic(t *testing.T) {
	d := synth(t, 500, []string{"BT", "CG"}, 0.4, 21)
	cfg := ALSplitConfig{TestFraction: 0.3, AnomalyRatio: 0.1, Seed: 5}
	a, err := MakeALSplit(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MakeALSplit(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eq := func(x, y []int) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !eq(a.Initial, b.Initial) || !eq(a.Pool, b.Pool) || !eq(a.Test, b.Test) {
		t.Fatal("AL split not deterministic")
	}
}

func TestFilterIndices(t *testing.T) {
	d := synth(t, 100, []string{"BT", "CG", "FT"}, 0.3, 31)
	bt := d.FilterIndices(func(m telemetry.RunMeta) bool { return m.App == "BT" })
	for _, i := range bt {
		if d.Meta[i].App != "BT" {
			t.Fatal("filter returned wrong sample")
		}
	}
}
