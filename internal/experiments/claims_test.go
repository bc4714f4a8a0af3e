package experiments

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"albadross/internal/dataset"
)

// fingerprint folds a dataset bitwise into FNV-1a: every X bit
// pattern, Y, Classes, FeatureNames and every Meta field.
func fingerprint(d *dataset.Dataset) uint64 {
	h := fnv.New64a()
	var b [8]byte
	word := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	word(uint64(len(d.X)))
	for _, row := range d.X {
		word(uint64(len(row)))
		for _, v := range row {
			word(math.Float64bits(v))
		}
	}
	for _, y := range d.Y {
		word(uint64(y))
	}
	fmt.Fprintf(h, "%q %q %#v", d.Classes, d.FeatureNames, d.Meta)
	return h.Sum64()
}

// TestClaimsRunnersLeaveDataIntact backs RunClaims' sharing of one
// dataset across a seed's runners: on a shrunken tiny config, every
// runner body leaves the dataset bitwise as BuildData made it.
func TestClaimsRunnersLeaveDataIntact(t *testing.T) {
	for _, system := range []string{"volta", "eclipse"} {
		cfg := Default(system, Tiny)
		cfg.Extractor, cfg.Splits, cfg.MaxQueries, cfg.Steps, cfg.TopK, cfg.RunsPerAppInput = "mvts", 1, 3, 40, 30, 4
		d, sys, err := BuildData(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := fingerprint(d)
		type body struct {
			name string
			run  func() error
		}
		bodies := []body{
			{"curves", func() error { _, err := runCurves(cfg, d); return err }},
			{"table5", func() error { _, err := runTable5(cfg, d); return err }},
		}
		if system == "volta" {
			bodies = append(bodies,
				body{"unseen apps", func() error { _, err := runUnseenApps(cfg, d, sys); return err }},
				body{"unseen inputs", func() error { _, err := runUnseenInputs(cfg, d); return err }})
		}
		for _, b := range bodies {
			if err := b.run(); err != nil {
				t.Fatalf("%s %s: %v", system, b.name, err)
			}
			if got := fingerprint(d); got != want {
				t.Fatalf("%s: %s changed the shared dataset (fingerprint %x, was %x)", system, b.name, got, want)
			}
		}
	}
}

// curve builds a method's curve from (queried, F1) pairs.
func curve(method string, pts ...float64) Curve {
	c := Curve{Method: method}
	for i := 0; i+1 < len(pts); i += 2 {
		c.Points = append(c.Points, CurvePoint{Queried: int(pts[i]), F1: pts[i+1]})
	}
	return c
}

func TestClaimChecks(t *testing.T) {
	r := &CurvesResult{Curves: []Curve{
		curve("uncertainty", 0, 0.6, 10, 0.91, 20, 0.96),
		curve("margin", 0, 0.6, 10, 0.85, 20, 0.92),
		curve("random", 0, 0.6, 10, 0.7, 20, 0.8),
		curve("proctor", 0, 0.6, 20, 0.75),
	}}
	for _, tc := range []struct {
		name string
		got  bool
		want bool
	}{
		{"uncertainty before random, which never reaches", first(fewerLabels(r, "uncertainty", "random", 0.90)), true},
		{"random never reaches: not fewer", first(fewerLabels(r, "random", "uncertainty", 0.90)), false},
		{"margin later than uncertainty", first(fewerLabels(r, "margin", "uncertainty", 0.90)), false},
		{"end ahead by 0.16", first(endAhead(r.Curves, "uncertainty", "random", 0.02)), true},
		{"end 0.04 behind, within a -0.05 margin", first(endAhead(r.Curves, "margin", "uncertainty", -0.05)), true},
		{"end behind", first(endAhead(r.Curves, "random", "margin", 0.02)), false},
		{"margin 10 after the fastest, slack 10", first(nearFastest(r, "margin", 0.90, 10)), true},
		{"margin 10 after the fastest, slack 9", first(nearFastest(r, "margin", 0.90, 9)), false},
		{"proctor lowest", first(endsLowest(r, "proctor")), true},
		{"random not lowest", first(endsLowest(r, "random")), false},
		{"missing curve", first(fewerLabels(r, "entropy", "random", 0.90)), false},
		{"reduction 20x >= 10x", first(reduction(&Table5Result{PoolSize: 2000, SamplesTo: map[float64]float64{0.95: 100}}, 10)), true},
		{"reduction 5x < 10x", first(reduction(&Table5Result{PoolSize: 500, SamplesTo: map[float64]float64{0.95: 100}}, 10)), false},
		{"0.95 never reached", first(reduction(&Table5Result{PoolSize: 500, SamplesTo: map[float64]float64{0.95: -1}}, 10)), false},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, tc.got, tc.want)
		}
	}
}

func first(ok bool, _ string) bool { return ok }

// TestClaimVerdicts judges a claim over five seeds: it holds in four
// and fails in three, and the CSV row says so per seed.
func TestClaimVerdicts(t *testing.T) {
	v := ClaimVerdict{ID: "x", Need: 4, Held: []bool{true, true, false, true, true}, Detail: []string{"a", "b", "c", "d", "e"}}
	if !v.Holds() || v.HeldCount() != 4 {
		t.Fatalf("4 of 5 with need 4: holds %v, count %d", v.Holds(), v.HeldCount())
	}
	v.Held[0] = false
	if v.Holds() {
		t.Fatal("3 of 5 with need 4 holds")
	}
	r := &ClaimsResult{Runs: []ClaimsRun{{Seed: 1}, {Seed: 2}, {Seed: 3}, {Seed: 4}, {Seed: 5}}, Verdicts: []ClaimVerdict{v}}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[1][3] != "3" || rows[1][6] != "fails" || rows[1][7] != "1:n (a); 2:y (b); 3:n (c); 4:y (d); 5:y (e)" {
		t.Fatalf("claims.csv rows %q", rows)
	}
}
