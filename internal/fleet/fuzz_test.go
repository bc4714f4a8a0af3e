package fleet_test

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"albadross/internal/fleet"
)

// FuzzValuesDecode holds the hand-rolled numbers-and-nulls scanner
// behind every ingest body to encoding/json: on any valid JSON document
// Values.UnmarshalJSON must accept exactly what decoding into
// []*float64 accepts and produce the same cells bit for bit (null ->
// NaN), whether it allocates or reuses the receiver's backing array,
// and what it decoded must survive its own MarshalJSON. On bytes that
// are not JSON at all — which encoding/json never hands an Unmarshaler,
// but a direct caller can — it only has to fail or succeed without
// panicking.
func FuzzValuesDecode(f *testing.F) {
	for _, seed := range []string{
		`[]`, `[ ]`, `[1,2,3]`, `[null]`, `[1.5,null,-2e-3]`, " [\n1 ,\tnull\r]\n",
		`[1e400]`, `[-0]`, `[0.1,0.2,0.30000000000000004]`, `[1,]`, `[,1]`, `[1 2]`, `[[1]]`,
		`["1"]`, `[true]`, `null`, `{}`, `[1`, `1]`, `[NaN]`, `[Inf]`, `[0x1p4]`, `[.5]`, `[+1]`, ``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got fleet.Values
		gotErr := got.UnmarshalJSON(data)

		// Reusing a receiver with spare capacity must not change the verdict
		// or the cells.
		reused := make(fleet.Values, 3, 64)
		if err := reused.UnmarshalJSON(data); (err == nil) != (gotErr == nil) {
			t.Fatalf("%q: fresh receiver err %v, reused receiver err %v", data, gotErr, err)
		} else if err == nil && !sameCells(got, reused) {
			t.Fatalf("%q: fresh receiver %v, reused receiver %v", data, got, reused)
		}

		if !json.Valid(data) || string(bytes.TrimSpace(data)) == "null" {
			// Not a document encoding/json would pass on, or the null it
			// resolves itself: no reference to compare against.
			return
		}
		var ref []*float64
		refErr := json.Unmarshal(data, &ref)
		if (gotErr == nil) != (refErr == nil) {
			t.Fatalf("%q: Values err %v, encoding/json err %v", data, gotErr, refErr)
		}
		if gotErr != nil {
			return
		}
		want := make(fleet.Values, len(ref))
		for i, p := range ref {
			want[i] = math.NaN()
			if p != nil {
				want[i] = *p
			}
		}
		if !sameCells(got, want) {
			t.Fatalf("%q: Values %v, encoding/json %v", data, got, want)
		}
		wire, err := got.MarshalJSON()
		if err != nil {
			t.Fatalf("%q: re-encoding %v: %v", data, got, err)
		}
		var back fleet.Values
		if err := back.UnmarshalJSON(wire); err != nil || !sameCells(back, got) {
			t.Fatalf("%q: %v re-encoded as %q decoded to %v (err %v)", data, got, wire, back, err)
		}
	})
}

// sameCells compares two vectors bit for bit, treating every NaN as the
// one missing-cell marker.
func sameCells(a, b fleet.Values) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.IsNaN(a[i]) != math.IsNaN(b[i]) {
			return false
		}
		if !math.IsNaN(a[i]) && math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
