package fleet_test

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"albadross/internal/fleet"
)

// bulkBody mirrors the server's ingest request type
// (server.BulkIngestRequest), so encoding/json can referee the wire
// decoder inside this package. The server's FuzzIngestWireDecode holds
// it to the real type.
type bulkBody struct {
	Rows []fleet.Row `json:"rows"`
}

// wireEdges are bodies on either side of every rule the decoder shares
// with encoding/json.
var wireEdges = []string{
	``, ` `, `null`, ` null `, `nul`, `{}`, `[]`, `1`, `"rows"`, `true`, `{`, `}`,
	`{"rows":[{"node":1,"app":"BT","t":2,"values":[1,null,-2.5e-3]}]}`,
	`{"shard":7,"readings":[{"t":3,"values":[1,2]},{"t":4,"values":[]}]}`,
	" {\n\"rows\" : [ { \"node\" : 1 , \"values\" : [ 1 , null ] } ] }\r\n\t",
	// Keys: case folding, escapes, unknown fields of every shape.
	`{"ROWS":[{"Node":3,"APP":"x","T":4,"valueſ":[1]}],"SHARD":2,"Readings":[{"T":1,"VALUES":[2]}]}`,
	`{"rows":[{"node":1,"app":"y","t":2,"values":[3]}],"shard":1,"readings":[{"t":5,"values":[1]}]}`,
	`{"x":{"a":[1,{"b":null},[],{}],"c":"s\"\\\/\b\f\n\r\té"},"rows":[{"node":1,"extra":[true,false,null,-1.5E+3],"values":[1]}],"y":-0}`,
	`{"rows":[{"node":1,"app":"aé\ud800b","values":[1]}]}`,
	"{\"rows\":[{\"app\":\"\xff\xfe\",\"values\":[1]}]}",
	"{\"rows\":[{\"app\":\"caf\xc3\xa9\",\"values\":[1]}]}",
	"{\"k\xff\":1,\"rows\":[]}",
	// null rows and fields; values refuses null.
	`{"rows":[null,{"node":2,"values":[1]}]}`,
	`{"rows":[{"node":null,"app":null,"t":null,"values":[1]}],"shard":null,"readings":null}`,
	`{"rows":[{"node":1,"values":null}]}`,
	`{"rows":null}`, `{"rows":[]}`,
	// Repeated list keys merge; a shortened list's tail is reused as it was.
	`{"rows":[{"node":5,"values":[1]}],"rows":[{"values":[2]}]}`,
	`{"rows":[{"node":5,"values":[1]},{"node":6,"app":"x"},{"node":7}],"rows":[{"values":[2]}],"rows":[null,null]}`,
	`{"rows":[{"node":5}],"rows":[],"rows":[null]}`,
	`{"rows":[{"node":5}],"rows":null,"rows":[null]}`,
	`{"readings":[{"t":1,"values":[1]},{"t":2}],"readings":[{"values":[3]}],"readings":[null,null]}`,
	// Field types.
	`{"rows":[{"node":1.5}]}`, `{"rows":[{"node":1e2}]}`, `{"rows":[{"node":-0}]}`,
	`{"rows":[{"t":9223372036854775807}]}`, `{"rows":[{"t":9223372036854775808}]}`,
	`{"rows":[{"node":"1"}]}`, `{"rows":[{"app":1}]}`, `{"rows":[{"values":{}}]}`,
	`{"rows":[{"values":"1"}]}`, `{"rows":[1]}`, `{"rows":{}}`, `{"rows":"x"}`,
	`{"shard":"1","readings":[]}`, `{"shard":1.5}`, `{"readings":[{"node":"x","app":5,"t":1}]}`,
	`{"rows":[{"values":[[1]]}]}`, `{"rows":[{"values":["1"]}]}`, `{"rows":[{"values":[true]}]}`,
	// Number grammar: JSON's, not strconv's.
	`{"rows":[{"values":[1e400]}]}`, `{"rows":[{"values":[1e-400]}]}`, `{"rows":[{"values":[-0]}]}`,
	`{"rows":[{"values":[0x1p4]}]}`, `{"rows":[{"values":[+1]}]}`, `{"rows":[{"values":[.5]}]}`,
	`{"rows":[{"values":[1.]}]}`, `{"rows":[{"values":[01]}]}`, `{"rows":[{"values":[Inf]}]}`,
	`{"rows":[{"values":[NaN]}]}`, `{"rows":[{"values":[1e]}]}`, `{"rows":[{"values":[1e+]}]}`,
	`{"rows":[{"values":[-]}]}`, `{"rows":[{"values":[1_0]}]}`, `{"rows":[{"values":[0.5E-3,1E+2,12e3]}]}`,
	`{"x":0x1,"rows":[]}`, `{"x":01,"rows":[]}`, `{"x":-,"rows":[]}`,
	// Syntax.
	`{"rows":[{"values":[1,]}]}`, `{"rows":[{"values":[,1]}]}`, `{"rows":[{"values":[1 2]}]}`,
	`{"rows":[{"values":[1}]}`, `{"rows":[{"values":[1]]}`, `{"rows":[{"values":[1]},]}`,
	`{"rows":[{"node":1,}]}`, `{"rows":[{"node" 1}]}`, `{"rows":[{node:1}]}`, `{"rows":[{"node":1}`,
	`{"rows":[],}`, `{,"rows":[]}`, `{"rows":[] "x":1}`, `{"rows":[]`, `{"rows"`, `{"rows":`,
	`{"x":[1,2,}`, `{"x":{"a":1,}}`, `{"x":{"a" 1}}`, `{"x":{1:1}}`, `{"x":[1}`, `{"x":{"a":1]}`,
	`{"x":tru}`, `{"x":nulll}`, `{"x":"a`, `{"x":"a\`, `{"x":"\q"}`, `{"x":"\u12"}`, `{"x":"\u12g4"}`,
	"{\"x\":\"a\x01\"}", `{"x":'a'}`, "\xef\xbb\xbf{}",
	// Trailing data: exactly what json.Unmarshal refuses.
	`{"rows":[{"node":1,"values":[1]}]}{"rows":[{"node":2,"values":[2]}]}`,
	`{"rows":[]}]`, `{"rows":[]} x`, `null null`, `{"rows":[]} `,
	// Nesting: encoding/json's limit is 10 000 open containers.
	`{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `,"rows":[]}`,
	`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	`{"x":` + strings.Repeat(`{"a":`, 9999) + `1` + strings.Repeat("}", 9999) + `}`,
	`{"x":` + strings.Repeat(`{"a":`, 10000) + `1` + strings.Repeat("}", 10000) + `}`,
	`{"x":` + strings.Repeat(`[{"a":`, 200) + `[]` + strings.Repeat("}]", 200) + `}`,
}

// sameRows compares decoded rows field by field, values bit for bit
// with NaN equal to NaN.
func sameRows(a, b []fleet.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Node != b[i].Node || a[i].App != b[i].App || a[i].T != b[i].T || !sameCells(a[i].Values, b[i].Values) {
			return false
		}
	}
	return true
}

// dirtyWire returns a Wire whose slots hold earlier batches of other
// lengths and shapes, so stale state would show.
func dirtyWire(t *testing.T) *fleet.Wire {
	t.Helper()
	w := new(fleet.Wire)
	if _, err := w.DecodeBulk([]byte(`{"rows":[{"node":9,"app":"old","t":4,"values":[1,2,3]},{"node":8,"app":"x","t":5,"values":[null]},{"node":7,"t":6},{"node":6,"values":[4,5,6,7,8]}]}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.DecodeBulk([]byte(`{"rows":[{"t":1,"values":[1,2]},{"node":3,"t":2,"values":[3]}],"x":[{}]}`)); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestWireMatchesEncodingJSON decodes every edge body with fresh and
// with dirty Wires and with encoding/json: same verdict, same rows.
func TestWireMatchesEncodingJSON(t *testing.T) {
	for _, body := range wireEdges {
		var bulk bulkBody
		bulkErr := json.Unmarshal([]byte(body), &bulk)
		for _, w := range []*fleet.Wire{new(fleet.Wire), dirtyWire(t)} {
			rows, err := w.DecodeBulk([]byte(body))
			if (err == nil) != (bulkErr == nil) || err == nil && !sameRows(rows, bulk.Rows) {
				t.Fatalf("%.80q: wire %+v (err %v), encoding/json %+v (err %v)", body, rows, err, bulk.Rows, bulkErr)
			}
		}
	}
}

// eclipseBody renders one bulk body at Eclipse width: 64 nodes x 806
// metrics, a few missing cells, full-precision floats.
func eclipseBody(t testing.TB) []byte {
	rng := rand.New(rand.NewSource(1))
	rows := make([]fleet.Row, 64)
	for i := range rows {
		v := make(fleet.Values, 806)
		for m := range v {
			v[m] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-3))
			if rng.Intn(50) == 0 {
				v[m] = math.NaN()
			}
		}
		rows[i] = fleet.Row{Node: i, App: []string{"LAMMPS", "HACC", "sw4"}[i%3], T: 1000 + i, Values: v}
	}
	body, err := json.Marshal(bulkBody{Rows: rows})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestDecodeBulkAllocs pins the decoder's allocation contract: a warm
// Wire decodes a 64 x 806 bulk body without allocating.
func TestDecodeBulkAllocs(t *testing.T) {
	body := eclipseBody(t)
	var w fleet.Wire
	if _, err := w.DecodeBulk(body); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := w.DecodeBulk(body); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm DecodeBulk of a 64 x 806 body allocates %.1f times", allocs)
	}
}

// BenchmarkIngestWireDecode times one 64 x 806 bulk body through the
// decode the ingest endpoint has used: encoding/json (a Decoder scan,
// the decode's skip over each Values, then Values.UnmarshalJSON) and
// the wire's one pass into warm rows.
func BenchmarkIngestWireDecode(b *testing.B) {
	body := eclipseBody(b)
	perValue := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*64*806), "ns/value")
	}
	b.Run("encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req bulkBody
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				b.Fatal(err)
			}
		}
		perValue(b)
	})
	b.Run("wire", func(b *testing.B) {
		var w fleet.Wire
		if _, err := w.DecodeBulk(body); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := w.DecodeBulk(body); err != nil {
				b.Fatal(err)
			}
		}
		perValue(b)
	})
}
