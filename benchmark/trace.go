package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Start and End are nanoseconds
// since the recorder was created; Parent indexes the enclosing span
// (-1 for a root) and Req numbers the request that caused it.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
}

// recorder keeps spans in memory for one goroutine; begin/end nest like
// a call stack. It is written out once, after the pass it timed.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int32
	req   int32
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span under the innermost open one.
func (r *recorder) begin(name string) {
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.open = append(r.open, int32(len(r.spans)))
	r.spans = append(r.spans, span{Name: name, Parent: parent, Req: r.req, Start: int64(time.Since(r.t0))})
}

// end closes the innermost open span.
func (r *recorder) end() {
	n := len(r.open) - 1
	r.spans[r.open[n]].End = int64(time.Since(r.t0))
	r.open = r.open[:n]
}

// lastNs is the duration of the most recently opened span.
func (r *recorder) lastNs() int64 {
	s := r.spans[len(r.spans)-1]
	return s.End - s.Start
}

// selfTimes sums, per span name, each span's duration minus the part of
// it its child spans cover, and counts the spans of each name.
// Children of one goroutine never overlap, so the covered part is the
// sum of their durations.
func selfTimes(spans []span) (self map[string]int64, count map[string]int) {
	own := make([]int64, len(spans))
	for i, s := range spans {
		own[i] += s.End - s.Start
		if s.Parent >= 0 {
			own[s.Parent] -= s.End - s.Start
		}
	}
	self, count = map[string]int64{}, map[string]int{}
	for i, s := range spans {
		self[s.Name] += own[i]
		count[s.Name]++
	}
	return self, count
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
