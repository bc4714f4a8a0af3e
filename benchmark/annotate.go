package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"time"

	"albadross/internal/server"
)

// errDone ends a closed-loop client early without counting a failure.
var errDone = errors.New("nothing left to do")

// annotator is the paper's loop with a ground-truth oracle: ask
// GET /api/next which sample to label, answer POST /api/label with the
// dataset's own label, repeat. It checks that the labeled and pool
// counts step by one per cycle.
type annotator struct {
	r        *rig
	labeled  int   // labels the server holds
	pool     int   // unlabeled samples left
	ids      []int // the query sequence so far
	nextLat  []float64
	labelLat []float64
	rec      *recorder // set by the traced pass: a span per HTTP call
}

// span opens a span when tracing and returns what closes it.
func (a *annotator) span(name string) func() {
	if a.rec == nil {
		return func() {}
	}
	a.rec.begin(name)
	return a.rec.end
}

func newAnnotator(r *rig) *annotator {
	return &annotator{r: r, labeled: len(r.split.Initial), pool: len(r.split.Pool)}
}

// roundTrip issues one JSON request and decodes the 200 response.
func (a *annotator) roundTrip(method, path string, in, out interface{}) (time.Duration, error) {
	var body bytes.Buffer
	if in != nil {
		if err := json.NewEncoder(&body).Encode(in); err != nil {
			return 0, err
		}
	}
	req, err := http.NewRequest(method, a.r.http.URL+path, &body)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	resp, err := a.r.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("%s %s: status %d", method, path, resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(out)
	return time.Since(t0), err
}

// cycle is one closed-loop call: one label.
func (a *annotator) cycle(int) (tried, ok int, rtt time.Duration, err error) {
	if a.rec != nil {
		a.rec.req++
	}
	defer a.span("request")()
	var next server.NextResponse
	end := a.span("server.next")
	nextRTT, err := a.roundTrip(http.MethodGet, "/api/next", nil, &next)
	end()
	if err != nil {
		return 1, 0, 0, err
	}
	if next.Exhausted {
		return 0, 0, 0, errDone
	}
	if next.PoolSize != a.pool {
		return 1, 0, 0, fmt.Errorf("next: pool_size %d, expected %d", next.PoolSize, a.pool)
	}
	var ack server.LabelResponse
	label := a.r.data.Classes[a.r.data.Y[next.ID]]
	end = a.span("server.label")
	labelRTT, err := a.roundTrip(http.MethodPost, "/api/label", server.LabelRequest{ID: next.ID, Label: label}, &ack)
	end()
	if err != nil {
		return 1, 0, 0, err
	}
	a.labeled++
	a.pool--
	if !ack.Accepted || ack.Labeled != a.labeled {
		return 1, 0, 0, fmt.Errorf("label: accepted %v with labeled_total %d, expected %d", ack.Accepted, ack.Labeled, a.labeled)
	}
	a.ids = append(a.ids, next.ID)
	a.nextLat = append(a.nextLat, float64(nextRTT)/1e6)
	a.labelLat = append(a.labelLat, float64(labelRTT)/1e6)
	return 1, 1, nextRTT + labelRTT, nil
}

// finish checks /api/status against the loop's own counts and returns
// the final macro-F1.
func (a *annotator) finish() (f1 float64, err error) {
	var st struct {
		Labeled int                  `json:"labeled"`
		Pool    int                  `json:"pool"`
		History []server.StatusPoint `json:"history"`
	}
	if _, err := a.roundTrip(http.MethodGet, "/api/status", nil, &st); err != nil {
		return 0, err
	}
	if st.Labeled != a.labeled || st.Pool != a.pool || len(st.History) != len(a.ids)+1 {
		return 0, fmt.Errorf("status: labeled %d pool %d history %d after %d cycles (expected %d, %d)",
			st.Labeled, st.Pool, len(st.History), len(a.ids), a.labeled, a.pool)
	}
	f1 = st.History[len(st.History)-1].F1
	if math.IsNaN(f1) || f1 <= 0 || f1 > 1 {
		return 0, fmt.Errorf("status: final macro-F1 %v", f1)
	}
	return f1, nil
}

// runAnnotate is the untraced annotate_loop measurement.
func runAnnotate(sz sizes, seed int64, d time.Duration) (*result, error) {
	var r *rig
	setup, err := timeSetups(func(last bool) (err error) {
		if r, err = newRig(sz, seed, false, ""); err == nil && !last {
			r.close()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	defer r.close()
	runtime.GC()
	a := newAnnotator(r)
	ph := closedLoop(1, d, 0, a.cycle)
	_, err = a.finish()
	return endToEnd(sz, setup, ph, err), nil
}
