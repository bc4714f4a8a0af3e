package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	"albadross/internal/server"
)

// diagnoser drives POST /api/diagnose with pre-encoded batches of
// model-space vectors drawn from the test split, and checks every
// response against a reference pass taken during set-up.
type diagnoser struct {
	r       *rig
	bodies  [][]byte
	want    [][]string // reference labels per body
	version uint64     // the one model version every response must carry
	sent    [clients]int
}

// setUpDiagnose builds the rig, encodes the request bodies and records
// the reference labels.
func setUpDiagnose(sz sizes, seed int64) (*rig, *diagnoser, error) {
	r, err := newRig(sz, seed, true, "")
	if err != nil {
		return nil, nil, err
	}
	d := &diagnoser{r: r}
	rng := rand.New(rand.NewSource(seed + 211))
	for b := 0; b < sz.bodies; b++ {
		batch := make([][]float64, sz.batchRows)
		for i := range batch {
			batch[i] = r.data.X[r.split.Test[rng.Intn(len(r.split.Test))]]
		}
		body, err := json.Marshal(server.DiagnoseRequest{Batch: batch})
		if err != nil {
			r.close()
			return nil, nil, err
		}
		d.bodies = append(d.bodies, body)
	}
	for b := range d.bodies {
		resp, err := d.post(b)
		if err != nil {
			r.close()
			return nil, nil, err
		}
		labels := make([]string, len(resp.Results))
		for i, res := range resp.Results {
			labels[i] = res.Label
		}
		d.want, d.version = append(d.want, labels), resp.ModelVersion
	}
	return r, d, nil
}

// post sends body b and decodes the batch response.
func (d *diagnoser) post(b int) (*server.BatchDiagnoseResponse, error) {
	resp, err := d.r.client.Post(d.r.http.URL+"/api/diagnose", "application/json", bytes.NewReader(d.bodies[b]))
	if err != nil {
		return nil, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("diagnose: status %d", resp.StatusCode)
	}
	var out server.BatchDiagnoseResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	if len(out.Results) != d.r.sz.batchRows {
		return nil, fmt.Errorf("diagnose: %d results for %d vectors", len(out.Results), d.r.sz.batchRows)
	}
	return &out, nil
}

// call is one closed-loop request; the op is one classified vector.
func (d *diagnoser) call(c int) (tried, ok int, rtt time.Duration, err error) {
	b := (d.sent[c]*clients + c) % len(d.bodies)
	d.sent[c]++
	t0 := time.Now()
	resp, err := d.post(b)
	rtt = time.Since(t0)
	if err != nil {
		return d.r.sz.batchRows, 0, rtt, err
	}
	if resp.ModelVersion != d.version {
		err = fmt.Errorf("diagnose: model_version %d, reference pass saw %d", resp.ModelVersion, d.version)
	}
	for i, res := range resp.Results {
		if res.Label == d.want[b][i] {
			ok++
		} else if err == nil {
			err = fmt.Errorf("diagnose: body %d vector %d labeled %q, reference %q", b, i, res.Label, d.want[b][i])
		}
	}
	return d.r.sz.batchRows, ok, rtt, err
}

// runDiagnose is the untraced diagnose_batch measurement.
func runDiagnose(sz sizes, seed int64, dur time.Duration) (*result, error) {
	var r *rig
	var d *diagnoser
	setup, err := timeSetups(func(last bool) (err error) {
		if r, d, err = setUpDiagnose(sz, seed); err == nil && !last {
			r.close()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	defer r.close()
	runtime.GC()
	return endToEnd(sz, setup, closedLoop(clients, dur, 0, d.call), nil), nil
}
