package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"albadross/internal/server"
)

// feed drives POST /api/ingest/bulk on one rig: the node population is
// cut into request groups, each owned by one client, and every node
// keeps a monotone timestep equal to the rows sent for it so far.
type feed struct {
	r      *rig
	tr     *traffic
	groups [][]int // node ids per request, group g owned by client g%clients
	next   []int   // per node; only the owning client touches an entry

	bufs     [clients][]byte
	cursor   [clients]int // next owned group, counted in requests sent
	offered  [clients]int64
	accepted [clients]int64
	topkLat  []float64 // client 0's rollup reads, ms
	appsLat  []float64
}

// newFeed simulates the fleet's traffic and warms the server up: every
// node's chain (and WAL) exists, its window ring is one row short of
// emitting at every stride, and window phases are staggered across the
// stride, so from the first measured tick each request completes the
// same number of windows instead of none for a while and then all of
// them on one tick.
func newFeed(r *rig) (*feed, error) {
	sz := r.sz
	if sz.nodes%sz.perRequest != 0 || sz.nodes/sz.perRequest%clients != 0 {
		return nil, fmt.Errorf("%d nodes do not split into %d-node groups evenly over %d clients", sz.nodes, sz.perRequest, clients)
	}
	tr, err := newTraffic(r.sys, sz.nodes, sz.cycle, r.seed+101)
	if err != nil {
		return nil, err
	}
	f := &feed{r: r, tr: tr, next: make([]int, sz.nodes)}
	for n := 0; n < sz.nodes; n += sz.perRequest {
		g := make([]int, sz.perRequest)
		for i := range g {
			g[i] = n + i
		}
		f.groups = append(f.groups, g)
	}
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = warmUp(f.groups, sz.window, sz.stride, c, func(nodes []int) error {
				_, err := f.post(c, nodes)
				return err
			})
		}(c)
	}
	wg.Wait()
	return f, errors.Join(errs...)
}

// warmRows is how many rows the node at position i of its group gets
// before measurement: at least one, and enough that its next window is
// at most a stride away — at a different residue for each i%stride —
// and every later one a stride apart.
func warmRows(i, window, stride int) int { return window - stride + 1 + i%stride }

// warmUp sends client c's share of the warm-up: round k carries the
// nodes that still need a row.
func warmUp(groups [][]int, window, stride, c int, send func(nodes []int) error) error {
	for k := 0; k <= window; k++ {
		for g := c; g < len(groups); g += clients {
			var nodes []int
			for i, n := range groups[g] {
				if warmRows(i, window, stride) > k {
					nodes = append(nodes, n)
				}
			}
			if len(nodes) == 0 {
				continue
			}
			if err := send(nodes); err != nil {
				return err
			}
		}
	}
	return nil
}

// post sends one row for each listed node and checks the response's
// accounting: every offered row accepted, none rejected or shed.
func (f *feed) post(c int, nodes []int) (accepted int, err error) {
	f.bufs[c] = f.tr.appendBody(f.bufs[c], nodes, f.next)
	resp, err := f.r.client.Post(f.r.http.URL+"/api/ingest/bulk", "application/json", bytes.NewReader(f.bufs[c]))
	if err != nil {
		return 0, err
	}
	defer drainClose(resp.Body)
	var acct server.BulkIngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&acct); err != nil {
		return 0, fmt.Errorf("bulk response (status %d): %w", resp.StatusCode, err)
	}
	f.offered[c] += int64(acct.Offered)
	f.accepted[c] += int64(acct.Accepted)
	for _, n := range nodes {
		f.next[n]++
	}
	switch {
	case resp.StatusCode != http.StatusOK:
		err = fmt.Errorf("bulk ingest: status %d", resp.StatusCode)
	case acct.Offered != len(nodes) || acct.Offered != acct.Accepted+acct.Rejected+acct.Shed:
		err = fmt.Errorf("bulk accounting broken: sent %d, %+v", len(nodes), acct.BatchResult)
	case acct.Rejected != 0 || acct.Shed != 0:
		err = fmt.Errorf("bulk ingest refused rows: %+v", acct.BatchResult)
	}
	return acct.Accepted, err
}

// get times one rollup read.
func (f *feed) get(path string) ([]byte, float64, error) {
	t0 := time.Now()
	resp, err := f.r.client.Get(f.r.http.URL + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, float64(time.Since(t0)) / 1e6, err
}

// tick is one closed-loop call: client c's next bulk request. After
// each full round of its groups client 0 also reads the rollup the way
// a dashboard would — reads beside writes.
func (f *feed) tick(c int) (tried, ok int, rtt time.Duration, err error) {
	owned := len(f.groups) / clients
	g := c + f.cursor[c]%owned*clients
	f.cursor[c]++
	t0 := time.Now()
	ok, err = f.post(c, f.groups[g])
	rtt = time.Since(t0)
	if c == 0 && f.cursor[c]%owned == 0 && err == nil {
		var ms float64
		if _, ms, err = f.get("/api/fleet/topk?k=10"); err == nil {
			f.topkLat = append(f.topkLat, ms)
			if _, ms, err = f.get("/api/fleet/apps"); err == nil {
				f.appsLat = append(f.appsLat, ms)
			}
		}
	}
	return len(f.groups[g]), ok, rtt, err
}

// windowsFor is how many windows a node that committed rows readings
// has completed.
func windowsFor(rows, window, stride int) int {
	if rows < window {
		return 0
	}
	return 1 + (rows-window)/stride
}

// settle waits for the shard workers to drain and checks the server's
// view against the generator's: cumulative accounting, per-node pushed
// rows, and the window count implied by the rows sent.
func (f *feed) settle() (windows int, err error) {
	if err := f.r.srv.FleetQuiesce(); err != nil {
		return 0, err
	}
	var offered, accepted int64
	for c := 0; c < clients; c++ {
		offered += f.offered[c]
		accepted += f.accepted[c]
	}
	st := f.r.srv.FleetStats()
	if st.Offered != offered || st.Accepted != accepted || st.Rejected != 0 || st.Shed != 0 {
		return 0, fmt.Errorf("FleetStats %+v disagrees with the generator (offered %d, accepted %d)", st, offered, accepted)
	}
	nodes, err := f.r.srv.FleetNodes()
	if err != nil {
		return 0, err
	}
	if len(nodes) != len(f.next) {
		return 0, fmt.Errorf("server tracks %d nodes, generator fed %d", len(nodes), len(f.next))
	}
	for _, info := range nodes {
		want := windowsFor(f.next[info.Node], f.r.sz.window, f.r.sz.stride)
		if info.Stats.Pushed != f.next[info.Node] || info.Stats.Windows != want || info.Emitted != want {
			return 0, fmt.Errorf("node %d: %d rows sent should give %d windows, server reports %+v emitted %d",
				info.Node, f.next[info.Node], want, info.Stats, info.Emitted)
		}
		windows += want
	}
	return windows, nil
}

// setUpIngest builds the rig and the warmed-up feed.
func setUpIngest(sz sizes, seed int64, tmp string) (*rig, *feed, error) {
	r, err := newRig(sz, seed, true, tmp)
	if err != nil {
		return nil, nil, err
	}
	f, err := newFeed(r)
	if err != nil {
		r.close()
		return nil, nil, err
	}
	return r, f, nil
}

// runIngest is the untraced eclipse_1hz / volta_dense measurement.
func runIngest(sz sizes, seed int64, d time.Duration, tmp string) (*result, error) {
	var r *rig
	var f *feed
	setup, err := timeSetups(func(last bool) (err error) {
		if r, f, err = setUpIngest(sz, seed, tmp); err == nil && !last {
			r.close()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	defer r.close()
	runtime.GC()
	ph := closedLoop(clients, d, 0, f.tick)
	_, err = f.settle()
	return endToEnd(sz, setup, ph, err), nil
}
