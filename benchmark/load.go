package main

import (
	"errors"
	"io"
	"sync"
	"syscall"
	"time"
)

// rusage reads the process's resource usage; the zero value on the
// (never observed) failure only zeroes the metrics derived from it.
func rusage() (ru syscall.Rusage) {
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports
// kilobytes).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// drainClose reads a response body to its end before closing it, so
// the connection goes back to the idle pool whatever the decoder left
// unread.
func drainClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, body) // a failed drain only costs a redial
	body.Close()
}

// phase is what one measured load phase observed.
type phase struct {
	lat      []float64 // round trip of every fully successful call, ms
	tried    int64     // ops attempted
	ok       int64     // ops completed
	wall     time.Duration
	cpu      time.Duration
	firstErr error
}

func (p *phase) failed() int64 { return p.tried - p.ok }

// closedLoop runs n clients, each issuing its next call only after the
// previous one returned, until the duration has passed or — when iters
// is positive — for exactly iters calls per client. do reports how many
// ops the call attempted, how many succeeded and the round trip to
// record; a call with any failed op contributes no latency sample.
func closedLoop(n int, d time.Duration, iters int, do func(client int) (tried, ok int, rtt time.Duration, err error)) phase {
	type part struct {
		lat       []float64
		tried, ok int64
		err       error
	}
	parts := make([]part, n)
	var wg sync.WaitGroup
	start, cpu0 := time.Now(), cpuTime()
	deadline := start.Add(d)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := &parts[c]
			more := func(i int) bool {
				if iters > 0 {
					return i < iters
				}
				return time.Now().Before(deadline)
			}
			for i := 0; more(i); i++ {
				tried, ok, rtt, err := do(c)
				if errors.Is(err, errDone) {
					return
				}
				p.tried += int64(tried)
				p.ok += int64(ok)
				if err != nil && p.err == nil {
					p.err = err
				}
				if err == nil && ok == tried {
					p.lat = append(p.lat, float64(rtt)/1e6)
				}
			}
		}(c)
	}
	wg.Wait()
	out := phase{wall: time.Since(start), cpu: cpuTime() - cpu0}
	for i := range parts {
		out.lat = append(out.lat, parts[i].lat...)
		out.tried += parts[i].tried
		out.ok += parts[i].ok
		if out.firstErr == nil {
			out.firstErr = parts[i].err
		}
	}
	return out
}

// pacer issues calls on a fixed schedule however long each takes — an
// open loop. The clock is injectable so the schedule arithmetic can be
// tested without sleeping.
type pacer struct {
	now   func() time.Time
	sleep func(time.Duration)
}

var wallPacer = pacer{now: time.Now, sleep: time.Sleep}

// run sends n calls, the i-th due at start + i*interval. Each call's
// latency is timed from its due instant, so a stall charges the calls
// queued behind it; late is how long after its due instant each call
// was actually issued.
func (p pacer) run(start time.Time, interval time.Duration, n int, send func(i int) error) (lat, late []float64, err error) {
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := due.Sub(p.now()); wait > 0 {
			p.sleep(wait)
		}
		late = append(late, float64(p.now().Sub(due))/1e6)
		if err := send(i); err != nil {
			return lat, late, err
		}
		lat = append(lat, float64(p.now().Sub(due))/1e6)
	}
	return lat, late, nil
}
