// Command benchmark is the repository benchmark described by
// BENCHMARK.json: four workloads (eclipse_1hz, volta_dense,
// diagnose_batch, annotate_loop) driven over HTTP against an in-process
// annotation server, each measured untraced for the end-to-end metrics
// and traced for the per-layer budget. See README.md in this directory.
//
//	go run ./benchmark                                  # every workload, both passes
//	go run ./benchmark -workload volta_dense -trace 1   # one pass of one workload
//
// A single pass prints, as the last line of standard output, one JSON
// object {"correct", "attempted", "failed", "metrics"}; progress and
// derived figures go to standard error.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"albadross/internal/stats"
)

// metric is one reported measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one pass's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	cause error // why Correct is false, when a check said so
}

// setups is how many times a pass builds its system under test; the
// reported set-up time is the median, the last build is the one
// measured.
const setups = 3

// timeSetups runs build setups times and returns the median wall
// seconds. build must tear down what it built unless last is set.
func timeSetups(build func(last bool) error) (float64, error) {
	var secs []float64
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		if err := build(i == setups-1); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return stats.Median(secs), nil
}

// endToEnd turns a measured phase into the untraced pass's result.
// checkErr is the outcome of the workload's own output checks.
func endToEnd(sz sizes, setupS float64, ph phase, checkErr error) *result {
	cause := errors.Join(ph.firstErr, checkErr)
	if cause != nil {
		fmt.Fprintln(os.Stderr, "benchmark: FAILED:", cause)
	}
	if n := len(ph.lat); supportedTail(n) < sz.tail {
		fmt.Fprintf(os.Stderr, "benchmark: only %d latency samples, fewer than ten beyond p%g\n", n, sz.tail*100)
	}
	ops := math.Max(float64(ph.ok), 1)
	res := &result{
		Correct:   cause == nil && ph.failed() == 0 && ph.ok > 0,
		Attempted: max(ph.tried, 1),
		Failed:    ph.failed(),
		cause:     cause,
		Metrics: map[string]metric{
			"setup_s":         {setupS, "s"},
			"ops_per_s":       {float64(ph.ok) / ph.wall.Seconds(), "1/s"},
			"latency_p50_ms":  {percentile(ph.lat, 0.5), "ms"},
			"latency_tail_ms": {percentile(ph.lat, sz.tail), "ms"},
			"cpu_us_per_op":   {float64(ph.cpu) / 1e3 / ops, "us"},
		},
	}
	fmt.Fprintf(os.Stderr, "benchmark: %d %ss in %.2fs over %d calls, tail = p%g\n",
		ph.ok, sz.op, ph.wall.Seconds(), len(ph.lat), sz.tail*100)
	if sz.systemNodes > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: cores_at_1hz = %.3f (%d nodes x cpu_us_per_op)\n",
			res.Metrics["cpu_us_per_op"].Value*float64(sz.systemNodes)/1e6, sz.systemNodes)
	}
	return res
}

// runOne executes one pass of one workload in this process.
func runOne(name string, seed int64, seconds float64, traced bool, traceOut, tmp string) (*result, error) {
	sz, err := lookup(name)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	d := time.Duration(seconds * float64(time.Second))
	if traced {
		rec := newRecorder()
		res, err := runTraced(name, sz, seed, seconds, rec, tmp)
		if werr := rec.write(traceOut); err == nil {
			err = werr
		}
		return res, err
	}
	switch name {
	case "diagnose_batch":
		return runDiagnose(sz, seed, d)
	case "annotate_loop":
		return runAnnotate(sz, seed, d)
	default:
		return runIngest(sz, seed, d, tmp)
	}
}

// runAll runs every workload's two passes, each in a fresh child
// process so heap, CPU and peak RSS are per pass, and prints one JSON
// document.
func runAll(seed int64, seconds float64, tmp string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	type passes struct {
		EndToEnd *result `json:"end_to_end"`
		PerLayer *result `json:"per_layer"`
	}
	doc := struct {
		Go         string            `json:"go"`
		NumCPU     int               `json:"nproc"`
		GOMAXPROCS int               `json:"gomaxprocs"`
		Seed       int64             `json:"seed"`
		Seconds    float64           `json:"seconds"`
		Workloads  map[string]passes `json:"workloads"`
	}{runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), seed, seconds, map[string]passes{}}
	correct := true
	for _, name := range workloadNames {
		var p passes
		for trace, dst := range []**result{&p.EndToEnd, &p.PerLayer} {
			cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-tmp", tmp)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			res := new(result)
			if jerr := json.Unmarshal(lines[len(lines)-1], res); jerr != nil {
				return fmt.Errorf("%s -trace %d: %v (%v)", name, trace, jerr, err)
			}
			correct = correct && res.Correct && err == nil
			*dst = res
		}
		doc.Workloads[name] = p
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return err
	}
	if !correct {
		return fmt.Errorf("at least one pass failed its checks")
	}
	return nil
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run, or all: one of "+fmt.Sprint(workloadNames))
		seed     = flag.Int64("seed", 1, "seed every input is generated from")
		seconds  = flag.Float64("seconds", refSeconds, "length of the measured phase")
		trace    = flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
		tmp      = flag.String("tmp", ".bench_build/tmp", "directory for the per-node WAL (deleted on exit) and span files")
		traceOut = flag.String("trace-out", "", "span file of a traced pass (default <tmp>/<workload>.spans.jsonl)")
	)
	flag.Parse()
	// An interrupted pass must not leave its WAL (hundreds of MB) behind;
	// every other exit path runs the rigs' deferred close.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		for _, pattern := range []string{"wal-*", "traced-wal-*"} {
			dirs, _ := filepath.Glob(filepath.Join(*tmp, pattern))
			for _, dir := range dirs {
				os.RemoveAll(dir)
			}
		}
		os.Exit(130)
	}()
	if *workload == "all" {
		if err := runAll(*seed, *seconds, *tmp); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	if *traceOut == "" {
		*traceOut = fmt.Sprintf("%s/%s.spans.jsonl", *tmp, *workload)
	}
	res, err := runOne(*workload, *seed, *seconds, *trace == 1, *traceOut, *tmp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res) // refuses a NaN or infinite metric
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
