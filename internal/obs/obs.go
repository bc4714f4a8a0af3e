// Package obs is the observability substrate of the repository: a
// dependency-free (stdlib-only), race-safe metrics registry with three
// instrument kinds — monotonic counters, gauges, and fixed-bucket
// histograms — plus a lightweight span timer for stage latencies.
//
// Every hot path of the pipeline (ldms parse, stream windowing, feature
// extraction, model fit/predict, query selection, HTTP serving) registers
// its metric families here at package init, so any binary that imports an
// instrumented package can export a consistent snapshot: the annotation
// server serves the default registry on GET /api/metrics (JSON and
// Prometheus text exposition), cmd/experiments prints it after a run with
// -metrics, and the examples print a compact summary. The full metric
// catalog is documented in docs/OBSERVABILITY.md; a test walks the
// registry and fails if a registered family is missing from that file.
//
// Design constraints, in priority order:
//
//   - Hot-path cost: Counter.Inc is a single atomic add (a few ns, well
//     under the 100ns budget bench_test.go enforces); Histogram.Observe
//     is a binary search plus three atomic operations. No locks are
//     taken on the update paths.
//   - Race safety: all instruments may be updated, and the registry
//     snapshotted, from any number of goroutines concurrently.
//   - No dependencies: the exposition formats are implemented directly
//     against io.Writer / encoding/json.
//
// Families and series: a family is one metric name with a fixed kind,
// unit, help string and label-key set (registered once, typically in a
// package var block); a series is one label-value combination within the
// family. Unlabeled instruments are families with a single anonymous
// series. Re-registering an identical family returns the existing one;
// re-registering a name with a different kind or label-key set panics
// (programmer error, caught at init).
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind enumerates the instrument kinds a family can carry.
type Kind int

const (
	// KindCounter is a monotonically increasing count.
	KindCounter Kind = iota
	// KindGauge is a value that can go up and down.
	KindGauge
	// KindHistogram is a fixed-bucket distribution with sum and count.
	KindHistogram
)

// String names the kind in export formats ("counter", "gauge",
// "histogram").
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Opts names and documents a metric family.
type Opts struct {
	// Name is the family name, in Prometheus style
	// ([a-zA-Z_:][a-zA-Z0-9_:]*). Counters end in _total by convention.
	Name string
	// Help is the one-line description emitted as # HELP.
	Help string
	// Unit documents the value unit ("seconds", "rows", "ratio", ...);
	// informational only, carried through snapshots.
	Unit string
	// Buckets are the inclusive upper bounds of a histogram's finite
	// buckets, in increasing order; an overflow (+Inf) bucket is always
	// added. Nil defaults to LatencyBuckets. Ignored by counters/gauges.
	Buckets []float64
}

// LatencyBuckets is the default histogram bucketing: 10µs to 10s in a
// 1-2.5-5 progression, suited to the pipeline's stage latencies (a
// feature extraction is ~ms, a forest fit ~tens of ms, an HTTP request
// anywhere between).
var LatencyBuckets = []float64{
	10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10,
}

// SizeBuckets is a generic bucketing for counts and sizes (1 to 100k in
// a 1-2-5 progression).
var SizeBuckets = []float64{
	1, 2, 5, 10, 20, 50, 100, 200, 500,
	1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000,
}

// labelSep joins label values into series keys; \xff cannot appear in
// valid UTF-8 label values produced by this codebase.
const labelSep = "\xff"

// Registry holds metric families and produces snapshots. The zero value
// is not usable; create with NewRegistry or use Default.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// family is one registered metric name.
type family struct {
	opts Opts
	kind Kind
	keys []string // label keys, fixed at registration

	mu     sync.RWMutex
	series map[string]interface{} // *Counter | *Gauge | *Histogram
	labels map[string][]string    // series key -> label values
}

// NewRegistry returns an empty registry, independent of Default.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry every instrumented package
// registers into.
func Default() *Registry { return defaultRegistry }

// register fetches or creates a family, validating compatibility.
func (r *Registry) register(o Opts, kind Kind, keys []string) *family {
	if o.Name == "" {
		panic("obs: metric family with empty name")
	}
	if !validName(o.Name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", o.Name))
	}
	for _, k := range keys {
		if !validName(k) {
			panic(fmt.Sprintf("obs: invalid label key %q on %q", k, o.Name))
		}
	}
	if kind == KindHistogram {
		if o.Buckets == nil {
			o.Buckets = LatencyBuckets
		}
		if !sort.Float64sAreSorted(o.Buckets) || len(o.Buckets) == 0 {
			panic(fmt.Sprintf("obs: histogram %q needs sorted non-empty buckets", o.Name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[o.Name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: %q re-registered as %v, was %v", o.Name, kind, f.kind))
		}
		if strings.Join(f.keys, labelSep) != strings.Join(keys, labelSep) {
			panic(fmt.Sprintf("obs: %q re-registered with label keys %v, was %v", o.Name, keys, f.keys))
		}
		return f
	}
	f := &family{
		opts:   o,
		kind:   kind,
		keys:   append([]string{}, keys...),
		series: map[string]interface{}{},
		labels: map[string][]string{},
	}
	r.families[o.Name] = f
	return f
}

// get fetches or creates the series for the given label values.
func (f *family) get(vals []string, mk func() interface{}) interface{} {
	if len(vals) != len(f.keys) {
		panic(fmt.Sprintf("obs: %q wants %d label values, got %d", f.opts.Name, len(f.keys), len(vals)))
	}
	key := strings.Join(vals, labelSep)
	f.mu.RLock()
	s, ok := f.series[key]
	f.mu.RUnlock()
	if ok {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s = mk()
	f.series[key] = s
	f.labels[key] = append([]string{}, vals...)
	return s
}

// validName reports whether s is a legal metric or label name.
func validName(s string) bool {
	for i, c := range s {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return s != ""
}

// --- Counter -------------------------------------------------------------

// Counter is a monotonically increasing count. Updates are single atomic
// adds and safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Counter registers (or fetches) an unlabeled counter family.
func (r *Registry) Counter(o Opts) *Counter {
	f := r.register(o, KindCounter, nil)
	return f.get(nil, func() interface{} { return &Counter{} }).(*Counter)
}

// CounterVec is a counter family with label dimensions.
type CounterVec struct{ f *family }

// CounterVec registers (or fetches) a labeled counter family.
func (r *Registry) CounterVec(o Opts, keys ...string) *CounterVec {
	return &CounterVec{r.register(o, KindCounter, keys)}
}

// With returns the counter series for the given label values, creating
// it on first use. Resolve once and reuse the handle on hot paths.
func (v *CounterVec) With(vals ...string) *Counter {
	return v.f.get(vals, func() interface{} { return &Counter{} }).(*Counter)
}

// --- Gauge ---------------------------------------------------------------

// Gauge is a float64 value that can move in both directions. Safe for
// concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Gauge registers (or fetches) an unlabeled gauge family.
func (r *Registry) Gauge(o Opts) *Gauge {
	f := r.register(o, KindGauge, nil)
	return f.get(nil, func() interface{} { return &Gauge{} }).(*Gauge)
}

// GaugeVec is a gauge family with label dimensions.
type GaugeVec struct{ f *family }

// GaugeVec registers (or fetches) a labeled gauge family.
func (r *Registry) GaugeVec(o Opts, keys ...string) *GaugeVec {
	return &GaugeVec{r.register(o, KindGauge, keys)}
}

// With returns the gauge series for the given label values.
func (v *GaugeVec) With(vals ...string) *Gauge {
	return v.f.get(vals, func() interface{} { return &Gauge{} }).(*Gauge)
}

// --- Histogram -----------------------------------------------------------

// Histogram accumulates observations into fixed buckets (inclusive upper
// bounds, Prometheus "le" semantics) plus an overflow bucket, tracking
// the total count and sum. Observe is lock-free and safe for concurrent
// use; NaN observations are dropped.
type Histogram struct {
	uppers []float64 // finite bucket upper bounds, sorted ascending
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomicFloat
}

func newHistogram(uppers []float64) *Histogram {
	return &Histogram{
		uppers: uppers,
		counts: make([]atomic.Uint64, len(uppers)+1), // +overflow
	}
}

// Observe records one value. A value equal to a bucket's upper bound
// lands in that bucket (le semantics); values above the last finite
// bound land in the overflow (+Inf) bucket.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.uppers, v) // first bucket with upper >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// Histogram registers (or fetches) an unlabeled histogram family.
func (r *Registry) Histogram(o Opts) *Histogram {
	f := r.register(o, KindHistogram, nil)
	return f.get(nil, func() interface{} { return newHistogram(f.opts.Buckets) }).(*Histogram)
}

// HistogramVec is a histogram family with label dimensions; every series
// shares the family's buckets.
type HistogramVec struct{ f *family }

// HistogramVec registers (or fetches) a labeled histogram family.
func (r *Registry) HistogramVec(o Opts, keys ...string) *HistogramVec {
	return &HistogramVec{r.register(o, KindHistogram, keys)}
}

// With returns the histogram series for the given label values.
func (v *HistogramVec) With(vals ...string) *Histogram {
	return v.f.get(vals, func() interface{} { return newHistogram(v.f.opts.Buckets) }).(*Histogram)
}

// --- atomic float --------------------------------------------------------

// atomicFloat is a float64 updated with compare-and-swap.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

func (f *atomicFloat) Value() float64 { return math.Float64frombits(f.bits.Load()) }

// --- Default-registry conveniences ---------------------------------------

// NewCounter registers o on the default registry.
func NewCounter(o Opts) *Counter { return Default().Counter(o) }

// NewCounterVec registers o on the default registry.
func NewCounterVec(o Opts, keys ...string) *CounterVec { return Default().CounterVec(o, keys...) }

// NewGauge registers o on the default registry.
func NewGauge(o Opts) *Gauge { return Default().Gauge(o) }

// NewGaugeVec registers o on the default registry.
func NewGaugeVec(o Opts, keys ...string) *GaugeVec { return Default().GaugeVec(o, keys...) }

// NewHistogram registers o on the default registry.
func NewHistogram(o Opts) *Histogram { return Default().Histogram(o) }

// NewHistogramVec registers o on the default registry.
func NewHistogramVec(o Opts, keys ...string) *HistogramVec { return Default().HistogramVec(o, keys...) }
