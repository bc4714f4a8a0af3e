package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// Snapshot is a consistent-enough point-in-time copy of a registry:
// every series is read atomically; the set of series is read under the
// registry lock. It marshals directly to the /api/metrics JSON format.
type Snapshot struct {
	// Families holds every family, sorted by name.
	Families []FamilySnapshot `json:"families"`
}

// FamilySnapshot is one family with all its series.
type FamilySnapshot struct {
	// Name is the family name.
	Name string `json:"name"`
	// Kind is "counter", "gauge" or "histogram".
	Kind string `json:"kind"`
	// Unit is the documented unit, omitted when dimensionless.
	Unit string `json:"unit,omitempty"`
	// Help is the one-line description.
	Help string `json:"help,omitempty"`
	// Series holds one entry per label-value combination, sorted by
	// label values.
	Series []SeriesSnapshot `json:"series"`
}

// SeriesSnapshot is one label-value combination's current state.
type SeriesSnapshot struct {
	// Labels maps label keys to this series' values; nil when unlabeled.
	Labels map[string]string `json:"labels,omitempty"`
	// Value is the counter count or gauge value; 0 for histograms.
	Value float64 `json:"value"`
	// Count is the histogram observation count.
	Count uint64 `json:"count,omitempty"`
	// Sum is the histogram observation sum.
	Sum float64 `json:"sum,omitempty"`
	// Buckets are the histogram's finite buckets with cumulative counts
	// (the +Inf bucket is implied: its cumulative count equals Count).
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Bucket is one cumulative histogram bucket.
type Bucket struct {
	// UpperBound is the bucket's inclusive upper bound.
	UpperBound float64 `json:"le"`
	// Count is the cumulative observation count at or below UpperBound.
	Count uint64 `json:"count"`
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].opts.Name < fams[j].opts.Name })

	var snap Snapshot
	for _, f := range fams {
		fs := FamilySnapshot{
			Name: f.opts.Name,
			Kind: f.kind.String(),
			Unit: f.opts.Unit,
			Help: f.opts.Help,
		}
		f.mu.RLock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			ss := SeriesSnapshot{}
			if vals := f.labels[k]; len(vals) > 0 {
				ss.Labels = make(map[string]string, len(vals))
				for i, lk := range f.keys {
					ss.Labels[lk] = vals[i]
				}
			}
			switch m := f.series[k].(type) {
			case *Counter:
				ss.Value = float64(m.Value())
			case *Gauge:
				ss.Value = m.Value()
			case *Histogram:
				ss.Count = m.Count()
				ss.Sum = m.Sum()
				ss.Buckets = make([]Bucket, len(m.uppers))
				cum := uint64(0)
				for i, u := range m.uppers {
					cum += m.counts[i].Load()
					ss.Buckets[i] = Bucket{UpperBound: u, Count: cum}
				}
			}
			fs.Series = append(fs.Series, ss)
		}
		f.mu.RUnlock()
		snap.Families = append(snap.Families, fs)
	}
	return snap
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): # HELP / # TYPE comments followed by one
// sample line per series; histograms expand to cumulative _bucket
// series (including le="+Inf"), _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, fs := range r.Snapshot().Families {
		if err := writePromFamily(w, fs); err != nil {
			return err
		}
	}
	return nil
}

func writePromFamily(w io.Writer, fs FamilySnapshot) error {
	if fs.Help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", fs.Name, escapeHelp(fs.Help)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fs.Name, fs.Kind); err != nil {
		return err
	}
	for _, ss := range fs.Series {
		base := promLabels(ss.Labels, "", "")
		if fs.Kind != KindHistogram.String() {
			if _, err := fmt.Fprintf(w, "%s%s %s\n", fs.Name, base, promFloat(ss.Value)); err != nil {
				return err
			}
			continue
		}
		for _, b := range ss.Buckets {
			le := promLabels(ss.Labels, "le", promFloat(b.UpperBound))
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", fs.Name, le, b.Count); err != nil {
				return err
			}
		}
		inf := promLabels(ss.Labels, "le", "+Inf")
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", fs.Name, inf, ss.Count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", fs.Name, base, promFloat(ss.Sum)); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_count%s %d\n", fs.Name, base, ss.Count); err != nil {
			return err
		}
	}
	return nil
}

// promLabels renders a label block, optionally appending one extra pair
// (the histogram "le" label). Returns "" when there are no labels.
func promLabels(labels map[string]string, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	if extraKey != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extraKey, extraVal)
	}
	b.WriteByte('}')
	return b.String()
}

// promFloat renders a sample value; Prometheus accepts Go 'g' formatting
// plus the special +Inf/-Inf/NaN spellings, which strconv produces.
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// Summary renders a compact human-readable view of the snapshot —
// counters and gauges as "name{labels} value", histograms as count and
// mean — the form the examples print at the end of a run.
func (s Snapshot) Summary() string {
	var b strings.Builder
	for _, fs := range s.Families {
		for _, ss := range fs.Series {
			name := fs.Name + promLabels(ss.Labels, "", "")
			switch fs.Kind {
			case KindHistogram.String():
				if ss.Count == 0 {
					continue
				}
				mean := ss.Sum / float64(ss.Count)
				fmt.Fprintf(&b, "%-52s count %-8d mean %s\n", name, ss.Count, formatUnit(mean, fs.Unit))
			default:
				fmt.Fprintf(&b, "%-52s %s\n", name, formatUnit(ss.Value, fs.Unit))
			}
		}
	}
	return b.String()
}

// formatUnit pretty-prints seconds as a duration-style value and leaves
// everything else in compact float form.
func formatUnit(v float64, unit string) string {
	if unit == "seconds" {
		switch {
		case v < 1e-3:
			return fmt.Sprintf("%.1fµs", v*1e6)
		case v < 1:
			return fmt.Sprintf("%.2fms", v*1e3)
		default:
			return fmt.Sprintf("%.3fs", v)
		}
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// Handler serves the registry over HTTP: JSON by default, the
// Prometheus text exposition with ?format=prometheus (or an Accept
// header preferring text/plain) — the body mounted at the annotation
// server's GET /api/metrics.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		if wantsPrometheus(req) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = r.WritePrometheus(w) //albacheck:ignore errsilent best-effort body write; after the header is sent a failed write only means the scraper hung up
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = r.Snapshot().WriteJSON(w) //albacheck:ignore errsilent best-effort body write; after the header is sent a failed write only means the scraper hung up
	})
}

// wantsPrometheus decides the exposition format for Handler.
func wantsPrometheus(req *http.Request) bool {
	switch req.URL.Query().Get("format") {
	case "prometheus", "prom", "text":
		return true
	case "json":
		return false
	}
	accept := req.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") && !strings.Contains(accept, "application/json")
}
