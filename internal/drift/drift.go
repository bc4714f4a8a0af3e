// Package drift is the distribution-drift monitor of the model
// lifecycle (ROADMAP item 2): it watches the stream of feature vectors
// the diagnosis path serves and scores, per feature, how far the recent
// window has moved from the distribution the serving model was trained
// on. The online-classification line of work the paper leaves as future
// deployment reality (Netti et al., Borghesi et al. in PAPERS.md) names
// the failure mode exactly: a diagnoser trained on one window of
// production telemetry silently degrades on the next, so the drift must
// be observed and reported rather than assumed away.
//
// Two complementary statistics are maintained against a reference
// snapshot of the training distribution (reservoir-sampled so memory is
// bounded regardless of training-set size):
//
//   - PSI (population stability index) over per-feature quantile bins
//     of the reference — the standard model-monitoring score; > 0.2 on
//     a feature is conventionally "significant shift".
//   - KS (Kolmogorov–Smirnov) evaluated on the same bin grid — the
//     max distance between the windowed and reference CDFs, sensitive
//     to location shifts PSI's coarse bins can dilute.
//
// Observe is designed for the serving hot path: one ring-buffer slot
// and one bin count are updated per feature (amortized O(1) per
// feature per row — a binary search over ~10 bin edges plus two
// integer increments; no allocation). Scoring (Snapshot) walks the
// counts and is called at batch granularity, not per row.
//
// The monitor itself only measures; the serving layer owns the policy
// (reporting, champion–challenger vetting, rollback — see
// internal/server and docs/LIFECYCLE.md).
package drift

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"albadross/internal/obs"
)

// Config tunes the monitor; zero values take the documented defaults.
type Config struct {
	// Bins is the number of reference quantile bins per feature used by
	// both PSI and grid-KS (default 10; duplicate quantile edges on
	// low-cardinality features are collapsed).
	Bins int
	// Window is how many recent observations the drift window holds
	// (default 512).
	Window int
	// MinWindow is how many observations the window needs before the
	// monitor is willing to report drift at all (default Window/4,
	// floored at 32): early windows are all variance, no signal.
	MinWindow int
	// ReservoirSize bounds the reference rows kept from the training
	// snapshot (default 1024); larger training sets are downsampled
	// with a seeded reservoir so the monitor's memory is O(dims ·
	// ReservoirSize) no matter how big training grows.
	ReservoirSize int
	// PSIThreshold is the per-feature PSI above which the feature
	// counts as drifted (default 0.2, the conventional "significant
	// shift" line).
	PSIThreshold float64
	// KSThreshold is the per-feature grid-KS distance above which the
	// feature counts as drifted (default 0.2).
	KSThreshold float64
	// TriggerFraction is the fraction of features that must be drifted
	// for the whole window to count as drifted (default 0.25).
	TriggerFraction float64
	// Seed drives the reservoir subsampling; the same reference rows
	// and seed always produce the same reference snapshot.
	Seed int64
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Bins <= 0 {
		c.Bins = 10
	}
	if c.Window <= 0 {
		c.Window = 512
	}
	if c.MinWindow <= 0 {
		c.MinWindow = c.Window / 4
		if c.MinWindow < 32 {
			c.MinWindow = 32
		}
	}
	if c.MinWindow > c.Window {
		c.MinWindow = c.Window
	}
	if c.ReservoirSize <= 0 {
		c.ReservoirSize = 1024
	}
	if c.PSIThreshold <= 0 {
		c.PSIThreshold = 0.2
	}
	if c.KSThreshold <= 0 {
		c.KSThreshold = 0.2
	}
	if c.TriggerFraction <= 0 {
		c.TriggerFraction = 0.25
	}
	return c
}

// smoothing is the Laplace floor applied to bin proportions so PSI's
// log-ratio never sees an empty bin.
const smoothing = 0.5

// Monitor scores a stream of feature vectors against a reference
// training distribution. Safe for concurrent use; Observe takes a
// short mutex-guarded critical section of pure integer work.
type Monitor struct {
	cfg  Config
	dims int

	mu      sync.Mutex
	edges   [][]float64 // per feature: sorted interior bin edges
	refProp [][]float64 // per feature: smoothed reference bin proportions
	refCum  [][]float64 // per feature: reference cumulative proportions
	ring    [][]int16   // Window rows of per-feature bin indices; -1 = missing
	counts  [][]int     // per feature: windowed bin counts
	total   []int       // per feature: non-missing observations in window
	cursor  int
	filled  int
	rows    uint64 // lifetime observations (not just the window)
	resets  uint64
}

// Metrics, registered once and documented in docs/OBSERVABILITY.md.
// Gauges reflect the most recent Snapshot of the most recently updated
// monitor (one monitor per serving process in practice).
var (
	driftRows = obs.NewCounter(obs.Opts{
		Name: "drift_rows_total",
		Help: "Feature rows observed by the drift monitor.",
		Unit: "rows",
	})
	driftResets = obs.NewCounter(obs.Opts{
		Name: "drift_resets_total",
		Help: "Drift-monitor reference re-anchors (one per model publication).",
		Unit: "resets",
	})
	driftMaxPSI = obs.NewGauge(obs.Opts{
		Name: "drift_psi_max",
		Help: "Largest per-feature population stability index at last snapshot.",
		Unit: "ratio",
	})
	driftMaxKS = obs.NewGauge(obs.Opts{
		Name: "drift_ks_max",
		Help: "Largest per-feature grid-KS distance at last snapshot.",
		Unit: "ratio",
	})
	driftFraction = obs.NewGauge(obs.Opts{
		Name: "drift_drifted_fraction",
		Help: "Fraction of features over their drift threshold at last snapshot.",
		Unit: "ratio",
	})
)

// NewMonitor builds a monitor anchored to the given reference rows
// (the training snapshot, in model space). Rows must be non-empty and
// rectangular.
func NewMonitor(ref [][]float64, cfg Config) (*Monitor, error) {
	cfg = cfg.withDefaults()
	if len(ref) == 0 {
		return nil, errors.New("drift: empty reference")
	}
	dims := len(ref[0])
	if dims == 0 {
		return nil, errors.New("drift: zero-width reference rows")
	}
	m := &Monitor{cfg: cfg, dims: dims}
	if err := m.anchor(ref); err != nil {
		return nil, err
	}
	return m, nil
}

// anchor (re)builds the reference snapshot and clears the window.
// Callers hold mu, or run before the monitor is shared.
func (m *Monitor) anchor(ref [][]float64) error {
	for i, r := range ref {
		if len(r) != m.dims {
			return fmt.Errorf("drift: reference row %d has %d features, row 0 has %d", i, len(r), m.dims)
		}
	}
	sample := reservoir(ref, m.cfg.ReservoirSize, m.cfg.Seed)
	edges := make([][]float64, m.dims)
	refProp := make([][]float64, m.dims)
	refCum := make([][]float64, m.dims)
	col := make([]float64, 0, len(sample))
	for f := 0; f < m.dims; f++ {
		col = col[:0]
		for _, r := range sample {
			if v := r[f]; !math.IsNaN(v) {
				col = append(col, v)
			}
		}
		sort.Float64s(col)
		edges[f] = quantileEdges(col, m.cfg.Bins)
		nb := len(edges[f]) + 1
		cnt := make([]int, nb)
		for _, v := range col {
			cnt[binOf(edges[f], v)]++
		}
		refProp[f] = smooth(cnt, len(col))
		refCum[f] = cumulative(refProp[f])
	}
	m.edges = edges
	m.refProp = refProp
	m.refCum = refCum
	m.ring = make([][]int16, m.cfg.Window)
	for i := range m.ring {
		m.ring[i] = make([]int16, m.dims)
	}
	m.counts = make([][]int, m.dims)
	for f := range m.counts {
		m.counts[f] = make([]int, len(m.edges[f])+1)
	}
	m.total = make([]int, m.dims)
	m.cursor, m.filled = 0, 0
	return nil
}

// Reset re-anchors the monitor to a new training snapshot (called after
// every model publication so drift is always judged against the
// distribution the *serving* champion was trained on) and clears the
// observation window.
func (m *Monitor) Reset(ref [][]float64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(ref) == 0 {
		return errors.New("drift: empty reference")
	}
	if len(ref[0]) != m.dims {
		return fmt.Errorf("drift: reference width %d, monitor built for %d", len(ref[0]), m.dims)
	}
	if err := m.anchor(ref); err != nil {
		return err
	}
	m.resets++
	driftResets.Inc()
	return nil
}

// Observe feeds one served feature vector into the drift window. Rows
// of the wrong width are ignored (the serving layer validates widths
// before classification; this is belt and braces). NaN entries skip
// their feature's update.
func (m *Monitor) Observe(row []float64) {
	if len(row) != m.dims {
		return
	}
	m.mu.Lock()
	slot := m.ring[m.cursor]
	evict := m.filled == m.cfg.Window
	for f := 0; f < m.dims; f++ {
		if evict {
			if old := slot[f]; old >= 0 {
				m.counts[f][old]--
				m.total[f]--
			}
		}
		v := row[f]
		if math.IsNaN(v) {
			slot[f] = -1
			continue
		}
		b := binOf(m.edges[f], v)
		slot[f] = int16(b)
		m.counts[f][b]++
		m.total[f]++
	}
	m.cursor++
	if m.cursor == m.cfg.Window {
		m.cursor = 0
	}
	if !evict {
		m.filled++
	}
	m.rows++
	m.mu.Unlock()
	driftRows.Inc()
}

// ObserveBatch feeds many rows in one lock acquisition per row (rows
// may be ragged; wrong-width rows are skipped).
func (m *Monitor) ObserveBatch(rows [][]float64) {
	for _, r := range rows {
		m.Observe(r)
	}
}

// FeatureScore is one feature's drift measurement.
type FeatureScore struct {
	// Index is the feature's position in the model-space vector.
	Index int `json:"index"`
	// PSI is the population stability index of the windowed
	// distribution vs the reference.
	PSI float64 `json:"psi"`
	// KS is the grid-KS distance (max CDF gap at the bin edges).
	KS float64 `json:"ks"`
}

// Status is one drift snapshot, cheap enough for health probes.
type Status struct {
	// Rows counts lifetime observations; WindowFill is how much of the
	// window is populated.
	Rows       uint64 `json:"rows"`
	WindowFill int    `json:"window_fill"`
	Window     int    `json:"window"`
	// Ready reports whether the window has reached MinWindow; all
	// scores read 0 and Drifted false until it has.
	Ready bool `json:"ready"`
	// Features is the monitored dimensionality; DriftedFeatures how
	// many exceed their PSI or KS threshold.
	Features        int     `json:"features"`
	DriftedFeatures int     `json:"drifted_features"`
	DriftedFraction float64 `json:"drifted_fraction"`
	MaxPSI          float64 `json:"max_psi"`
	MeanPSI         float64 `json:"mean_psi"`
	MaxKS           float64 `json:"max_ks"`
	// Drifted is the reported drift state: DriftedFraction has cleared
	// TriggerFraction on a ready window.
	Drifted bool `json:"drifted"`
	// Resets counts reference re-anchors so far.
	Resets uint64 `json:"resets"`
	// Top holds the most-drifted features by PSI (up to 5), for
	// operator drill-down.
	Top []FeatureScore `json:"top_features,omitempty"`
}

// Snapshot scores the current window against the reference. O(dims ·
// bins); intended per batch or probe, not per row.
func (m *Monitor) Snapshot() Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Status{
		Rows:       m.rows,
		WindowFill: m.filled,
		Window:     m.cfg.Window,
		Features:   m.dims,
		Resets:     m.resets,
		Ready:      m.filled >= m.cfg.MinWindow,
	}
	if !st.Ready {
		return st
	}
	scores := make([]FeatureScore, 0, m.dims)
	var sumPSI float64
	for f := 0; f < m.dims; f++ {
		n := m.total[f]
		if n == 0 {
			continue // feature all-NaN in window: no evidence either way
		}
		prop := smooth(m.counts[f], n)
		var psi, cumW, cumR, ks float64
		for b := range prop {
			w, r := prop[b], m.refProp[f][b]
			// smooth guarantees w > 0 and r > 0, so the ratio and its
			// log are finite.
			if w > 0 && r > 0 {
				psi += (w - r) * math.Log(w/r)
			}
			cumW += w
			cumR = m.refCum[f][b]
			if d := math.Abs(cumW - cumR); d > ks {
				ks = d
			}
		}
		sumPSI += psi
		if psi > st.MaxPSI {
			st.MaxPSI = psi
		}
		if ks > st.MaxKS {
			st.MaxKS = ks
		}
		drifted := psi > m.cfg.PSIThreshold || ks > m.cfg.KSThreshold
		if drifted {
			st.DriftedFeatures++
		}
		scores = append(scores, FeatureScore{Index: f, PSI: psi, KS: ks})
	}
	if len(scores) > 0 {
		st.MeanPSI = sumPSI / float64(len(scores))
		st.DriftedFraction = float64(st.DriftedFeatures) / float64(len(scores))
	}
	st.Drifted = st.DriftedFraction >= m.cfg.TriggerFraction
	sort.Slice(scores, func(i, j int) bool {
		if scores[i].PSI != scores[j].PSI { //albacheck:ignore floatsafe intentional exact tie-break on computed scores; ties fall through to the stable index order
			return scores[i].PSI > scores[j].PSI
		}
		return scores[i].Index < scores[j].Index
	})
	if len(scores) > 5 {
		scores = scores[:5]
	}
	st.Top = scores
	driftMaxPSI.Set(st.MaxPSI)
	driftMaxKS.Set(st.MaxKS)
	driftFraction.Set(st.DriftedFraction)
	return st
}

// --- internals -----------------------------------------------------------

// reservoir returns up to k rows of ref, deterministically sampled with
// the classic reservoir algorithm under seed. The returned slice
// aliases ref's rows (the monitor only reads them during anchoring).
func reservoir(ref [][]float64, k int, seed int64) [][]float64 {
	if len(ref) <= k {
		return ref
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, k)
	copy(out, ref[:k])
	for i := k; i < len(ref); i++ {
		if j := rng.Intn(i + 1); j < k {
			out[j] = ref[i]
		}
	}
	return out
}

// quantileEdges returns the interior bin edges at the b-quantiles of
// the sorted column, deduplicated (constant or low-cardinality features
// yield fewer, possibly zero, edges).
func quantileEdges(sorted []float64, bins int) []float64 {
	if len(sorted) == 0 || bins < 2 {
		return nil
	}
	edges := make([]float64, 0, bins-1)
	for i := 1; i < bins; i++ {
		q := float64(i) / float64(bins)
		pos := int(q * float64(len(sorted)-1))
		v := sorted[pos]
		if n := len(edges); n > 0 && v <= edges[n-1] {
			continue
		}
		edges = append(edges, v)
	}
	return edges
}

// binOf locates v's bin: the first edge >= v, with values above every
// edge landing in the overflow bin (le semantics, matching obs
// histograms).
func binOf(edges []float64, v float64) int {
	return sort.SearchFloat64s(edges, v)
}

// smooth converts bin counts (summing to n) into Laplace-smoothed
// proportions that are strictly positive.
func smooth(counts []int, n int) []float64 {
	out := make([]float64, len(counts))
	denom := float64(n) + smoothing*float64(len(counts))
	if denom <= 0 {
		return out
	}
	for b, c := range counts {
		out[b] = (float64(c) + smoothing) / denom
	}
	return out
}

// cumulative prefix-sums proportions.
func cumulative(prop []float64) []float64 {
	out := make([]float64, len(prop))
	var c float64
	for b, p := range prop {
		c += p
		out[b] = c
	}
	return out
}
