package stream

// Windower is the delivery half of online diagnosis: the one
// implementation of the delicate parts — the bounded reordering buffer,
// duplicate/late/implausible filtering, gap-row synthesis, the window
// ring, and stride boundaries. A Windower knows nothing about features
// or models — it turns an arrival sequence into committed rows and
// completed raw windows, delivered synchronously through two callbacks:
//
//   - onCommit fires once per committed row (synthesized gap rows
//     included), in commit order, before any window that row completes;
//   - onWindow fires at each stride boundary with the current window
//     ring and the timestep index of its last sample. The rows passed to
//     onWindow are never mutated afterwards, but the slice itself is the
//     live ring — consumers that retain it must copy the header.
//
// The callback shape is load-bearing for replay determinism: a single
// PushAt can release several buffered rows and cross a window boundary
// mid-drain, and the ring must be read at the exact boundary commit —
// not after the drain finishes. Returning the ring from PushAt instead
// would observe it a few commits too late, already overwritten.

import (
	"fmt"
	"math"
)

// WindowerConfig sizes a Windower.
type WindowerConfig struct {
	// Metrics is the reading width (number of metrics per row).
	Metrics int
	// Window is the diagnosis window length in samples (>= 8; e.g. 300
	// at 1 Hz = 5 minutes).
	Window int
	// Stride is the hop between window completions; 0 defaults to
	// Window (tumbling windows).
	Stride int
	// Reorder is the reordering-buffer horizon for PushAt: a reading may
	// arrive up to Reorder positions after a newer timestamp and still
	// be sequenced correctly; once the buffer spans more than Reorder
	// timestamps the oldest missing slot is declared lost and filled
	// with an explicit all-NaN gap row. 0 disables buffering (readings
	// commit immediately in arrival order).
	Reorder int
	// MaxJump bounds how far past the commit frontier a claimed
	// timestamp may plausibly sit. A reading jumping further ahead is
	// dropped with accounting (Stats.Implausible) instead of trusted —
	// a single corrupt timestamp must not trigger one synthesized gap
	// row per skipped timestep all the way to it. 0 defaults to
	// 4*Window+Reorder; an explicit value must be >= Reorder.
	MaxJump int
}

// Windower sequences one shard's arrivals into committed rows and
// completed windows. Not safe for concurrent use; callers own the
// locking.
type Windower struct {
	cfg      WindowerConfig
	onCommit func(row []float64)
	onWindow func(rows [][]float64, end int) error

	buf   [][]float64 // ring of the last Window readings, in commit order
	count int         // total samples committed
	since int         // samples since the last window

	// Timestamped-path state (PushAt).
	anchored bool
	nextT    int // next claimed timestep to commit
	pending  map[int][]float64
	maxT     int // highest claimed timestep buffered or committed

	stats Stats // delivery + window counters; Abstained stays zero here
}

// NewWindower validates the configuration and returns a Windower wired
// to the given callbacks. Either callback may be nil (skipped).
func NewWindower(cfg WindowerConfig, onCommit func(row []float64), onWindow func(rows [][]float64, end int) error) (*Windower, error) {
	if cfg.Metrics <= 0 {
		return nil, fmt.Errorf("stream: windower needs a positive metric count, got %d", cfg.Metrics)
	}
	if cfg.Window < 8 {
		return nil, fmt.Errorf("stream: window %d too short (need >= 8)", cfg.Window)
	}
	if cfg.Stride <= 0 {
		cfg.Stride = cfg.Window
	}
	if cfg.Reorder < 0 {
		return nil, fmt.Errorf("stream: negative reorder horizon %d", cfg.Reorder)
	}
	if cfg.MaxJump == 0 {
		cfg.MaxJump = 4*cfg.Window + cfg.Reorder
	}
	if cfg.MaxJump < cfg.Reorder {
		return nil, fmt.Errorf("stream: MaxJump %d below reorder horizon %d", cfg.MaxJump, cfg.Reorder)
	}
	return &Windower{
		cfg:      cfg,
		onCommit: onCommit,
		onWindow: onWindow,
		pending:  map[int][]float64{},
	}, nil
}

// Config returns the validated configuration (defaults resolved).
func (w *Windower) Config() WindowerConfig { return w.cfg }

// PushAt delivers one timestamped row through the bounded reordering
// buffer: duplicates, late arrivals and implausible timestamp jumps are
// dropped with accounting, and the first accepted reading anchors the
// timestamp origin. The row is copied.
func (w *Windower) PushAt(t int, values []float64) error {
	if len(values) != w.cfg.Metrics {
		return fmt.Errorf("stream: reading has %d metrics, schema %d", len(values), w.cfg.Metrics)
	}
	if !w.anchored {
		w.anchored = true
		w.nextT = t
		w.maxT = t - 1
	}
	if t < w.nextT {
		w.stats.Late++
		lateTotal.Inc()
		return nil
	}
	if t > w.nextT+w.cfg.MaxJump {
		w.stats.Implausible++
		implausibleTotal.Inc()
		return nil
	}
	if _, dup := w.pending[t]; dup {
		w.stats.Duplicates++
		duplicatesTotal.Inc()
		return nil
	}
	//albacheck:ignore hotalloc ownership copy of the caller's row; the reorder buffer must outlive the call
	w.pending[t] = append([]float64{}, values...)
	if t > w.maxT {
		w.maxT = t
	}
	w.stats.Pushed++
	pushedTotal.Inc()
	err := w.drain(false)
	reorderDepth.Set(float64(len(w.pending)))
	return err
}

// drain commits every pending reading that is either next in sequence
// or whose gap has outlived the reorder horizon (final drains every
// remaining slot).
func (w *Windower) drain(final bool) error {
	for len(w.pending) > 0 {
		row, ok := w.pending[w.nextT]
		if !ok {
			// The slot is missing; give it up only once no in-horizon
			// arrival could still fill it.
			if !final && w.maxT-w.nextT < w.cfg.Reorder {
				break
			}
			//albacheck:ignore hotalloc gap rows are retained in the window ring, so each needs its own backing; bounded by the reorder horizon
			row = make([]float64, w.cfg.Metrics)
			for i := range row {
				row[i] = math.NaN()
			}
			w.stats.GapsFilled++
			gapsFilledTotal.Inc()
		} else {
			delete(w.pending, w.nextT)
		}
		w.nextT++
		if err := w.commit(row); err != nil {
			return err
		}
	}
	return nil
}

// Flush drains the reordering buffer at end-of-stream, filling any
// remaining gaps.
func (w *Windower) Flush() error { return w.drain(true) }

// commit appends one in-sequence row to the window ring, notifies the
// commit callback, and fires the window callback when a stride boundary
// is crossed.
func (w *Windower) commit(row []float64) error {
	w.buf = append(w.buf, row)
	if len(w.buf) > w.cfg.Window {
		w.buf = w.buf[1:]
	}
	if w.onCommit != nil {
		w.onCommit(row)
	}
	w.count++
	w.since++
	if len(w.buf) < w.cfg.Window || w.since < w.cfg.Stride {
		return nil
	}
	w.since = 0
	w.stats.Windows++
	windowsTotal.Inc()
	if w.onWindow == nil {
		return nil
	}
	return w.onWindow(w.buf, w.count-1)
}

// Committed reports how many rows have been committed to the window
// sequence.
func (w *Windower) Committed() int { return w.count }

// PendingDepth reports how many accepted rows sit in the reordering
// buffer awaiting commit — the window-log replay lag of this shard.
func (w *Windower) PendingDepth() int { return len(w.pending) }

// Stats returns the delivery and window accounting so far (Abstained is
// always zero at this layer; classification owns abstention).
func (w *Windower) Stats() Stats { return w.stats }
