// Package registry is the versioned model store of the lifecycle layer
// (ROADMAP item 2): an in-process, bounded history of immutable model
// snapshots with one atomically-published "active" pointer. The
// registry owns the serving pointer so that promotion and rollback are
// each a single pointer swap — readers on the diagnose hot path never
// take the registry mutex, and can never observe a half-published
// entry.
//
// Lifecycle of an entry:
//
//	Add → Candidate ──Promote──▶ Active ──(next Promote)──▶ Retired
//	         │                     ▲  │
//	         └──Quarantine──▶ Quarantined (terminal)
//	                               │  └──(Rollback target chosen from Retired)
//	                               └──Rollback──▶ RolledBack (terminal)
//
// Rollback re-activates the highest-versioned Retired entry below the
// current active version; the version rolled away from becomes
// RolledBack and is skipped by future rollbacks, exactly like
// Quarantined entries — a model deposed for cause never serves again
// without an explicit re-Add. Retention keeps the most recent K
// entries; Active and Candidate entries are never evicted.
package registry

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"albadross/internal/obs"
)

// State is an entry's position in the lifecycle.
type State string

// Entry states. Candidate and Active are live; Retired entries are
// rollback targets; Quarantined and RolledBack are terminal.
const (
	Candidate   State = "candidate"
	Active      State = "active"
	Retired     State = "retired"
	Quarantined State = "quarantined"
	RolledBack  State = "rolled_back"
)

// Stats are windowed evaluation numbers attached to an entry by the
// promotion machinery (shadow agreement, holdout macro-F1, ...).
type Stats struct {
	// Agreement is the fraction of shadow-scored rows on which the
	// entry agreed with the then-champion.
	Agreement float64 `json:"agreement"`
	// MacroF1 is the entry's holdout macro-F1 at evaluation time.
	MacroF1 float64 `json:"macro_f1"`
	// ShadowRows is how many duplicated rows the entry scored before
	// its promotion decision.
	ShadowRows int `json:"shadow_rows"`
}

// Meta is caller-supplied provenance recorded at Add time.
type Meta struct {
	// TrainHash fingerprints the training set (e.g. FNV over the
	// feature matrix) so operators can tell two versions apart.
	TrainHash uint64
	// TrainSize is the number of training rows.
	TrainSize int
	// Origin says what produced the entry: "initial", "label",
	// "operator", a challenger's own origin, ...
	Origin string
}

// Entry is one immutable model snapshot plus its mutable lifecycle
// record. Version, Meta and Payload never change after Add; state,
// stats and reason are guarded by the owning registry's mutex.
type Entry[T any] struct {
	// Version is the registry-assigned, strictly increasing version.
	Version uint64
	// Meta is the provenance recorded at Add time.
	Meta Meta
	// Payload is the immutable snapshot being versioned.
	Payload T

	created time.Time
	state   State
	reason  string
	stats   Stats
	hasStat bool
}

// Info is a JSON-friendly copy of an entry's record for /api/model.
type Info struct {
	Version   uint64 `json:"version"`
	State     State  `json:"state"`
	Origin    string `json:"origin,omitempty"`
	TrainHash string `json:"train_hash"`
	TrainSize int    `json:"train_size"`
	Reason    string `json:"reason,omitempty"`
	Stats     *Stats `json:"stats,omitempty"`
}

// Registry keeps the last K snapshots and the active serving pointer.
// Active() is lock-free; every mutation takes mu.
type Registry[T any] struct {
	mu      sync.Mutex
	keep    int
	next    uint64
	entries map[uint64]*Entry[T]
	active  atomic.Pointer[Entry[T]]
}

var (
	registryEntries = obs.NewGauge(obs.Opts{
		Name: "registry_entries",
		Help: "Model snapshots currently retained in the registry.",
		Unit: "entries",
	})
	registryEvictions = obs.NewCounter(obs.Opts{
		Name: "registry_evictions_total",
		Help: "Model snapshots evicted by the registry retention policy.",
		Unit: "entries",
	})
)

// New builds a registry retaining at most keep entries (minimum 2, so
// an active model and one rollback target always fit).
func New[T any](keep int) *Registry[T] {
	if keep < 2 {
		keep = 2
	}
	return &Registry[T]{keep: keep, entries: make(map[uint64]*Entry[T])}
}

// Add registers a new Candidate entry. The payload is constructed by
// build, which receives the assigned version — snapshots usually carry
// their own version, and this closes the loop without a second lock.
// Add never publishes: the entry does not serve until Promote.
func (r *Registry[T]) Add(build func(version uint64) T, meta Meta) *Entry[T] {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	e := &Entry[T]{
		Version: r.next,
		Meta:    meta,
		Payload: build(r.next),
		created: time.Now(),
		state:   Candidate,
	}
	r.entries[e.Version] = e
	r.evictLocked()
	registryEntries.Set(float64(len(r.entries)))
	return e
}

// Promote makes a Candidate entry the active version; the previous
// active entry (if any) retires. The serving pointer is swapped only
// after the entry's record is fully updated, so a concurrent Active()
// sees either the old complete entry or the new complete entry.
func (r *Registry[T]) Promote(version uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, err := r.candidateLocked(version)
	if err != nil {
		return err
	}
	r.promoteLocked(e)
	return nil
}

// PromoteUnlessStale is Promote for models fit on a training set that
// only grows: when the active entry was fit on more rows
// (Meta.TrainSize), the candidate is stale and is quarantined instead,
// in the same step, so the active TrainSize never goes backwards
// through this call. It reports whether the candidate was promoted.
func (r *Registry[T]) PromoteUnlessStale(version uint64) (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, err := r.candidateLocked(version)
	if err != nil {
		return false, err
	}
	if a := r.active.Load(); a != nil && a.Meta.TrainSize > e.Meta.TrainSize {
		e.state = Quarantined
		e.reason = fmt.Sprintf("stale: version %d serves a model fit on %d rows, this one %d",
			a.Version, a.Meta.TrainSize, e.Meta.TrainSize)
		r.evictLocked()
		registryEntries.Set(float64(len(r.entries)))
		return false, nil
	}
	r.promoteLocked(e)
	return true, nil
}

// candidateLocked returns version's entry when it is a Candidate.
func (r *Registry[T]) candidateLocked(version uint64) (*Entry[T], error) {
	e, ok := r.entries[version]
	if !ok {
		return nil, fmt.Errorf("registry: version %d not found", version)
	}
	if e.state != Candidate {
		return nil, fmt.Errorf("registry: version %d is %s, only candidates promote", version, e.state)
	}
	return e, nil
}

// promoteLocked makes the candidate e active and retires the previous
// active entry.
func (r *Registry[T]) promoteLocked(e *Entry[T]) {
	if prev := r.active.Load(); prev != nil {
		prev.state = Retired
	}
	e.state = Active
	r.active.Store(e)
	r.evictLocked()
	registryEntries.Set(float64(len(r.entries)))
}

// Quarantine marks a Candidate as failed vetting; it can never serve.
func (r *Registry[T]) Quarantine(version uint64, reason string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[version]
	if !ok {
		return fmt.Errorf("registry: version %d not found", version)
	}
	if e.state != Candidate {
		return fmt.Errorf("registry: version %d is %s, only candidates quarantine", version, e.state)
	}
	e.state = Quarantined
	e.reason = reason
	r.evictLocked()
	registryEntries.Set(float64(len(r.entries)))
	return nil
}

// Rollback re-activates the newest Retired entry older than the
// current active version, in one serving-pointer swap. The deposed
// entry becomes RolledBack and is skipped by future rollbacks.
func (r *Registry[T]) Rollback(reason string) (*Entry[T], error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.active.Load()
	if cur == nil {
		return nil, errors.New("registry: nothing active to roll back")
	}
	var target *Entry[T]
	for _, e := range r.entries {
		if e.state != Retired || e.Version >= cur.Version {
			continue
		}
		if target == nil || e.Version > target.Version {
			target = e
		}
	}
	if target == nil {
		return nil, errors.New("registry: no retired version to roll back to")
	}
	cur.state = RolledBack
	cur.reason = reason
	target.state = Active
	target.reason = ""
	r.active.Store(target)
	return target, nil
}

// SetStats attaches evaluation stats to a version's record.
func (r *Registry[T]) SetStats(version uint64, s Stats) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[version]
	if !ok {
		return fmt.Errorf("registry: version %d not found", version)
	}
	e.stats = s
	e.hasStat = true
	return nil
}

// Active returns the serving entry (nil before the first Promote).
// Lock-free: safe on the diagnose hot path.
func (r *Registry[T]) Active() *Entry[T] { return r.active.Load() }

// Get returns a version's entry, or nil.
func (r *Registry[T]) Get(version uint64) *Entry[T] {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.entries[version]
}

// List returns a newest-first copy of every retained entry's record.
func (r *Registry[T]) List() []Info {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Info, 0, len(r.entries))
	for _, e := range r.entries {
		info := Info{
			Version:   e.Version,
			State:     e.state,
			Origin:    e.Meta.Origin,
			TrainHash: fmt.Sprintf("%016x", e.Meta.TrainHash),
			TrainSize: e.Meta.TrainSize,
			Reason:    e.reason,
		}
		if e.hasStat {
			s := e.stats
			info.Stats = &s
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Version > out[j].Version })
	return out
}

// Len reports how many entries are retained.
func (r *Registry[T]) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// evictLocked enforces the K-retention policy: evict lowest-version
// terminal/retired entries first, never Active or Candidate.
func (r *Registry[T]) evictLocked() {
	for len(r.entries) > r.keep {
		var victim *Entry[T]
		for _, e := range r.entries {
			if e.state == Active || e.state == Candidate {
				continue
			}
			if victim == nil || e.Version < victim.Version {
				victim = e
			}
		}
		if victim == nil {
			return // everything live; retention yields rather than drop a serving model
		}
		delete(r.entries, victim.Version)
		registryEvictions.Inc()
	}
}
