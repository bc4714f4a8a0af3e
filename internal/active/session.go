package active

import (
	"fmt"
	"math/rand"
	"time"

	"albadross/internal/dataset"
	"albadross/internal/ml"
	"albadross/internal/telemetry"
)

// Session is the query step of the paper's loop (Fig. 1), driven one
// call at a time: Next lets the strategy pick a pool sample, Label moves
// it into the labeled set, Fit refits a model on it. Evaluation stays
// with the caller, so Loop.Run and the annotation server share it. Not
// safe for concurrent use.
type Session struct {
	strategy Strategy
	rng      *rand.Rand
	workers  int
	queries  int // labels obtained so far = 0-based index of the next query

	// Dataset indices and incremental views of both sets, maintained
	// across queries instead of rebuilt each step: labeling a sample
	// moves its entry from the pool slices to the end of the others.
	// Sharing the backing arrays is safe: models may not mutate Fit
	// input, nor strategies QueryContext slices.
	labeled, pool []int
	trainX, poolX [][]float64
	trainY        []int
	poolMeta      []telemetry.RunMeta
	// cols ranks trainX's columns for models that fit on a ranking
	// (ml.ColumnFitter): built by the first such Fit, extended by every
	// Label, so a refit after a label ranks nothing.
	cols *ml.Columns
	// last is the model the last successful FitColumns trained, the
	// prev the next one may reuse parts of.
	last ml.Classifier

	pending      int       // dataset index awaiting its label, -1 when none
	pendingPos   int       // its pool position
	pendingProbs []float64 // the selecting model's probabilities for it
}

// NewSession starts a session over d. initial and pool are disjoint
// index sets into d (Fig. 2); the initial samples get their labels from
// ann, which for the Oracle is identical to d.Y. seed drives the
// strategy's randomness; workers bounds the pool-scoring parallelism
// (0 = GOMAXPROCS) without changing the trajectory.
func NewSession(d *dataset.Dataset, initial, pool []int, ann Annotator, strategy Strategy, seed int64, workers int) *Session {
	s := &Session{
		strategy: strategy, rng: rand.New(rand.NewSource(seed)), workers: workers,
		labeled:  append([]int{}, initial...),
		pool:     append([]int{}, pool...),
		trainX:   make([][]float64, 0, len(initial)+len(pool)),
		trainY:   make([]int, 0, len(initial)+len(pool)),
		poolX:    make([][]float64, len(pool)),
		poolMeta: make([]telemetry.RunMeta, len(pool)),
		pending:  -1,
	}
	for _, i := range initial {
		s.trainX = append(s.trainX, d.X[i])
		s.trainY = append(s.trainY, ann.Label(i))
	}
	for k, i := range pool {
		s.poolX[k], s.poolMeta[k] = d.X[i], d.Meta[i]
	}
	return s
}

// Next returns the dataset index the strategy picks using model, with
// model's probability row for it; the pool must not be empty. Until
// Label is called it re-serves that query, whatever model is passed.
func (s *Session) Next(model ml.Classifier) (int, []float64, error) {
	if s.pending >= 0 {
		return s.pending, s.pendingProbs, nil
	}
	qctx := &QueryContext{Rng: s.rng, Query: s.queries, Meta: s.poolMeta}
	if s.strategy.NeedsProbs() {
		// One batch pass, not a dispatch per row; the rows are bit-equal
		// to per-row PredictProba for any worker count.
		qctx.Probs = ml.ProbaBatchParallel(model, s.poolX, s.workers)
	}
	if ma, ok := s.strategy.(ModelAware); ok && ma.NeedsModel() {
		qctx.Model = model
	}
	if fa, ok := s.strategy.(FeatureAware); ok && fa.NeedsFeatures() {
		qctx.PoolX, qctx.LabeledX = s.poolX, s.trainX
	}
	selectStart := time.Now()
	pos := s.strategy.Next(qctx)
	queryLatency.With(s.strategy.Name()).Observe(time.Since(selectStart).Seconds())
	if pos < 0 || pos >= len(s.pool) {
		return -1, nil, fmt.Errorf("active: strategy %s returned pool position %d of %d", s.strategy.Name(), pos, len(s.pool))
	}
	s.pending, s.pendingPos, s.pendingProbs = s.pool[pos], pos, model.PredictProba(s.poolX[pos])
	return s.pending, s.pendingProbs, nil
}

// Pending returns the dataset index of the query awaiting its label,
// or -1 when Next has not picked one since the last Label.
func (s *Session) Pending() int { return s.pending }

// Label records the annotator's answer y for the pending query (there
// must be one), moving it from the pool to the end of the labeled set.
func (s *Session) Label(y int) {
	pos := s.pendingPos
	s.labeled = append(s.labeled, s.pending)
	s.trainX = append(s.trainX, s.poolX[pos])
	if s.cols != nil && s.cols.Append(s.poolX[pos]) != nil {
		s.cols = nil // the next Fit ranks afresh and reports the row
	}
	s.trainY = append(s.trainY, y)
	s.pool = append(s.pool[:pos], s.pool[pos+1:]...)
	s.poolX = append(s.poolX[:pos], s.poolX[pos+1:]...)
	s.poolMeta = append(s.poolMeta[:pos], s.poolMeta[pos+1:]...)
	s.pending, s.pendingProbs = -1, nil
	s.queries++
	labelsSpent.Inc()
	poolSize.Set(float64(len(s.pool)))
}

// Fit trains m on the labeled set. A model that fits on a ranking
// (ml.ColumnFitter, the random forest) fits on the session's own,
// ranked over the session's workers on first use and extended by each
// Label since, and is handed the model the last such Fit trained,
// whose trees the forest keeps where the rows labeled since leave them
// unchanged; any other model, or any model once the pool is empty and
// no Label can extend a ranking, fits on Training's rows. Either way
// the model is the one m.Fit on Training would give.
func (s *Session) Fit(m ml.Classifier, nClasses int) error {
	x, y := s.Training()
	cf, ok := m.(ml.ColumnFitter)
	if !ok || (s.cols == nil && len(s.pool) == 0) {
		return m.Fit(x, y, nClasses)
	}
	if s.cols == nil {
		c, err := ml.NewColumns(x, s.workers)
		if err != nil {
			return err
		}
		s.cols = c
	}
	if err := cf.FitColumns(s.cols, y, nClasses, s.last); err != nil {
		return err
	}
	s.last = m
	return nil
}

// Training returns the labeled set's rows and labels: initial samples,
// then queried ones in query order. Later Labels leave them untouched.
func (s *Session) Training() ([][]float64, []int) {
	n := len(s.trainX)
	return s.trainX[:n:n], s.trainY[:n:n]
}

// Labeled returns the labeled set's dataset indices, in Training's order.
func (s *Session) Labeled() []int { return s.labeled }

// PoolSize returns how many unlabeled samples remain.
func (s *Session) PoolSize() int { return len(s.pool) }

// Queries returns how many labels the session has obtained.
func (s *Session) Queries() int { return s.queries }
