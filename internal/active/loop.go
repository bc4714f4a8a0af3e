package active

import (
	"errors"
	"fmt"

	"albadross/internal/dataset"
	"albadross/internal/eval"
	"albadross/internal/ml"
)

// Annotator provides the ground-truth label of a sample on request — the
// paper's human annotator (Sec. III). The argument is a dataset index.
type Annotator interface {
	// Label returns the class index of the requested sample.
	Label(datasetIndex int) int
}

// Oracle is the experimental annotator: it replays the dataset's stored
// ground truth, exactly how the paper's evaluation reveals labels.
type Oracle struct{ D *dataset.Dataset }

// Label returns the stored ground-truth class.
func (o Oracle) Label(i int) int { return o.D.Y[i] }

// Record is one point of a query trajectory: the state after the model
// was (re-)trained with `Queried` extra labeled samples.
type Record struct {
	// Queried is the number of labels obtained so far (0 for the initial
	// model trained only on the initial labeled set).
	Queried int
	// DatasetIndex is the sample queried at this step (-1 on the initial
	// record).
	DatasetIndex int
	// Label is the class the annotator returned (-1 initially).
	Label int
	// App is the queried sample's application ("" initially).
	App string
	// F1, FalseAlarmRate, AnomalyMissRate are test-set scores after
	// retraining.
	F1, FalseAlarmRate, AnomalyMissRate float64
}

// Loop runs pool-based active learning: train on the labeled set, let the
// strategy pick a pool sample, ask the annotator, move the sample into
// the labeled set, retrain, evaluate; repeat (Fig. 1).
type Loop struct {
	// Factory builds the supervised model retrained at every step.
	Factory ml.Factory
	// Strategy picks the next sample.
	Strategy Strategy
	// Annotator reveals labels.
	Annotator Annotator
	// HealthyClass is the class index used by FAR/AMR.
	HealthyClass int
	// Seed drives the strategy's randomness.
	Seed int64
	// EvalEvery re-evaluates on the test set every n queries (default 1).
	// Intermediate queries still retrain the model; their records carry
	// the last computed scores.
	EvalEvery int
	// Workers bounds the pool-scoring parallelism (0 = GOMAXPROCS). The
	// trajectory is identical for any worker count: batch prediction is
	// bit-equal to per-row PredictProba.
	Workers int
}

// RunConfig bounds one Run.
type RunConfig struct {
	// MaxQueries is the query budget (the paper uses up to 1000).
	MaxQueries int
	// TargetF1 stops the loop early once reached (0 disables; Sec. III-E).
	TargetF1 float64
}

// Result is the outcome of one active-learning run.
type Result struct {
	// Records holds the trajectory, Records[0] being the initial model.
	Records []Record
	// Model is the final trained classifier.
	Model ml.Classifier
	// labeled is the final labeled set (see Labeled).
	labeled []int
}

// Labeled returns the dataset indices of the final labeled set, initial
// samples first, then queried samples in query order.
func (r *Result) Labeled() []int { return r.labeled }

// QueriesTo returns the smallest query count whose record reached the
// given F1, or -1 if the trajectory never did.
func (r *Result) QueriesTo(f1 float64) int {
	for _, rec := range r.Records {
		if rec.F1 >= f1 {
			return rec.Queried
		}
	}
	return -1
}

// Run executes the loop. d is the active-learning training dataset;
// initial and pool are disjoint index sets into d (Fig. 2); test is the
// withheld evaluation set sharing d's class space.
func (l *Loop) Run(d *dataset.Dataset, initial, pool []int, test *dataset.Dataset, cfg RunConfig) (*Result, error) {
	if l.Factory == nil || l.Strategy == nil || l.Annotator == nil {
		return nil, errors.New("active: Loop needs Factory, Strategy and Annotator")
	}
	if len(initial) == 0 {
		return nil, errors.New("active: empty initial labeled set")
	}
	if test == nil || test.Len() == 0 {
		return nil, errors.New("active: empty test set")
	}
	if cfg.MaxQueries < 0 {
		return nil, fmt.Errorf("active: negative query budget %d", cfg.MaxQueries)
	}
	evalEvery := l.EvalEvery
	if evalEvery <= 0 {
		evalEvery = 1
	}
	nClasses := len(d.Classes)
	sess := NewSession(d, initial, pool, l.Annotator, l.Strategy, l.Seed, l.Workers)

	train := func() (ml.Classifier, error) {
		x, y := sess.Training()
		m := l.Factory()
		if err := m.Fit(x, y, nClasses); err != nil {
			return nil, fmt.Errorf("active: retraining with %d labels: %w", len(x), err)
		}
		return m, nil
	}
	score := func(m ml.Classifier) (*eval.Report, error) {
		return eval.EvaluateModel(m, test.X, test.Y, nClasses, l.HealthyClass)
	}

	model, err := train()
	if err != nil {
		return nil, err
	}
	rep, err := score(model)
	if err != nil {
		return nil, err
	}
	res := &Result{Model: model}
	res.Records = append(res.Records, Record{
		Queried: 0, DatasetIndex: -1, Label: -1,
		F1: rep.MacroF1, FalseAlarmRate: rep.FalseAlarmRate, AnomalyMissRate: rep.AnomalyMissRate,
	})
	reached := func() bool { return cfg.TargetF1 > 0 && rep.MacroF1 >= cfg.TargetF1 }
	for q := 0; q < cfg.MaxQueries && sess.PoolSize() > 0 && !reached(); q++ {
		di, _, err := sess.Next(model)
		if err != nil {
			return nil, err
		}
		y := l.Annotator.Label(di)
		sess.Label(y)

		model, err = train()
		if err != nil {
			return nil, err
		}
		if (q+1)%evalEvery == 0 || q == cfg.MaxQueries-1 {
			rep, err = score(model)
			if err != nil {
				return nil, err
			}
		}
		res.Records = append(res.Records, Record{
			Queried: q + 1, DatasetIndex: di, Label: y, App: d.Meta[di].App,
			F1: rep.MacroF1, FalseAlarmRate: rep.FalseAlarmRate, AnomalyMissRate: rep.AnomalyMissRate,
		})
		res.Model = model
	}
	res.labeled = sess.Labeled()
	return res, nil
}
