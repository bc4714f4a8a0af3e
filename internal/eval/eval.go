// Package eval implements the evaluation machinery of Sec. V: the
// confusion matrix, per-class precision/recall/F1, the macro-averaged
// F1-score the paper reports, the false alarm rate (healthy samples
// classified as any anomaly) and the anomaly miss rate (anomalous samples
// classified healthy), plus stratified cross-validation and grid search
// (Sec. IV-E-2, Table IV).
package eval

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"albadross/internal/dataset"
	"albadross/internal/ml"
	"albadross/internal/runner"
)

// Report summarizes classifier performance on a labeled set.
type Report struct {
	// Confusion[t][p] counts samples of true class t predicted as p.
	Confusion [][]int
	// Precision, Recall, F1 are per-class scores (NaN when undefined
	// counts as 0 in the macro averages, matching sklearn's
	// zero_division=0).
	Precision []float64
	Recall    []float64
	F1        []float64
	// MacroF1 is the unweighted mean of per-class F1 scores.
	MacroF1 float64
	// FalseAlarmRate is the fraction of healthy samples predicted as any
	// anomaly class.
	FalseAlarmRate float64
	// AnomalyMissRate is the fraction of anomalous samples predicted
	// healthy.
	AnomalyMissRate float64
	// Accuracy is the plain fraction of correct predictions.
	Accuracy float64
	// N is the number of evaluated samples.
	N int
}

// Evaluate scores predictions against truth. healthyClass identifies the
// class used by the false-alarm and anomaly-miss rates.
func Evaluate(yTrue, yPred []int, nClasses, healthyClass int) (*Report, error) {
	if len(yTrue) == 0 {
		return nil, errors.New("eval: empty evaluation set")
	}
	if len(yTrue) != len(yPred) {
		return nil, fmt.Errorf("eval: %d truths but %d predictions", len(yTrue), len(yPred))
	}
	if healthyClass < 0 || healthyClass >= nClasses {
		return nil, fmt.Errorf("eval: healthy class %d outside [0,%d)", healthyClass, nClasses)
	}
	r := &Report{N: len(yTrue)}
	r.Confusion = make([][]int, nClasses)
	for t := range r.Confusion {
		r.Confusion[t] = make([]int, nClasses)
	}
	correct := 0
	for i := range yTrue {
		t, p := yTrue[i], yPred[i]
		if t < 0 || t >= nClasses || p < 0 || p >= nClasses {
			return nil, fmt.Errorf("eval: class out of range at %d (true %d, pred %d)", i, t, p)
		}
		r.Confusion[t][p]++
		if t == p {
			correct++
		}
	}
	r.Accuracy = float64(correct) / float64(len(yTrue))

	r.Precision = make([]float64, nClasses)
	r.Recall = make([]float64, nClasses)
	r.F1 = make([]float64, nClasses)
	macro := 0.0
	for c := 0; c < nClasses; c++ {
		tp := r.Confusion[c][c]
		fp, fn := 0, 0
		for o := 0; o < nClasses; o++ {
			if o == c {
				continue
			}
			fp += r.Confusion[o][c]
			fn += r.Confusion[c][o]
		}
		prec, rec := 0.0, 0.0
		if tp+fp > 0 {
			prec = float64(tp) / float64(tp+fp)
		}
		if tp+fn > 0 {
			rec = float64(tp) / float64(tp+fn)
		}
		f1 := 0.0
		if prec+rec > 0 {
			f1 = 2 * prec * rec / (prec + rec)
		}
		r.Precision[c], r.Recall[c], r.F1[c] = prec, rec, f1
		macro += f1
	}
	r.MacroF1 = macro / float64(nClasses)

	healthyTotal, healthyWrong := 0, 0
	anomTotal, anomMissed := 0, 0
	for t := 0; t < nClasses; t++ {
		for p := 0; p < nClasses; p++ {
			n := r.Confusion[t][p]
			if t == healthyClass {
				healthyTotal += n
				if p != healthyClass {
					healthyWrong += n
				}
			} else {
				anomTotal += n
				if p == healthyClass {
					anomMissed += n
				}
			}
		}
	}
	if healthyTotal > 0 {
		r.FalseAlarmRate = float64(healthyWrong) / float64(healthyTotal)
	}
	if anomTotal > 0 {
		r.AnomalyMissRate = float64(anomMissed) / float64(anomTotal)
	}
	return r, nil
}

// EvaluateModel predicts x with the classifier and scores against y.
func EvaluateModel(c ml.Classifier, x [][]float64, y []int, nClasses, healthyClass int) (*Report, error) {
	return Evaluate(y, ml.PredictBatch(c, x), nClasses, healthyClass)
}

// CVResult is the outcome of a cross-validation run.
type CVResult struct {
	// FoldF1 holds the macro F1 of each fold.
	FoldF1 []float64
	// MeanF1 and StdF1 summarize the folds.
	MeanF1, StdF1 float64
}

// CrossValidate runs stratified k-fold cross-validation of a model
// factory and reports macro-F1 statistics.
func CrossValidate(factory ml.Factory, x [][]float64, y []int, nClasses, healthyClass, k int, seed int64) (*CVResult, error) {
	folds, err := dataset.StratifiedKFold(y, nClasses, k, seed)
	if err != nil {
		return nil, err
	}
	res := &CVResult{}
	inFold := make([]int, len(y))
	for f, fold := range folds {
		for _, i := range fold {
			inFold[i] = f
		}
	}
	for f := range folds {
		var xTr [][]float64
		var yTr []int
		var xTe [][]float64
		var yTe []int
		for i := range y {
			if inFold[i] == f {
				xTe = append(xTe, x[i])
				yTe = append(yTe, y[i])
			} else {
				xTr = append(xTr, x[i])
				yTr = append(yTr, y[i])
			}
		}
		m := factory()
		if err := m.Fit(xTr, yTr, nClasses); err != nil {
			return nil, fmt.Errorf("eval: fold %d fit: %w", f, err)
		}
		rep, err := EvaluateModel(m, xTe, yTe, nClasses, healthyClass)
		if err != nil {
			return nil, fmt.Errorf("eval: fold %d: %w", f, err)
		}
		res.FoldF1 = append(res.FoldF1, rep.MacroF1)
	}
	if len(res.FoldF1) == 0 {
		return res, nil
	}
	mean := 0.0
	for _, v := range res.FoldF1 {
		mean += v
	}
	mean /= float64(len(res.FoldF1))
	variance := 0.0
	for _, v := range res.FoldF1 {
		variance += (v - mean) * (v - mean)
	}
	res.MeanF1 = mean
	res.StdF1 = math.Sqrt(variance / float64(len(res.FoldF1)))
	return res, nil
}

// Candidate is one grid-search point: a model factory plus a readable
// parameter description.
type Candidate struct {
	// Params describes the hyperparameters, e.g. {"C": "1.0"}.
	Params map[string]string
	// Factory builds the configured model.
	Factory ml.Factory
}

// ParamString renders the candidate's parameters deterministically.
func (c Candidate) ParamString() string {
	keys := make([]string, 0, len(c.Params))
	for k := range c.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for i, k := range keys {
		if i > 0 {
			s += ", "
		}
		s += k + "=" + c.Params[k]
	}
	return s
}

// GridResult pairs a candidate with its cross-validation outcome.
type GridResult struct {
	Candidate Candidate
	CV        *CVResult
}

// GridSearchParallel cross-validates every candidate and returns the
// results sorted best-first (by mean macro F1, ties toward lower index
// for determinism), mirroring the paper's grid search in a 5-fold
// stratified CV setting. The candidate cross-validations fan out across
// a bounded worker pool (workers <= 0 uses GOMAXPROCS); every
// candidate's CV runs under the same shared seed, so the ranking is
// identical for any worker count.
func GridSearchParallel(cands []Candidate, x [][]float64, y []int, nClasses, healthyClass, k int, seed int64, workers int) ([]GridResult, error) {
	if len(cands) == 0 {
		return nil, errors.New("eval: empty candidate grid")
	}
	results := make([]GridResult, len(cands))
	if err := runner.ForEach(len(cands), workers, func(i int) error {
		cv, err := CrossValidate(cands[i].Factory, x, y, nClasses, healthyClass, k, seed)
		if err != nil {
			return fmt.Errorf("eval: candidate %d (%s): %w", i, cands[i].ParamString(), err)
		}
		results[i] = GridResult{Candidate: cands[i], CV: cv}
		return nil
	}); err != nil {
		return nil, err
	}
	order := make([]int, len(results))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return results[order[a]].CV.MeanF1 > results[order[b]].CV.MeanF1
	})
	sorted := make([]GridResult, len(results))
	for i, o := range order {
		sorted[i] = results[o]
	}
	return sorted, nil
}
