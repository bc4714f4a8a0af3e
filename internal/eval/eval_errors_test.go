package eval

import (
	"errors"
	"testing"

	"albadross/internal/ml"
	"albadross/internal/ml/testutil"
)

// failingModel errors on Fit, to exercise CV error propagation.
type failingModel struct{}

func (failingModel) Fit([][]float64, []int, int) error { return errors.New("boom") }
func (failingModel) PredictProba([]float64) []float64  { return nil }
func (failingModel) NumClasses() int                   { return 0 }

func TestCrossValidatePropagatesFitErrors(t *testing.T) {
	x, y, _ := testutil.Blobs(50, 3, 2, 3, 1)
	fac := ml.Factory(func() ml.Classifier { return failingModel{} })
	if _, err := CrossValidate(fac, x, y, 2, 0, 3, 1); err == nil {
		t.Fatal("fit error should propagate")
	}
}

func TestCrossValidateBadFolds(t *testing.T) {
	x, y, _ := testutil.Blobs(4, 2, 2, 3, 2)
	fac := ml.Factory(func() ml.Classifier { return failingModel{} })
	if _, err := CrossValidate(fac, x, y, 2, 0, 100, 1); err == nil {
		t.Fatal("more folds than samples should error")
	}
}

func TestGridSearchPropagatesErrors(t *testing.T) {
	x, y, _ := testutil.Blobs(30, 2, 2, 3, 3)
	cands := []Candidate{{
		Params:  map[string]string{"kind": "failing"},
		Factory: func() ml.Classifier { return failingModel{} },
	}}
	if _, err := GridSearchParallel(cands, x, y, 2, 0, 3, 4, 1); err == nil {
		t.Fatal("candidate failure should propagate")
	}
}
