// Package core assembles the ALBADross framework of Fig. 1: telemetry
// preprocessing (Sec. IV-E-1), statistical feature extraction (Sec.
// III-A), min-max scaling and chi-square feature selection (Sec. III-B),
// supervised training, and the active-learning query loop (Sec. III-D),
// behind a deployable Diagnose API (Sec. III-E).
package core

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"albadross/internal/dataset"
	"albadross/internal/featsel"
	"albadross/internal/telemetry"
	"albadross/internal/ts"
)

// PreprocessRun cleans one node sample in place, applying the paper's
// data-preparation steps in order: linear interpolation of missing
// values, trimming of the initialization/termination transients, and
// differencing of cumulative counters. cumulative flags the counter
// metrics (telemetry.CumulativeFlags builds it from a schema).
func PreprocessRun(s *telemetry.NodeSample, cumulative []bool) error {
	if s == nil || s.Data == nil {
		return errors.New("core: nil sample")
	}
	if err := s.Data.Validate(); err != nil {
		return err
	}
	ts.InterpolateAll(s.Data)
	trim := telemetry.TransientSteps(s.Data.Steps())
	if err := ts.Trim(s.Data, trim, trim); err != nil {
		return fmt.Errorf("core: trimming transients: %w", err)
	}
	if err := ts.DiffCounters(s.Data, cumulative); err != nil {
		return fmt.Errorf("core: differencing counters: %w", err)
	}
	return nil
}

// Preprocessor is the fitted feature pipeline applied between raw
// extracted features and any model: NaN/zero-column dropping, min-max
// scaling, and chi-square top-k selection. It is fitted on the
// active-learning training rows only, so the withheld test set never
// leaks into it.
type Preprocessor struct {
	Clean  *featsel.CleanReport
	Scaler *ts.MinMaxScaler
	Sel    *featsel.Selector
	// Names are the selected feature names (nil when the source dataset
	// carries none).
	Names []string

	// plan is TransformRow's one-pass form of Clean, Scaler and Sel,
	// derived on first use. It is unexported, so gob never encodes it.
	planOnce sync.Once
	plan     transformPlan
}

// transformPlan folds the fitted pipeline onto the selected outputs:
// output o reads raw column cols[o].raw and scales it by that column's
// bounds. err is a Clean/Scaler/Sel shape mismatch, reported by every
// TransformRow as the three-step transform reported it.
type transformPlan struct {
	cols []selectedColumn
	err  error
}

type selectedColumn struct {
	raw        int
	min, scale float64 // Scaler.Min and Scaler.Range of the column
}

// FitPreprocessor learns the pipeline from the given training rows of d.
// topK bounds the chi-square selection (clamped to the surviving column
// count).
func FitPreprocessor(d *dataset.Dataset, trainIdx []int, topK int) (*Preprocessor, error) {
	if len(trainIdx) == 0 {
		return nil, errors.New("core: no training rows for the preprocessor")
	}
	if topK <= 0 {
		return nil, fmt.Errorf("core: topK must be positive, got %d", topK)
	}
	xTr := make([][]float64, len(trainIdx))
	yTr := make([]int, len(trainIdx))
	for k, i := range trainIdx {
		xTr[k] = d.X[i]
		yTr[k] = d.Y[i]
	}
	clean, err := featsel.CleanColumns(xTr)
	if err != nil {
		return nil, fmt.Errorf("core: cleaning columns: %w", err)
	}
	if clean.Kept == 0 {
		return nil, errors.New("core: every feature column was NaN or zero")
	}
	cleaned, err := clean.Apply(xTr)
	if err != nil {
		return nil, err
	}
	scaler, err := ts.FitMinMax(cleaned)
	if err != nil {
		return nil, fmt.Errorf("core: fitting scaler: %w", err)
	}
	// Transform a copy for chi-square scoring.
	scaled := make([][]float64, len(cleaned))
	for i, row := range cleaned {
		scaled[i] = append([]float64{}, row...)
	}
	if err := scaler.Transform(scaled); err != nil {
		return nil, err
	}
	sel, err := featsel.SelectTopK(scaled, yTr, len(d.Classes), topK)
	if err != nil {
		return nil, fmt.Errorf("core: chi-square selection: %w", err)
	}
	p := &Preprocessor{Clean: clean, Scaler: scaler, Sel: sel}
	if d.FeatureNames != nil {
		names, err := clean.ApplyNames(d.FeatureNames)
		if err != nil {
			return nil, err
		}
		p.Names, err = sel.ApplyNames(names)
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// TransformRow maps one raw feature vector through the fitted pipeline:
// NaN/zero-column dropping, min-max scaling, and chi-square selection.
// Values outside the training range extrapolate beyond [0,1] and are
// clipped at [-1, 2] to bound the influence of extreme unseen telemetry.
// Only the selected columns are read, cleaned and scaled, in one pass
// that is bitwise the clean → scale → clip → select sequence. x is only
// read; the result is freshly allocated.
func (p *Preprocessor) TransformRow(x []float64) ([]float64, error) {
	if len(x) != len(p.Clean.Keep) {
		_, err := p.Clean.Apply([][]float64{x}) // featsel words the width error
		return nil, err
	}
	p.planOnce.Do(p.buildPlan)
	if p.plan.err != nil {
		return nil, p.plan.err
	}
	out := make([]float64, len(p.plan.cols))
	for o, c := range p.plan.cols {
		v := x[c.raw]
		switch {
		case math.IsNaN(v), c.scale == 0:
			v = 0
		default:
			v = (v - c.min) / c.scale
		}
		if v < -1 {
			v = -1
		} else if v > 2 {
			v = 2
		}
		out[o] = v
	}
	return out, nil
}

// buildPlan derives the transform plan from Clean, Scaler and Sel. A
// shape mismatch between them is found by running the scaler and the
// selector once over a zero row of the cleaned width, so the error is
// theirs, word for word.
func (p *Preprocessor) buildPlan() {
	raw := make([]int, 0, p.Clean.Kept)
	for j, keep := range p.Clean.Keep {
		if keep {
			raw = append(raw, j)
		}
	}
	probe := [][]float64{make([]float64, len(raw))}
	if err := p.Scaler.Transform(probe); err != nil {
		p.plan.err = err
		return
	}
	if _, err := p.Sel.ApplyRow(probe[0]); err != nil {
		p.plan.err = err
		return
	}
	cols := make([]selectedColumn, len(p.Sel.Indices))
	for o, j := range p.Sel.Indices {
		cols[o] = selectedColumn{raw: raw[j], min: p.Scaler.Min[j], scale: p.Scaler.Range[j]}
	}
	p.plan.cols = cols
}

// Transform returns a new dataset whose rows passed through the pipeline;
// labels, classes and metadata are preserved.
func (p *Preprocessor) Transform(d *dataset.Dataset) (*dataset.Dataset, error) {
	out := dataset.New(d.Classes)
	out.FeatureNames = p.Names
	out.Y = append([]int{}, d.Y...)
	out.Meta = append([]telemetry.RunMeta{}, d.Meta...)
	out.X = make([][]float64, d.Len())
	for i, row := range d.X {
		tr, err := p.TransformRow(row)
		if err != nil {
			return nil, fmt.Errorf("core: transforming row %d: %w", i, err)
		}
		out.X[i] = tr
	}
	return out, nil
}

// Dim returns the transformed feature dimensionality.
func (p *Preprocessor) Dim() int { return len(p.Sel.Indices) }
