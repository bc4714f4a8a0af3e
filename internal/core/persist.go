package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"albadross/internal/ml"
	"albadross/internal/ml/modelio"
)

// Bundle file names inside a saved framework directory.
const (
	modelFile    = "model.bin"
	pipelineFile = "pipeline.bin"
)

// pipelineBundle is the gob-encoded deployment state next to the model.
type pipelineBundle struct {
	Classes []string
	Prep    *Preprocessor
}

// Save persists a fitted framework into dir (created if missing): the
// trained classifier (the paper's pickled model, Sec. III-E) plus the
// feature pipeline and class labels needed to serve diagnoses.
func (f *Framework) Save(dir string) error {
	if f.Result == nil || f.Prep == nil {
		return errors.New("core: Save requires a fitted framework")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := modelio.Save(filepath.Join(dir, modelFile), f.Result.Model); err != nil {
		return fmt.Errorf("core: saving model: %w", err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(pipelineBundle{Classes: f.Classes, Prep: f.Prep}); err != nil {
		return fmt.Errorf("core: encoding pipeline: %w", err)
	}
	return os.WriteFile(filepath.Join(dir, pipelineFile), buf.Bytes(), 0o644)
}

// Deployment is a loaded, serving-only framework: it can diagnose but
// not re-fit.
type Deployment struct {
	Classes []string
	Prep    *Preprocessor
	Model   interface {
		PredictProba([]float64) []float64
	}
}

// LoadDeployment restores the serving state written by Save.
func LoadDeployment(dir string) (*Deployment, error) {
	raw, err := os.ReadFile(filepath.Join(dir, pipelineFile))
	if err != nil {
		return nil, err
	}
	var bundle pipelineBundle
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&bundle); err != nil {
		return nil, fmt.Errorf("core: decoding pipeline: %w", err)
	}
	model, err := modelio.Load(filepath.Join(dir, modelFile))
	if err != nil {
		return nil, err
	}
	return &Deployment{Classes: bundle.Classes, Prep: bundle.Prep, Model: model}, nil
}

// Diagnose runs one raw feature vector through the loaded pipeline:
// transform, predict, and the most probable class. It is the one
// diagnosis body; Framework.DiagnoseVector serves through it.
func (d *Deployment) Diagnose(x []float64) (*Diagnosis, error) {
	row, err := d.Prep.TransformRow(x)
	if err != nil {
		return nil, err
	}
	probs := d.Model.PredictProba(row)
	best := ml.Argmax(probs)
	return &Diagnosis{Label: d.Classes[best], Confidence: probs[best], Probs: probs}, nil
}
