package ml

import (
	"time"

	"albadross/internal/obs"
)

// Model-stage metrics, registered on the default obs registry at import
// time and documented in docs/OBSERVABILITY.md. The model zoo packages
// (forest, gbm, linear, neural) report into these via ObserveFit /
// ObservePredict with their model name as the label.
var (
	fitLatency = obs.NewHistogramVec(obs.Opts{
		Name: "ml_fit_seconds",
		Help: "Wall time of one model training (Fit call), by model.",
		Unit: "seconds",
	}, "model")
	predictLatency = obs.NewHistogramVec(obs.Opts{
		Name: "ml_predict_seconds",
		Help: "Wall time of one single-sample inference (PredictProba call), by model.",
		Unit: "seconds",
	}, "model")
	predictBatchLatency = obs.NewHistogramVec(obs.Opts{
		Name: "ml_predict_batch_seconds",
		Help: "Wall time of one batch inference (PredictProbaBatch call), by model.",
		Unit: "seconds",
	}, "model")
	predictBatchRows = obs.NewHistogramVec(obs.Opts{
		Name:    "ml_predict_batch_rows",
		Help:    "Rows classified per batch inference, by model.",
		Unit:    "rows",
		Buckets: obs.SizeBuckets,
	}, "model")
)

// ObserveFit records one Fit's wall time under the given model label.
func ObserveFit(model string, d time.Duration) {
	fitLatency.With(model).Observe(d.Seconds())
}

// ObservePredict records one PredictProba's wall time under the given
// model label.
func ObservePredict(model string, d time.Duration) {
	predictLatency.With(model).Observe(d.Seconds())
}

// ObservePredictBatch records one PredictProbaBatch's wall time and row
// count under the given model label.
func ObservePredictBatch(model string, d time.Duration, rows int) {
	predictBatchLatency.With(model).Observe(d.Seconds())
	predictBatchRows.With(model).Observe(float64(rows))
}
