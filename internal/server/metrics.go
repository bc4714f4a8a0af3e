package server

import (
	"net/http"
	"strconv"
	"time"

	"albadross/internal/obs"
)

// HTTP and retrain metrics, registered on the default obs registry at
// import time and documented in docs/OBSERVABILITY.md. The endpoint
// label is the mounted route pattern (never the raw URL path, so
// cardinality stays bounded); code is the numeric HTTP status actually
// written.
var (
	httpRequests = obs.NewCounterVec(obs.Opts{
		Name: "http_requests_total",
		Help: "Requests served, by endpoint and HTTP status code.",
		Unit: "requests",
	}, "endpoint", "code")
	httpLatency = obs.NewHistogramVec(obs.Opts{
		Name: "http_request_seconds",
		Help: "Request wall time, by endpoint.",
		Unit: "seconds",
	}, "endpoint")
	retrainAttempts = obs.NewCounter(obs.Opts{
		Name: "retrain_attempts_total",
		Help: "Model retraining attempts, including backoff retries.",
		Unit: "attempts",
	})
	retrainFailures = obs.NewCounter(obs.Opts{
		Name: "retrain_failures_total",
		Help: "Model retraining attempts that returned an error.",
		Unit: "attempts",
	})
	retrainBackoff = obs.NewGauge(obs.Opts{
		Name: "retrain_backoff_seconds",
		Help: "Backoff delay before the retry in progress; 0 when retraining is not backing off.",
		Unit: "seconds",
	})
	batchRows = obs.NewHistogram(obs.Opts{
		Name:    "serve_batch_rows",
		Help:    "Feature rows classified per classify call (one request, or one ingest window).",
		Unit:    "rows",
		Buckets: obs.SizeBuckets,
	})
	batchLatency = obs.NewHistogram(obs.Opts{
		Name: "serve_batch_pass_seconds",
		Help: "Wall time of one classify call: validation, prediction, lifecycle offer.",
		Unit: "seconds",
	})
	snapshotSwaps = obs.NewCounter(obs.Opts{
		Name: "serve_snapshot_swaps_total",
		Help: "Atomic model snapshot publications (initial train, labels, retrains).",
		Unit: "swaps",
	})
	modelVersion = obs.NewGauge(obs.Opts{
		Name: "serve_model_version",
		Help: "Monotonic version of the model snapshot currently serving.",
		Unit: "version",
	})

	// Lifecycle metrics (Config.Lifecycle): drift-triggered retraining,
	// shadow champion–challenger evaluation, and rollback.
	shadowRows = obs.NewCounter(obs.Opts{
		Name: "shadow_rows_total",
		Help: "Duplicated feature rows scored by a shadowed challenger.",
		Unit: "rows",
	})
	shadowShed = obs.NewCounter(obs.Opts{
		Name: "shadow_shed_total",
		Help: "Duplicated batches dropped because the shadow queue was full.",
		Unit: "batches",
	})
	shadowQueueDepth = obs.NewGauge(obs.Opts{
		Name: "shadow_queue_depth",
		Help: "Duplicated batches waiting in the shadow queue at last sample.",
		Unit: "batches",
	})
	shadowAgreement = obs.NewGauge(obs.Opts{
		Name: "shadow_agreement",
		Help: "Running challenger-vs-champion agreement over the current trial.",
		Unit: "ratio",
	})
	promotionsTotal = obs.NewCounter(obs.Opts{
		Name: "lifecycle_promotions_total",
		Help: "Challengers promoted to champion after passing the shadow gate.",
		Unit: "promotions",
	})
	quarantinesTotal = obs.NewCounter(obs.Opts{
		Name: "lifecycle_quarantines_total",
		Help: "Challengers quarantined by the shadow gate or its deadline.",
		Unit: "quarantines",
	})
	rollbacksTotal = obs.NewCounter(obs.Opts{
		Name: "lifecycle_rollbacks_total",
		Help: "Operator or automatic rollbacks to a previous model version.",
		Unit: "rollbacks",
	})
	driftTriggers = obs.NewCounter(obs.Opts{
		Name: "lifecycle_drift_triggers_total",
		Help: "Retrains triggered by the drift monitor clearing its threshold.",
		Unit: "triggers",
	})
	lastPublish = obs.NewGauge(obs.Opts{
		Name: "lifecycle_last_publish_timestamp_seconds",
		Help: "Unix time of the last successful model publication (promotion or rollback).",
		Unit: "seconds",
	})
)

// statusWriter captures the status code a handler writes.
type statusWriter struct {
	http.ResponseWriter
	code int
}

// WriteHeader records the status before delegating.
func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps one route with request counting and latency timing.
// The latency series is resolved once per route; the status series is
// resolved per request (a handful of codes per endpoint). A panicking
// handler is recorded as a 500 and re-panicked for withRecovery to turn
// into the logged 500 response.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	lat := httpLatency.With(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		defer func() {
			if rec := recover(); rec != nil {
				httpRequests.With(endpoint, "500").Inc()
				obs.ObserveSince(lat, start)
				panic(rec)
			}
			httpRequests.With(endpoint, strconv.Itoa(sw.code)).Inc()
			obs.ObserveSince(lat, start)
		}()
		h(sw, r)
	}
}
