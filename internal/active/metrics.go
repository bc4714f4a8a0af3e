package active

import "albadross/internal/obs"

// Active-learning metrics, registered on the default obs registry at
// import time and documented in docs/OBSERVABILITY.md. Session reports
// into them, for Loop.Run and the annotation server alike.
var (
	queryLatency = obs.NewHistogramVec(obs.Opts{
		Name: "active_query_seconds",
		Help: "Wall time of one query-strategy selection (Strategy.Next call), by strategy.",
		Unit: "seconds",
	}, "strategy")
	poolSize = obs.NewGauge(obs.Opts{
		Name: "active_pool_size",
		Help: "Unlabeled pool samples remaining after the most recent query.",
		Unit: "samples",
	})
	labelsSpent = obs.NewCounter(obs.Opts{
		Name: "active_labels_spent_total",
		Help: "Annotations obtained (oracle or human), across loops and server sessions.",
		Unit: "labels",
	})
)
