package fleet

import "albadross/internal/obs"

// Fleet metrics, registered on the default obs registry at import time
// and documented in docs/OBSERVABILITY.md. Per-shard series are labeled
// with the shard index — cardinality is bounded by the configured shard
// count, never by the node count.
var (
	fleetRows = obs.NewCounter(obs.Opts{
		Name: "fleet_rows_total",
		Help: "Ingest readings accepted into shard-owned node chains.",
		Unit: "rows",
	})
	fleetRejected = obs.NewCounter(obs.Opts{
		Name: "fleet_rejected_rows_total",
		Help: "Ingest readings refused permanently (width mismatch, per-row chain errors, node-capacity overflow).",
		Unit: "rows",
	})
	fleetShed = obs.NewCounterVec(obs.Opts{
		Name: "fleet_shed_rows_total",
		Help: "Ingest readings shed by back-pressure because the shard queue was full, by shard.",
		Unit: "rows",
	}, "shard")
	fleetQueueDepth = obs.NewGaugeVec(obs.Opts{
		Name: "fleet_queue_depth",
		Help: "Ingest tasks waiting in the shard worker queue at last sample, by shard.",
		Unit: "tasks",
	}, "shard")
	fleetNodes = obs.NewGauge(obs.Opts{
		Name: "fleet_routed_nodes",
		Help: "Logical nodes with live chain state across all shard workers.",
		Unit: "nodes",
	})
	fleetBatchRows = obs.NewHistogram(obs.Opts{
		Name:    "fleet_bulk_batch_rows",
		Help:    "Rows per ingest batch offered to the fleet coordinator.",
		Unit:    "rows",
		Buckets: obs.SizeBuckets,
	})
	fleetDiagnoses = obs.NewCounter(obs.Opts{
		Name: "fleet_diagnoses_total",
		Help: "Window diagnoses emitted by fleet node chains.",
		Unit: "diagnoses",
	})
	rollupObserved = obs.NewCounter(obs.Opts{
		Name: "fleet_rollup_observed_total",
		Help: "Diagnoses folded into the fleet rollup heap.",
		Unit: "diagnoses",
	})
	rollupHeapSize = obs.NewGauge(obs.Opts{
		Name: "fleet_rollup_heap_size",
		Help: "Nodes ranked by the fleet rollup's bounded heap.",
		Unit: "nodes",
	})
)
