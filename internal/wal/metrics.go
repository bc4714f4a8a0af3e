package wal

import "albadross/internal/obs"

// Write-ahead-log metrics, registered on the default obs registry at
// import time and documented in docs/OBSERVABILITY.md. Counters
// aggregate across every open Log in the process; per-log numbers come
// from Log.Stats.
var (
	appendsTotal = obs.NewCounter(obs.Opts{
		Name: "wal_appends_total",
		Help: "Records journaled across all write-ahead logs.",
		Unit: "records",
	})
	bytesTotal = obs.NewCounter(obs.Opts{
		Name: "wal_bytes_total",
		Help: "Framed bytes appended across all write-ahead logs.",
		Unit: "bytes",
	})
	rotationsTotal = obs.NewCounter(obs.Opts{
		Name: "wal_rotations_total",
		Help: "Segment rotations across all write-ahead logs.",
		Unit: "segments",
	})
	retiredTotal = obs.NewCounter(obs.Opts{
		Name: "wal_retired_total",
		Help: "Segments deleted by retention across all write-ahead logs.",
		Unit: "segments",
	})
	quarantinedTotal = obs.NewCounter(obs.Opts{
		Name: "wal_quarantined_bytes_total",
		Help: "Torn-tail bytes copied to quarantine files (and zeroed in place) during recovery.",
		Unit: "bytes",
	})
	replayedTotal = obs.NewCounter(obs.Opts{
		Name: "wal_replayed_total",
		Help: "Records read back through Log.Scan (recovery and replay).",
		Unit: "records",
	})
)
