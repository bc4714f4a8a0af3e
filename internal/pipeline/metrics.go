package pipeline

import "albadross/internal/obs"

// Stage-graph metrics, registered on the default obs registry at import
// time and documented in docs/OBSERVABILITY.md. They aggregate across
// every Chain in the process; per-node numbers come from Chain.Stats.
// The two per-window families keep the stream_ namespace of the
// delivery counters they are read against (internal/stream).
var (
	eventsTotal = obs.NewCounter(obs.Opts{
		Name: "pipeline_events_total",
		Help: "Arrivals pushed through stage chains (live and replayed).",
		Unit: "readings",
	})
	windowLatency = obs.NewHistogram(obs.Opts{
		Name: "stream_window_seconds",
		Help: "Wall time to repair, extract and diagnose one completed window.",
		Unit: "seconds",
	})
	abstainedTotal = obs.NewCounter(obs.Opts{
		Name: "stream_abstained_total",
		Help: "Windows refused under GapAbstain or on a non-finite classifier confidence.",
		Unit: "windows",
	})
	replaysTotal = obs.NewCounter(obs.Opts{
		Name: "pipeline_replays_total",
		Help: "Write-ahead-log replays driven through stage chains.",
		Unit: "replays",
	})
)
