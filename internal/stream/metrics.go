package stream

import "albadross/internal/obs"

// Delivery metrics, registered on the default obs registry at import
// time and documented in docs/OBSERVABILITY.md. They mirror the
// per-Windower Stats counters but aggregate across every Windower in
// the process (Stats stays the per-instance view and is reset by Reset;
// the metrics are cumulative). The per-window families of the same
// stream_ namespace (stream_window_seconds, stream_abstained_total) are
// owned by the decision loop in internal/pipeline.
var (
	reorderDepth = obs.NewGauge(obs.Opts{
		Name: "stream_reorder_depth",
		Help: "Readings currently held in the reordering buffer (last PushAt).",
		Unit: "readings",
	})
	pushedTotal = obs.NewCounter(obs.Opts{
		Name: "stream_pushed_total",
		Help: "Readings accepted into the window sequence (gap fills excluded).",
		Unit: "readings",
	})
	duplicatesTotal = obs.NewCounter(obs.Opts{
		Name: "stream_duplicates_total",
		Help: "Readings dropped because their timestamp was already delivered.",
		Unit: "readings",
	})
	lateTotal = obs.NewCounter(obs.Opts{
		Name: "stream_late_total",
		Help: "Readings dropped because they arrived after their slot was committed.",
		Unit: "readings",
	})
	implausibleTotal = obs.NewCounter(obs.Opts{
		Name: "stream_implausible_total",
		Help: "Readings dropped for jumping more than MaxJump past the commit frontier.",
		Unit: "readings",
	})
	gapsFilledTotal = obs.NewCounter(obs.Opts{
		Name: "stream_gaps_filled_total",
		Help: "All-NaN rows synthesized for timestamps that never arrived.",
		Unit: "rows",
	})
	windowsTotal = obs.NewCounter(obs.Opts{
		Name: "stream_windows_total",
		Help: "Completed windows (diagnosed plus abstained).",
		Unit: "windows",
	})
)
