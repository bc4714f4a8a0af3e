package pipeline

import "albadross/internal/wal"

// Replay drives every retained record of a write-ahead log through the
// chain's stage sequence, in journal order, with journaling suppressed
// so the log is not re-appended to itself. Because the log holds every
// width-valid arrival in its original order — journaled before any
// state change — a fresh chain ends bitwise-identical to the chain
// that wrote the log: same reordering buffer, same window ring, same
// Stats, same emitted diagnoses. The reordering buffer is deliberately
// NOT flushed: a recovered server keeps waiting for in-horizon
// stragglers exactly like the crashed one was.
func Replay(log *wal.Log, c *Chain) error {
	c.replaying = true
	defer func() { c.replaying = false }()
	replaysTotal.Inc()
	return log.Scan(func(r wal.Record) error {
		return c.PushAt(int(r.T), r.Values)
	})
}
