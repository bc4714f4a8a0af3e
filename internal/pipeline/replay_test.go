package pipeline

import (
	"os"
	"path/filepath"
	"testing"

	"albadross/internal/stream"
	"albadross/internal/telemetry"
	"albadross/internal/wal"
)

// TestReplayReconstructsStateBitwise is the crash-recovery contract:
// a chain journals a chaos-perturbed live feed, then a FRESH chain
// replays the log and must match the live one bitwise — not just on
// emitted diagnoses and Stats, but on internal state, proven by
// feeding both chains the same post-recovery tail and requiring
// continued agreement (reordering buffer and window ring both have to
// be identical for that to hold), under both gap policies.
func TestReplayReconstructsStateBitwise(t *testing.T) {
	schema := telemetry.BuildSchema(8)
	for _, gap := range []stream.GapPolicy{stream.GapAbstain, stream.GapHoldLast} {
		t.Run(gap.String(), func(t *testing.T) {
			cfg := streamerCfg(schema, gap)
			feed := chaosFeed(t, schema, 500, 1234)
			half := len(feed) / 2

			dir := t.TempDir()
			log, err := wal.Open(dir, wal.Options{SegmentBytes: 16 << 10})
			if err != nil {
				t.Fatal(err)
			}
			liveSink := &Collector{}
			live := buildChainJournaled(t, cfg, liveSink, log)
			for _, r := range feed[:half] {
				if err := live.PushAt(r.T, r.Values); err != nil {
					t.Fatal(err)
				}
			}

			// "Crash": snapshot the journal directory as the disk a
			// restarted server would find, recover it, and replay into a
			// fresh chain.
			if err := log.Sync(); err != nil {
				t.Fatal(err)
			}
			log2, err := wal.Open(copyDir(t, dir), wal.Options{SegmentBytes: 16 << 10})
			if err != nil {
				t.Fatal(err)
			}
			defer log2.Close()
			if st := log2.Stats(); st.Records == 0 {
				t.Fatal("journal is empty; the replay check is vacuous")
			}
			replSink := &Collector{}
			repl := buildChain(t, cfg, replSink)
			if err := Replay(log2, repl); err != nil {
				t.Fatal(err)
			}

			assertChainsEqual(t, "after replay", live, repl, liveSink, replSink)

			// Continuation: the recovered chain must track the live chain
			// bitwise through the feed's tail and the final flush — only
			// possible if reordering buffer and ring came back identical.
			for _, r := range feed[half:] {
				if err := live.PushAt(r.T, r.Values); err != nil {
					t.Fatal(err)
				}
				if err := repl.PushAt(r.T, r.Values); err != nil {
					t.Fatal(err)
				}
			}
			if err := live.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := repl.Flush(); err != nil {
				t.Fatal(err)
			}
			assertChainsEqual(t, "after continuation", live, repl, liveSink, replSink)
			if len(liveSink.Diagnoses) == 0 {
				t.Fatal("no diagnoses emitted; the equivalence check is vacuous")
			}
			if err := log.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// copyDir snapshots a flat directory into a fresh temp dir, simulating
// the on-disk state a restarted process would recover.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// assertChainsEqual requires two chains to agree bitwise on emissions,
// stats, committed rows and reorder-buffer depth.
func assertChainsEqual(t *testing.T, ctx string, a, b *Chain, sa, sb *Collector) {
	t.Helper()
	if len(sa.Diagnoses) != len(sb.Diagnoses) {
		t.Fatalf("%s: %d vs %d diagnoses", ctx, len(sa.Diagnoses), len(sb.Diagnoses))
	}
	for i := range sa.Diagnoses {
		if !sameDiag(sa.Diagnoses[i], sb.Diagnoses[i]) {
			t.Fatalf("%s: diagnosis %d diverged:\nlive   %+v\nreplay %+v", ctx, i, sa.Diagnoses[i], sb.Diagnoses[i])
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("%s: stats diverged:\nlive   %+v\nreplay %+v", ctx, a.Stats(), b.Stats())
	}
	if a.Committed() != b.Committed() {
		t.Fatalf("%s: committed %d vs %d", ctx, a.Committed(), b.Committed())
	}
	if a.PendingDepth() != b.PendingDepth() {
		t.Fatalf("%s: pending depth %d vs %d", ctx, a.PendingDepth(), b.PendingDepth())
	}
}

// TestReplayedJournalIsNotReappended guards the replay flag: replaying
// a log through a chain that journals to the SAME log must not grow it.
func TestReplayedJournalIsNotReappended(t *testing.T) {
	schema := telemetry.BuildSchema(8)
	cfg := streamerCfg(schema, stream.GapAbstain)
	log, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	c := buildChainJournaled(t, cfg, &Collector{}, log)
	for _, r := range chaosFeed(t, schema, 100, 5)[:50] {
		if err := c.PushAt(r.T, r.Values); err != nil {
			t.Fatal(err)
		}
	}
	before := log.Stats().Records
	c2 := buildChainJournaled(t, cfg, &Collector{}, log)
	if err := Replay(log, c2); err != nil {
		t.Fatal(err)
	}
	if after := log.Stats().Records; after != before {
		t.Fatalf("replay re-appended to its own journal: %d -> %d records", before, after)
	}
}

// TestChainWidthMismatchNotJournaled checks the journal only holds
// width-valid rows: a malformed arrival is refused before it is
// written.
func TestChainWidthMismatchNotJournaled(t *testing.T) {
	schema := telemetry.BuildSchema(8)
	cfg := streamerCfg(schema, stream.GapAbstain)
	log, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	c := buildChainJournaled(t, cfg, &Collector{}, log)
	if err := c.PushAt(0, make([]float64, len(schema)+1)); err == nil {
		t.Fatal("oversized reading accepted")
	}
	if st := log.Stats(); st.Records != 0 {
		t.Fatalf("malformed reading journaled: %+v", st)
	}
}
