package pipeline

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"albadross/internal/stream"
	"albadross/internal/telemetry"
	"albadross/internal/wal"
)

// updateGolden refreshes results/golden/pr9_replay.json instead of
// comparing:
//
//	go test ./internal/pipeline -run TestGoldenReplay -update-golden
//
// Review the diff before committing — every change to the chaos
// injector, windowing, repair, mvts extraction or the WAL codec
// shows up here, and that is the point.
var updateGolden = flag.Bool("update-golden", false, "rewrite the replay golden fixture")

// replayGoldenDoc is the committed fixture: everything a fixed-seed
// chaos-perturbed record/replay run produces — delivery stats, the
// sanitized feature vector of every window, and every diagnosis — for
// both the live chain and the WAL replay (which must match bitwise
// before the fixture is even consulted).
type replayGoldenDoc struct {
	Description string             `json:"description"`
	Seed        int64              `json:"seed"`
	WALRecords  uint64             `json:"wal_records"`
	Committed   int                `json:"committed"`
	Pending     int                `json:"pending"`
	Stats       stream.Stats       `json:"stats"`
	Vectors     [][]float64        `json:"vectors"`
	Diagnoses   []stream.Diagnosis `json:"diagnoses"`
}

// vecCapturePredict wraps a PredictStage and records every sanitized
// feature vector it classifies.
type vecCapturePredict struct {
	inner PredictStage
	vecs  [][]float64
}

// Predict records the vector and delegates.
func (p *vecCapturePredict) Predict(vec []float64) (string, float64, error) {
	p.vecs = append(p.vecs, append([]float64(nil), vec...))
	return p.inner.Predict(vec)
}

const goldenSeed = 90210

// buildGoldenRun records a fixed-seed chaos run to a WAL through a
// hold-last mvts chain, replays the log through a fresh chain, asserts the
// two agree bitwise, and returns the live side as the fixture
// candidate.
func buildGoldenRun(t *testing.T) *replayGoldenDoc {
	t.Helper()
	schema := telemetry.BuildSchema(8)
	cfg := streamerCfg(schema, stream.GapHoldLast)
	feed := chaosFeed(t, schema, 600, goldenSeed)

	run := func(journal *wal.Log, replayFrom *wal.Log) (*Collector, *vecCapturePredict, *Chain) {
		rec := &vecCapturePredict{inner: cfg.Diagnose}
		sink := &Collector{}
		c, err := cfg.chain(rec, sink, journal)
		if err != nil {
			t.Fatal(err)
		}
		if replayFrom != nil {
			if err := Replay(replayFrom, c); err != nil {
				t.Fatal(err)
			}
		} else {
			for _, r := range feed {
				if err := c.PushAt(r.T, r.Values); err != nil {
					t.Fatal(err)
				}
			}
		}
		return sink, rec, c
	}

	log, err := wal.Open(t.TempDir(), wal.Options{SegmentBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	liveSink, liveVecs, live := run(log, nil)
	replSink, replVecs, repl := run(nil, log)

	// Live vs replay must agree bitwise before the fixture is consulted.
	assertChainsEqual(t, "golden live vs replay", live, repl, liveSink, replSink)
	if len(liveVecs.vecs) != len(replVecs.vecs) {
		t.Fatalf("vector count diverged: live %d, replay %d", len(liveVecs.vecs), len(replVecs.vecs))
	}
	for w := range liveVecs.vecs {
		for j := range liveVecs.vecs[w] {
			if math.Float64bits(liveVecs.vecs[w][j]) != math.Float64bits(replVecs.vecs[w][j]) {
				t.Fatalf("window %d feature %d diverged: live %v, replay %v",
					w, j, liveVecs.vecs[w][j], replVecs.vecs[w][j])
			}
		}
	}

	doc := &replayGoldenDoc{
		Description: "Fixed-seed chaos record/replay fixture: chaos feed -> journaled hold-last mvts chain -> WAL replay, live and replayed runs asserted bitwise-equal. Refresh with: go test ./internal/pipeline -run TestGoldenReplay -update-golden",
		Seed:        goldenSeed,
		WALRecords:  log.Stats().Records,
		Committed:   live.Committed(),
		Pending:     live.PendingDepth(),
		Stats:       live.Stats(),
		Vectors:     liveVecs.vecs,
		Diagnoses:   liveSink.Diagnoses,
	}
	if len(doc.Diagnoses) == 0 || len(doc.Vectors) == 0 {
		t.Fatal("golden run emitted nothing; the fixture would be vacuous")
	}
	return doc
}

func goldenPath() string {
	// The test runs with CWD internal/pipeline; the fixture lives at the
	// repo root's results/golden.
	return filepath.Join("..", "..", "results", "golden", "pr9_replay.json")
}

// TestGoldenReplay records a chaos-perturbed run to a WAL, replays it
// through the stage graph, requires live and replayed state to be
// bitwise identical, and pins the result to
// results/golden/pr9_replay.json EXACTLY (bitwise float equality —
// JSON round-trips float64 losslessly). If a change is intentional,
// refresh the fixture with -update-golden and commit the diff. Set
// GOLDEN_DIFF_OUT to also write the freshly computed document to a
// file (CI uploads it as the replay golden diff artifact on failure).
func TestGoldenReplay(t *testing.T) {
	got := buildGoldenRun(t)
	path := goldenPath()

	raw, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if out := os.Getenv("GOLDEN_DIFF_OUT"); out != "" {
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}

	fixed, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update-golden to create): %v", err)
	}
	var want replayGoldenDoc
	if err := json.Unmarshal(fixed, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if got.Seed != want.Seed {
		t.Fatalf("seed drifted: run %d, fixture %d", got.Seed, want.Seed)
	}
	if got.WALRecords != want.WALRecords || got.Committed != want.Committed || got.Pending != want.Pending {
		t.Fatalf("record accounting drifted: run {wal %d committed %d pending %d}, fixture {wal %d committed %d pending %d}",
			got.WALRecords, got.Committed, got.Pending, want.WALRecords, want.Committed, want.Pending)
	}
	if got.Stats != want.Stats {
		t.Fatalf("stream stats drifted:\nrun     %+v\nfixture %+v", got.Stats, want.Stats)
	}
	var diffs []string
	if len(got.Vectors) != len(want.Vectors) {
		diffs = append(diffs, fmt.Sprintf("vectors: %d windows, fixture %d", len(got.Vectors), len(want.Vectors)))
	} else {
		for w := range want.Vectors {
			if len(got.Vectors[w]) != len(want.Vectors[w]) {
				diffs = append(diffs, fmt.Sprintf("window %d: dim %d, fixture %d", w, len(got.Vectors[w]), len(want.Vectors[w])))
				continue
			}
			for j := range want.Vectors[w] {
				if math.Float64bits(got.Vectors[w][j]) != math.Float64bits(want.Vectors[w][j]) {
					diffs = append(diffs, fmt.Sprintf("window %d feature %d: %v, fixture %v (Δ%+.2e)",
						w, j, got.Vectors[w][j], want.Vectors[w][j], got.Vectors[w][j]-want.Vectors[w][j]))
				}
			}
		}
	}
	if len(got.Diagnoses) != len(want.Diagnoses) {
		diffs = append(diffs, fmt.Sprintf("diagnoses: %d, fixture %d", len(got.Diagnoses), len(want.Diagnoses)))
	} else {
		for i := range want.Diagnoses {
			if got.Diagnoses[i] != want.Diagnoses[i] {
				diffs = append(diffs, fmt.Sprintf("diagnosis %d: %+v, fixture %+v", i, got.Diagnoses[i], want.Diagnoses[i]))
			}
		}
	}
	if len(diffs) > 0 {
		max := len(diffs)
		if max > 20 {
			diffs = append(diffs[:20], fmt.Sprintf("... and %d more", max-20))
		}
		msg := ""
		for _, d := range diffs {
			msg += "  " + d + "\n"
		}
		t.Fatalf("record/replay output drifted from results/golden/pr9_replay.json (%d diffs).\nIf intentional, refresh with -update-golden and commit the new fixture.\n%s", max, msg)
	}
}

// TestGoldenReplayDeterministic guards the guard: two consecutive
// in-process golden runs must agree bitwise, otherwise the fixture
// comparison would flake instead of catching drift.
func TestGoldenReplayDeterministic(t *testing.T) {
	a := buildGoldenRun(t)
	b := buildGoldenRun(t)
	if a.Stats != b.Stats || a.Committed != b.Committed || a.WALRecords != b.WALRecords {
		t.Fatalf("golden run is nondeterministic: %+v vs %+v", a.Stats, b.Stats)
	}
	for i := range a.Diagnoses {
		if a.Diagnoses[i] != b.Diagnoses[i] {
			t.Fatalf("diagnosis %d nondeterministic: %+v vs %+v", i, a.Diagnoses[i], b.Diagnoses[i])
		}
	}
}
