package experiments

import (
	"bytes"
	"io"
	"testing"
)

// parityConfig is a sub-Tiny configuration: parity only needs the sweep
// to genuinely fan out (2 splits x 6 methods), not a realistic dataset,
// so the telemetry, feature budget, and query budget are cut to the
// bone to keep the race-enabled double runs fast on 1-CPU hosts.
func parityConfig(workers int) Config {
	cfg := Default("volta", Tiny)
	cfg.Extractor = "mvts"
	cfg.Metrics = 9
	cfg.RunsPerAppInput = 5
	cfg.Steps = 48
	cfg.TopK = 16
	cfg.Seed = 777
	cfg.Splits = 2
	cfg.MaxQueries = 4
	cfg.EvalEvery = 2
	cfg.Workers = workers
	return cfg
}

// csvOf renders one artifact's CSV.
func csvOf(t *testing.T, r interface{ WriteCSV(io.Writer) error }) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// assertParity fails unless the two worker counts produced byte-equal
// artifacts.
func assertParity(t *testing.T, name string, serial, parallel []byte) {
	t.Helper()
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("%s: artifacts differ between Workers=1 and Workers=8\n-- serial --\n%s\n-- parallel --\n%s",
			name, serial, parallel)
	}
}

// TestCurvesWorkerCountParity asserts the query-curve sweep writes a
// byte-identical CSV at 1 and 8 workers: every cell's seed is a pure
// function of its (split, method) index and the aggregation folds cell
// results in serial order.
func TestCurvesWorkerCountParity(t *testing.T) {
	serial, err := RunCurves(parityConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunCurves(parityConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	assertParity(t, "curves", csvOf(t, serial), csvOf(t, parallel))
}

// TestTable5WorkerCountParity does the same for the Table V row, whose
// per-split cells also train the whole-pool supervised reference.
func TestTable5WorkerCountParity(t *testing.T) {
	serial, err := RunTable5(parityConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunTable5(parityConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	assertParity(t, "table5", csvOf(t, serial), csvOf(t, parallel))
}

// TestChaosWorkerCountParity covers the fault-injection matrix, the
// original parallelFor user now running on the shared runner.
func TestChaosWorkerCountParity(t *testing.T) {
	opts := ChaosDefaults(Tiny)
	serial, err := RunChaosMatrix(parityConfig(1), opts)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunChaosMatrix(parityConfig(8), opts)
	if err != nil {
		t.Fatal(err)
	}
	assertParity(t, "chaos", csvOf(t, serial), csvOf(t, parallel))
}

// TestDrilldownWorkerCountParity covers the Fig. 4 split fan-out.
func TestDrilldownWorkerCountParity(t *testing.T) {
	serial, err := RunDrilldown(parityConfig(1), 5)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunDrilldown(parityConfig(8), 5)
	if err != nil {
		t.Fatal(err)
	}
	assertParity(t, "fig4", csvOf(t, serial), csvOf(t, parallel))
}
