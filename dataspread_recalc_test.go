package dataspread_test

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"dataspread/internal/core"
	"dataspread/internal/rdbms"
	"dataspread/internal/workload"
)

// The async-recalc benchmark (LazyBrowsing): a ticking market sheet whose
// single ticker cell fans out to a >=100k-cell dependency cone. The
// tentpole property measured here is time-to-viewport: with background,
// viewport-first evaluation an edit returns immediately and the watched
// window converges an order of magnitude before the full cone, while the
// background pass ends byte-identical to inline recalculation.
// TestRecalcSnapshot freezes the numbers into BENCH_recalc.json with
// enforced gates.

// seedMarket bulk-loads the ticker sheet into an engine and waits for
// convergence.
func seedMarket(t *testing.T, e *core.Engine, spec workload.TickerSpec) {
	t.Helper()
	edits := workload.Edits(workload.TickerMarket(spec))
	ce := make([]core.CellEdit, len(edits))
	for i, ed := range edits {
		ce[i] = core.CellEdit{Row: ed.Row, Col: ed.Col, Input: ed.Input}
	}
	if err := e.SetCells(ce); err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
}

// tick applies one market tick to an engine.
func tick(t *testing.T, e *core.Engine, n int) {
	t.Helper()
	ed := workload.Tick(n)
	if err := e.Set(ed.Row, ed.Col, ed.Input); err != nil {
		t.Fatal(err)
	}
}

// compareMarkets asserts two engines hold byte-identical sheet state over
// the market's bounding box.
func compareMarkets(t *testing.T, ea, eb *core.Engine, spec workload.TickerSpec) {
	t.Helper()
	for row := 1; row <= 1000; row++ {
		for col := 1; col <= 102; col++ {
			a, b := ea.GetCell(row, col), eb.GetCell(row, col)
			if !a.Value.Equal(b.Value) || a.Formula != b.Formula {
				t.Fatalf("divergence at (%d,%d): sync %v/%q, async %v/%q",
					row, col, a.Value, a.Formula, b.Value, b.Formula)
			}
		}
	}
	if err := ea.ReadErr(); err != nil {
		t.Fatal(err)
	}
	if err := eb.ReadErr(); err != nil {
		t.Fatal(err)
	}
}

// TestRecalcSnapshot measures the async recalc path (emitted to the path
// in the BENCH_RECALC_JSON env var; skipped when unset) and enforces the
// LazyBrowsing gates: on a >=100k-cell cone the registered viewport
// converges >=10x sooner than the same engine's full drain, and the drained
// background state is byte-identical to the synchronous engine's.
func TestRecalcSnapshot(t *testing.T) {
	out := os.Getenv("BENCH_RECALC_JSON")
	if out == "" {
		t.Skip("set BENCH_RECALC_JSON=<path> to emit the recalc snapshot")
	}
	spec := workload.TickerSpec{} // defaults: 1000 intermediates x 100 leaves
	cone := spec.ConeSize()
	if cone < 100_000 {
		t.Fatalf("cone of %d cells is below the 100k gate floor", cone)
	}

	sync, err := core.New(rdbms.Open(rdbms.Options{}), "m", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	async, err := core.New(rdbms.Open(rdbms.Options{}), "m", core.Options{AsyncRecalc: true})
	if err != nil {
		t.Fatal(err)
	}
	defer async.Close()
	seedMarket(t, sync, spec)
	seedMarket(t, async, spec)

	// The same engine measures both sides of the gate: the tick returns
	// immediately, the registered viewport converges ahead of the cone, and
	// the full drain is what the viewport did not have to wait for.
	runtime.GC() // the seeding's garbage is not the tick's
	vp := spec.Viewport()
	id := async.RegisterViewport(vp)
	defer async.UnregisterViewport(id)
	start := time.Now()
	tick(t, async, 1)
	editReturn := time.Since(start)
	if err := async.WaitRange(vp); err != nil {
		t.Fatal(err)
	}
	viewportTime := time.Since(start)
	if n := async.PendingInRange(vp); n != 0 {
		t.Fatalf("%d viewport cells still pending after WaitRange", n)
	}
	if err := async.Drain(); err != nil {
		t.Fatal(err)
	}
	drainTime := time.Since(start)

	// The synchronous engine runs the same plan before Set returns
	// (recorded, not gated).
	start = time.Now()
	tick(t, sync, 1)
	syncTick := time.Since(start)

	// Shadow compare: the background pass must converge to exactly the
	// inline result.
	compareMarkets(t, sync, async, spec)

	// Steady state: a burst of ticks, drained, for background throughput.
	const burst = 5
	start = time.Now()
	for n := 2; n < 2+burst; n++ {
		tick(t, async, n)
	}
	if err := async.Drain(); err != nil {
		t.Fatal(err)
	}
	burstElapsed := time.Since(start)
	for n := 2; n < 2+burst; n++ {
		tick(t, sync, n)
	}
	compareMarkets(t, sync, async, spec)

	speedup := float64(drainTime) / float64(viewportTime)
	cellsPerSec := float64(burst*cone) / burstElapsed.Seconds()
	snap := map[string]any{
		"cone_cells":               cone,
		"viewport":                 fmt.Sprintf("%dx%d", vp.Rows(), vp.Cols()),
		"gomaxprocs":               runtime.GOMAXPROCS(0),
		"sync_tick_ms":             float64(syncTick.Microseconds()) / 1000,
		"edit_return_us":           editReturn.Microseconds(),
		"viewport_converge_ms":     float64(viewportTime.Microseconds()) / 1000,
		"full_drain_ms":            float64(drainTime.Microseconds()) / 1000,
		"time_to_viewport_gain":    speedup,
		"burst_ticks":              burst,
		"background_cells_per_sec": int64(cellsPerSec),
	}
	blob, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("cone %d cells: async edit returned in %v, viewport converged in %v, full drain %v (%.1fx), background %.0f cells/s; inline tick %v",
		cone, editReturn, viewportTime, drainTime, speedup, cellsPerSec, syncTick)

	if speedup < 10 {
		t.Errorf("time-to-viewport gain is %.1fx (full drain %v vs viewport %v), want >= 10x",
			speedup, drainTime, viewportTime)
	}
}
