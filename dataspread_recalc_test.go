package dataspread_test

import (
	"runtime"
	"testing"
	"time"

	"dataspread/internal/core"
	"dataspread/internal/rdbms"
	"dataspread/internal/workload"
)

// The async-recalc check (LazyBrowsing): a ticking market sheet whose single
// ticker cell fans out to a >=100k-cell dependency cone. With background,
// viewport-first evaluation an edit returns once its cone is marked and the
// watched window converges before the full cone, while the background pass
// ends byte-identical to inline recalculation.

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

// TestRecalcTickMatchesSync ticks a >=100k-cell cone on the background
// dispatcher: the registered viewport converges with nothing pending inside
// it, and the drained background state — after one tick and after a burst —
// is byte-identical to the synchronous engine's. The timings are logged, not
// gated.
func TestRecalcTickMatchesSync(t *testing.T) {
	spec := workload.TickerSpec{} // defaults: 1000 intermediates x 100 leaves
	cone := spec.ConeSize()

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

	// The tick returns once its cone is marked, the registered viewport
	// converges ahead of the cone, and the full drain follows.
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

	t.Logf("cone %d cells, viewport %dx%d, GOMAXPROCS %d: async edit returned in %v, viewport converged in %v, full drain %v, background %.0f cells/s; inline tick %v",
		cone, vp.Rows(), vp.Cols(), runtime.GOMAXPROCS(0), editReturn, viewportTime, drainTime,
		float64(burst*cone)/burstElapsed.Seconds(), syncTick)
}
