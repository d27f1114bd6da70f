package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dataspread/internal/core"
	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
)

// waitConverged polls GetRangePending until the staleness mask is empty,
// returning the final cells; it fails the test after the deadline.
func waitConverged(t *testing.T, c *Client, name string, r1, c1, r2, c2 int) [][]sheet.Cell {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		cells, pending, _, err := c.GetRangePending(name, r1, c1, r2, c2)
		if err != nil {
			t.Fatalf("get range: %v", err)
		}
		if pending == nil {
			return cells
		}
		if time.Now().After(deadline) {
			t.Fatalf("range (%d,%d)-(%d,%d) still pending after deadline", r1, c1, r2, c2)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeAsyncViewportPending drives the LazyBrowsing serving path end
// to end: edits against an async server return before the affected cone
// converges, get-range responses carry staleness flags for the cells still
// queued, a registered viewport steers the scheduler, and the stats
// response exposes the per-sheet pending count.
func TestServeAsyncViewportPending(t *testing.T) {
	db := rdbms.Open(rdbms.Options{})
	s, addr := startServer(t, db, core.Options{AsyncRecalc: true})
	c := dialT(t, addr)
	if err := c.Open("s"); err != nil {
		t.Fatalf("open: %v", err)
	}

	// A1 fans out to a column of dependents.
	edits := []core.CellEdit{{Row: 1, Col: 1, Input: "2"}}
	for i := 1; i <= 200; i++ {
		edits = append(edits, core.CellEdit{Row: i, Col: 2, Input: fmt.Sprintf("=A1*%d", i)})
	}
	if _, err := c.SetCells("s", edits); err != nil {
		t.Fatalf("set cells: %v", err)
	}

	// The session's viewport: the top of column B.
	if err := c.RegisterViewport("s", 1, 2, 5, 2); err != nil {
		t.Fatalf("register viewport: %v", err)
	}
	cells := waitConverged(t, c, "s", 1, 2, 5, 2)
	for i, row := range cells {
		want := float64(2 * (i + 1))
		if got, _ := row[0].Value.Num(); got != want {
			t.Fatalf("B%d = %v, want %v", i+1, row[0].Value, want)
		}
	}

	// Re-edit the root; the whole sheet must converge (not only the
	// viewport), and the stats pending gauge must reach zero.
	if _, err := c.Set("s", 1, 1, "3"); err != nil {
		t.Fatalf("set: %v", err)
	}
	cells = waitConverged(t, c, "s", 1, 2, 200, 2)
	for i, row := range cells {
		want := float64(3 * (i + 1))
		if got, _ := row[0].Value.Num(); got != want {
			t.Fatalf("B%d after re-edit = %v, want %v", i+1, row[0].Value, want)
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if len(st.Sheets) != 1 || st.Sheets[0].Pending != 0 {
		t.Fatalf("sheet stats = %+v, want one converged sheet", st.Sheets)
	}

	// Moving and clearing the viewport round-trips; convergence does not
	// depend on having one.
	if err := c.RegisterViewport("s", 100, 2, 120, 2); err != nil {
		t.Fatalf("move viewport: %v", err)
	}
	if err := c.ClearViewport("s"); err != nil {
		t.Fatalf("clear viewport: %v", err)
	}
	if _, err := c.Set("s", 1, 1, "4"); err != nil {
		t.Fatalf("set: %v", err)
	}
	cells = waitConverged(t, c, "s", 7, 2, 7, 2)
	if got, _ := cells[0][0].Value.Num(); got != 28 {
		t.Fatalf("B7 = %v, want 28", cells[0][0].Value)
	}

	// A structural edit drains the scheduler before quiescing the sheet:
	// the shifted formula keeps tracking its source.
	if _, err := c.InsertRows("s", 0, 1); err != nil {
		t.Fatalf("insert rows: %v", err)
	}
	cells = waitConverged(t, c, "s", 2, 2, 2, 2)
	if got, _ := cells[0][0].Value.Num(); got != 4 {
		t.Fatalf("shifted B2 = %v, want 4", cells[0][0].Value)
	}

	// Dropping the connection unregisters its viewports server-side.
	c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		h := s.sheets["s"]
		s.mu.Unlock()
		if h != nil && h.PendingCount() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sheet did not settle after disconnect")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeViewportSyncNoop: against a synchronous server the viewport ops
// succeed as no-ops and reads never carry staleness flags.
func TestServeViewportSyncNoop(t *testing.T) {
	db := rdbms.Open(rdbms.Options{})
	_, addr := startServer(t, db, core.Options{})
	c := dialT(t, addr)
	if err := c.Open("s"); err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := c.RegisterViewport("s", 1, 1, 10, 10); err != nil {
		t.Fatalf("register viewport on sync server: %v", err)
	}
	if _, err := c.SetCells("s", []core.CellEdit{
		{Row: 1, Col: 1, Input: "5"},
		{Row: 1, Col: 2, Input: "=A1*2"},
	}); err != nil {
		t.Fatalf("set cells: %v", err)
	}
	cells, pending, _, err := c.GetRangePending("s", 1, 1, 1, 2)
	if err != nil {
		t.Fatalf("get range: %v", err)
	}
	if pending != nil {
		t.Fatalf("sync server flagged pending cells: %v", pending)
	}
	if got, _ := cells[0][1].Value.Num(); got != 10 {
		t.Fatalf("B1 = %v, want 10", cells[0][1].Value)
	}
	if err := c.ClearViewport("s"); err != nil {
		t.Fatalf("clear viewport: %v", err)
	}
}

// TestServePendingMaskMatchesCells: the staleness mask of a reply belongs to
// the cells of that reply. On a sheet with a row sum on every row, while one
// writer pastes rows and the dispatcher recomputes the sums behind it, every
// reply shows each sum either flagged pending or equal to the sum of its
// row's inputs in that same reply — never a stale sum without its flag — and
// generations never go backwards for a reader.
func TestServePendingMaskMatchesCells(t *testing.T) {
	const (
		rows, inputs = 48, 4
		batches      = 60
		readers      = 4
	)
	db := rdbms.Open(rdbms.Options{})
	_, addr := startServer(t, db, core.Options{AsyncRecalc: true})
	w := dialT(t, addr)
	if err := w.Open("m"); err != nil {
		t.Fatalf("open: %v", err)
	}
	paste := func(v int) []core.CellEdit {
		edits := make([]core.CellEdit, 0, rows*inputs)
		for r := 1; r <= rows; r++ {
			for c := 1; c <= inputs; c++ {
				edits = append(edits, core.CellEdit{Row: r, Col: c, Input: fmt.Sprint(v*r + c)})
			}
		}
		return edits
	}
	seed := paste(0)
	for r := 1; r <= rows; r++ {
		seed = append(seed, core.CellEdit{Row: r, Col: inputs + 1, Input: fmt.Sprintf("=SUM(A%d:D%d)", r, r)})
	}
	if _, err := w.SetCells("m", seed); err != nil {
		t.Fatalf("seed: %v", err)
	}
	// A viewport over the sums, so the dispatcher recomputes them after every
	// paste instead of waiting for the writer to pause.
	if err := w.RegisterViewport("m", 1, 1, rows, inputs+1); err != nil {
		t.Fatalf("register viewport: %v", err)
	}
	waitConverged(t, w, "m", 1, 1, rows, inputs+1)

	// check returns how many sums the reply showed settled.
	check := func(cells [][]sheet.Cell, pending [][]bool) (settled int, err error) {
		for r, row := range cells {
			if pending != nil && pending[r][inputs] {
				continue
			}
			want := 0.0
			for c := 0; c < inputs; c++ {
				v, _ := row[c].Value.Num()
				want += v
			}
			if got, _ := row[inputs].Value.Num(); got != want {
				return 0, fmt.Errorf("row %d: unflagged sum %v beside inputs adding up to %v", r+1, row[inputs].Value, want)
			}
			settled++
		}
		return settled, nil
	}
	var done atomic.Bool
	var settled atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := dialT(t, addr)
			var last uint64
			for !done.Load() {
				cells, pending, gen, err := c.GetRangePending("m", 1, 1, rows, inputs+1)
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				if gen < last {
					t.Errorf("generation went backwards: %d after %d", gen, last)
					return
				}
				last = gen
				n, err := check(cells, pending)
				if err != nil {
					t.Errorf("generation %d: %v", gen, err)
					return
				}
				settled.Add(int64(n))
			}
		}()
	}
	for v := 1; v <= batches; v++ {
		if _, err := w.SetCells("m", paste(v)); err != nil {
			t.Errorf("paste %d: %v", v, err)
			break
		}
	}
	done.Store(true)
	wg.Wait()
	t.Logf("%d settled sums checked beside the writer", settled.Load())
	cells := waitConverged(t, w, "m", 1, 1, rows, inputs+1)
	if n, err := check(cells, nil); err != nil || n != rows {
		t.Fatalf("converged sheet: %d of %d sums right, %v", n, rows, err)
	}
}
