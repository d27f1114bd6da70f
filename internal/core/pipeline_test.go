package core

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"dataspread/internal/depgraph"
	"dataspread/internal/formula"
	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
)

// Tests of the one edit pipeline (apply -> mark pending -> settle -> write
// through): every test runs on a synchronous and on an AsyncRecalc engine,
// because the two differ only in who runs "settle".

// bothModes runs fn against a fresh synchronous and a fresh async engine,
// built with opts (at most one) but for AsyncRecalc.
func bothModes(t *testing.T, fn func(t *testing.T, e *Engine), opts ...Options) {
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			o := Options{}
			if len(opts) > 0 {
				o = opts[0]
			}
			o.AsyncRecalc = async
			e, err := New(rdbms.Open(rdbms.Options{}), "p", o)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = e.Close() })
			fn(t, e)
		})
	}
}

// engineState is everything an edit may change, in comparable form.
type engineState struct {
	cells    map[sheet.Ref]sheet.Cell
	stored   map[sheet.Ref]sheet.Cell // read cold from the store: what a reload shows
	formulas map[sheet.Ref]string     // registrations, canonical text
	graph    int
	rows     int
	cols     int
	pending  int
}

// captureState drains e and reads its state over rows x cols.
func captureState(t *testing.T, e *Engine, rows, cols int) engineState {
	t.Helper()
	mustDrain(t, e)
	st := engineState{
		cells:    make(map[sheet.Ref]sheet.Cell),
		stored:   make(map[sheet.Ref]sheet.Cell),
		formulas: make(map[sheet.Ref]string),
		graph:    e.deps.Len(),
		pending:  e.PendingCount(),
	}
	st.rows, st.cols = e.Bounds()
	stored, err := e.store.GetCells(sheet.NewRange(1, 1, rows, cols))
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= rows; r++ {
		for c := 1; c <= cols; c++ {
			ref := sheet.Ref{Row: r, Col: c}
			if cell := e.GetCell(r, c); !cell.IsBlank() {
				st.cells[ref] = cell
			}
			if cell := stored[r-1][c-1]; !cell.IsBlank() {
				st.stored[ref] = cell
			}
		}
	}
	if err := e.ReadErr(); err != nil {
		t.Fatal(err)
	}
	for ref, expr := range exprsOf(e) {
		st.formulas[ref] = expr.String()
	}
	return st
}

// exprsOf is the registry's per-cell view: every formula, each run's members
// instantiated (formula.MoveDown).
func exprsOf(e *Engine) map[sheet.Ref]formula.Expr {
	out := make(map[sheet.Ref]formula.Expr)
	e.deps.Runs(func(first sheet.Ref, n int, head formula.Expr) {
		for k := range n {
			out[sheet.Ref{Row: first.Row + k, Col: first.Col}] = formula.MoveDown(head, k)
		}
	})
	return out
}

// assertSameState fails unless a and b agree on every component.
func assertSameState(t *testing.T, label string, a, b engineState) {
	t.Helper()
	assertSameContent(t, label, a.cells, b.cells)
	assertSameContent(t, label+" (stored)", a.stored, b.stored)
	if fmt.Sprint(a.formulas) != fmt.Sprint(b.formulas) {
		t.Fatalf("%s: formula sets differ:\n%v\n%v", label, a.formulas, b.formulas)
	}
	if a.graph != b.graph || a.rows != b.rows || a.cols != b.cols {
		t.Fatalf("%s: graph %d vs %d, bounds %dx%d vs %dx%d", label, a.graph, b.graph, a.rows, a.cols, b.rows, b.cols)
	}
	if a.pending != 0 || b.pending != 0 {
		t.Fatalf("%s: %d and %d cells pending after a drain", label, a.pending, b.pending)
	}
}

// Regression: a batch whose store write fails on a formula cell used to be
// left half-applied — the values written and in memory, the formulas before
// the failing one registered, the failing one registered without its text in
// storage. Every store write now precedes every in-memory mutation, so the
// engine is exactly as it was. The store refusals are a formula aimed at a
// linked table's data row, which the table translator rejects, and a value
// its column's type rejects. Each batch writes the linked table first: the
// store used to keep that write while the engine showed the old value, until
// the block left the cache — the cold read in captureState sees it.
func TestPipelineFaultBatchLeavesNothingHalfApplied(t *testing.T) {
	bothModes(t, func(t *testing.T, e *Engine) {
		for i, r := range [][]string{{"invid", "amount"}, {"1", "100"}, {"2", "200"}} {
			for j, v := range r {
				if err := e.Set(i+1, j+1, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := e.LinkTable(sheet.NewRange(1, 1, 3, 2), "inv"); err != nil {
			t.Fatal(err)
		}
		if err := e.SetCells([]CellEdit{
			{Row: 10, Col: 1, Input: "4"},
			{Row: 10, Col: 2, Input: "=A10*2"},
			{Row: 11, Col: 2, Input: "=B10+B2"},
		}); err != nil {
			t.Fatal(err)
		}
		before := captureState(t, e, 20, 6)

		_, err := e.ApplyCells([]CellEdit{
			{Row: 3, Col: 2, Input: "300"},       // a linked data row the table accepts
			{Row: 10, Col: 1, Input: "5"},        // a value the live formulas read
			{Row: 12, Col: 1, Input: "9"},        // a value that would grow the bounds
			{Row: 15, Col: 4, Input: "=A12+1"},   // a formula before the failing one
			{Row: 2, Col: 2, Input: "=A10"},      // the linked table rejects formulas
			{Row: 16, Col: 5, Input: "=D15*2"},   // a formula after it
			{Row: 10, Col: 2, Input: "replaced"}, // would drop a live formula
		})
		if err == nil {
			t.Fatal("a formula written into a linked table row was accepted")
		}
		assertSameState(t, "after the failed batch", before, captureState(t, e, 20, 6))

		_, err = e.ApplyCells([]CellEdit{
			{Row: 3, Col: 2, Input: "300"},  // a linked data row the table accepts
			{Row: 10, Col: 1, Input: "7"},   // a value the live formulas read
			{Row: 2, Col: 1, Input: "oops"}, // not a number: the column's type rejects it
		})
		if err == nil {
			t.Fatal("text written into a numeric linked column was accepted")
		}
		assertSameState(t, "after the mistyped batch", before, captureState(t, e, 20, 6))

		// The engine still works: the surviving formulas follow their input.
		if err := e.Set(10, 1, "6"); err != nil {
			t.Fatal(err)
		}
		mustDrain(t, e)
		if got := cellNum(t, e, 11, 2); got != 112 {
			t.Fatalf("B11 after the next edit = %v, want 6*2+100", got)
		}
	})
}

// TestRefusedFarColumnWriteGrowsNothing: a write past the overflow RCV's 2^20
// column surrogates is refused before the overflow allocates one. It used to
// allocate the 1,048,575 it could, then fail; the next Save wrote them all —
// a megabyte of column ordering into the store manifest of a sheet with one
// cell. The wire accepts columns up to 2^30, so any client could do it.
func TestRefusedFarColumnWriteGrowsNothing(t *testing.T) {
	db := rdbms.Open(rdbms.Options{})
	e, err := New(db, "far", Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() })
	if err := e.Set(1, 1, "1"); err != nil {
		t.Fatal(err)
	}
	// The store manifest after a Save: its overflow segment holds the RCV's
	// column ordering and surrogate counter.
	manifest := func() map[string]string {
		t.Helper()
		if err := e.Save(); err != nil {
			t.Fatal(err)
		}
		out := make(map[string]string)
		for _, k := range db.MetaKeys("sheet:") {
			blob, _, err := db.MetaValue(k)
			if err != nil {
				t.Fatal(err)
			}
			out[k] = string(blob)
		}
		return out
	}
	before := manifest()
	if err := e.Set(1, 1<<20, "x"); err == nil {
		t.Fatal("a write past the overflow's column capacity was accepted")
	}
	if after := manifest(); !maps.Equal(after, before) {
		t.Fatal("the refused write changed the store manifest")
	}
	if rows, cols := e.Bounds(); rows != 1 || cols != 1 {
		t.Fatalf("bounds %dx%d after the refused write, want 1x1", rows, cols)
	}
	if err := e.Set(1, 2, "y"); err != nil {
		t.Fatalf("the next write: %v", err)
	}
}

// Regression: Optimize re-materialized every sheet under a positional
// scheme of its own choosing, and the store manifest then persisted that.
// The store keeps one scheme, "hierarchical", and Load fails on a root that
// names another, so the reload below checks the scheme survived Optimize.
func TestPipelineOptimizeKeepsScheme(t *testing.T) {
	t.Run("hierarchical", func(t *testing.T) {
		db := rdbms.Open(rdbms.Options{})
		e, err := New(db, "s", Options{})
		if err != nil {
			t.Fatal(err)
		}
		for r := 1; r <= 12; r++ {
			for c := 1; c <= 4; c++ {
				if err := e.SetValue(r, c, sheet.Number(float64(r*10+c))); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := e.Optimize("agg", 1); err != nil {
			t.Fatal(err)
		}
		if err := e.Save(); err != nil {
			t.Fatal(err)
		}
		e2, err := Load(db, "s", Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := cellNum(t, e2, 7, 3); got != 73 {
			t.Fatalf("C7 after Optimize and reload = %v, want 73", got)
		}
	})
}

// Regression: LinkTable cleared the linked range with raw cache writes, so a
// formula inside it stayed registered and would later evaluate into the
// linked table's region.
func TestPipelineLinkTableDropsFormulasInRange(t *testing.T) {
	bothModes(t, func(t *testing.T, e *Engine) {
		if err := e.SetCells([]CellEdit{
			{Row: 1, Col: 1, Input: "id"}, {Row: 1, Col: 2, Input: "amount"},
			{Row: 2, Col: 1, Input: "1"}, {Row: 2, Col: 2, Input: "100"},
			{Row: 3, Col: 1, Input: "2"}, {Row: 3, Col: 2, Input: "=D1*2"},
			{Row: 1, Col: 4, Input: "5"},
			{Row: 5, Col: 1, Input: "=SUM(B2:B3)"}, // reads the range from outside
		}); err != nil {
			t.Fatal(err)
		}
		mustDrain(t, e)
		if _, err := e.LinkTable(sheet.NewRange(1, 1, 3, 2), "inv"); err != nil {
			t.Fatal(err)
		}
		mustDrain(t, e)
		b3 := sheet.Ref{Row: 3, Col: 2}
		if _, ok := exprsOf(e)[b3]; ok || e.deps.Len() != 1 {
			t.Fatalf("B3 registered after LinkTable: %v, graph holds %d formulas, want only A5", ok, e.deps.Len())
		}
		if got := cellNum(t, e, 5, 1); got != 110 {
			t.Fatalf("A5 over the linked rows = %v, want 110", got)
		}
		// B3 is table data now: its old precedent moves nothing.
		if err := e.Set(1, 4, "50"); err != nil {
			t.Fatalf("edit of the dropped formula's precedent: %v", err)
		}
		mustDrain(t, e)
		if c := e.GetCell(3, 2); c.HasFormula() || !c.Value.Equal(sheet.Number(10)) {
			t.Fatalf("B3 = %+v, want the linked table's 10", c)
		}
		res := e.DB().MustExec("SELECT amount FROM inv WHERE id = 2")
		if res.Rows[0][0].Float64() != 10 {
			t.Fatalf("linked table row = %v, want 10", res.Rows[0][0])
		}
	})
}

// within fails the test instead of hanging the suite when fn blocks.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); fn() }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return", what)
	}
}

// Regression: a LinkTable that fails after clearing its range (here the range
// overlaps a row-oriented region) had marked the range's readers pending and
// returned without settling: a synchronous engine's next structural edit and
// an async engine's Drain and Close waited forever.
func TestPipelineFailedLinkTableSettles(t *testing.T) {
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			seed := sheet.New("seed")
			for r := 1; r <= 5; r++ {
				seed.SetValue(r, 1, sheet.Number(float64(r)))
				seed.SetValue(r, 2, sheet.Number(float64(10*r)))
			}
			e, err := Open(rdbms.Open(rdbms.Options{}), "p", seed, "rom", Options{AsyncRecalc: async})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { within(t, "Close", func() { _ = e.Close() }) })
			if err := e.Set(1, 4, "=SUM(A1:B2)"); err != nil {
				t.Fatal(err)
			}
			mustDrain(t, e)
			if _, err := e.LinkTable(sheet.NewRange(1, 1, 2, 2), "t"); err == nil {
				t.Fatal("LinkTable over a row-oriented region succeeded, want an overlap error")
			}
			if !async && e.PendingCount() != 0 {
				t.Fatalf("%d cells pending after a failed LinkTable on a synchronous engine", e.PendingCount())
			}
			within(t, "Drain", func() {
				if err := e.Drain(); err != nil {
					t.Error(err)
				}
			})
			within(t, "InsertRowsAfter", func() {
				if err := e.InsertRowsAfter(1, 1); err != nil {
					t.Error(err)
				}
			})
			mustDrain(t, e)
			// The range was cleared before the link failed; its reader saw it.
			if got := cellNum(t, e, 1, 4); got != 0 {
				t.Fatalf("D1 = %v, want 0 over the cleared range", got)
			}
		})
	}
}

// A synchronous engine has no dispatcher, so whoever waits on a pending cell
// computes it: Drain, the drained edit lock and Close return with nothing
// pending even if a mark was left behind without a settle.
func TestPipelineSyncEngineDrainsItself(t *testing.T) {
	e := newEngine(t)
	if err := e.SetCells([]CellEdit{{Row: 1, Col: 1, Input: "1"}, {Row: 1, Col: 2, Input: "=A1+1"}}); err != nil {
		t.Fatal(err)
	}
	b1 := []sheet.Ref{{Row: 1, Col: 2}}
	for _, step := range []struct {
		name string
		fn   func() error
	}{
		{"Drain", e.Drain},
		{"WaitRange", func() error { return e.WaitRange(sheet.NewRange(1, 1, 1, 2)) }},
		{"InsertRowsAfter", func() error { return e.InsertRowsAfter(5, 1) }},
		{"Close", e.Close},
	} {
		e.writeMu.Lock()
		e.mark(b1, nil)
		e.writeMu.Unlock()
		within(t, step.name, func() {
			if err := step.fn(); err != nil {
				t.Errorf("%s: %v", step.name, err)
			}
		})
		if n := e.PendingCount(); n != 0 {
			t.Fatalf("%d cells pending after %s", n, step.name)
		}
	}
}

// An edit that slips in between the dispatcher's plan and the edit lock of the
// plan's next chunk makes the chunk's order stale: D1 was planned when only
// B1 had changed, and by the time it commits C1, which it reads, is pending
// too. The chunk must not evaluate D1 over the old C1 and un-mark it. With the
// edit lock outermost there is nothing between a plan and its chunk to park a
// running dispatcher on, so the test closes the engine — no dispatcher, edits
// keep marking — and takes the dispatcher's steps itself, in that order.
func TestPipelineStaleChunkKeepsCellsPending(t *testing.T) {
	e, err := New(rdbms.Open(rdbms.Options{}), "p", Options{AsyncRecalc: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetCells([]CellEdit{
		{Row: 1, Col: 1, Input: "1"}, {Row: 1, Col: 2, Input: "2"},
		{Row: 1, Col: 3, Input: "=A1*10"}, {Row: 1, Col: 4, Input: "=B1+C1"},
	}); err != nil {
		t.Fatal(err)
	}
	mustDrain(t, e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	s := e.sched
	plan := func() recalcPlan { // what process does before it plans
		s.mu.Lock()
		s.restructure = false
		s.mu.Unlock()
		return s.buildPlan()
	}
	if err := e.Set(1, 2, "3"); err != nil {
		t.Fatal(err)
	}
	var chunks [][]sheet.Ref
	var cycle bool
	for refs, c := range plan().chunks() {
		chunks, cycle = append(chunks, slices.Clone(refs)), cycle || c
	}
	if len(chunks) != 1 || len(chunks[0]) != 1 || chunks[0][0] != (sheet.Ref{Row: 1, Col: 4}) || cycle {
		t.Fatalf("plan = %+v (cycle %v), want [D1]", chunks, cycle)
	}
	if err := e.Set(1, 1, "5"); err != nil { // marks C1; D1's chunk is stale
		t.Fatal(err)
	}
	unlock := s.lock()
	err = s.commitChunk(chunks[0], false)
	unlock()
	if err != nil {
		t.Fatal(err)
	}
	if !e.IsPending(1, 4) {
		t.Fatalf("the stale chunk un-marked D1 = %v", cellNum(t, e, 1, 4))
	}
	if err := s.commitPlan(plan()); err != nil {
		t.Fatal(err)
	}
	if got := cellNum(t, e, 1, 4); got != 53 || e.PendingCount() != 0 {
		t.Fatalf("D1 = %v with %d cells pending, want B1 + A1*10 = 53 and none", got, e.PendingCount())
	}
}

// The dispatcher computes what a viewport shows at once and leaves the rest of
// the cone alone until edits have paused for coldDelay; whoever waits (Drain
// here) ends the window. With the delay at an hour the test is the logic
// alone: nothing but the waiter can have computed the cold cell.
func TestPipelineQuietWindowEndsForAWaiter(t *testing.T) {
	holdQuietWindow(t)
	e := newAsyncEngine(t)
	if err := e.SetCells([]CellEdit{
		{Row: 1, Col: 1, Input: "1"}, {Row: 1, Col: 2, Input: "=A1+1"}, {Row: 9, Col: 9, Input: "=A1*2"},
	}); err != nil {
		t.Fatal(err)
	}
	mustDrain(t, e)
	hot, cold := sheet.NewRange(1, 1, 2, 2), sheet.NewRange(9, 9, 9, 9)
	e.RegisterViewport(hot)
	for _, input := range []string{"5", "7"} { // a burst: two edits inside one window
		if err := e.Set(1, 1, input); err != nil {
			t.Fatal(err)
		}
		within(t, "the viewport converging", func() {
			for e.PendingInRange(hot) > 0 {
				time.Sleep(time.Millisecond)
			}
		})
		if e.PendingInRange(cold) != 1 {
			t.Fatalf("after A1=%s: the cell outside the viewport was computed inside the quiet window", input)
		}
	}
	within(t, "Drain", func() {
		if err := e.Drain(); err != nil {
			t.Error(err)
		}
	})
	if b, i := cellNum(t, e, 1, 2), cellNum(t, e, 9, 9); b != 8 || i != 14 {
		t.Fatalf("B1 = %v, I9 = %v, want 8 and 14", b, i)
	}
}

// PlaceTable of an r x c table is one batch: one generation, one
// propagation pass, not one per cell.
func TestPipelinePlaceTableIsOneBatch(t *testing.T) {
	bothModes(t, func(t *testing.T, e *Engine) {
		if err := e.Set(1, 8, "=SUM(A2:C5)"); err != nil {
			t.Fatal(err)
		}
		mustDrain(t, e)
		tv := &TableValue{Cols: []string{"a", "b", "c"}}
		for i := 0; i < 4; i++ {
			tv.Rows = append(tv.Rows, []sheet.Value{sheet.Number(float64(i)), sheet.Number(1), sheet.Str("x")})
		}
		gen := e.Generation()
		g, err := e.PlaceTable(tv, sheet.Ref{Row: 1, Col: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got := e.Generation() - gen; got != 1 {
			t.Fatalf("PlaceTable applied %d batches, want 1", got)
		}
		mustDrain(t, e)
		if g != sheet.NewRange(1, 1, 5, 3) {
			t.Fatalf("covered range = %v", g)
		}
		if got := cellNum(t, e, 1, 8); got != 10 {
			t.Fatalf("H1 = %v, want 0+1+2+3 + 4*1", got)
		}
	})
}

// A 1 x 100 wave in one row of a row-oriented region (and the transposed
// wave in a column-oriented one) is written back with O(1) tuple rewrites:
// the executor commits a wave as one batch. The per-cell write path fetched
// and rewrote the row's whole tuple once per result. A rewrite is counted by
// the database's own buffer pool: two page fetches, the translator's read of
// the tuple and the table's update.
func TestPipelineWaveRewritesTupleOnce(t *testing.T) {
	const wave = 100
	for _, layout := range []string{"rom", "com"} {
		for _, async := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/async=%v", layout, async), func(t *testing.T) {
				// rom: A1 feeds B1..CW1; com: A1 feeds A2..A101.
				at := func(k int) (row, col int) {
					if layout == "rom" {
						return 1, 1 + k
					}
					return 1 + k, 1
				}
				s := sheet.New("w")
				s.SetValue(1, 1, sheet.Number(2))
				for k := 1; k <= wave; k++ {
					r, c := at(k)
					s.SetFormula(r, c, fmt.Sprintf("A1*%d", k))
				}
				db := rdbms.Open(rdbms.Options{})
				e, err := Open(db, "w", s, layout, Options{AsyncRecalc: async})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				mustDrain(t, e)
				rows, cols := e.Bounds()
				e.GetCells(sheet.NewRange(1, 1, rows, cols)) // resident: no block load below
				before := db.Pool().Stats()
				if err := e.Set(1, 1, "3"); err != nil {
					t.Fatal(err)
				}
				mustDrain(t, e)
				after := db.Pool().Stats()
				fetches := after.PoolHits + after.PoolMisses - before.PoolHits - before.PoolMisses
				for k := 1; k <= wave; k++ {
					r, c := at(k)
					if got := cellNum(t, e, r, c); got != float64(3*k) {
						t.Fatalf("(%d,%d) = %v, want %d", r, c, got, 3*k)
					}
				}
				// One rewrite for the edit and one for the wave; the bound
				// leaves room for a third rewrite, far from the hundred of a
				// per-cell path.
				if rewrites := fetches / 2; rewrites > 3 {
					t.Fatalf("recalculating one %d-cell wave fetched %d pages (%d tuple rewrites), want at most 3",
						wave, fetches, rewrites)
				}
			})
		}
	}
}

// scriptGen produces the random edit scripts of the equivalence property.
// Formulas only read cells that precede their own in row-major order — sums,
// COUNTAs, which absorb an error they read, and arithmetic — so a cycle
// exists only when the script makes one: on purpose, one at a time, by a
// formula at backEdge that reads forward to backTarget, while only values are
// edited around it.
type scriptGen struct {
	rng                  *rand.Rand
	rows, cols           int
	backEdge, backTarget *sheet.Ref
}

func a1(r sheet.Ref) string { return fmt.Sprintf("%s%d", colA(r.Col), r.Row) }

func (g *scriptGen) cell() sheet.Ref {
	return sheet.Ref{Row: g.rng.Intn(g.rows) + 1, Col: g.rng.Intn(g.cols) + 1}
}

// formula returns a formula for at that reads only earlier cells ("" when
// at is the first cell).
func (g *scriptGen) formula(at sheet.Ref) string {
	switch {
	case at.Row > 1 && g.rng.Intn(2) == 0:
		r1 := g.rng.Intn(at.Row-1) + 1
		r2 := r1 + g.rng.Intn(at.Row-r1)
		c1 := g.rng.Intn(g.cols) + 1
		c2 := c1 + g.rng.Intn(g.cols-c1+1)
		fn := "SUM"
		if g.rng.Intn(2) == 0 {
			fn = "COUNTA"
		}
		return fmt.Sprintf("=%s(%s:%s)", fn, a1(sheet.Ref{Row: r1, Col: c1}), a1(sheet.Ref{Row: r2, Col: c2}))
	case at.Col > 1:
		return fmt.Sprintf("=%s*2+1", a1(sheet.Ref{Row: at.Row, Col: g.rng.Intn(at.Col-1) + 1}))
	case at.Row > 1:
		return fmt.Sprintf("=%s+1", a1(sheet.Ref{Row: g.rng.Intn(at.Row-1) + 1, Col: g.rng.Intn(g.cols) + 1}))
	}
	return ""
}

// batch returns one batch of edits; ref is the engine the script reads the
// current formula state from.
func (g *scriptGen) batch(ref *Engine) []CellEdit {
	var edits []CellEdit
	add := func(r sheet.Ref, input string) {
		edits = append(edits, CellEdit{Row: r.Row, Col: r.Col, Input: input})
	}
	for i := 0; i < 10; i++ {
		r := g.cell()
		switch k := g.rng.Intn(10); {
		case k == 0:
			add(r, "")
		case k <= 3 && g.backEdge == nil:
			add(r, g.formula(r))
		default:
			add(r, fmt.Sprint(g.rng.Intn(50)))
		}
	}
	// Same-cell duplicates: the last edit to a cell wins, whatever the kinds.
	dup := sheet.Ref{Row: edits[0].Row, Col: edits[0].Col}
	if g.backEdge == nil && g.rng.Intn(2) == 0 {
		add(dup, g.formula(dup))
	} else {
		add(dup, fmt.Sprint(g.rng.Intn(50)))
	}
	live := make([]sheet.Ref, 0, len(exprsOf(ref)))
	for r := range exprsOf(ref) {
		if len(ref.deps.Precedents(r)) > 0 {
			live = append(live, r)
		}
	}
	sort.Slice(live, func(i, j int) bool {
		return live[i].Row < live[j].Row || live[i].Row == live[j].Row && live[i].Col < live[j].Col
	})
	switch {
	case g.backEdge == nil && len(live) > 0 && g.rng.Intn(3) == 0:
		// Make a cycle: a cell the formula f reads becomes a formula reading f.
		f := live[g.rng.Intn(len(live))]
		p := ref.deps.Precedents(f)[0].From
		if p != f {
			g.backEdge, g.backTarget = &p, &f
			add(p, "="+a1(f)+"+1")
		}
	case g.backEdge != nil && g.backTarget != nil && g.rng.Intn(2) == 0:
		// Break it at the far end: the formula at backEdge evaluates again,
		// still reading forward.
		add(*g.backTarget, "3")
		g.backTarget = nil
	case g.backEdge != nil && g.rng.Intn(2) == 0:
		// Retire it: the forward-reading formula becomes a value.
		add(*g.backEdge, "7")
	}
	return edits
}

// shiftRef maps *p through a structural edit (nil once deleted).
func shiftRef(p *sheet.Ref, axis depgraph.Axis, at, delta int) *sheet.Ref {
	if p == nil {
		return nil
	}
	idx := &p.Col
	if axis == depgraph.Rows {
		idx = &p.Row
	}
	nw, ok := depgraph.ShiftIndex(*idx, at, delta)
	if !ok {
		return nil
	}
	*idx = nw
	return p
}

// reopen is core.Open, over layout, of e's cells and formulas in rows x cols.
func reopen(t *testing.T, e *Engine, layout string, rows, cols int) *Engine {
	t.Helper()
	s := sheet.New("reopened")
	for r := 1; r <= rows; r++ {
		for c := 1; c <= cols; c++ {
			if cell := e.GetCell(r, c); cell.HasFormula() {
				s.SetFormula(r, c, cell.Formula)
			} else if !cell.IsBlank() {
				s.SetValue(r, c, cell.Value)
			}
		}
	}
	o, err := Open(rdbms.Open(rdbms.Options{}), "reopened", s, layout, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestPipelineEquivalenceProperty: the same random script — values,
// formulas, clears, same-cell duplicates, cycles made and broken, readers
// downstream of them, row and column inserts and deletes — driven through
// single-cell calls on a synchronous engine, through SetCells on a
// synchronous engine, and through SetCells + Drain on an async engine ends in
// the same cells, formula set and bounds, with nothing pending, over every
// layout; and core.Open of the per-cell engine's cells and formulas, a fourth
// path to the same sheet, shows the same cells and formulas.
func TestPipelineEquivalenceProperty(t *testing.T) {
	const rows, cols = 12, 8
	absorbed := 0 // rounds where a COUNTA read a #CYCLE! and showed a number
	for li, layout := range []string{"rom", "com", "rcv", "agg"} {
		t.Run(layout, func(t *testing.T) {
			seed := sheet.New("seed")
			for r := 1; r <= rows; r++ {
				for c := 1; c <= cols; c++ {
					if (r+c)%5 != 0 {
						seed.SetValue(r, c, sheet.Number(float64(r*10+c)))
					}
				}
			}
			open := func(name string, async bool) *Engine {
				e, err := Open(rdbms.Open(rdbms.Options{}), name, seed, layout, Options{AsyncRecalc: async})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = e.Close() })
				return e
			}
			perCell, batched, async := open("percell", false), open("batched", false), open("async", true)
			engines := []*Engine{perCell, batched, async}
			g := &scriptGen{rng: rand.New(rand.NewSource(int64(41 + li))), rows: rows, cols: cols}
			for round := 0; round < 40; round++ {
				label := fmt.Sprintf("%s round %d", layout, round)
				if g.rng.Intn(4) == 0 {
					// A structural edit, the same on all three.
					axis, at, delta := depgraph.Axis(g.rng.Intn(2)), g.rng.Intn(rows)+1, g.rng.Intn(2)+1
					if g.rng.Intn(2) == 0 {
						delta = -delta
					}
					label += fmt.Sprintf(" shift(axis %d, at %d, delta %d)", axis, at, delta)
					for _, e := range engines {
						if _, err := e.Shift(axis, at, delta); err != nil {
							t.Fatalf("%s: %v", label, err)
						}
					}
					g.backEdge = shiftRef(g.backEdge, axis, at, delta)
					g.backTarget = shiftRef(g.backTarget, axis, at, delta)
				} else {
					edits := g.batch(perCell)
					for _, ed := range edits {
						if err := perCell.Set(ed.Row, ed.Col, ed.Input); err != nil {
							t.Fatalf("%s: Set %+v: %v", label, ed, err)
						}
					}
					for _, e := range engines[1:] {
						if err := e.SetCells(edits); err != nil {
							t.Fatalf("%s: SetCells: %v", label, err)
						}
					}
				}
				// The forward-reading formula is gone once its cell holds a value.
				if g.backEdge != nil {
					if _, live := exprsOf(perCell)[*g.backEdge]; !live {
						g.backEdge, g.backTarget = nil, nil
					}
				}
				want := captureState(t, perCell, rows+8, cols+8)
				if absorbs(perCell, want) {
					absorbed++
				}
				assertSameState(t, label+": per-cell vs batched", want, captureState(t, batched, rows+8, cols+8))
				assertSameState(t, label+": per-cell vs async", want, captureState(t, async, rows+8, cols+8))
				opened := reopen(t, perCell, layout, rows+8, cols+8)
				got := captureState(t, opened, rows+8, cols+8)
				if err := opened.Close(); err != nil {
					t.Fatal(err)
				}
				// Bounds aside: the edited engines' do not shrink when an edge
				// is cleared.
				got.rows, got.cols = want.rows, want.cols
				assertSameState(t, label+": per-cell vs opened", want, got)
			}
		})
	}
	if absorbed == 0 {
		t.Fatal("scripts too tame: no COUNTA ever absorbed a #CYCLE!")
	}
	t.Logf("%d rounds with a COUNTA absorbing a #CYCLE!", absorbed)
}

// absorbs reports whether a COUNTA formula of e shows a number while a cell
// it reads shows #CYCLE!, in st, e's captured state.
func absorbs(e *Engine, st engineState) bool {
	for ref, expr := range exprsOf(e) {
		if !strings.HasPrefix(st.formulas[ref], "COUNTA(") || st.cells[ref].Value.IsError() {
			continue
		}
		for _, g := range formula.Refs(expr) {
			for c, cell := range st.cells {
				if g.Contains(c) && cell.Value.Equal(sheet.ErrCycle) {
					return true
				}
			}
		}
	}
	return false
}
