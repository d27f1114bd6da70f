package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dataspread/internal/hybrid"
	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
)

// snapshotEngine reads the engine's full content plus formula sources into
// a comparable map.
func snapshotEngine(t *testing.T, e *Engine) map[sheet.Ref]sheet.Cell {
	t.Helper()
	rows, cols := e.Bounds()
	out := make(map[sheet.Ref]sheet.Cell)
	for r := 1; r <= rows; r++ {
		for c := 1; c <= cols; c++ {
			cell := e.GetCell(r, c)
			if !cell.IsBlank() {
				out[sheet.Ref{Row: r, Col: c}] = cell
			}
		}
	}
	if err := e.ReadErr(); err != nil {
		t.Fatal(err)
	}
	return out
}

func assertSameContent(t *testing.T, label string, a, b map[sheet.Ref]sheet.Cell) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d filled cells", label, len(a), len(b))
	}
	for ref, ca := range a {
		cb, ok := b[ref]
		if !ok {
			t.Fatalf("%s: %v missing in second engine", label, ref)
		}
		if !ca.Value.Equal(cb.Value) || ca.Formula != cb.Formula {
			t.Fatalf("%s: %v = %+v vs %+v", label, ref, ca, cb)
		}
	}
}

// seedStructuralSheet populates a small sheet with values and formulas that
// exercise every shift class: above, below, straddling, and #REF-able.
func seedStructuralSheet(t *testing.T, e *Engine, rng *rand.Rand) {
	t.Helper()
	for r := 1; r <= 20; r++ {
		for c := 1; c <= 6; c++ {
			if err := e.SetValue(r, c, sheet.Number(float64(r*100+c))); err != nil {
				t.Fatal(err)
			}
		}
	}
	formulas := []struct {
		r, c int
		src  string
	}{
		{1, 8, "SUM(A1:A20)"},    // straddles everything
		{2, 8, "A2+B2"},          // top
		{18, 8, "A18*2"},         // bottom, reads bottom
		{19, 8, "SUM(A1:A3)"},    // bottom, reads top
		{3, 9, "H2+1"},           // chained dependent
		{20, 9, "1+2"},           // constant
		{4, 9, "SUM(C5:D12)"},    // mid block
		{5, 9, "AVERAGE(A8:A9)"}, // narrow mid
	}
	for _, f := range formulas {
		if err := e.SetFormula(f.r, f.c, f.src); err != nil {
			t.Fatal(err)
		}
	}
	_ = rng
}

// TestBatchedInsertEquivalence: InsertRowsAfter(r, k) must be observably
// identical (cells, formula texts, recalculated values) to k times
// InsertRowsAfter(r, 1); same for columns and for deletes, including an
// insert-then-delete round trip.
func TestBatchedStructuralEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 12; trial++ {
		at := rng.Intn(21) // 0..20
		k := rng.Intn(4) + 1
		batched, err := New(rdbms.Open(rdbms.Options{}), "b", Options{})
		if err != nil {
			t.Fatal(err)
		}
		looped, err := New(rdbms.Open(rdbms.Options{}), "l", Options{})
		if err != nil {
			t.Fatal(err)
		}
		seedStructuralSheet(t, batched, rng)
		seedStructuralSheet(t, looped, rng)

		if err := batched.InsertRowsAfter(at, k); err != nil {
			t.Fatalf("batched insert: %v", err)
		}
		for i := 0; i < k; i++ {
			if err := looped.InsertRowsAfter(at, 1); err != nil {
				t.Fatalf("single insert: %v", err)
			}
		}
		label := fmt.Sprintf("insert rows at %d x%d", at, k)
		assertSameContent(t, label, snapshotEngine(t, batched), snapshotEngine(t, looped))

		// Round trip: deleting the inserted band restores the sheet.
		before := snapshotEngine(t, looped)
		if err := batched.DeleteRows(at+1, k); err != nil {
			t.Fatal(err)
		}
		if err := batched.InsertRowsAfter(at, k); err != nil {
			t.Fatal(err)
		}
		assertSameContent(t, label+" round-trip", snapshotEngine(t, batched), before)

		// Column axis.
		atC := rng.Intn(10)
		if err := batched.InsertColumnsAfter(atC, k); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			if err := looped.InsertColumnsAfter(atC, 1); err != nil {
				t.Fatal(err)
			}
		}
		label = fmt.Sprintf("insert cols at %d x%d", atC, k)
		assertSameContent(t, label, snapshotEngine(t, batched), snapshotEngine(t, looped))

		// Batched delete vs k single deletes at the same position.
		delAt := rng.Intn(10) + 1
		if err := batched.DeleteRows(delAt, k); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			if err := looped.DeleteRows(delAt, 1); err != nil {
				t.Fatal(err)
			}
		}
		label = fmt.Sprintf("delete rows at %d x%d", delAt, k)
		assertSameContent(t, label, snapshotEngine(t, batched), snapshotEngine(t, looped))

		if err := batched.DeleteColumns(delAt, 1); err != nil {
			t.Fatal(err)
		}
		if err := looped.DeleteColumns(delAt, 1); err != nil {
			t.Fatal(err)
		}
		label = fmt.Sprintf("delete col at %d", delAt)
		assertSameContent(t, label, snapshotEngine(t, batched), snapshotEngine(t, looped))
	}
}

// TestStructuralEditCounters: inserting a row that no formula reads across
// must recompute zero formulas and rewrite zero formulas — the shift-aware
// fast path never touches them.
func TestStructuralEditCounters(t *testing.T) {
	e := newEngine(t)
	// 200 formulas near the top reading only rows 1..40.
	for i := 0; i < 200; i++ {
		r, c := i/10+1, i%10+11
		if err := e.SetValue(r, c-10+20, sheet.Number(float64(i))); err != nil { // values rows 1..20
			t.Fatal(err)
		}
		if err := e.SetFormula(r, c, fmt.Sprintf("SUM(A%d:F%d)", r, r+20)); err != nil {
			t.Fatal(err)
		}
	}
	// Push the content extent well below the formulas.
	if err := e.SetValue(5000, 1, sheet.Number(1)); err != nil {
		t.Fatal(err)
	}

	// Insert far below every read range: nothing recomputes, nothing is
	// rewritten, nothing moves.
	if err := e.InsertRowsAfter(2000, 1); err != nil {
		t.Fatal(err)
	}
	st := e.LastEditStats()
	if st.Recomputed != 0 || st.Rewritten != 0 || st.Relocated != 0 {
		t.Fatalf("insert below all formulas: %+v, want all zero", st)
	}

	// Insert above the reads: formulas move and their references rewrite,
	// but none straddle the band (reads start at their own row), so only
	// straddlers recompute.
	if err := e.InsertRowsAfter(0, 1); err != nil {
		t.Fatal(err)
	}
	st = e.LastEditStats()
	if st.Relocated != 200 || st.Rewritten != 200 {
		t.Fatalf("insert above: %+v, want 200 relocated+rewritten", st)
	}
	if st.Recomputed != 0 {
		t.Fatalf("insert above all reads recomputed %d formulas", st.Recomputed)
	}

	// Insert inside the read band: every straddling formula recomputes.
	if err := e.InsertRowsAfter(10, 1); err != nil {
		t.Fatal(err)
	}
	st = e.LastEditStats()
	if st.Recomputed == 0 {
		t.Fatalf("insert inside read band recomputed nothing: %+v", st)
	}
}

// TestStructuralEditKeepsCacheWarm: blocks strictly above a mid-sheet row
// insert stay resident (hits, not misses, after the edit).
func TestStructuralEditKeepsCacheWarm(t *testing.T) {
	e := newEngine(t)
	for r := 1; r <= 300; r++ {
		if err := e.SetValue(r, 1, sheet.Number(float64(r))); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the top block.
	if got := cellNum(t, e, 5, 1); got != 5 {
		t.Fatal("warmup read")
	}
	before := e.CacheStats()
	if err := e.InsertRowsAfter(200, 7); err != nil {
		t.Fatal(err)
	}
	if got := cellNum(t, e, 5, 1); got != 5 {
		t.Fatalf("top cell after insert = %v", got)
	}
	after := e.CacheStats()
	if after.Hits <= before.Hits {
		t.Fatalf("top-of-sheet read missed after mid-sheet insert: %+v -> %+v", before, after)
	}
	if after.Misses != before.Misses {
		t.Fatalf("top-of-sheet read reloaded a block: %+v -> %+v", before, after)
	}
	// Below the edit the world shifted: reads see moved values.
	if got := cellNum(t, e, 300+7, 1); got != 300 {
		t.Fatalf("moved bottom cell = %v", got)
	}
}

// TestDeleteBeyondBoundsKeepsBounds: deleting rows/columns past the content
// extent must not shrink the tracked bounds below live data.
func TestDeleteBeyondBoundsKeepsBounds(t *testing.T) {
	e := newEngine(t)
	if err := e.SetValue(3, 3, sheet.Number(9)); err != nil {
		t.Fatal(err)
	}
	// The formula cell sits outside its own huge range (inside would be a
	// legitimate cycle).
	if err := e.SetFormula(1, 800, "SUM(A1:ZZ100000)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := e.DeleteRows(10, 1); err != nil {
			t.Fatal(err)
		}
		if err := e.DeleteColumns(10, 1); err != nil {
			t.Fatal(err)
		}
	}
	rows, cols := e.Bounds()
	if rows < 3 || cols < 3 {
		t.Fatalf("bounds shrank to %dx%d below live data at (3,3)", rows, cols)
	}
	// The huge-range formula still sees the value (VisitRange clips to
	// bounds; had bounds collapsed, the SUM would go blank). Column deletes
	// at column 10 shifted the formula cell left by 5.
	if got := cellNum(t, e, 1, 800-5); got != 9 {
		t.Fatalf("SUM after out-of-range deletes = %v", got)
	}
	// Inserts entirely past the extent must not inflate bounds either:
	// appended blank rows displace nothing.
	rowsBefore, colsBefore := e.Bounds()
	if err := e.InsertRowsAfter(rowsBefore+50, 100); err != nil {
		t.Fatal(err)
	}
	if err := e.InsertColumnsAfter(colsBefore+50, 100); err != nil {
		t.Fatal(err)
	}
	if r, c := e.Bounds(); r != rowsBefore || c != colsBefore {
		t.Fatalf("bounds inflated by out-of-extent inserts: %dx%d -> %dx%d",
			rowsBefore, colsBefore, r, c)
	}
	// A band partially overlapping the extent shrinks bounds only by the
	// overlap.
	if err := e.DeleteRows(3, 100); err != nil {
		t.Fatal(err)
	}
	rows, _ = e.Bounds()
	if rows != 2 {
		t.Fatalf("bounds after partial-overlap delete = %d rows, want 2", rows)
	}
}

// TestBatchedDeleteRefBehaviour: a batched delete of a band produces #REF!
// for single references into it and clips straddling ranges, matching the
// single-row semantics.
func TestBatchedDeleteRefBehaviour(t *testing.T) {
	e := newEngine(t)
	for r := 1; r <= 10; r++ {
		if err := e.SetValue(r, 1, sheet.Number(float64(r))); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.SetFormula(12, 1, "A5+A6"); err != nil {
		t.Fatal(err)
	}
	if err := e.SetFormula(12, 2, "SUM(A4:A8)"); err != nil {
		t.Fatal(err)
	}
	if err := e.DeleteRows(5, 2); err != nil { // rows 5..6 vanish
		t.Fatal(err)
	}
	got := e.GetCell(10, 1)
	if got.Formula != "#REF!+#REF!" || !got.Value.IsError() {
		t.Fatalf("deleted refs: %+v", got)
	}
	got = e.GetCell(10, 2)
	if got.Formula != "SUM(A4:A6)" {
		t.Fatalf("clipped range formula = %q", got.Formula)
	}
	// 4 + 7 + 8 survive in the clipped range.
	if v := cellNum(t, e, 10, 2); v != 19 {
		t.Fatalf("clipped SUM = %v want 19", v)
	}
}

// TestConstantFormulaRelocates: read-less formulas move with structural
// edits even though the dependency graph does not track them.
func TestConstantFormulaRelocates(t *testing.T) {
	e := newEngine(t)
	if err := e.SetFormula(10, 1, "1+2"); err != nil {
		t.Fatal(err)
	}
	if err := e.InsertRowsAfter(3, 5); err != nil {
		t.Fatal(err)
	}
	got := e.GetCell(15, 1)
	if got.Formula != "1+2" || !got.Value.Equal(sheet.Number(3)) {
		t.Fatalf("constant after insert: %+v", got)
	}
	if e.GetCell(10, 1).HasFormula() {
		t.Fatal("constant left behind at old position")
	}
	// Deleting its row destroys it.
	if err := e.DeleteRows(14, 3); err != nil {
		t.Fatal(err)
	}
	if e.GetCell(12, 1).HasFormula() || e.GetCell(15, 1).HasFormula() {
		t.Fatal("constant survived deletion of its row")
	}
}

// assertEngineMatchesSheet compares what the engine serves over g (through
// its cache) and what its store holds there (values only) with the
// reference sheet.
func assertEngineMatchesSheet(t *testing.T, label string, e *Engine, s *sheet.Sheet, g sheet.Range) {
	t.Helper()
	stored, err := e.Store().GetCells(g)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range e.GetCells(g) {
		for j, served := range row {
			// The store holds the value; the engine serves it with its formula.
			want := s.GetRC(g.From.Row+i, g.From.Col+j)
			for _, got := range []sheet.Cell{served, {Value: stored[i][j].Value, Formula: want.Formula}} {
				if !got.Value.Equal(want.Value) || got.Formula != want.Formula || stored[i][j].Formula != "" {
					t.Fatalf("%s: (%d,%d) = %+v, stored %+v, want %+v", label, g.From.Row+i, g.From.Col+j, got, stored[i][j], want)
				}
			}
		}
	}
}

// TestShiftDropsCoveredRegion: a band covering a region's whole extent on
// the edit's axis drops the region, whatever the layout — deleting every
// column of a ROM region (or every row of a COM one) used to be refused by
// the translator ("cannot delete its last column") with nothing moved.
func TestShiftDropsCoveredRegion(t *testing.T) {
	const rows, cols = 50, 4
	g := sheet.NewRange(1, 1, rows+5, cols+5)
	for _, layout := range []string{"rom", "com", "rcv"} {
		for _, byRows := range []bool{false, true} {
			s := sheet.New("s")
			for r := 1; r <= rows; r++ {
				for c := 1; c <= cols; c++ {
					s.SetValue(r, c, sheet.Number(float64(r*10+c)))
				}
			}
			e, err := Open(rdbms.Open(rdbms.Options{}), "s", s, layout, Options{})
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s: delete every column", layout)
			if byRows {
				label = fmt.Sprintf("%s: delete every row", layout)
				err = e.DeleteRows(1, rows)
				for i := 0; i < rows; i++ {
					s.DeleteRow(1)
				}
			} else {
				err = e.DeleteColumns(1, cols)
				for i := 0; i < cols; i++ {
					s.DeleteColumn(1)
				}
			}
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if regs := e.Store().Regions(); len(regs) != 0 {
				t.Fatalf("%s: regions %v survive", label, regs)
			}
			assertEngineMatchesSheet(t, label, e, s, g)
			// The grid where the region was takes writes and edits again.
			if err := e.SetValue(2, 3, sheet.Number(7)); err != nil {
				t.Fatal(err)
			}
			s.SetValue(2, 3, sheet.Number(7))
			if err := e.InsertRowsAfter(1, 2); err != nil {
				t.Fatal(err)
			}
			s.InsertRowAfter(1)
			s.InsertRowAfter(1)
			assertEngineMatchesSheet(t, label+", then edited", e, s, g)
		}
	}
}

// TestRefusedShiftLeavesEngineIntact: a row delete that covers a linked
// table's header row is refused whole — regions, catalog tables, stored
// cells and what the engine serves (cache, formula values) are as before.
// The store used to drop and shrink the regions it met before the refusal,
// while the engine's cache and dependency graph stayed where they were.
func TestRefusedShiftLeavesEngineIntact(t *testing.T) {
	db := rdbms.Open(rdbms.Options{})
	e, err := New(db, "s", Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref := sheet.New("ref")
	for _, rect := range []sheet.Range{sheet.NewRange(1, 1, 2, 2), sheet.NewRange(1, 4, 5, 5)} {
		if _, err := e.store.AddRegion(rect, hybrid.ROM); err != nil {
			t.Fatal(err)
		}
		for r := rect.From.Row; r <= rect.To.Row; r++ {
			for c := rect.From.Col; c <= rect.To.Col; c++ {
				v := sheet.Number(float64(r*10 + c))
				if err := e.SetValue(r, c, v); err != nil {
					t.Fatal(err)
				}
				ref.SetValue(r, c, v)
			}
		}
	}
	if err := e.SetFormula(1, 10, "SUM(D1:E5)"); err != nil {
		t.Fatal(err)
	}
	ref.Set(sheet.Ref{Row: 1, Col: 10}, sheet.Cell{Value: sheet.Number(345), Formula: "SUM(D1:E5)"})
	table, err := db.CreateTable("lt", rdbms.NewSchema(rdbms.Column{Name: "x", Type: rdbms.DTFloat}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := table.Insert(rdbms.Row{rdbms.Float(7)}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.LinkTable(sheet.NewRange(2, 8, 3, 8), "lt"); err != nil {
		t.Fatal(err)
	}
	ref.SetValue(2, 8, sheet.Str("x"))
	ref.SetValue(3, 8, sheet.Number(7))
	g := sheet.NewRange(1, 1, 8, 12)
	assertEngineMatchesSheet(t, "before", e, ref, g)
	regions, tables := e.Store().Regions(), db.TableNames()

	if err := e.DeleteRows(1, 2); err == nil {
		t.Fatal("a row delete covering a linked header row must be refused")
	}
	if got := e.Store().Regions(); !reflect.DeepEqual(got, regions) {
		t.Fatalf("regions after refusal %v, want %v", got, regions)
	}
	if got := db.TableNames(); !reflect.DeepEqual(got, tables) {
		t.Fatalf("tables after refusal %v, want %v", got, tables)
	}
	assertEngineMatchesSheet(t, "after refusal", e, ref, g)
}
