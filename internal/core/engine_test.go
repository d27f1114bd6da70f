package core

import (
	"fmt"
	"testing"

	"dataspread/internal/cache"
	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
)

func newEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := New(rdbms.Open(rdbms.Options{}), "test", Options{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// figure7 loads the paper's Figure 7 grade sheet.
func figure7(t *testing.T, e *Engine) {
	t.Helper()
	head := []string{"ID", "HW1", "HW2", "MidTerm", "Final", "Total"}
	for j, h := range head {
		if err := e.SetValue(1, j+1, sheet.Str(h)); err != nil {
			t.Fatal(err)
		}
	}
	data := [][]float64{{10, 10, 30, 35}, {8, 9, 25, 30}, {9, 10, 28, 33}, {8, 8, 30, 32}}
	names := []string{"Alice", "Bob", "Carol", "Dave"}
	for i := range data {
		if err := e.SetValue(i+2, 1, sheet.Str(names[i])); err != nil {
			t.Fatal(err)
		}
		for j, v := range data[i] {
			if err := e.SetValue(i+2, j+2, sheet.Number(v)); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.SetFormula(i+2, 6, fmt.Sprintf("AVERAGE(B%d:C%d)+D%d+E%d", i+2, i+2, i+2, i+2)); err != nil {
			t.Fatal(err)
		}
	}
}

func cellNum(t *testing.T, e *Engine, row, col int) float64 {
	t.Helper()
	v := e.GetCell(row, col).Value
	f, ok := v.Num()
	if !ok {
		t.Fatalf("cell (%d,%d) = %v, not numeric", row, col, v)
	}
	return f
}

func TestEngineFigure7(t *testing.T) {
	e := newEngine(t)
	figure7(t, e)
	// Alice: (10+10)/2 + 30 + 35 = 75.
	if got := cellNum(t, e, 2, 6); got != 75 {
		t.Fatalf("F2 = %v want 75", got)
	}
	// Bob: (8+9)/2 + 25 + 30 = 63.5.
	if got := cellNum(t, e, 3, 6); got != 63.5 {
		t.Fatalf("F3 = %v want 63.5", got)
	}
}

func TestEnginePropagation(t *testing.T) {
	e := newEngine(t)
	figure7(t, e)
	// Raise Alice's final: total recomputes.
	if err := e.SetValue(2, 5, sheet.Number(45)); err != nil {
		t.Fatal(err)
	}
	if got := cellNum(t, e, 2, 6); got != 85 {
		t.Fatalf("F2 after update = %v want 85", got)
	}
	// Chain: G2 = F2*2, H2 = G2+1; changing B2 ripples through.
	if err := e.SetFormula(2, 7, "F2*2"); err != nil {
		t.Fatal(err)
	}
	if err := e.SetFormula(2, 8, "G2+1"); err != nil {
		t.Fatal(err)
	}
	if got := cellNum(t, e, 2, 8); got != 171 {
		t.Fatalf("H2 = %v want 171", got)
	}
	if err := e.SetValue(2, 2, sheet.Number(20)); err != nil { // HW1 10 -> 20
		t.Fatal(err)
	}
	// New total: (20+10)/2+30+45 = 90; G2=180; H2=181.
	if got := cellNum(t, e, 2, 8); got != 181 {
		t.Fatalf("H2 after ripple = %v want 181", got)
	}
}

func TestEngineCycleDetection(t *testing.T) {
	e := newEngine(t)
	if err := e.SetFormula(1, 1, "B1+1"); err != nil {
		t.Fatal(err)
	}
	if err := e.SetFormula(1, 2, "A1+1"); err != nil {
		t.Fatal(err)
	}
	if !e.GetCell(1, 2).Value.Equal(sheet.ErrCycle) {
		t.Fatalf("B1 = %v want #CYCLE!", e.GetCell(1, 2).Value)
	}
	// Self-reference.
	if err := e.SetFormula(5, 5, "E5"); err != nil {
		t.Fatal(err)
	}
	if !e.GetCell(5, 5).Value.Equal(sheet.ErrCycle) {
		t.Fatal("self-reference must be #CYCLE!")
	}
	// Every member of a cycle is registered and shows #CYCLE!, and a tile
	// load shows its text, whatever the tile's extent.
	want := map[sheet.Ref]string{{Row: 1, Col: 1}: "B1+1", {Row: 1, Col: 2}: "A1+1", {Row: 5, Col: 5}: "E5"}
	for ref, src := range want {
		if expr, ok := exprsOf(e)[ref]; !ok || expr.String() != src || !e.GetCell(ref.Row, ref.Col).Value.Equal(sheet.ErrCycle) {
			t.Fatalf("%v: registered %v, shows %v; want %q showing #CYCLE!", ref, expr, e.GetCell(ref.Row, ref.Col).Value, src)
		}
	}
	for _, g := range []sheet.Range{sheet.NewRange(1, 1, 5, 5), sheet.NewRange(1, 1, 1, 2), sheet.NewRange(5, 5, 5, 5)} {
		tile := cache.NewTile()
		if err := (storeBacking{e}).LoadBlock(g, tile); err != nil {
			t.Fatal(err)
		}
		for ref, src := range want {
			if !g.Contains(ref) {
				continue
			}
			if cell := tile.Cell(ref.Row-g.From.Row, ref.Col-g.From.Col); cell.Formula != src {
				t.Fatalf("load of %v: %v reads %+v, want formula %q", g, ref, cell, src)
			}
		}
	}
}

func TestEngineSetParsesInput(t *testing.T) {
	e := newEngine(t)
	if err := e.Set(1, 1, "42"); err != nil {
		t.Fatal(err)
	}
	if err := e.Set(1, 2, "hello"); err != nil {
		t.Fatal(err)
	}
	if err := e.Set(1, 3, "=A1*2"); err != nil {
		t.Fatal(err)
	}
	if got := cellNum(t, e, 1, 3); got != 84 {
		t.Fatalf("formula via Set = %v", got)
	}
	if e.GetCell(1, 2).Value.Kind() != sheet.KindString {
		t.Fatal("text input should stay text")
	}
	if err := e.Set(1, 1, "bad=("); err != nil {
		t.Fatal("non-formula text must not error")
	}
	if err := e.Set(1, 4, "=SUM("); err == nil {
		t.Fatal("bad formula must error")
	}
}

func TestEngineInsertRowShiftsFormulas(t *testing.T) {
	e := newEngine(t)
	figure7(t, e)
	// Sum over all totals.
	if err := e.SetFormula(7, 6, "SUM(F2:F5)"); err != nil {
		t.Fatal(err)
	}
	before := cellNum(t, e, 7, 6)
	// Insert a row above Bob (after row 2).
	if err := e.InsertRowsAfter(2, 1); err != nil {
		t.Fatal(err)
	}
	// The sum moved to row 8 and still sees all four totals.
	if got := cellNum(t, e, 8, 6); got != before {
		t.Fatalf("sum after insert = %v want %v", got, before)
	}
	if got := e.GetCell(8, 6).Formula; got != "SUM(F2:F6)" {
		t.Fatalf("sum formula = %q want SUM(F2:F6)", got)
	}
	// Bob moved down; his row formula shifted with him.
	if got := cellNum(t, e, 4, 6); got != 63.5 {
		t.Fatalf("Bob's total after insert = %v", got)
	}
	// Fill the inserted row: the sum must include it.
	for j, v := range []float64{10, 10, 10, 10} {
		if err := e.SetValue(3, j+2, sheet.Number(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.SetFormula(3, 6, "AVERAGE(B3:C3)+D3+E3"); err != nil {
		t.Fatal(err)
	}
	if got := cellNum(t, e, 8, 6); got != before+30 {
		t.Fatalf("sum after filling new row = %v want %v", got, before+30)
	}
}

func TestEngineDeleteRowPoisonsRefs(t *testing.T) {
	e := newEngine(t)
	figure7(t, e)
	if err := e.SetFormula(7, 1, "F2+F3"); err != nil {
		t.Fatal(err)
	}
	// Delete Bob's row (3): F3 becomes #REF!.
	if err := e.DeleteRows(3, 1); err != nil {
		t.Fatal(err)
	}
	got := e.GetCell(6, 1)
	if got.Formula != "F2+#REF!" {
		t.Fatalf("formula = %q", got.Formula)
	}
	if !got.Value.IsError() {
		t.Fatalf("value = %v, want error", got.Value)
	}
	// Carol shifted up and her total still works.
	if got := cellNum(t, e, 3, 6); got != 70.5 {
		t.Fatalf("Carol total = %v want 70.5", got)
	}
}

func TestEngineInsertColumn(t *testing.T) {
	e := newEngine(t)
	figure7(t, e)
	if err := e.InsertColumnsAfter(1, 1); err != nil {
		t.Fatal(err)
	}
	// Totals moved to column G and still evaluate.
	if got := cellNum(t, e, 2, 7); got != 75 {
		t.Fatalf("G2 = %v want 75", got)
	}
	if got := e.GetCell(2, 7).Formula; got != "AVERAGE(C2:D2)+E2+F2" {
		t.Fatalf("shifted formula = %q", got)
	}
	// Delete it again.
	if err := e.DeleteColumns(2, 1); err != nil {
		t.Fatal(err)
	}
	if got := cellNum(t, e, 2, 6); got != 75 {
		t.Fatalf("F2 after delete = %v", got)
	}
}

func TestEngineClear(t *testing.T) {
	e := newEngine(t)
	figure7(t, e)
	if err := e.Clear(2, 5); err != nil { // Alice's final
		t.Fatal(err)
	}
	// (10+10)/2 + 30 + 0 = 40.
	if got := cellNum(t, e, 2, 6); got != 40 {
		t.Fatalf("total after clear = %v", got)
	}
	if !e.GetCell(2, 5).IsBlank() {
		t.Fatal("cleared cell must be blank")
	}
}

func TestEngineGetCellsViewport(t *testing.T) {
	e := newEngine(t)
	figure7(t, e)
	// The A1:F5 viewport of the paper's screenshot.
	cells := e.GetCells(sheet.NewRange(1, 1, 5, 6))
	if len(cells) != 5 || len(cells[0]) != 6 {
		t.Fatalf("viewport dims %dx%d", len(cells), len(cells[0]))
	}
	if cells[0][0].Value.Text() != "ID" {
		t.Fatalf("A1 = %v", cells[0][0].Value)
	}
	if f, _ := cells[1][5].Value.Num(); f != 75 {
		t.Fatalf("F2 = %v", cells[1][5].Value)
	}
}

func TestEngineVisitRangeClipsToBounds(t *testing.T) {
	e := newEngine(t)
	if err := e.SetValue(1, 1, sheet.Number(5)); err != nil {
		t.Fatal(err)
	}
	// Formula over a vast range only visits within bounds. The formula
	// cell sits outside the range (inside it would be a legitimate cycle).
	if err := e.SetFormula(1, 800, "SUM(A1:ZZ100000)"); err != nil {
		t.Fatal(err)
	}
	if got := cellNum(t, e, 1, 800); got != 5 {
		t.Fatalf("huge-range SUM = %v", got)
	}
}

func TestEngineAcrossPositionalSchemes(t *testing.T) {
	// The engine behaves identically under all three positional mapping
	// schemes; only performance differs (Figure 18).
	for _, scheme := range []string{"hierarchical", "position-as-is", "monotonic"} {
		e, err := New(rdbms.Open(rdbms.Options{}), "s_"+scheme, Options{Scheme: scheme})
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		figure7(t, e)
		if got := cellNum(t, e, 2, 6); got != 75 {
			t.Fatalf("%s: F2 = %v", scheme, got)
		}
		if err := e.InsertRowsAfter(2, 1); err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if got := cellNum(t, e, 4, 6); got != 63.5 {
			t.Fatalf("%s: shifted Bob total = %v", scheme, got)
		}
		if err := e.DeleteRows(3, 1); err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if got := cellNum(t, e, 3, 6); got != 63.5 {
			t.Fatalf("%s: Bob total after delete = %v", scheme, got)
		}
	}
}
