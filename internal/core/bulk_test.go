package core

import (
	"fmt"
	"testing"

	"dataspread/internal/hybrid"
	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
)

func TestSetCellsValuesAndFormulas(t *testing.T) {
	e := newEngine(t)
	edits := []CellEdit{
		{Row: 1, Col: 1, Input: "10"},
		{Row: 2, Col: 1, Input: "20"},
		{Row: 3, Col: 1, Input: "hello"},
		{Row: 4, Col: 1, Input: "TRUE"},
		{Row: 1, Col: 2, Input: "=A1+A2"},
	}
	if err := e.SetCells(edits); err != nil {
		t.Fatal(err)
	}
	if v, _ := e.GetCell(1, 1).Value.Num(); v != 10 {
		t.Fatalf("A1 = %v", e.GetCell(1, 1).Value)
	}
	if got := e.GetCell(3, 1).Value.Text(); got != "hello" {
		t.Fatalf("A3 = %q", got)
	}
	if v, _ := e.GetCell(1, 2).Value.Num(); v != 30 {
		t.Fatalf("B1 = %v, want 30", e.GetCell(1, 2).Value)
	}
	rows, cols := e.Bounds()
	if rows < 4 || cols < 2 {
		t.Fatalf("bounds = %dx%d", rows, cols)
	}
}

func TestSetCellsPropagatesToExistingFormulas(t *testing.T) {
	e := newEngine(t)
	if err := e.Set(1, 2, "=SUM(A1:A100)"); err != nil {
		t.Fatal(err)
	}
	edits := make([]CellEdit, 100)
	for i := range edits {
		edits[i] = CellEdit{Row: i + 1, Col: 1, Input: "1"}
	}
	if err := e.SetCells(edits); err != nil {
		t.Fatal(err)
	}
	if v, _ := e.GetCell(1, 2).Value.Num(); v != 100 {
		t.Fatalf("SUM after bulk write = %v, want 100", e.GetCell(1, 2).Value)
	}
}

func TestSetCellsLastWriteWinsAndClears(t *testing.T) {
	e := newEngine(t)
	if err := e.SetCells([]CellEdit{
		{Row: 1, Col: 1, Input: "1"},
		{Row: 1, Col: 1, Input: "2"}, // same cell: last wins
		{Row: 2, Col: 1, Input: "9"},
	}); err != nil {
		t.Fatal(err)
	}
	if v, _ := e.GetCell(1, 1).Value.Num(); v != 2 {
		t.Fatalf("A1 = %v, want 2", e.GetCell(1, 1).Value)
	}
	if err := e.SetCells([]CellEdit{{Row: 2, Col: 1, Input: ""}}); err != nil {
		t.Fatal(err)
	}
	if !e.GetCell(2, 1).IsBlank() {
		t.Fatalf("A2 not cleared: %v", e.GetCell(2, 1))
	}
}

// TestSetCellsMatchesPerCellSetAcrossModels loads the same scattered batch
// via SetCells and via per-cell Set over every physical model and checks the
// stores agree cell for cell (the batched row/column rewrites must not
// clobber neighbours).
func TestSetCellsMatchesPerCellSetAcrossModels(t *testing.T) {
	for _, kind := range []hybrid.Kind{hybrid.ROM, hybrid.COM, hybrid.RCV} {
		t.Run(kind.String(), func(t *testing.T) {
			build := func(name string) *Engine {
				e := newEngine(t)
				// Pre-populate a region so it materializes as `kind`.
				s := sheet.New(name)
				for i := 1; i <= 8; i++ {
					for j := 1; j <= 6; j++ {
						s.Set(sheet.Ref{Row: i, Col: j}, sheet.Cell{Value: sheet.Number(float64(i*10 + j))})
					}
				}
				algo := map[hybrid.Kind]string{hybrid.ROM: "rom", hybrid.COM: "com", hybrid.RCV: "rcv"}[kind]
				eng, err := Open(e.DB(), name, s, algo, Options{})
				if err != nil {
					t.Fatal(err)
				}
				return eng
			}
			// Scattered edits: inside the region, on its fringe, far outside
			// (overflow), duplicates, and a clear.
			edits := []CellEdit{
				{Row: 2, Col: 2, Input: "-1"},
				{Row: 2, Col: 5, Input: "-2"},
				{Row: 2, Col: 3, Input: "-3"},
				{Row: 7, Col: 1, Input: "edge"},
				{Row: 3, Col: 3, Input: ""},
				{Row: 50, Col: 40, Input: "far"},
				{Row: 2, Col: 2, Input: "-9"},
			}
			bulk := build("bulk")
			if err := bulk.SetCells(edits); err != nil {
				t.Fatal(err)
			}
			single := build("single")
			for _, ed := range edits {
				if err := single.Set(ed.Row, ed.Col, ed.Input); err != nil {
					t.Fatal(err)
				}
			}
			for i := 1; i <= 60; i++ {
				for j := 1; j <= 45; j++ {
					a := bulk.GetCell(i, j)
					b := single.GetCell(i, j)
					if !a.Value.Equal(b.Value) {
						t.Fatalf("(%d,%d): bulk %v != per-cell %v", i, j, a.Value, b.Value)
					}
				}
			}
		})
	}
}

func TestSetCellsRejectsBadPosition(t *testing.T) {
	e := newEngine(t)
	if err := e.SetCells([]CellEdit{{Row: 0, Col: 1, Input: "1"}}); err == nil {
		t.Fatal("SetCells accepted row 0")
	}
}

// TestSetCellsMalformedFormulaRejectsWholeBatch: validation happens before
// any mutation, so a bad edit cannot leave value writes applied without
// their propagation pass.
func TestSetCellsMalformedFormulaRejectsWholeBatch(t *testing.T) {
	e := newEngine(t)
	if err := e.Set(1, 1, "1"); err != nil {
		t.Fatal(err)
	}
	if err := e.Set(1, 2, "=A1*2"); err != nil {
		t.Fatal(err)
	}
	err := e.SetCells([]CellEdit{
		{Row: 1, Col: 1, Input: "5"},
		{Row: 1, Col: 3, Input: "=)("},
	})
	if err == nil {
		t.Fatal("SetCells accepted a malformed formula")
	}
	// The batch was rejected atomically: A1 unchanged, B1 consistent.
	if v, _ := e.GetCell(1, 1).Value.Num(); v != 1 {
		t.Fatalf("A1 = %v after rejected batch, want 1", e.GetCell(1, 1).Value)
	}
	if v, _ := e.GetCell(1, 2).Value.Num(); v != 2 {
		t.Fatalf("B1 = %v after rejected batch, want 2", e.GetCell(1, 2).Value)
	}
}

// TestSetCellsScatteredEditsPropagatePrecisely: formulas between two
// scattered edits (inside their bounding rectangle but reading neither) are
// not recomputed, while formulas reading the edited cells are.
func TestSetCellsScatteredEditsPropagatePrecisely(t *testing.T) {
	e := newEngine(t)
	if err := e.Set(1, 5, "=A1*10"); err != nil { // reads an edited cell
		t.Fatal(err)
	}
	if err := e.Set(50, 5, "=SUM(C2:C40)"); err != nil { // inside envelope, reads no edit
		t.Fatal(err)
	}
	var reach []sheet.Ref
	e.deps.Mark([]sheet.Ref{{Row: 1, Col: 1}, {Row: 100, Col: 100}}, func(seg sheet.Range, fresh []sheet.Range) []sheet.Range {
		for row := seg.From.Row; row <= seg.To.Row; row++ {
			reach = append(reach, sheet.Ref{Row: row, Col: seg.From.Col})
		}
		return append(fresh, seg)
	})
	if len(reach) != 1 || reach[0] != (sheet.Ref{Row: 1, Col: 5}) {
		t.Fatalf("Mark visited %v, want only E1", reach)
	}
	if err := e.SetCells([]CellEdit{
		{Row: 1, Col: 1, Input: "7"},
		{Row: 100, Col: 100, Input: "x"},
	}); err != nil {
		t.Fatal(err)
	}
	if v, _ := e.GetCell(1, 5).Value.Num(); v != 70 {
		t.Fatalf("E1 = %v, want 70", e.GetCell(1, 5).Value)
	}
}

func TestSetCellsEmptyBatch(t *testing.T) {
	e := newEngine(t)
	if err := e.SetCells(nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSetCellsBulk(b *testing.B) {
	e, err := New(rdbms.Open(rdbms.Options{}), "bench", Options{})
	if err != nil {
		b.Fatal(err)
	}
	edits := make([]CellEdit, 1000)
	for i := range edits {
		edits[i] = CellEdit{Row: i/10 + 1, Col: i%10 + 1, Input: fmt.Sprintf("%d", i)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.SetCells(edits); err != nil {
			b.Fatal(err)
		}
	}
}
