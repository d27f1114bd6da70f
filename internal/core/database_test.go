package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
	"dataspread/internal/workload"
)

// A LinkTable whose range reaches above row 1, or whose From is past its To,
// is refused before it creates anything: the catalog, the grid and the
// generation are as they were. It used to create the table from the range,
// fail to clear row 0 and leave the table in the catalog; a reversed range
// panicked.
func TestRefusedLinkTableCreatesNothing(t *testing.T) {
	db := rdbms.Open(rdbms.Options{})
	e, err := New(db, "l", Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref := sheet.New("ref")
	for r := 1; r <= 3; r++ {
		for c := 1; c <= 2; c++ {
			v := sheet.Number(float64(r*10 + c))
			if err := e.SetValue(r, c, v); err != nil {
				t.Fatal(err)
			}
			ref.SetValue(r, c, v)
		}
	}
	grid := sheet.NewRange(1, 1, 5, 4)
	tables, gen := db.TableNames(), e.Generation()
	for _, g := range []sheet.Range{
		sheet.NewRange(0, 1, 3, 2),
		sheet.NewRange(1, 0, 3, 2),
		{From: sheet.Ref{Row: 3, Col: 2}, To: sheet.Ref{Row: 1, Col: 1}},
	} {
		if _, err := e.LinkTable(g, "t0"); err == nil {
			t.Errorf("LinkTable(%+v) was accepted", g)
		}
		if got := db.TableNames(); strings.Join(got, ",") != strings.Join(tables, ",") {
			t.Errorf("LinkTable(%+v): catalog %v, want %v", g, got, tables)
		}
		assertEngineMatchesSheet(t, fmt.Sprintf("after LinkTable(%+v)", g), e, ref, grid)
	}
	if got := e.Generation(); got != gen {
		t.Errorf("generation %d after the refused links, want %d", got, gen)
	}
}

func TestOpenFromSheet(t *testing.T) {
	s := sheet.New("t")
	for row := 1; row <= 10; row++ {
		for col := 1; col <= 4; col++ {
			s.SetValue(row, col, sheet.Number(float64(row*col)))
		}
	}
	s.SetFormula(12, 1, "SUM(A1:A10)")
	for _, algo := range []string{"agg", "rom", "rcv"} {
		e, err := Open(rdbms.Open(rdbms.Options{}), "open_"+algo, s, algo, Options{})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if got := cellNum(t, e, 12, 1); got != 55 {
			t.Fatalf("%s: formula on open = %v want 55", algo, got)
		}
		if got := cellNum(t, e, 10, 4); got != 40 {
			t.Fatalf("%s: data cell = %v", algo, got)
		}
	}
}

func TestLinkTableCreateFromRange(t *testing.T) {
	e := newEngine(t)
	// A small customer table typed on the grid (Example 2).
	rows := [][]string{
		{"invid", "amount", "memo"},
		{"1", "100.5", "first"},
		{"2", "200", "second"},
	}
	for i, r := range rows {
		for j, v := range r {
			if err := e.Set(i+1, j+1, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	tom, err := e.LinkTable(sheet.NewRange(1, 1, 3, 3), "invoice")
	if err != nil {
		t.Fatal(err)
	}
	if tom.Table().Name != "invoice" || tom.Table().RowCount() != 2 {
		t.Fatalf("linked table = %s with %d rows", tom.Table().Name, tom.Table().RowCount())
	}
	// Inferred types: numbers become DOUBLE.
	if tom.Table().Schema.Cols[1].Type != rdbms.DTFloat {
		t.Fatalf("amount type = %v", tom.Table().Schema.Cols[1].Type)
	}
	// Grid edit reaches the database.
	if err := e.SetValue(2, 2, sheet.Number(150)); err != nil {
		t.Fatal(err)
	}
	res := e.DB().MustExec("SELECT amount FROM invoice WHERE invid = 1")
	if res.Rows[0][0].Float64() != 150 {
		t.Fatalf("db sees %v", res.Rows[0][0])
	}
	// Database query sees the grid state through SQL.
	tv, err := e.SQL("SELECT SUM(amount) FROM invoice")
	if err != nil {
		t.Fatal(err)
	}
	v := tv.Rows[0][0]
	if f, _ := v.Num(); f != 350 { // 150 (edited) + 200
		t.Fatalf("SUM = %v", v)
	}
}

func TestLinkExistingTable(t *testing.T) {
	db := rdbms.Open(rdbms.Options{})
	db.MustExec("CREATE TABLE supp (suppid BIGINT, name TEXT)")
	db.MustExec("INSERT INTO supp VALUES (1,'Acme'),(2,'Globex'),(3,'Initech')")
	e, err := New(db, "t", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.LinkTable(sheet.NewRange(2, 2, 2, 3), "supp"); err != nil {
		t.Fatal(err)
	}
	// Header row at the anchor, then data.
	if got := e.GetCell(2, 2).Value.Text(); got != "suppid" {
		t.Fatalf("header = %q", got)
	}
	if got := e.GetCell(3, 3).Value.Text(); got != "Acme" {
		t.Fatalf("first row = %q", got)
	}
	if got := e.GetCell(5, 3).Value.Text(); got != "Initech" {
		t.Fatalf("last row = %q", got)
	}
}

func TestSQLWithParams(t *testing.T) {
	e := newEngine(t)
	e.DB().MustExec("CREATE TABLE nums (x BIGINT)")
	e.DB().MustExec("INSERT INTO nums VALUES (1),(2),(3)")
	tv, err := e.SQL("SELECT x FROM nums WHERE x >= ? ORDER BY x", sheet.Number(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(tv.Rows) != 2 {
		t.Fatalf("rows = %d", len(tv.Rows))
	}
	if _, err := e.SQL("SELECT nope FROM nums"); err == nil {
		t.Fatal("bad SQL must error")
	}
}

// TestSQLCannotWriteThroughSheet: sql() only reads. A DELETE, UPDATE,
// INSERT or CREATE through it fails, and a linked region reads as before —
// its cells and a formula over them — also after Save and Load. A write
// through it would go behind the grid: a DELETE left the region unreadable,
// an UPDATE left the grid and its formulas showing the old values.
func TestSQLCannotWriteThroughSheet(t *testing.T) {
	db := rdbms.Open(rdbms.Options{})
	e, err := New(db, "s", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range [][]string{{"id", "qty"}, {"1", "10"}, {"2", "20"}, {"3", "30"}} {
		for j, v := range row {
			if err := e.Set(i+1, j+1, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.SetFormula(1, 4, "SUM(B2:B3)"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.LinkTable(sheet.NewRange(1, 1, 4, 2), "inv"); err != nil {
		t.Fatal(err)
	}
	grid := func(e *Engine) string {
		var b strings.Builder
		for _, row := range e.GetCells(sheet.NewRange(1, 1, 4, 4)) {
			for _, c := range row {
				b.WriteString(c.Value.Text() + "|")
			}
		}
		if err := e.ReadErr(); err != nil {
			t.Fatalf("region read: %v", err)
		}
		return b.String()
	}
	want := grid(e)
	for _, q := range []string{
		"DELETE FROM inv WHERE id = 3",
		"UPDATE inv SET qty = 99",
		"INSERT INTO inv VALUES (4, 40)",
		"CREATE TABLE other (x BIGINT)",
	} {
		if _, err := e.SQL(q); err == nil {
			t.Errorf("SQL(%q) succeeded; sql() must only read", q)
		}
	}
	if got := grid(e); got != want {
		t.Fatalf("region after refused writes = %s, want %s", got, want)
	}
	if tv, err := e.SQL("SELECT COUNT(*), SUM(qty) FROM inv"); err != nil || tv.Rows[0][1].Text() != "60" {
		t.Fatalf("SQL read after refused writes = %v, %v", tv, err)
	}
	if err := e.Save(); err != nil {
		t.Fatal(err)
	}
	e2, err := Load(db, "s", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := grid(e2); got != want {
		t.Fatalf("region after Save and Load = %s, want %s", got, want)
	}
}

// TestSQLBesideLinkedEdits: sql() scans a linked table while another
// goroutine edits the region; under -race the two must not touch the heap
// at once, and every scan sees whole edits.
func TestSQLBesideLinkedEdits(t *testing.T) {
	e := newEngine(t)
	for i, row := range [][]string{{"id", "qty"}, {"1", "10"}, {"2", "20"}} {
		for j, v := range row {
			if err := e.Set(i+1, j+1, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := e.LinkTable(sheet.NewRange(1, 1, 3, 2), "inv"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error)
	go func() {
		for i := 0; i < 200; i++ {
			if err := e.SetCells([]CellEdit{{Row: 2, Col: 2, Input: fmt.Sprint(i)}, {Row: 3, Col: 2, Input: fmt.Sprint(-i)}}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 200; i++ {
		tv, err := e.SQL("SELECT SUM(qty) FROM inv")
		if err != nil {
			t.Fatal(err)
		}
		if got := tv.Rows[0][0].Text(); got != "0" && got != "30" {
			t.Fatalf("SUM(qty) = %s mid-edit, want 0 (or 30 before the first edit)", got)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestRangeTableAndRelationalOps(t *testing.T) {
	e := newEngine(t)
	grid := [][]string{
		{"name", "city"},
		{"Acme", "Champaign"},
		{"Globex", "Urbana"},
		{"Initech", "Champaign"},
	}
	for i, r := range grid {
		for j, v := range r {
			if err := e.Set(i+1, j+1, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Select + project over the linked range is SQL.
	if _, err := e.LinkTable(sheet.NewRange(1, 1, 4, 2), "supp"); err != nil {
		t.Fatal(err)
	}
	proj, err := e.SQL("SELECT name FROM supp WHERE city = 'Champaign'")
	if err != nil {
		t.Fatal(err)
	}
	if len(proj.Cols) != 1 || len(proj.Rows) != 2 {
		t.Fatalf("select+project = %d x %d", len(proj.Rows), len(proj.Cols))
	}
	// Place the result back on the grid (index function family).
	placed, err := e.PlaceTable(proj, sheet.Ref{Row: 10, Col: 1})
	if err != nil {
		t.Fatal(err)
	}
	if placed != sheet.NewRange(10, 1, 12, 1) {
		t.Fatalf("placed range = %v", placed)
	}
	if got := e.GetCell(11, 1).Value.Text(); got != "Acme" {
		t.Fatalf("placed cell = %q", got)
	}
}

func TestOptimizeMigratesContents(t *testing.T) {
	// Start everything in the overflow RCV, then optimize: contents must
	// survive the migration and the layout must improve.
	e := newEngine(t)
	for row := 1; row <= 30; row++ {
		for col := 1; col <= 6; col++ {
			if err := e.SetValue(row, col, sheet.Number(float64(row*10+col))); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := e.Store().StorageBytes()
	res, err := e.Optimize("agg", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Decomposition.Regions) == 0 {
		t.Fatal("optimize produced no regions")
	}
	// Contents intact.
	if got := cellNum(t, e, 30, 6); got != 306 {
		t.Fatalf("cell after migrate = %v", got)
	}
	if got := cellNum(t, e, 1, 1); got != 11 {
		t.Fatalf("cell after migrate = %v", got)
	}
	after := e.Store().StorageBytes()
	if after > before {
		t.Fatalf("dense sheet should shrink after optimize: %d -> %d", before, after)
	}
}

func TestEngineWithWorkloadSheet(t *testing.T) {
	// An end-to-end smoke test: open a generated corpus sheet and read it
	// back through the engine.
	s := workload.GenSheet(workload.Enron, newRand(5), "enron-0")
	e, err := Open(rdbms.Open(rdbms.Options{}), "wl", s, "agg", Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows, cols := e.Bounds()
	if rows == 0 || cols == 0 {
		t.Fatal("empty bounds")
	}
	mismatches := 0
	s.Each(func(r sheet.Ref, c sheet.Cell) {
		got := e.GetCell(r.Row, r.Col)
		if c.HasFormula() {
			if got.Formula != c.Formula {
				mismatches++
			}
			return
		}
		if !got.Value.Equal(c.Value) {
			mismatches++
		}
	})
	if mismatches > 0 {
		t.Fatalf("%d cells diverged", mismatches)
	}
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
