package model

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
)

func testCfg(t *testing.T, name string) Config {
	t.Helper()
	return Config{DB: rdbms.Open(rdbms.Options{}), TableName: name}
}

func newTranslators(t *testing.T) []Translator {
	t.Helper()
	db := rdbms.Open(rdbms.Options{})
	rom, err := NewROM(Config{DB: db, TableName: "rom"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	com, err := NewCOM(Config{DB: db, TableName: "com"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := NewRCV(Config{DB: db, TableName: "rcv"}, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	return []Translator{rom, com, rcv}
}

func num(f float64) sheet.Cell { return sheet.Cell{Value: sheet.Number(f)} }

// cellStore is what the point helpers read and write through: a Translator
// (region-local coordinates) or a HybridStore (absolute ones).
type cellStore interface {
	CellReader
	UpdateCells(ws []CellWrite) error
}

// newCellGrid allocates a rows×cols cell matrix backed by a single flat
// slice.
func newCellGrid(rows, cols int) [][]sheet.Cell {
	cells, _ := GetCells(blankReader{}, sheet.NewRange(1, 1, rows, cols))
	return cells
}

// blankReader is a range read that finds no cell.
type blankReader struct{}

func (blankReader) ReadCells(sheet.Range, func(i, j int, v sheet.Value)) error { return nil }

// getCell is a point read: the 1×1 GetCells.
func getCell(s cellStore, row, col int) (sheet.Cell, error) {
	cells, err := GetCells(s, sheet.NewRange(row, col, row, col))
	if err != nil {
		return sheet.Cell{}, err
	}
	return cells[0][0], nil
}

// setCell is a point write: the one-write UpdateCells.
func setCell(s cellStore, row, col int, c sheet.Cell) error {
	return s.UpdateCells([]CellWrite{{Row: row, Col: col, Cell: c}})
}

// blockWrites lists a block of cells whose top-left cell is at (row, col) as
// one batch, row-major.
func blockWrites(row, col int, cells [][]sheet.Cell) []CellWrite {
	var ws []CellWrite
	for i := range cells {
		for j, c := range cells[i] {
			ws = append(ws, CellWrite{Row: row + i, Col: col + j, Cell: c})
		}
	}
	return ws
}

func TestTranslatorBasicReadWrite(t *testing.T) {
	for _, tr := range newTranslators(t) {
		name := tr.Kind().String()
		if err := setCell(tr, 2, 3, num(7)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := getCell(tr, 2, 3)
		if err != nil || !got.Value.Equal(sheet.Number(7)) {
			t.Fatalf("%s: read = %+v, %v", name, got, err)
		}
		// Unfilled cells are blank.
		got, err = getCell(tr, 1, 1)
		if err != nil || !got.IsBlank() {
			t.Fatalf("%s: blank read = %+v, %v", name, got, err)
		}
		// A formula cell stores its value; its source is the engine's.
		if err := setCell(tr, 1, 1, sheet.Cell{Value: sheet.Number(85), Formula: "SUM(A1:B2)"}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, _ = getCell(tr, 1, 1)
		if got.Formula != "" || !got.Value.Equal(sheet.Number(85)) {
			t.Fatalf("%s: formula cell reads %+v, want its value alone", name, got)
		}
		// Blanking removes.
		if err := setCell(tr, 2, 3, sheet.Cell{}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, _ = getCell(tr, 2, 3)
		if !got.IsBlank() {
			t.Fatalf("%s: blank write did not clear", name)
		}
	}
}

func TestTranslatorGetCells(t *testing.T) {
	for _, tr := range newTranslators(t) {
		name := tr.Kind().String()
		for row := 1; row <= 4; row++ {
			for col := 1; col <= 4; col++ {
				if err := setCell(tr, row, col, num(float64(row*10+col))); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		}
		cells, err := GetCells(tr, sheet.NewRange(2, 2, 3, 4))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(cells) != 2 || len(cells[0]) != 3 {
			t.Fatalf("%s: dims %dx%d", name, len(cells), len(cells[0]))
		}
		if !cells[0][0].Value.Equal(sheet.Number(22)) || !cells[1][2].Value.Equal(sheet.Number(34)) {
			t.Fatalf("%s: contents wrong: %v", name, cells)
		}
	}
}

// TestTranslatorEquivalence drives all three translators through one random
// operation sequence mirrored on a plain sheet.
func TestTranslatorEquivalence(t *testing.T) {
	trs := newTranslators(t)
	ref := sheet.New("ref")
	rng := rand.New(rand.NewSource(77))
	const maxDim = 12

	apply := func(op func(Translator) error, mirror func()) {
		t.Helper()
		for _, tr := range trs {
			if err := op(tr); err != nil {
				t.Fatalf("%s: %v", tr.Kind(), err)
			}
		}
		mirror()
	}

	rows, cols := 8, 8
	// Materialize the full extent first: ROM/COM materialize rows lazily,
	// and structural ops address the logical grid.
	for _, tr := range trs {
		if err := setCell(tr, rows, cols, num(0)); err != nil {
			t.Fatal(err)
		}
		if err := setCell(tr, rows, cols, sheet.Cell{}); err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; step < 600; step++ {
		switch r := rng.Float64(); {
		case r < 0.55: // update
			row, col := rng.Intn(rows)+1, rng.Intn(cols)+1
			c := num(float64(step))
			if rng.Float64() < 0.2 {
				c = sheet.Cell{Value: sheet.Str(fmt.Sprintf("s%d", step)), Formula: "SUM(A1:B2)"}
			}
			if rng.Float64() < 0.1 {
				c = sheet.Cell{}
			}
			apply(
				func(tr Translator) error { return setCell(tr, row, col, c) },
				func() { ref.Set(sheet.Ref{Row: row, Col: col}, c) },
			)
		case r < 0.70 && rows < maxDim: // insert row
			at := rng.Intn(rows + 1)
			apply(
				func(tr Translator) error { return tr.Shift(true, at+1, 1) },
				func() { ref.InsertRowAfter(at); rows++ },
			)
		case r < 0.80 && rows > 2: // delete row
			at := rng.Intn(rows) + 1
			apply(
				func(tr Translator) error { return tr.Shift(true, at, -1) },
				func() { ref.DeleteRow(at); rows-- },
			)
		case r < 0.92 && cols < maxDim: // insert col
			at := rng.Intn(cols + 1)
			apply(
				func(tr Translator) error { return tr.Shift(false, at+1, 1) },
				func() { ref.InsertColumnAfter(at); cols++ },
			)
		case cols > 2: // delete col
			at := rng.Intn(cols) + 1
			apply(
				func(tr Translator) error { return tr.Shift(false, at, -1) },
				func() { ref.DeleteColumn(at); cols-- },
			)
		}
		if step%100 == 99 {
			compareAll(t, trs, ref, rows, cols)
		}
	}
	compareAll(t, trs, ref, rows, cols)
}

func compareAll(t *testing.T, trs []Translator, ref *sheet.Sheet, rows, cols int) {
	t.Helper()
	for _, tr := range trs {
		for row := 1; row <= rows; row++ {
			for col := 1; col <= cols; col++ {
				got, err := getCell(tr, row, col)
				if err != nil {
					t.Fatalf("%s: read (%d,%d): %v", tr.Kind(), row, col, err)
				}
				want := ref.GetRC(row, col)
				if !got.Value.Equal(want.Value) || got.Formula != "" {
					t.Fatalf("%s: cell (%d,%d) = %+v want %+v", tr.Kind(), row, col, got, want)
				}
			}
		}
		// A range read agrees with point reads.
		cells, err := GetCells(tr, sheet.NewRange(1, 1, rows, cols))
		if err != nil {
			t.Fatalf("%s: GetCells: %v", tr.Kind(), err)
		}
		for i := range cells {
			for j := range cells[i] {
				want := ref.GetRC(i+1, j+1)
				if !cells[i][j].Value.Equal(want.Value) {
					t.Fatalf("%s: GetCells(%d,%d) = %+v want %+v", tr.Kind(), i+1, j+1, cells[i][j], want)
				}
			}
		}
	}
}

func TestROMColumnOps(t *testing.T) {
	rom, err := NewROM(testCfg(t, "r"), 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := rom.UpdateCells([]CellWrite{{Row: 1, Col: 1, Cell: num(1)}, {Row: 1, Col: 2, Cell: num(2)}, {Row: 1, Col: 3, Cell: num(3)}}); err != nil {
		t.Fatal(err)
	}
	// Insert between 1 and 2.
	if err := rom.Shift(false, 2, 1); err != nil {
		t.Fatal(err)
	}
	if rom.Cols() != 4 {
		t.Fatalf("Cols = %d", rom.Cols())
	}
	got, _ := getCell(rom, 1, 2)
	if !got.IsBlank() {
		t.Fatalf("inserted column not blank: %+v", got)
	}
	got, _ = getCell(rom, 1, 3)
	if !got.Value.Equal(sheet.Number(2)) {
		t.Fatalf("old column 2 should be at 3: %+v", got)
	}
	// Write into the new column, then delete it.
	if err := setCell(rom, 1, 2, num(99)); err != nil {
		t.Fatal(err)
	}
	if err := rom.Shift(false, 2, -1); err != nil {
		t.Fatal(err)
	}
	got, _ = getCell(rom, 1, 2)
	if !got.Value.Equal(sheet.Number(2)) {
		t.Fatalf("after delete col 2: %+v", got)
	}
	// Cannot delete below one column.
	rom2, _ := NewROM(testCfg(t, "r2"), 1)
	if err := rom2.Shift(false, 1, -1); err == nil {
		t.Fatal("deleting last column must fail")
	}
}

// One cell written to a 256-column row decodes the tuple into, and encodes it
// from, buffers the region and its heap keep: what is left per write is the
// batch's row grouping (two small slices), not a decoded copy of the row and a
// fresh encoding of it.
func TestROMCellWriteReusesRowBuffers(t *testing.T) {
	rom, err := NewROM(testCfg(t, "wide"), 256)
	if err != nil {
		t.Fatal(err)
	}
	cells := newCellGrid(4, 256)
	for i := range cells {
		for c := range cells[i] {
			cells[i][c] = num(float64(i*256 + c))
		}
	}
	if err := rom.UpdateCells(blockWrites(1, 1, cells)); err != nil {
		t.Fatal(err)
	}
	ws := []CellWrite{{Row: 2, Col: 100, Cell: num(1.5)}}
	if n := testing.AllocsPerRun(100, func() {
		if err := rom.UpdateCells(ws); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Fatalf("one cell write to a 256-column row: %v allocations, want at most 2", n)
	}
	if c, err := getCell(rom, 2, 100); err != nil || !c.Value.Equal(sheet.Number(1.5)) {
		t.Fatalf("the written cell reads %v, %v", c, err)
	}
}

func TestROMBoundsErrors(t *testing.T) {
	rom, _ := NewROM(testCfg(t, "r"), 2)
	if err := setCell(rom, 1, 5, num(1)); err == nil {
		t.Fatal("column out of range must error")
	}
	if err := setCell(rom, 0, 1, num(1)); err == nil {
		t.Fatal("row 0 must error")
	}
	if rom.Rows() != 0 {
		t.Fatalf("refused writes materialized %d rows", rom.Rows())
	}
	if err := rom.Shift(true, 6, 1); err == nil {
		t.Fatal("insert beyond extent must error")
	}
	if err := rom.Shift(true, 1, -1); err == nil {
		t.Fatal("delete of missing row must error")
	}
	if _, err := NewROM(testCfg(t, "r0"), 0); err == nil {
		t.Fatal("zero-column ROM must fail")
	}
	if _, err := NewROM(Config{}, 2); err == nil {
		t.Fatal("missing DB must fail")
	}
}

func TestRCVSparseStorageProportionalToCells(t *testing.T) {
	db := rdbms.Open(rdbms.Options{})
	rcv, _ := NewRCV(Config{DB: db, TableName: "sparse"}, 10000, 100)
	// 20 cells scattered in a 10000x100 region.
	for i := 0; i < 20; i++ {
		if err := setCell(rcv, i*500+1, i*5+1, num(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if rcv.CellCount() != 20 {
		t.Fatalf("CellCount = %d", rcv.CellCount())
	}
	// One page of tuples plus catalog and index: far less than a ROM of the
	// same extent would need.
	if rcv.StorageBytes() > 3*8192 {
		t.Fatalf("sparse RCV storage = %d bytes", rcv.StorageBytes())
	}
}

func TestTOMLinkedTable(t *testing.T) {
	db := rdbms.Open(rdbms.Options{})
	db.MustExec("CREATE TABLE invoice (invid BIGINT, amount DOUBLE, memo TEXT)")
	db.MustExec("INSERT INTO invoice VALUES (1, 100.0, 'a'), (2, 250.5, 'b')")
	tom, err := LinkTOM(db.Table("invoice"), true)
	if err != nil {
		t.Fatal(err)
	}

	if tom.Rows() != 3 || tom.Cols() != 3 {
		t.Fatalf("dims = %dx%d", tom.Rows(), tom.Cols())
	}
	// Header row.
	h, err := getCell(tom, 1, 2)
	if err != nil || h.Value.Text() != "amount" {
		t.Fatalf("header = %+v, %v", h, err)
	}
	// Data row.
	c, _ := getCell(tom, 2, 2)
	if !c.Value.Equal(sheet.Number(100)) {
		t.Fatalf("data = %+v", c)
	}

	// Spreadsheet edit flows into the table (two-way sync).
	if err := setCell(tom, 2, 2, num(175)); err != nil {
		t.Fatal(err)
	}
	r := db.MustExec("SELECT amount FROM invoice WHERE invid = 1")
	if r.Rows[0][0].Float64() != 175 {
		t.Fatalf("update did not reach table: %v", r.Rows)
	}

	// Type checking, each refusal behind a valid write it must keep out.
	for _, bad := range []CellWrite{
		{Row: 2, Col: 1, Cell: sheet.Cell{Value: sheet.Str("oops")}}, // non-integer into BIGINT
		{Row: 1, Col: 1, Cell: num(1)},                               // the header row is read-only
		{Row: 2, Col: 2, Cell: sheet.Cell{Formula: "SUM(A1)"}},       // no formulas in linked regions
		{Row: 5, Col: 2, Cell: num(1)},                               // past the table's rows
	} {
		if err := tom.UpdateCells([]CellWrite{{Row: 3, Col: 2, Cell: num(-1)}, bad}); err == nil {
			t.Fatalf("write %+v must be refused", bad)
		}
		if c, _ := getCell(tom, 3, 2); !c.Value.Equal(sheet.Number(250.5)) {
			t.Fatalf("refused batch %+v wrote %+v", bad, c)
		}
	}

	// Row insert adds a NULL tuple; row delete removes a tuple.
	if err := tom.Shift(true, 4, 1); err != nil {
		t.Fatal(err)
	}
	if db.Table("invoice").RowCount() != 3 {
		t.Fatal("insert did not reach table")
	}
	if err := tom.Shift(true, 4, -1); err != nil {
		t.Fatal(err)
	}
	if db.Table("invoice").RowCount() != 2 {
		t.Fatal("delete did not reach table")
	}
	// Schema is fixed.
	if err := tom.Shift(false, 2, 1); err == nil {
		t.Fatal("TOM column insert must fail")
	}

	// External DML + Refresh.
	db.MustExec("INSERT INTO invoice VALUES (9, 9.0, 'ext')")
	if err := tom.Refresh(); err != nil {
		t.Fatal(err)
	}
	if tom.Rows() != 4 {
		t.Fatalf("Refresh missed external insert: rows = %d", tom.Rows())
	}
}

// TestUpdateCellsBlockEquivalence: one UpdateCells of a block must produce
// exactly the state of one write per cell, for every translator, whatever
// order the batch lists its rows in and with the last write to a cell
// winning.
func TestUpdateCellsBlockEquivalence(t *testing.T) {
	for _, tr := range newTranslators(t) {
		// Materialize a 6x6 extent.
		if err := setCell(tr, 6, 6, num(0)); err != nil {
			t.Fatal(err)
		}
		g := sheet.NewRange(2, 2, 5, 4)
		cells := newCellGrid(g.Rows(), g.Cols())
		for i := range cells {
			for j := range cells[i] {
				cells[i][j] = num(float64(i*10 + j))
			}
		}
		// Bottom row first, each cell after a write it overrides.
		var ws []CellWrite
		for _, w := range slices.Backward(blockWrites(g.From.Row, g.From.Col, cells)) {
			ws = append(ws, CellWrite{Row: w.Row, Col: w.Col, Cell: num(-1)}, w)
		}
		if err := tr.UpdateCells(ws); err != nil {
			t.Fatalf("%s: %v", tr.Kind(), err)
		}
		for i := 0; i < g.Rows(); i++ {
			for j := 0; j < g.Cols(); j++ {
				got, err := getCell(tr, g.From.Row+i, g.From.Col+j)
				if err != nil || !got.Value.Equal(cells[i][j].Value) {
					t.Fatalf("%s: cell (%d,%d) = %+v, %v", tr.Kind(), g.From.Row+i, g.From.Col+j, got, err)
				}
			}
		}
		// Blank cells in the block clear existing content.
		if err := tr.UpdateCells(blockWrites(g.From.Row, g.From.Col, newCellGrid(g.Rows(), g.Cols()))); err != nil {
			t.Fatalf("%s: %v", tr.Kind(), err)
		}
		got, _ := getCell(tr, 2, 2)
		if !got.IsBlank() {
			t.Fatalf("%s: blank block did not clear", tr.Kind())
		}
	}
}

// TestUpdateCellsBounds: a batch with a write outside the region is refused
// whole — the valid writes before it land nowhere, and no row materializes.
func TestUpdateCellsBounds(t *testing.T) {
	rom, _ := NewROM(testCfg(t, "r"), 3)
	ws := blockWrites(1, 1, [][]sheet.Cell{{num(1), num(2), num(3), num(4), num(5)}}) // 5 columns > 3
	if err := rom.UpdateCells(ws); err == nil {
		t.Fatal("an out-of-range write must error")
	}
	if rom.Rows() != 0 {
		t.Fatalf("a refused batch materialized %d rows", rom.Rows())
	}
}
