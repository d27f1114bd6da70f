package model

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dataspread/internal/hybrid"
	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
)

func buildSheet() *sheet.Sheet {
	s := sheet.New("t")
	for row := 1; row <= 6; row++ {
		for col := 2; col <= 5; col++ {
			s.SetValue(row, col, sheet.Number(float64(row*100+col)))
		}
	}
	for row := 10; row <= 12; row++ {
		for col := 1; col <= 3; col++ {
			s.SetValue(row, col, sheet.Number(float64(row*100+col)))
		}
	}
	s.SetValue(2, 9, sheet.Str("stray1"))
	s.SetValue(8, 8, sheet.Str("stray2"))
	return s
}

func materialized(t *testing.T, s *sheet.Sheet, algo string) *HybridStore {
	t.Helper()
	d, err := hybrid.Decompose(s, algo, hybrid.Options{Params: hybrid.PostgresCost, Models: hybrid.AllModels})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Verify(s); err != nil {
		t.Fatal(err)
	}
	hs, err := Materialize(rdbms.Open(rdbms.Options{}), "hs", "hierarchical", s, d)
	if err != nil {
		t.Fatal(err)
	}
	return hs
}

func assertStoreMatchesSheet(t *testing.T, hs *HybridStore, s *sheet.Sheet) {
	t.Helper()
	box, ok := s.Bounds()
	if !ok {
		return
	}
	snap, err := hs.Snapshot("snap", box)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Len() != s.Len() {
		t.Fatalf("store holds %d cells, sheet %d", snap.Len(), s.Len())
	}
	mismatch := false
	s.Each(func(r sheet.Ref, c sheet.Cell) {
		got := snap.Get(r)
		if !got.Value.Equal(c.Value) || got.Formula != c.Formula {
			mismatch = true
		}
	})
	if mismatch {
		t.Fatal("store contents diverge from sheet")
	}
}

func TestMaterializeRoundTrip(t *testing.T) {
	for _, algo := range []string{"dp", "agg", "rom", "rcv"} {
		s := buildSheet()
		hs := materialized(t, s, algo)
		assertStoreMatchesSheet(t, hs, s)
	}
}

func TestHybridStorePointOps(t *testing.T) {
	s := buildSheet()
	hs := materialized(t, s, "agg")
	// In-region update.
	if err := setCell(hs, 3, 3, num(999)); err != nil {
		t.Fatal(err)
	}
	got, err := getCell(hs, 3, 3)
	if err != nil || !got.Value.Equal(sheet.Number(999)) {
		t.Fatalf("read = %+v, %v", got, err)
	}
	// Out-of-region update goes to overflow.
	if err := setCell(hs, 50, 50, num(123)); err != nil {
		t.Fatal(err)
	}
	got, _ = getCell(hs, 50, 50)
	if !got.Value.Equal(sheet.Number(123)) {
		t.Fatalf("overflow Get = %+v", got)
	}
	if hs.overflow.CellCount() == 0 {
		t.Fatal("overflow should hold the stray cell")
	}
}

func TestHybridStoreStructuralOps(t *testing.T) {
	s := buildSheet()
	hs := materialized(t, s, "agg")
	// Mirror on the plain sheet and compare after each operation.
	ops := []struct {
		name  string
		store func() error
		mirr  func()
	}{
		{"insertRow4", func() error { return hs.Shift(true, 5, 1) }, func() { s.InsertRowAfter(4) }},
		{"insertRow0", func() error { return hs.Shift(true, 1, 1) }, func() { s.InsertRowAfter(0) }},
		{"deleteRow2", func() error { return hs.Shift(true, 2, -1) }, func() { s.DeleteRow(2) }},
		{"insertCol2", func() error { return hs.Shift(false, 3, 1) }, func() { s.InsertColumnAfter(2) }},
		{"deleteCol4", func() error { return hs.Shift(false, 4, -1) }, func() { s.DeleteColumn(4) }},
		{"deleteRow1", func() error { return hs.Shift(true, 1, -1) }, func() { s.DeleteRow(1) }},
	}
	for _, op := range ops {
		if err := op.store(); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		op.mirr()
		assertStoreMatchesSheet(t, hs, s)
	}
}

// TestHybridStoreRandomizedStructural drives the store through random cell
// writes and band edits of 1..8 rows or columns under every layout, with one
// linked TOM region (header row shown) beside the sheet, against the plain
// sheet as reference. Bands may cover whole regions (which then drop) and
// may hit the linked region where it refuses; a refused edit must leave the
// store's regions and cells exactly as they were.
func TestHybridStoreRandomizedStructural(t *testing.T) {
	for li, algo := range []string{"rom", "com", "rcv", "dp", "agg"} {
		t.Run(algo, func(t *testing.T) {
			s := buildSheet()
			hs := materialized(t, s, algo)
			linkTestTable(t, hs, s, sheet.NewRange(4, 11, 7, 12))
			rng := rand.New(rand.NewSource(int64(4 + li)))
			refused := 0
			for step := 0; step < 150; step++ {
				box, _ := s.Bounds()
				var tom sheet.Range
				for _, reg := range hs.Regions() {
					if reg.Kind == hybrid.TOM {
						tom = reg.Rect
					}
				}
				rows := rng.Intn(2) == 0
				extent, tf, tt := box.To.Col, tom.From.Col, tom.To.Col
				if rows {
					extent, tf, tt = box.To.Row, tom.From.Row, tom.To.Row
				}
				k := rng.Intn(8) + 1
				var at, delta int
				var mirror func()
				var refuse bool
				switch r := rng.Float64(); {
				case r < 0.35:
					row, col := rng.Intn(box.To.Row+2)+1, rng.Intn(box.To.Col+2)+1
					if tom.Contains(sheet.Ref{Row: row, Col: col}) {
						continue // linked cells are typed table data, covered elsewhere
					}
					c := num(float64(step))
					if err := setCell(hs, row, col, c); err != nil {
						t.Fatalf("step %d: update(%d,%d): %v", step, row, col, err)
					}
					s.Set(sheet.Ref{Row: row, Col: col}, c)
					continue
				case r < 0.65:
					at, delta = rng.Intn(extent+1)+1, k
					refuse = !rows && tf < at && at <= tt
					mirror = func() {
						for i := 0; i < k; i++ {
							if rows {
								s.InsertRowAfter(at - 1)
							} else {
								s.InsertColumnAfter(at - 1)
							}
						}
					}
				default:
					at, delta = rng.Intn(extent)+1, -k
					last := at + k - 1
					refuse = at <= tt && tf <= last && (!rows || at <= tf)
					mirror = func() {
						for i := 0; i < k; i++ {
							if rows {
								s.DeleteRow(at)
							} else {
								s.DeleteColumn(at)
							}
						}
					}
				}
				label := fmt.Sprintf("step %d: Shift(rows=%v, %d, %d)", step, rows, at, delta)
				before := hs.Regions()
				err := hs.Shift(rows, at, delta)
				switch {
				case refuse && err == nil:
					t.Fatalf("%s: crosses linked %v, want a refusal", label, tom)
				case !refuse && err != nil:
					t.Fatalf("%s: %v", label, err)
				case refuse:
					refused++
					if got := hs.Regions(); !reflect.DeepEqual(got, before) {
						t.Fatalf("%s: refused edit moved regions %v -> %v", label, before, got)
					}
					assertStoreMatchesSheet(t, hs, s)
					continue
				}
				mirror()
				if step%10 == 9 {
					assertStoreMatchesSheet(t, hs, s)
				}
			}
			assertStoreMatchesSheet(t, hs, s)
			if refused == 0 {
				t.Fatal("no edit hit the linked region's refusals")
			}
		})
	}
}

// linkTestTable links a fresh text table at rect (header row shown, one
// column per rect column, a data row per remaining rect row) and mirrors
// its rendering into the reference sheet.
func linkTestTable(t *testing.T, hs *HybridStore, s *sheet.Sheet, rect sheet.Range) {
	t.Helper()
	schema := rdbms.Schema{}
	for j := 0; j < rect.Cols(); j++ {
		name := fmt.Sprintf("a%d", j)
		schema.Cols = append(schema.Cols, rdbms.Column{Name: name, Type: rdbms.DTText})
		s.SetValue(rect.From.Row, rect.From.Col+j, sheet.Str(name))
	}
	table, err := hs.db.CreateTable("linked", schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < rect.Rows(); i++ {
		row := make(rdbms.Row, rect.Cols())
		for j := range row {
			v := fmt.Sprintf("t%d_%d", i, j)
			row[j] = rdbms.Text(v)
			s.SetValue(rect.From.Row+i, rect.From.Col+j, sheet.Str(v))
		}
		if _, err := table.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := hs.LinkTable(rect, table, true); err != nil {
		t.Fatal(err)
	}
}

func TestAddRegionOverlapRejected(t *testing.T) {
	hs, err := NewHybridStore(rdbms.Open(rdbms.Options{}), "hs", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hs.AddRegion(sheet.NewRange(1, 1, 5, 5), hybrid.ROM); err != nil {
		t.Fatal(err)
	}
	if _, err := hs.AddRegion(sheet.NewRange(5, 5, 9, 9), hybrid.COM); err == nil {
		t.Fatal("overlapping region must be rejected")
	}
	if _, err := hs.AddRegion(sheet.NewRange(6, 6, 9, 9), hybrid.RCV); err != nil {
		t.Fatal(err)
	}
	if got := len(hs.Regions()); got != 2 {
		t.Fatalf("regions = %d", got)
	}
}

// TestHybridStoreRefusedShiftLeavesStoreIntact: a row delete whose band
// covers two ROM regions and a linked region's header row is refused whole.
// Before the refusal was decided up front, the covered region was already
// dropped (its table gone), the second had lost two rows, and the region list,
// compacted in place, held one translator twice.
func TestHybridStoreRefusedShiftLeavesStoreIntact(t *testing.T) {
	db := rdbms.Open(rdbms.Options{})
	hs, err := NewHybridStore(db, "hs", "")
	if err != nil {
		t.Fatal(err)
	}
	for _, rect := range []sheet.Range{sheet.NewRange(1, 1, 2, 2), sheet.NewRange(1, 4, 5, 5)} {
		if _, err := hs.AddRegion(rect, hybrid.ROM); err != nil {
			t.Fatal(err)
		}
		for r := rect.From.Row; r <= rect.To.Row; r++ {
			for c := rect.From.Col; c <= rect.To.Col; c++ {
				if err := setCell(hs, r, c, num(float64(r*10+c))); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	linkTestTable(t, hs, sheet.New("ref"), sheet.NewRange(2, 8, 3, 8))
	if err := setCell(hs, 9, 1, num(91)); err != nil { // an overflow cell below the band
		t.Fatal(err)
	}
	bounds := sheet.NewRange(1, 1, 12, 10)
	read := func() [][]sheet.Cell {
		cells, err := hs.GetCells(bounds)
		if err != nil {
			t.Fatal(err)
		}
		return cells
	}
	regions, tables, cells := hs.Regions(), db.TableNames(), read()
	if err := hs.DeleteRows(1, 2); err == nil {
		t.Fatal("a row delete covering a linked header row must be refused")
	}
	if got := hs.Regions(); !reflect.DeepEqual(got, regions) {
		t.Fatalf("regions after refusal %v, want %v", got, regions)
	}
	if got := db.TableNames(); !reflect.DeepEqual(got, tables) {
		t.Fatalf("tables after refusal %v, want %v", got, tables)
	}
	assertSameGrid(t, "after refusal", read(), cells)
}

// TestHybridStoreRefusedWriteTouchesNothing: a batch the store refuses writes
// nothing anywhere. Each batch writes a ROM region, the overflow and a linked
// region's data row before its refused write — the linked header row, a
// formula in a linked row, a value the linked column's type rejects, an
// overflow column past the RCV's surrogate capacity. Before the refusals were
// decided up front, the writes ahead of the refused one stayed in the tables,
// and the far column had grown the overflow by 2^20 column surrogates.
func TestHybridStoreRefusedWriteTouchesNothing(t *testing.T) {
	db := rdbms.Open(rdbms.Options{})
	db.MustExec("CREATE TABLE supp (suppid BIGINT, name TEXT)")
	db.MustExec("INSERT INTO supp VALUES (1,'Acme'),(2,'Globex')")
	hs, err := NewHybridStore(db, "hs", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hs.AddRegion(sheet.NewRange(1, 1, 4, 3), hybrid.ROM); err != nil {
		t.Fatal(err)
	}
	if _, err := hs.LinkTable(sheet.NewRange(2, 6, 4, 7), db.Table("supp"), true); err != nil {
		t.Fatal(err)
	}
	if err := hs.UpdateCells([]CellWrite{{Row: 2, Col: 2, Cell: num(22)}, {Row: 8, Col: 8, Cell: num(88)}}); err != nil {
		t.Fatal(err)
	}
	bounds := sheet.NewRange(1, 1, 10, 10)
	state := func() ([][]sheet.Cell, map[string]string) {
		t.Helper()
		if err := hs.SaveManifest(); err != nil {
			t.Fatal(err)
		}
		cells, err := hs.GetCells(bounds)
		if err != nil {
			t.Fatal(err)
		}
		meta := make(map[string]string)
		for _, k := range db.MetaKeys(storeMetaKey) {
			blob, _, err := db.MetaValue(k)
			if err != nil {
				t.Fatal(err)
			}
			meta[k] = string(blob)
		}
		return cells, meta
	}
	cells, meta := state()
	overflowCols := hs.overflow.Cols()
	valid := []CellWrite{
		{Row: 2, Col: 2, Cell: sheet.Cell{Value: sheet.Str("rom")}},       // a ROM region
		{Row: 8, Col: 8, Cell: sheet.Cell{Value: sheet.Str("overflow")}},  // the overflow
		{Row: 3, Col: 7, Cell: sheet.Cell{Value: sheet.Str("Acme Corp")}}, // a linked data row
	}
	for _, tc := range []struct {
		name string
		bad  CellWrite
	}{
		{"header row", CellWrite{Row: 2, Col: 6, Cell: num(9)}},
		{"formula", CellWrite{Row: 4, Col: 7, Cell: sheet.Cell{Value: sheet.Number(1), Formula: "B2+1"}}},
		{"type", CellWrite{Row: 4, Col: 6, Cell: sheet.Cell{Value: sheet.Str("oops")}}},
		{"far column", CellWrite{Row: 1, Col: 1 << 20, Cell: sheet.Cell{Value: sheet.Str("x")}}},
	} {
		if err := hs.UpdateCells(append(slices.Clone(valid), tc.bad)); err == nil {
			t.Fatalf("%s: write %+v accepted", tc.name, tc.bad)
		}
		if got := hs.overflow.Cols(); got != overflowCols {
			t.Fatalf("%s: the overflow grew from %d to %d columns", tc.name, overflowCols, got)
		}
		gotCells, gotMeta := state()
		assertSameGrid(t, tc.name, gotCells, cells)
		if !reflect.DeepEqual(gotMeta, meta) {
			t.Fatalf("%s: the refused batch changed the store manifest", tc.name)
		}
	}
	// The valid writes alone land, each where the batch put it.
	if err := hs.UpdateCells(valid); err != nil {
		t.Fatal(err)
	}
	for _, w := range valid {
		if got, _ := getCell(hs, w.Row, w.Col); !got.Value.Equal(w.Cell.Value) {
			t.Fatalf("(%d,%d) = %+v after the valid batch", w.Row, w.Col, got)
		}
	}
}

func TestHybridStoreLinkTable(t *testing.T) {
	db := rdbms.Open(rdbms.Options{})
	db.MustExec("CREATE TABLE supp (suppid BIGINT, name TEXT)")
	db.MustExec("INSERT INTO supp VALUES (1,'Acme'),(2,'Globex')")
	hs, err := NewHybridStore(db, "hs", "")
	if err != nil {
		t.Fatal(err)
	}
	// Width mismatch.
	if _, err := hs.LinkTable(sheet.NewRange(1, 1, 3, 5), db.Table("supp"), true); err == nil {
		t.Fatal("width mismatch must fail")
	}
	tom, err := hs.LinkTable(sheet.NewRange(1, 1, 3, 2), db.Table("supp"), true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := getCell(hs, 2, 2)
	if err != nil || got.Value.Text() != "Acme" {
		t.Fatalf("linked read = %+v, %v", got, err)
	}
	// Edit through the store reaches the table.
	if err := setCell(hs, 2, 2, sheet.Cell{Value: sheet.Str("Acme Corp")}); err != nil {
		t.Fatal(err)
	}
	r := db.MustExec("SELECT name FROM supp WHERE suppid = 1")
	if r.Rows[0][0].Str() != "Acme Corp" {
		t.Fatalf("table did not see edit: %v", r.Rows)
	}
	_ = tom
}

func TestStorageBytesDenseVsSparse(t *testing.T) {
	// The paper's core storage claim: for a dense region ROM beats RCV; for
	// a sparse region RCV beats ROM. Verify on actual materialized bytes,
	// not just the analytic cost model.
	dense := sheet.New("dense")
	for row := 1; row <= 200; row++ {
		for col := 1; col <= 20; col++ {
			dense.SetValue(row, col, sheet.Number(float64(row+col)))
		}
	}
	sparse := sheet.New("sparse")
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		sparse.SetValue(rng.Intn(1000)+1, rng.Intn(100)+1, sheet.Number(1))
	}

	measure := func(s *sheet.Sheet, algo string) int64 {
		d, err := hybrid.Decompose(s, algo, hybrid.Options{Params: hybrid.PostgresCost})
		if err != nil {
			t.Fatal(err)
		}
		hs, err := Materialize(rdbms.Open(rdbms.Options{}), "m", "hierarchical", s, d)
		if err != nil {
			t.Fatal(err)
		}
		return hs.StorageBytes()
	}
	if romB, rcvB := measure(dense, "rom"), measure(dense, "rcv"); romB >= rcvB {
		t.Fatalf("dense: ROM %d bytes should beat RCV %d bytes", romB, rcvB)
	}
	if romB, rcvB := measure(sparse, "rom"), measure(sparse, "rcv"); rcvB >= romB {
		t.Fatalf("sparse: RCV %d bytes should beat ROM %d bytes", rcvB, romB)
	}
}
