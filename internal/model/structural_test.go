package model

import (
	"fmt"
	"testing"

	"dataspread/internal/hybrid"
	"dataspread/internal/posmap"
	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
)

// buildTranslator materializes a rows×cols region of the given kind filled
// with distinguishable values.
func buildTranslator(t *testing.T, db *rdbms.DB, kind, scheme, name string, rows, cols int) Translator {
	t.Helper()
	cfg := Config{DB: db, Scheme: scheme, TableName: name}
	var tr Translator
	switch kind {
	case "rom":
		rom, err := NewROM(cfg, cols)
		if err != nil {
			t.Fatal(err)
		}
		if err := rom.Shift(true, 1, rows); err != nil {
			t.Fatal(err)
		}
		tr = rom
	case "com":
		com, err := NewCOM(cfg, rows)
		if err != nil {
			t.Fatal(err)
		}
		if err := com.Shift(false, 1, cols); err != nil {
			t.Fatal(err)
		}
		tr = com
	case "rcv":
		rcv, err := NewRCV(cfg, rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		tr = rcv
	case "tom":
		schema := rdbms.Schema{}
		for j := 0; j < cols; j++ {
			schema.Cols = append(schema.Cols, rdbms.Column{Name: fmt.Sprintf("a%d", j), Type: rdbms.DTText})
		}
		table, err := db.CreateTable(name, schema)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			if _, err := table.Insert(make(rdbms.Row, cols)); err != nil {
				t.Fatal(err)
			}
		}
		if tr, err = LinkTOM(table, scheme, false); err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("unknown kind %q", kind)
	}
	cells := newCellGrid(rows, cols)
	for i := range cells {
		for j := range cells[i] {
			cells[i][j] = sheet.Cell{Value: sheet.Str(fmt.Sprintf("v%d_%d", i+1, j+1))}
		}
	}
	if err := tr.UpdateCells(blockWrites(1, 1, cells)); err != nil {
		t.Fatal(err)
	}
	return tr
}

func translatorSnapshot(t *testing.T, tr Translator) [][]sheet.Cell {
	t.Helper()
	if tr.Rows() == 0 || tr.Cols() == 0 {
		return nil
	}
	cells, err := GetCells(tr, sheet.NewRange(1, 1, tr.Rows(), tr.Cols()))
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

func assertSameGrid(t *testing.T, label string, a, b [][]sheet.Cell) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d rows", label, len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("%s: row %d: %d vs %d cols", label, i+1, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if !a[i][j].Value.Equal(b[i][j].Value) || a[i][j].Formula != b[i][j].Formula {
				t.Fatalf("%s: (%d,%d): %+v vs %+v", label, i+1, j+1, a[i][j], b[i][j])
			}
		}
	}
}

// shiftOnes applies k single-row (or -column) Shifts of sign delta at the
// same index: the loop a batched Shift(rows, at, k*delta) must equal.
func shiftOnes(t *testing.T, label string, tr interface{ Shift(bool, int, int) error }, rows bool, at, delta, k int) {
	t.Helper()
	for i := 0; i < k; i++ {
		if err := tr.Shift(rows, at, delta); err != nil {
			t.Fatalf("%s: single shift %d of %d: %v", label, i+1, k, err)
		}
	}
}

// TestTranslatorBatchedEquivalence: for every translator kind × positional
// scheme, Shift(rows, at, ±k) must equal k× Shift(rows, at, ±1), on the row
// axis and (where supported) the column axis.
func TestTranslatorBatchedEquivalence(t *testing.T) {
	const rows, cols, k = 9, 4, 3
	for _, scheme := range posmap.Schemes() {
		for _, kind := range []string{"rom", "com", "rcv", "tom"} {
			for _, at := range []int{1, 5, rows + 1} {
				db := rdbms.Open(rdbms.Options{})
				batched := buildTranslator(t, db, kind, scheme, "b", rows, cols)
				looped := buildTranslator(t, db, kind, scheme, "l", rows, cols)
				label := fmt.Sprintf("%s/%s insert before %d", kind, scheme, at)

				if err := batched.Shift(true, at, k); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				shiftOnes(t, label, looped, true, at, 1, k)
				assertSameGrid(t, label, translatorSnapshot(t, batched), translatorSnapshot(t, looped))

				// Round trip: delete the inserted band, back to the start.
				if err := batched.Shift(true, at, -k); err != nil {
					t.Fatalf("%s: round-trip delete: %v", label, err)
				}
				fresh := buildTranslator(t, db, kind, scheme, fmt.Sprintf("f%d", at), rows, cols)
				assertSameGrid(t, label+" round-trip", translatorSnapshot(t, batched), translatorSnapshot(t, fresh))

				// Batched delete vs k single deletes of interior rows.
				if err := batched.Shift(true, 2, -k); err != nil {
					t.Fatalf("%s: batched delete: %v", label, err)
				}
				shiftOnes(t, label, looped, true, at, -1, k) // remove the inserted band first
				shiftOnes(t, label, looped, true, 2, -1, k)
				assertSameGrid(t, label+" delete", translatorSnapshot(t, batched), translatorSnapshot(t, looped))

				if kind == "tom" {
					continue // fixed schema: no column edits
				}
				if err := batched.Shift(false, 2, 2); err != nil {
					t.Fatalf("%s: cols: %v", label, err)
				}
				shiftOnes(t, label+" cols", looped, false, 2, 1, 2)
				assertSameGrid(t, label+" inscols", translatorSnapshot(t, batched), translatorSnapshot(t, looped))
				if err := batched.Shift(false, 2, -2); err != nil {
					t.Fatalf("%s: delcols: %v", label, err)
				}
				shiftOnes(t, label+" delcols", looped, false, 2, -1, 2)
				assertSameGrid(t, label+" delcols", translatorSnapshot(t, batched), translatorSnapshot(t, looped))
			}
		}
	}
}

// TestHybridStoreBatchedBandArithmetic: a multi-region store under batched
// edits whose bands partially overlap, cover, and miss regions must match
// the equivalent loop of single-row Shifts.
func TestHybridStoreBatchedBandArithmetic(t *testing.T) {
	build := func(name string, db *rdbms.DB) *HybridStore {
		hs, err := NewHybridStore(db, name, "hierarchical")
		if err != nil {
			t.Fatal(err)
		}
		// Two disjoint regions with a gap, plus overflow cells.
		if _, err := hs.AddRegion(sheet.NewRange(2, 1, 5, 3), hybrid.ROM); err != nil {
			t.Fatal(err)
		}
		if _, err := hs.AddRegion(sheet.NewRange(8, 1, 12, 3), hybrid.ROM); err != nil {
			t.Fatal(err)
		}
		cells := newCellGrid(14, 4)
		for i := range cells {
			for j := range cells[i] {
				cells[i][j] = sheet.Cell{Value: sheet.Number(float64((i+1)*10 + j + 1))}
			}
		}
		if err := hs.UpdateCells(blockWrites(1, 1, cells)); err != nil {
			t.Fatal(err)
		}
		return hs
	}
	snapshot := func(hs *HybridStore) [][]sheet.Cell {
		cells, err := hs.GetCells(sheet.NewRange(1, 1, 20, 5))
		if err != nil {
			t.Fatal(err)
		}
		return cells
	}
	for _, tc := range []struct{ at, k int }{{4, 4}, {7, 2}, {2, 3}, {10, 6}} {
		dbA, dbB := rdbms.Open(rdbms.Options{}), rdbms.Open(rdbms.Options{})
		a, b := build("a", dbA), build("b", dbB)
		label := fmt.Sprintf("store insert before %d x%d", tc.at, tc.k)
		if err := a.Shift(true, tc.at, tc.k); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		shiftOnes(t, label, b, true, tc.at, 1, tc.k)
		assertSameGrid(t, label, snapshot(a), snapshot(b))

		// Now delete a band that straddles region boundaries.
		label = fmt.Sprintf("store delete at %d x%d", tc.at, tc.k)
		if err := a.Shift(true, tc.at, -tc.k); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		shiftOnes(t, label, b, true, tc.at, -1, tc.k)
		assertSameGrid(t, label, snapshot(a), snapshot(b))
	}
}

// TestTOMDeleteRowsOutOfRangeLeavesStateIntact: a band exceeding the linked
// table must fail without mutating the positional map or leaking tuples
// (regression: DeleteMany used to clip and mutate before the error).
func TestTOMDeleteRowsOutOfRangeLeavesStateIntact(t *testing.T) {
	db := rdbms.Open(rdbms.Options{})
	tr := buildTranslator(t, db, "tom", "hierarchical", "tomrange", 10, 3)
	before := translatorSnapshot(t, tr)
	if err := tr.Shift(true, 5, -100); err == nil {
		t.Fatal("out-of-range row delete must error")
	}
	if err := tr.Shift(true, 0, -2); err == nil {
		t.Fatal("row delete at 0 must error")
	}
	if tr.Rows() != 10 {
		t.Fatalf("Rows = %d after failed deletes, want 10", tr.Rows())
	}
	assertSameGrid(t, "tom failed delete", before, translatorSnapshot(t, tr))
}
