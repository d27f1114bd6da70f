package model

import (
	"errors"
	"path/filepath"
	"testing"

	"dataspread/internal/hybrid"
	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
)

// reopenCorrupting saves the store build makes, reopens its file with a
// one-page buffer pool and reads warm, so that the pool holds warm's page and
// no other. From then on every data-file read flips a bit: each page the pool
// does not hold reads as corrupt.
func reopenCorrupting(t *testing.T, build func(db *rdbms.DB, hs *HybridStore), warm sheet.Range) *HybridStore {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fault.dsdb")
	db, err := rdbms.OpenFile(path, rdbms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hs, err := NewHybridStore(db, "f")
	if err != nil {
		t.Fatal(err)
	}
	build(db, hs)
	if err := hs.SaveManifest(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	fs := rdbms.NewFaultSchedule(1)
	db, err = rdbms.OpenFile(path, rdbms.Options{BufferPoolPages: 1, Faults: fs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.SimulateCrash() })
	if hs, err = LoadHybridStore(db, "f"); err != nil {
		t.Fatal(err)
	}
	if _, err := hs.GetCells(warm); err != nil {
		t.Fatal(err)
	}
	fs.Arm(rdbms.FaultRule{File: rdbms.FaultFileData, Op: rdbms.FaultRead, Kind: rdbms.FaultBitFlip, Count: -1})
	return hs
}

// TestFaultCorruptPageFailsWrites: a write whose tuple lies on a page that
// cannot be read fails with the page's own cause (ErrChecksum) — not as a
// dangling pointer, and not as a success that dropped the cell.
func TestFaultCorruptPageFailsWrites(t *testing.T) {
	const rows = 400 // a few heap pages of four-number rows
	romSheet := func(_ *rdbms.DB, hs *HybridStore) {
		if _, err := hs.AddRegion(sheet.NewRange(1, 1, rows, 4), hybrid.ROM); err != nil {
			t.Fatal(err)
		}
		cells := newCellGrid(rows, 4)
		for i := range cells {
			for j := range cells[i] {
				cells[i][j] = sheet.Cell{Value: sheet.Number(float64(i*10 + j))}
			}
		}
		if err := hs.UpdateCells(blockWrites(1, 1, cells)); err != nil {
			t.Fatal(err)
		}
	}
	lastRow := sheet.NewRange(rows, 1, rows, 4)
	one := sheet.Cell{Value: sheet.Number(1)}

	t.Run("ROM write", func(t *testing.T) {
		hs := reopenCorrupting(t, romSheet, lastRow)
		if err := setCell(hs, 1, 1, one); !errors.Is(err, rdbms.ErrChecksum) {
			t.Fatalf("write to a row on a corrupt page = %v, want ErrChecksum", err)
		}
	})
	t.Run("row-band delete", func(t *testing.T) {
		hs := reopenCorrupting(t, romSheet, lastRow)
		if err := hs.DeleteRows(1, 2); !errors.Is(err, rdbms.ErrChecksum) {
			t.Fatalf("delete of rows on a corrupt page = %v, want ErrChecksum", err)
		}
		r := hs.regions[0]
		rom := r.tr.(*ROM)
		if rom.rowMap.Len() != rows || r.rect != sheet.NewRange(1, 1, rows, 4) || rom.table.RowCount() != rows {
			t.Fatalf("the refused delete left rowMap %d, rect %v, %d tuples", rom.rowMap.Len(), r.rect, rom.table.RowCount())
		}
	})
	t.Run("cross-region row delete", func(t *testing.T) {
		hs := reopenCorrupting(t, func(db *rdbms.DB, hs *HybridStore) {
			romSheet(db, hs)
			if _, err := hs.AddRegion(sheet.NewRange(1, 6, rows, 9), hybrid.ROM); err != nil {
				t.Fatal(err)
			}
		}, sheet.NewRange(1, 1, 2, 4))
		// Region 0's band is on the pool's one page; region 1's is not.
		if err := hs.DeleteRows(1, 2); !errors.Is(err, rdbms.ErrChecksum) {
			t.Fatalf("delete of rows crossing a corrupt page = %v, want ErrChecksum", err)
		}
		for i, want := range []sheet.Range{sheet.NewRange(1, 1, rows, 4), sheet.NewRange(1, 6, rows, 9)} {
			r := hs.regions[i]
			rom := r.tr.(*ROM)
			if rom.rowMap.Len() != rows || r.rect != want || rom.table.RowCount() != rows {
				t.Fatalf("the refused delete left region %d with rowMap %d, rect %v, %d tuples", i, rom.rowMap.Len(), r.rect, rom.table.RowCount())
			}
		}
	})
	t.Run("TOM write", func(t *testing.T) {
		hs := reopenCorrupting(t, func(db *rdbms.DB, hs *HybridStore) {
			tab, err := db.CreateTable("linked", rdbms.NewSchema(
				rdbms.Column{Name: "id", Type: rdbms.DTInt}, rdbms.Column{Name: "v", Type: rdbms.DTFloat}))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < rows; i++ {
				if _, err := tab.Insert(rdbms.Row{rdbms.Int(int64(i)), rdbms.Float(float64(i))}); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := hs.LinkTable(sheet.NewRange(1, 1, rows, 2), tab, false); err != nil {
				t.Fatal(err)
			}
		}, sheet.NewRange(rows, 1, rows, 2))
		if err := setCell(hs, 1, 2, one); !errors.Is(err, rdbms.ErrChecksum) {
			t.Fatalf("write to a linked row on a corrupt page = %v, want ErrChecksum", err)
		}
	})
	const cells = 1500 // a few heap pages of the overflow's tuples
	rcvColumn := func(_ *rdbms.DB, hs *HybridStore) {
		ws := make([]CellWrite, cells)
		for i := range ws {
			ws[i] = CellWrite{Row: i + 1, Col: 1, Cell: sheet.Cell{Value: sheet.Number(float64(i))}}
		}
		if err := hs.UpdateCells(ws); err != nil {
			t.Fatal(err)
		}
	}
	lastCell := sheet.NewRange(cells, 1, cells, 1)

	t.Run("RCV clear", func(t *testing.T) {
		hs := reopenCorrupting(t, rcvColumn, lastCell)
		if err := setCell(hs, 1, 1, sheet.Cell{}); !errors.Is(err, rdbms.ErrChecksum) {
			t.Fatalf("clear of a cell on a corrupt page = %v, want ErrChecksum", err)
		}
		rcv := hs.overflow
		rowID, _ := rcv.rowIDs.At(1)
		colID, _ := rcv.colIDs.At(1)
		if _, ok := rcv.index.Search(key(rowID, colID)); !ok || rcv.cells != cells {
			t.Fatalf("the failed clear dropped A1 from the RCV index (indexed %v, %d cells)", ok, rcv.cells)
		}
	})
	t.Run("RCV row delete", func(t *testing.T) {
		hs := reopenCorrupting(t, rcvColumn, lastCell)
		if err := hs.DeleteRows(1, 2); !errors.Is(err, rdbms.ErrChecksum) {
			t.Fatalf("delete of RCV rows on a corrupt page = %v, want ErrChecksum", err)
		}
		if rcv := hs.overflow; rcv.cells != rcv.index.Len() {
			t.Fatalf("the failed delete left %d cells counted, %d indexed", rcv.cells, rcv.index.Len())
		}
		if n := hs.overflow.rowIDs.Len(); n != cells {
			t.Fatalf("the refused delete left %d rows mapped, want %d", n, cells)
		}
	})
}
