package core

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
)

// TestEnginePoisonedReadOnly: a durability failure during Save poisons the
// database; the engine must keep serving reads from its committed state
// while rejecting every mutation with ErrReadOnly, and a reopen must
// recover the committed prefix.
func TestEnginePoisonedReadOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "poison.dsdb")
	fs := rdbms.NewFaultSchedule(3, rdbms.FaultRule{
		File: rdbms.FaultFileWAL, Op: rdbms.FaultSync, Kind: rdbms.FaultIOErr,
		After: 2, Count: -1,
	})
	db, err := rdbms.OpenFile(path, rdbms.Options{Faults: fs})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(db, "s", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Set(1, 1, "10"); err != nil {
		t.Fatal(err)
	}
	if err := e.Set(1, 2, "=A1*2"); err != nil {
		t.Fatal(err)
	}
	if err := e.Save(); err != nil {
		t.Fatalf("first save (healthy): %v", err)
	}

	// The second commit's fsync fails: the batch errors and the engine
	// enters read-only degradation.
	err = e.SetCells([]CellEdit{{Row: 2, Col: 1, Input: "99"}})
	if !errors.Is(err, rdbms.ErrPoisoned) || !errors.Is(err, rdbms.ErrReadOnly) {
		t.Fatalf("SetCells during fsync failure = %v, want poisoned/read-only", err)
	}

	// Every mutation path is rejected up front...
	if err := e.Set(3, 3, "1"); !errors.Is(err, rdbms.ErrReadOnly) {
		t.Fatalf("Set = %v, want ErrReadOnly", err)
	}
	if err := e.SetFormula(3, 3, "A1"); !errors.Is(err, rdbms.ErrReadOnly) {
		t.Fatalf("SetFormula = %v, want ErrReadOnly", err)
	}
	if err := e.Clear(1, 1); !errors.Is(err, rdbms.ErrReadOnly) {
		t.Fatalf("Clear = %v, want ErrReadOnly", err)
	}
	if err := e.InsertRowsAfter(1, 1); !errors.Is(err, rdbms.ErrReadOnly) {
		t.Fatalf("InsertRowsAfter = %v, want ErrReadOnly", err)
	}
	if err := e.DeleteRows(1, 1); !errors.Is(err, rdbms.ErrReadOnly) {
		t.Fatalf("DeleteRows = %v, want ErrReadOnly", err)
	}
	if err := e.InsertColumnsAfter(1, 1); !errors.Is(err, rdbms.ErrReadOnly) {
		t.Fatalf("InsertColumnsAfter = %v, want ErrReadOnly", err)
	}
	if err := e.DeleteColumns(1, 1); !errors.Is(err, rdbms.ErrReadOnly) {
		t.Fatalf("DeleteColumns = %v, want ErrReadOnly", err)
	}

	// ...while reads keep working (committed values and formulas).
	cells := e.GetCells(sheet.NewRange(1, 1, 1, 2))
	if err := e.ReadErr(); err != nil {
		t.Fatalf("ReadErr while poisoned: %v", err)
	}
	if n, _ := cells[0][0].Value.Num(); n != 10 {
		t.Fatalf("A1 = %v, want 10", cells[0][0].Value)
	}
	if n, _ := cells[0][1].Value.Num(); n != 20 {
		t.Fatalf("B1 = %v, want 20", cells[0][1].Value)
	}

	if err := db.SimulateCrash(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the first committed batch survives.
	db2, err := rdbms.OpenFile(path, rdbms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	e2, err := Load(db2, "s", Options{})
	if err != nil {
		t.Fatal(err)
	}
	cells = e2.GetCells(sheet.NewRange(1, 1, 1, 2))
	if n, _ := cells[0][0].Value.Num(); n != 10 {
		t.Fatalf("recovered A1 = %v, want 10", cells[0][0].Value)
	}
	if n, _ := cells[0][1].Value.Num(); n != 20 {
		t.Fatalf("recovered B1 = %v, want 20", cells[0][1].Value)
	}
}

// TestBitFlipRCVPageFailsLoad: a checksum-corrupt heap page under a sheet's
// RCV region fails the load with ErrChecksum. Before, the region's key index
// was rebuilt by a scan that skipped the page, so the sheet opened without
// its cells and accepted writes over them.
func TestBitFlipRCVPageFailsLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flip.dsdb")
	db, err := rdbms.OpenFile(path, rdbms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(db, "s", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Set(1, 1, "42"); err != nil {
		t.Fatal(err)
	}
	if err := e.Set(1, 2, "=A1*2"); err != nil {
		t.Fatal(err)
	}
	if err := e.Save(); err != nil {
		t.Fatal(err)
	}
	// The page holding the region's tuples.
	page := -1
	for _, name := range db.TableNames() {
		if err := db.Table(name).Scan(func(rid rdbms.RID, _ rdbms.Row) bool {
			page = int(rid.Page)
			return false
		}); err != nil {
			t.Fatal(err)
		}
	}
	if page < 0 {
		t.Fatal("no table holds a tuple")
	}
	e.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// A data file is a header page, then one slot per page: 8 bytes of
	// checksum and length, then the page image.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	off := int64(rdbms.PageSize) + int64(page)*(8+rdbms.PageSize) + 8 + 100
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = rdbms.OpenFile(path, rdbms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	got, err := Load(db, "s", Options{})
	if !errors.Is(err, rdbms.ErrChecksum) {
		t.Fatalf("Load over a corrupt RCV page = %v, want ErrChecksum", err)
	}
	if got != nil {
		t.Fatal("a failed Load returned an engine that takes writes")
	}
}
