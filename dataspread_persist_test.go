package dataspread_test

import (
	"path/filepath"
	"testing"

	"dataspread"
)

// TestPersistReopenRoundTrip drives the whole stack through the public API:
// values, formulas, positional order, a linked catalog table with a B+ tree
// index, Save, Close, OpenFileDB, LoadEngine — everything must survive.
func TestPersistReopenRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sheet.dsdb")
	db, err := dataspread.OpenFileDB(path)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := dataspread.NewEngine(db, "book")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 50; i++ {
		if err := eng.SetValue(i, 1, dataspread.Number(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Set(52, 1, "=SUM(A1:A50)"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Set(1, 3, "hello"); err != nil {
		t.Fatal(err)
	}
	// A structural edit: positional order must survive the reopen.
	if err := eng.InsertRowsAfter(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := eng.Set(2, 1, "999"); err != nil {
		t.Fatal(err)
	}

	// Link a table so catalog + B-tree state is exercised.
	if err := eng.Set(40, 5, "id"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Set(40, 6, "name"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Set(41, 5, "7"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Set(41, 6, "grace"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.LinkTable(dataspread.MustRange("E40:F41"), "people"); err != nil {
		t.Fatal(err)
	}
	if err := db.Table("people").CreateIndex("id"); err != nil {
		t.Fatal(err)
	}

	sumBefore, _ := eng.GetCell(53, 1).Value.Num() // SUM shifted down by the row insert
	if err := eng.Save(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := dataspread.OpenFileDB(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if names := dataspread.SheetNames(db2); len(names) != 1 || names[0] != "book" {
		t.Fatalf("SheetNames = %v", names)
	}
	eng2, err := dataspread.LoadEngine(db2, "book")
	if err != nil {
		t.Fatal(err)
	}
	// Values and positional order.
	if v, _ := eng2.GetCell(1, 1).Value.Num(); v != 1 {
		t.Fatalf("A1 = %v", eng2.GetCell(1, 1).Value)
	}
	if v, _ := eng2.GetCell(2, 1).Value.Num(); v != 999 {
		t.Fatalf("A2 (inserted row) = %v", eng2.GetCell(2, 1).Value)
	}
	if v, _ := eng2.GetCell(3, 1).Value.Num(); v != 2 {
		t.Fatalf("A3 (shifted) = %v", eng2.GetCell(3, 1).Value)
	}
	if got := eng2.GetCell(1, 3).Value.Text(); got != "hello" {
		t.Fatalf("C1 = %q", got)
	}
	// Formula: source (shifted by the row insert) and cached value survive.
	c := eng2.GetCell(53, 1)
	if c.Formula != "SUM(A1:A51)" {
		t.Fatalf("formula = %q", c.Formula)
	}
	if v, _ := c.Value.Num(); v != sumBefore {
		t.Fatalf("SUM value = %v, want %v", c.Value, sumBefore)
	}
	// The dependency graph was rebuilt: editing a referenced cell
	// recomputes the formula.
	if err := eng2.Set(5, 1, "1000"); err != nil {
		t.Fatal(err)
	}
	if v, _ := eng2.GetCell(53, 1).Value.Num(); v == sumBefore {
		t.Fatal("formula not recomputed after reload")
	}
	// Catalog table + rebuilt B-tree index.
	people := db2.Table("people")
	if people == nil {
		t.Fatal("linked table lost")
	}
	hits := 0
	ok, err := people.IndexScan("id", 7, 7, func(_ dataspread.RID, r dataspread.Row) bool {
		hits++
		return true
	})
	if err != nil || !ok || hits != 1 {
		t.Fatalf("IndexScan ok=%v hits=%d err=%v", ok, hits, err)
	}
	// Linked TOM region renders from the table.
	if got := eng2.GetCell(41, 6).Value.Text(); got != "grace" {
		t.Fatalf("linked cell = %q", got)
	}
}

// TestPersistCrashRecovery kills the database after a WAL commit but before
// any page write-back; reopening must redo the committed state.
func TestPersistCrashRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crash.dsdb")
	db, err := dataspread.OpenFileDB(path)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := dataspread.NewEngine(db, "s")
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Set(1, 1, "41"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Set(1, 2, "=A1+1"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Save(); err != nil { // WAL commit, no checkpoint
		t.Fatal(err)
	}
	// Post-commit writes must vanish in the crash.
	if err := eng.Set(9, 9, "uncommitted"); err != nil {
		t.Fatal(err)
	}
	if err := db.SimulateCrash(); err != nil {
		t.Fatal(err)
	}

	db2, err := dataspread.OpenFileDB(path)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer db2.Close()
	eng2, err := dataspread.LoadEngine(db2, "s")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := eng2.GetCell(1, 1).Value.Num(); v != 41 {
		t.Fatalf("A1 after recovery = %v", eng2.GetCell(1, 1).Value)
	}
	if v, _ := eng2.GetCell(1, 2).Value.Num(); v != 42 {
		t.Fatalf("B1 after recovery = %v", eng2.GetCell(1, 2).Value)
	}
	if got := eng2.GetCell(9, 9).Value.Text(); got != "" {
		t.Fatalf("uncommitted write survived: %q", got)
	}
	if err := db2.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}
}

// TestPersistMultipleSheets keeps two sheets in one database.
func TestPersistMultipleSheets(t *testing.T) {
	path := filepath.Join(t.TempDir(), "multi.dsdb")
	db, err := dataspread.OpenFileDB(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"alpha", "beta"} {
		eng, err := dataspread.NewEngine(db, name)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Set(1, 1, name); err != nil {
			t.Fatal(err)
		}
		if err := eng.Save(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := dataspread.OpenFileDB(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	names := dataspread.SheetNames(db2)
	if len(names) != 2 || names[0] != "alpha" || names[1] != "beta" {
		t.Fatalf("SheetNames = %v", names)
	}
	for _, name := range names {
		eng, err := dataspread.LoadEngine(db2, name)
		if err != nil {
			t.Fatal(err)
		}
		if got := eng.GetCell(1, 1).Value.Text(); got != name {
			t.Fatalf("%s A1 = %q", name, got)
		}
	}
}
