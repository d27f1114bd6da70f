package model

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dataspread/internal/hybrid"
	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
)

// persistRoundTrip materializes the sheet on a file-backed database with
// the given algorithm, applies mutate, saves, closes, reopens, and returns
// the reloaded store plus the database for further checks.
func persistRoundTrip(t *testing.T, s *sheet.Sheet, algo string,
	mutate func(*HybridStore)) (*HybridStore, *rdbms.DB) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "model.dsdb")
	db, err := rdbms.OpenFile(path, rdbms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := hybrid.Decompose(s, algo, hybrid.Options{Params: hybrid.PostgresCost, Models: hybrid.AllModels})
	if err != nil {
		t.Fatal(err)
	}
	hs, err := Materialize(db, "hs", "", s, d)
	if err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(hs)
	}
	if err := hs.SaveManifest(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := rdbms.OpenFile(path, rdbms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db2.Close() })
	hs2, err := LoadHybridStore(db2, "hs")
	if err != nil {
		t.Fatal(err)
	}
	return hs2, db2
}

func TestStoreManifestRoundTripAlgos(t *testing.T) {
	for _, algo := range []string{"rom", "com", "rcv", "agg"} {
		t.Run(algo, func(t *testing.T) {
			s := buildSheet()
			hs2, _ := persistRoundTrip(t, s, algo, nil)
			assertStoreMatchesSheet(t, hs2, s)
		})
	}
}

func TestStoreRoundTripSurvivesStructuralEdits(t *testing.T) {
	s := buildSheet()
	// Mutate through the store before saving: insert a row through the
	// middle of the dense region and write into it, then update a cell.
	hs2, _ := persistRoundTrip(t, s, "agg", func(hs *HybridStore) {
		if err := hs.InsertRowsAfter(2, 1); err != nil {
			t.Fatal(err)
		}
		if err := setCell(hs, 3, 2, sheet.Cell{Value: sheet.Str("inserted")}); err != nil {
			t.Fatal(err)
		}
		if err := setCell(hs, 1, 2, sheet.Cell{Value: sheet.Str("edited")}); err != nil {
			t.Fatal(err)
		}
	})
	// Positional order survives: row 3 holds the inserted row, old row 3
	// moved to row 4.
	got, err := getCell(hs2, 3, 2)
	if err != nil || got.Value.Text() != "inserted" {
		t.Fatalf("(3,2) = %v, %v; want inserted", got.Value, err)
	}
	shifted, err := getCell(hs2, 4, 2)
	if n, _ := shifted.Value.Num(); err != nil || n != 302 {
		t.Fatalf("(4,2) = %v, %v; want 302 (shifted down)", got.Value, err)
	}
	edited, err := getCell(hs2, 1, 2)
	if err != nil || edited.Value.Text() != "edited" {
		t.Fatalf("(1,2) = %v, %v; want edited", edited.Value, err)
	}
	// Writing through the reloaded store keeps working.
	if err := setCell(hs2, 4, 2, sheet.Cell{Value: sheet.Number(999)}); err != nil {
		t.Fatalf("write after reload: %v", err)
	}
}

// TestStoreRoundTripFormulaCells: a formula cell's value survives a reload;
// its source does not, being the engine's to keep.
func TestStoreRoundTripFormulaCells(t *testing.T) {
	s := buildSheet()
	s.Set(sheet.Ref{Row: 1, Col: 2}, sheet.Cell{Value: sheet.Number(603), Formula: "SUM(B2:B6)"})
	hs2, _ := persistRoundTrip(t, s, "agg", nil)
	c, err := getCell(hs2, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := c.Value.Num(); c.Formula != "" || n != 603 {
		t.Fatalf("formula cell after reload = %+v", c)
	}
}

func TestLinkedTOMRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tom.dsdb")
	db, err := rdbms.OpenFile(path, rdbms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := db.CreateTable("emp", rdbms.NewSchema(
		rdbms.Column{Name: "id", Type: rdbms.DTInt},
		rdbms.Column{Name: "name", Type: rdbms.DTText},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := tab.Insert(rdbms.Row{rdbms.Int(int64(i)), rdbms.Text(string(rune('a' + i - 1)))}); err != nil {
			t.Fatal(err)
		}
	}
	hs, err := NewHybridStore(db, "hs")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hs.LinkTable(sheet.NewRange(1, 1, 4, 2), tab, true); err != nil {
		t.Fatal(err)
	}
	if err := hs.SaveManifest(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := rdbms.OpenFile(path, rdbms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	hs2, err := LoadHybridStore(db2, "hs")
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := getCell(hs2, 1, 2)
	if err != nil || hdr.Value.Text() != "name" {
		t.Fatalf("header = %v, %v", hdr.Value, err)
	}
	c, err := getCell(hs2, 3, 2)
	if err != nil || c.Value.Text() != "b" {
		t.Fatalf("linked cell = %v, %v", c.Value, err)
	}
	// The link is two-way after reload: a grid edit lands in the table.
	if err := setCell(hs2, 3, 2, sheet.Cell{Value: sheet.Str("bob")}); err != nil {
		t.Fatal(err)
	}
	found := false
	db2.Table("emp").Scan(func(_ rdbms.RID, r rdbms.Row) bool {
		if r[1].Str() == "bob" {
			found = true
		}
		return true
	})
	if !found {
		t.Fatal("grid edit did not reach the linked table after reload")
	}
}

func TestStoreNames(t *testing.T) {
	db := rdbms.Open(rdbms.Options{})
	hs, err := NewHybridStore(db, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if err := hs.SaveManifest(); err != nil {
		t.Fatal(err)
	}
	names := StoreNames(db)
	if len(names) != 1 || names[0] != "alpha" {
		t.Fatalf("StoreNames = %v", names)
	}
	hs.DropManifest()
	if names := StoreNames(db); len(names) != 0 {
		t.Fatalf("after drop: %v", names)
	}
}

// TestLoadRefusesOtherPositionalScheme: every ordering is a counted tree,
// so a root record naming another positional scheme fails the load by name.
func TestLoadRefusesOtherPositionalScheme(t *testing.T) {
	db := rdbms.Open(rdbms.Options{})
	s := buildSheet()
	d, err := hybrid.Decompose(s, "rom", hybrid.Options{Params: hybrid.PostgresCost, Models: hybrid.AllModels})
	if err != nil {
		t.Fatal(err)
	}
	hs, err := Materialize(db, "hs", "", s, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := hs.SaveManifest(); err != nil {
		t.Fatal(err)
	}
	blob, _, err := db.MetaValue(hs.rootKey())
	if err != nil {
		t.Fatal(err)
	}
	var root []byte
	if _, err := rdbms.EachRecord(blob, func(i int, rec *rdbms.RecordReader) error {
		if i == 0 {
			name, _ := rec.Text(), rec.Text()
			root = rdbms.AppendRecord(root, rdbms.Row{rdbms.Text(name), rdbms.Text("monotonic"),
				rdbms.Int(rec.Int()), rdbms.Int(rec.Int()), rdbms.Int(rec.Int()), rdbms.Int(rec.Int())})
			return nil
		}
		root = rdbms.AppendRecord(root, rdbms.Row{rdbms.Int(rec.Int()), rdbms.Int(rec.Int()),
			rdbms.Int(rec.Int()), rdbms.Int(rec.Int()), rdbms.Text(rec.Text()), rdbms.Int(rec.Int())})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	db.PutMeta(hs.rootKey(), root)
	if _, err := LoadHybridStore(db, "hs"); err == nil || !strings.Contains(err.Error(), `unknown positional scheme "monotonic"`) {
		t.Fatalf("load of a root naming monotonic = %v", err)
	}
}

// TestMaterializeRefusesOtherScheme: Materialize's scheme is "" or
// "hierarchical"; a baseline's name is refused before any table is made.
func TestMaterializeRefusesOtherScheme(t *testing.T) {
	db := rdbms.Open(rdbms.Options{})
	s := buildSheet()
	d, err := hybrid.Decompose(s, "rom", hybrid.Options{Params: hybrid.PostgresCost, Models: hybrid.AllModels})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Materialize(db, "hs", "monotonic", s, d); err == nil {
		t.Fatal("Materialize under the monotonic scheme succeeded")
	}
	if _, err := Materialize(db, "hs", "hierarchical", s, d); err != nil {
		t.Fatal(err)
	}
}

// fuzzStore builds the saved store FuzzStoreManifestDecode damages: buildSheet
// in one row-oriented region, a cell outside it in the overflow RCV, and one
// row inserted after the first save, so order and delta values both exist.
func fuzzStore(t testing.TB) (*rdbms.DB, *HybridStore) {
	t.Helper()
	db := rdbms.Open(rdbms.Options{})
	s := buildSheet()
	d, err := hybrid.Decompose(s, "rom", hybrid.Options{Params: hybrid.PostgresCost, Models: hybrid.AllModels})
	if err != nil {
		t.Fatal(err)
	}
	hs, err := Materialize(db, "hs", "", s, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := setCell(hs, 30, 15, sheet.Cell{Value: sheet.Str("far out")}); err != nil {
		t.Fatal(err)
	}
	if err := hs.SaveManifest(); err != nil {
		t.Fatal(err)
	}
	if err := hs.InsertRowsAfter(2, 1); err != nil {
		t.Fatal(err)
	}
	if err := hs.SaveManifest(); err != nil {
		t.Fatal(err)
	}
	return db, hs
}

// FuzzStoreManifestDecode puts a mutated value under one of a saved store's
// manifest keys and loads it: an error, or a store that reads without
// panicking and survives its own full save — never a panic in a decoder.
func FuzzStoreManifestDecode(f *testing.F) {
	db, _ := fuzzStore(f)
	keys := db.MetaKeys(storeMetaKey + "hs")
	deltas := 0
	for i, k := range keys {
		blob, _, err := db.MetaValue(k)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), blob)
		if strings.HasSuffix(k, ":delta") {
			deltas++
		}
	}
	if deltas == 0 {
		f.Fatalf("the seed store saved no delta value: %v", keys)
	}
	f.Fuzz(func(t *testing.T, which uint8, blob []byte) {
		db, _ := fuzzStore(t)
		db.PutMeta(keys[int(which)%len(keys)], blob)
		hs, err := LoadHybridStore(db, "hs")
		if err != nil {
			return
		}
		hs.GetCells(sheet.NewRange(1, 1, 32, 16)) // a wrong pointer is a read error, not a panic
		if err := hs.SaveManifestFull(); err != nil {
			t.Fatal(err)
		}
		again, err := LoadHybridStore(db, "hs")
		if err != nil {
			t.Fatalf("the loaded store does not survive its own save: %v", err)
		}
		if !reflect.DeepEqual(again.Regions(), hs.Regions()) {
			t.Fatalf("regions %v reload as %v", hs.Regions(), again.Regions())
		}
	})
}
