package rdbms

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

func testDB() *DB { return Open(Options{}) }

func TestCreateDropTable(t *testing.T) {
	db := testDB()
	tab, err := db.CreateTable("t1", NewSchema(Column{"id", DTInt}, Column{"name", DTText}))
	if err != nil {
		t.Fatal(err)
	}
	if tab.Name != "t1" || tab.Schema.Arity() != 2 {
		t.Fatalf("table = %+v", tab)
	}
	if _, err := db.CreateTable("T1", NewSchema(Column{"x", DTInt})); err == nil {
		t.Fatal("duplicate table (case-insensitive) must fail")
	}
	if _, err := db.CreateTable("bad", NewSchema()); err == nil {
		t.Fatal("empty schema must fail")
	}
	if _, err := db.CreateTable("bad", NewSchema(Column{"a", DTInt}, Column{"A", DTText})); err == nil {
		t.Fatal("duplicate columns must fail")
	}
	if err := db.DropTable("t1"); err != nil {
		t.Fatal(err)
	}
	if db.Table("t1") != nil {
		t.Fatal("dropped table still visible")
	}
	if err := db.DropTable("t1"); err == nil {
		t.Fatal("double drop must fail")
	}
}

func TestTableInsertTypeChecks(t *testing.T) {
	db := testDB()
	tab, _ := db.CreateTable("t", NewSchema(Column{"id", DTInt}, Column{"v", DTFloat}))
	if _, err := tab.Insert(Row{Int(1)}); err == nil {
		t.Fatal("arity mismatch must fail")
	}
	if _, err := tab.Insert(Row{Text("x"), Float(1)}); err == nil {
		t.Fatal("type mismatch must fail")
	}
	// Int fits float column; NULL fits anywhere.
	if _, err := tab.Insert(Row{Int(1), Int(2)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Insert(Row{Null, Null}); err != nil {
		t.Fatal(err)
	}
}

func TestTableCRUD(t *testing.T) {
	db := testDB()
	tab, _ := db.CreateTable("t", NewSchema(Column{"id", DTInt}, Column{"name", DTText}))
	rid, err := tab.Insert(Row{Int(1), Text("alice")})
	if err != nil {
		t.Fatal(err)
	}
	r, err := tab.Get(rid)
	if err != nil || r[1].Str() != "alice" {
		t.Fatalf("Get = %v,%v", r, err)
	}
	nrid, err := tab.Update(rid, Row{Int(1), Text("bob")})
	if err != nil {
		t.Fatal(err)
	}
	if r, err = tab.Get(nrid); err != nil || r[1].Str() != "bob" {
		t.Fatalf("after update: %v, %v", r, err)
	}
	if err := tab.Delete(nrid); err != nil {
		t.Fatal(err)
	}
	if tab.RowCount() != 0 {
		t.Fatalf("RowCount = %d", tab.RowCount())
	}
	if err := tab.Delete(nrid); err == nil {
		t.Fatal("double delete must fail")
	}
	if _, err := tab.Get(nrid); err == nil {
		t.Fatal("Get of a deleted tuple must fail")
	}
	if _, err := tab.Update(nrid, Row{Int(1), Text("carol")}); err == nil {
		t.Fatal("update of a deleted tuple must fail")
	}
}

func TestTableIndex(t *testing.T) {
	db := testDB()
	tab, _ := db.CreateTable("t", NewSchema(Column{"id", DTInt}, Column{"v", DTText}))
	for i := 0; i < 100; i++ {
		if _, err := tab.Insert(Row{Int(int64(i)), Text("x")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}
	if err := tab.CreateIndex("id"); err == nil {
		t.Fatal("duplicate index must fail")
	}
	if err := tab.CreateIndex("zzz"); err == nil {
		t.Fatal("index on missing column must fail")
	}
	var got []int64
	ok, err := tab.IndexScan("id", 10, 14, func(_ RID, r Row) bool {
		got = append(got, r[0].Int64())
		return true
	})
	if err != nil || !ok || len(got) != 5 || got[0] != 10 || got[4] != 14 {
		t.Fatalf("IndexScan = %v ok=%v err=%v", got, ok, err)
	}
	if ok, err := tab.IndexScan("v", 0, 1, func(RID, Row) bool { return true }); ok || err != nil {
		t.Fatalf("IndexScan on unindexed column = %v, %v, want false", ok, err)
	}
	// Index maintenance on update/delete.
	var rid RID
	tab.Scan(func(r RID, row Row) bool {
		if row[0].Int64() == 10 {
			rid = r
			return false
		}
		return true
	})
	if _, err := tab.Update(rid, Row{Int(1000), Text("moved")}); err != nil {
		t.Fatal(err)
	}
	got = got[:0]
	if _, err := tab.IndexScan("id", 10, 10, func(_ RID, r Row) bool { got = append(got, r[0].Int64()); return true }); err != nil || len(got) != 0 {
		t.Fatalf("index still finds old key after update: %v, %v", got, err)
	}
	if _, err := tab.IndexScan("id", 1000, 1000, func(_ RID, r Row) bool { got = append(got, r[0].Int64()); return true }); err != nil || len(got) != 1 {
		t.Fatalf("index does not find new key: %v, %v", got, err)
	}
}

func TestStorageBytesAccounting(t *testing.T) {
	db := testDB()
	tab, _ := db.CreateTable("t", NewSchema(Column{"id", DTInt}, Column{"v", DTText}))
	base := tab.StorageBytes()
	// One fresh page + catalog.
	want := int64(PageSize) + TableCatalogBytes + 2*ColumnCatalogBytes
	if base != want {
		t.Fatalf("fresh table storage = %d want %d", base, want)
	}
	// Fill enough rows to overflow one page.
	for i := 0; i < 2000; i++ {
		if _, err := tab.Insert(Row{Int(int64(i)), Text(strings.Repeat("x", 50))}); err != nil {
			t.Fatal(err)
		}
	}
	grown := tab.StorageBytes()
	if grown <= base+PageSize {
		t.Fatalf("storage did not grow page-granularly: %d -> %d", base, grown)
	}
	if tab.LiveBytes() <= 0 || tab.LiveBytes() >= grown {
		t.Fatalf("LiveBytes %d out of range (storage %d)", tab.LiveBytes(), grown)
	}
	if db.StorageBytes() < grown {
		t.Fatal("DB storage must include the table")
	}
}

func TestTableNames(t *testing.T) {
	db := testDB()
	db.CreateTable("zeta", NewSchema(Column{"a", DTInt}))
	db.CreateTable("alpha", NewSchema(Column{"a", DTInt}))
	names := db.TableNames()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "zeta" {
		t.Fatalf("TableNames = %v", names)
	}
}

// TestIndexOnColumnAddedOverOlderTuples: an index on a column that AddColumn
// appended over shorter, older tuples indexes them as NULL, and an update or
// delete of such a tuple leaves its NULL entry. After every step IndexScan
// agrees with a copy of the database reopened from its committed files.
func TestIndexOnColumnAddedOverOlderTuples(t *testing.T) {
	path := tempDBPath(t)
	db := mustOpenFile(t, path)
	defer db.Close()
	tab, err := db.CreateTable("t", NewSchema(Column{"a", DTInt}))
	if err != nil {
		t.Fatal(err)
	}
	updated, err := tab.Insert(Row{Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	short, err := tab.Insert(Row{Int(2)})
	if err != nil {
		t.Fatal(err)
	}
	entries := func(tab *Table) []string {
		var out []string
		if ok, err := tab.IndexScan("b", math.MinInt64, math.MaxInt64, func(rid RID, r Row) bool {
			out = append(out, fmt.Sprintf("%v a=%v b=%v", rid, attrAt(r, 0), attrAt(r, 1)))
			return true
		}); !ok || err != nil {
			t.Fatalf("no index on b: %v", err)
		}
		sort.Strings(out)
		return out
	}
	step := 0
	check := func(label string, want int) {
		t.Helper()
		if err := db.FlushWAL(); err != nil {
			t.Fatal(err)
		}
		step++
		dir := filepath.Join(t.TempDir(), fmt.Sprint(step))
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		files, _ := filepath.Glob(path + "*")
		for _, f := range files {
			copyFile(t, f, filepath.Join(dir, filepath.Base(f)))
		}
		copied := mustOpenFile(t, filepath.Join(dir, filepath.Base(path)))
		defer copied.Close()
		live, reopened := entries(tab), entries(copied.Table("t"))
		if len(live) != want || !slices.Equal(live, reopened) {
			t.Fatalf("%s: IndexScan finds %q, the reopened copy %q; want %d entries", label, live, reopened, want)
		}
	}
	if err := tab.AddColumn(Column{"b", DTInt}); err != nil {
		t.Fatal(err)
	}
	if err := tab.CreateIndex("b"); err != nil {
		t.Fatal(err)
	}
	check("index built over two short tuples", 2)
	if _, err := tab.Update(updated, Row{Int(1), Int(5)}); err != nil {
		t.Fatal(err)
	}
	check("a short tuple updated to b=5", 2)
	var hits int
	if _, err := tab.IndexScan("b", 5, 5, func(RID, Row) bool { hits++; return true }); err != nil || hits != 1 {
		t.Fatalf("IndexScan(b=5) finds %d rows (%v), want 1", hits, err)
	}
	if err := tab.Delete(updated); err != nil {
		t.Fatalf("delete of the updated tuple: %v", err)
	}
	check("the updated tuple deleted", 1)
	if err := tab.Delete(short); err != nil {
		t.Fatalf("delete of the short tuple: %v", err)
	}
	check("the short tuple deleted", 0)
}
