package rdbms

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// wantPageErr fails the test unless err wraps ErrChecksum with a cause that
// names page id — the page the read met, not one an earlier read met.
func wantPageErr(t *testing.T, what string, err error, id PageID) {
	t.Helper()
	if !errors.Is(err, ErrChecksum) || !strings.Contains(err.Error(), fmt.Sprintf("rdbms: page %d ", id)) {
		t.Fatalf("%s = %v, want ErrChecksum with a cause naming page %d", what, err, id)
	}
}

// chainedRow inserts a row three pages long and returns its rid and the page
// of its second chunk.
func chainedRow(t *testing.T, tab *Table) (RID, PageID) {
	t.Helper()
	big, err := tab.Insert(Row{Int(-1), Text(strings.Repeat("x", 3*PageSize))})
	if err != nil {
		t.Fatal(err)
	}
	head := mustFetch(t, tab.heap.pool, big.Page).read(big.Slot)
	if head[0] != tupHead {
		t.Fatalf("a %d-byte row is stored inline", 3*PageSize)
	}
	mid := getChunkPtr(head[1:]).Page
	if mid == big.Page {
		t.Fatalf("the chain's second chunk shares page %d with its head", mid)
	}
	return big, mid
}

// TestFaultPageErrorsNameTheirPage: a read of an unreadable page fails with
// that page's own cause, whatever was read before it. Two heap pages and the
// middle chunk page of an oversized row are corrupt; Get, GetMany, Scan and a
// chunk-chain read meet them in both orders, on a fresh pool each time.
func TestFaultPageErrorsNameTheirPage(t *testing.T) {
	path := tempDBPath(t)
	db := mustOpenFile(t, path)
	tab, err := db.CreateTable("t", NewSchema(Column{Name: "id", Type: DTInt}, Column{Name: "name", Type: DTText}))
	if err != nil {
		t.Fatal(err)
	}
	rids := fillTable(t, tab, 0, 2000)
	first, last := rids[0], rids[len(rids)-1]
	big, mid := chainedRow(t, tab)
	if first.Page == last.Page || mid == first.Page || mid == last.Page || big.Page == first.Page {
		t.Fatalf("layout: rows on pages %d and %d, chain head %d, middle chunk %d", first.Page, last.Page, big.Page, mid)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []PageID{first.Page, last.Page, mid} {
		corruptSlot(t, path, id)
	}

	get := func(rid RID) func(*Table) error {
		return func(tab *Table) error { _, err := tab.Get(rid); return err }
	}
	getMany := func(rid RID) func(*Table) error {
		return func(tab *Table) error {
			return tab.GetMany([]RID{rid}, []int{0, 1}, func(int, Row) error { return nil })
		}
	}
	scan := func(tab *Table) error { return tab.Scan(func(RID, Row) bool { return true }) }
	reads := []struct {
		name string
		page PageID
		read func(*Table) error
	}{
		{"Get of the first page's row", first.Page, get(first)},
		{"GetMany of the first page's row", first.Page, getMany(first)},
		{"Get of the last page's row", last.Page, get(last)},
		{"GetMany of the last page's row", last.Page, getMany(last)},
		{"Get of the chained row", mid, get(big)},
		{"GetMany of the chained row", mid, getMany(big)},
		{"Scan", first.Page, scan}, // the table's first page is the first it meets
	}
	for _, reverse := range []bool{false, true} {
		db := mustOpenFile(t, path)
		tab := db.Table("t")
		for k := range reads {
			if reverse {
				k = len(reads) - 1 - k
			}
			r := reads[k]
			wantPageErr(t, fmt.Sprintf("reverse=%v: %s", reverse, r.name), r.read(tab), r.page)
		}
		if err := db.SimulateCrash(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFaultChainedDeleteChangesNothing: a delete that cannot read a chunk of
// its row fails with that chunk page's cause and tombstones nothing — the
// head still reads back, failing with the same cause, not as a missing tuple.
func TestFaultChainedDeleteChangesNothing(t *testing.T) {
	path := tempDBPath(t)
	db := mustOpenFile(t, path)
	tab, err := db.CreateTable("t", NewSchema(Column{Name: "id", Type: DTInt}, Column{Name: "name", Type: DTText}))
	if err != nil {
		t.Fatal(err)
	}
	fillTable(t, tab, 0, 10)
	big, mid := chainedRow(t, tab)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	corruptSlot(t, path, mid)

	db = mustOpenFile(t, path)
	defer db.SimulateCrash()
	tab = db.Table("t")
	rows := tab.RowCount()
	wantPageErr(t, "Delete of the chained row", tab.Delete(big), mid)
	_, err = tab.Get(big)
	wantPageErr(t, "Get of the chained row after the failed delete", err, mid)
	if n := tab.RowCount(); n != rows {
		t.Fatalf("RowCount %d -> %d across a failed delete", rows, n)
	}
}

// TestFaultIndexRebuildKeepsError: an index whose rebuild on open meets an
// unreadable heap page does not fail the open (the scrubber can still repair
// the page), and IndexScan returns the rebuild's failure instead of answering
// from a tree that may miss rows, until a Truncate leaves nothing to miss.
func TestFaultIndexRebuildKeepsError(t *testing.T) {
	path := tempDBPath(t)
	db := mustOpenFile(t, path)
	tab, err := db.CreateTable("t", NewSchema(Column{Name: "id", Type: DTInt}, Column{Name: "name", Type: DTText}))
	if err != nil {
		t.Fatal(err)
	}
	rids := fillTable(t, tab, 0, 2000)
	if err := tab.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	bad := rids[len(rids)-1].Page
	corruptSlot(t, path, bad)

	db, err = OpenFile(path, Options{})
	if err != nil {
		t.Fatalf("open over a corrupt indexed heap page: %v", err)
	}
	defer db.SimulateCrash()
	ok, err := db.Table("t").IndexScan("id", 0, 10, func(RID, Row) bool { return true })
	if !ok {
		t.Fatal("the index on id was not rebuilt")
	}
	wantPageErr(t, "IndexScan over a partly rebuilt index", err, bad)

	// Truncate empties the table and its index, which is then complete.
	db.Table("t").Truncate()
	if ok, err := db.Table("t").IndexScan("id", 0, 10, func(RID, Row) bool { return true }); !ok || err != nil {
		t.Fatalf("IndexScan after Truncate = %v, %v; want the empty index's answer", ok, err)
	}
}

// TestFaultChainedDeleteSurvivesRefetch: del fetches each chain page again
// to tombstone it, since a small pool may have evicted the frame its walk
// read. A one-shot read fault on such a re-fetch must not stop the delete
// halfway, with the head tombstoned and the rest of the chain orphaned.
func TestFaultChainedDeleteSurvivesRefetch(t *testing.T) {
	path := tempDBPath(t)
	db := mustOpenFile(t, path)
	tab, err := db.CreateTable("t", NewSchema(Column{Name: "id", Type: DTInt}, Column{Name: "name", Type: DTText}))
	if err != nil {
		t.Fatal(err)
	}
	fillTable(t, tab, 0, 10)
	big, _ := chainedRow(t, tab)
	// With a one-page pool, the walk reads each page of the chain once; the
	// re-fetch of the head, evicted by then, is the read after those.
	chain := []RID{big}
	for buf := mustFetch(t, tab.heap.pool, big.Page).read(big.Slot); buf[0] != tupInline; {
		next := getChunkPtr(buf[1:])
		if next == endChunk {
			break
		}
		chain = append(chain, next)
		buf = mustFetch(t, tab.heap.pool, next.Page).read(next.Slot)
	}
	walkReads := 1
	for i := 1; i < len(chain); i++ {
		if chain[i].Page != chain[i-1].Page {
			walkReads++
		}
	}
	if chain[len(chain)-1].Page == big.Page {
		t.Fatalf("the chain ends on its head's page %d", big.Page)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	fs := NewFaultSchedule(1)
	db, err = OpenFile(path, Options{BufferPoolPages: 1, Faults: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer db.SimulateCrash()
	tab = db.Table("t")
	rows := tab.RowCount()
	fs.Arm(FaultRule{File: FaultFileData, Op: FaultRead, Kind: FaultIOErr, After: walkReads + 1})
	if err := tab.Delete(big); err != nil {
		t.Fatalf("Delete with a failed re-fetch: %v", err)
	}
	if got := fs.Injected().IOErrs; got != 1 {
		t.Fatalf("%d read faults injected, want the re-fetch's one", got)
	}
	if n := tab.RowCount(); n != rows-1 {
		t.Fatalf("RowCount %d -> %d across a delete", rows, n)
	}
	for _, c := range chain {
		if buf := mustFetch(t, tab.heap.pool, c.Page).read(c.Slot); len(buf) != 0 {
			t.Fatalf("chain slot %v survived the delete", c)
		}
	}
}
