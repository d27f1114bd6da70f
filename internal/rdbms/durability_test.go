package rdbms

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func tempDBPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "test.dsdb")
}

func mustOpenFile(t *testing.T, path string) *DB {
	t.Helper()
	db, err := OpenFile(path, Options{})
	if err != nil {
		t.Fatalf("OpenFile(%s): %v", path, err)
	}
	return db
}

// fillTable inserts n rows keyed i (plus "row-i" text when the schema has a
// second column) and returns their RIDs.
func fillTable(t *testing.T, tab *Table, from, n int) []RID {
	t.Helper()
	rids := make([]RID, 0, n)
	for i := from; i < from+n; i++ {
		row := Row{Int(int64(i))}
		if tab.Schema.Arity() > 1 {
			row = append(row, Text(fmt.Sprintf("row-%d", i)))
		}
		rid, err := tab.Insert(row)
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		rids = append(rids, rid)
	}
	return rids
}

func TestOpenFileReopenRoundTrip(t *testing.T) {
	path := tempDBPath(t)
	db := mustOpenFile(t, path)
	tab, err := db.CreateTable("people", NewSchema(
		Column{Name: "id", Type: DTInt},
		Column{Name: "name", Type: DTText},
	))
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000 // spans several pages
	fillTable(t, tab, 0, n)
	if err := tab.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}
	db.PutMeta("app:k", []byte("v1"))
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	db2 := mustOpenFile(t, path)
	defer db2.Close()
	if got := db2.TableNames(); len(got) != 1 || got[0] != "people" {
		t.Fatalf("TableNames = %v", got)
	}
	tab2 := db2.Table("people")
	if tab2.RowCount() != n {
		t.Fatalf("RowCount = %d, want %d", tab2.RowCount(), n)
	}
	if tab2.Schema.Arity() != 2 || tab2.Schema.Cols[1].Name != "name" {
		t.Fatalf("schema lost: %+v", tab2.Schema)
	}
	// Heap contents survive in order.
	i := 0
	tab2.Scan(func(_ RID, r Row) bool {
		if r[0].Int64() != int64(i) || r[1].Str() != fmt.Sprintf("row-%d", i) {
			t.Fatalf("row %d = %v", i, r)
		}
		i++
		return true
	})
	if i != n {
		t.Fatalf("scan saw %d rows", i)
	}
	// The rebuilt B+ tree index answers range queries.
	found := 0
	ok, err := tab2.IndexScan("id", 100, 109, func(_ RID, r Row) bool {
		found++
		return true
	})
	if err != nil || !ok || found != 10 {
		t.Fatalf("IndexScan ok=%v found=%d err=%v", ok, found, err)
	}
	// Metadata KV survives.
	if v, ok, err := db2.MetaValue("app:k"); err != nil || !ok || string(v) != "v1" {
		t.Fatalf("MetaValue = %q, %v, %v", v, ok, err)
	}
	if err := db2.VerifyChecksums(); err != nil {
		t.Fatalf("VerifyChecksums: %v", err)
	}
}

func TestReopenThenMutateReusesHeap(t *testing.T) {
	path := tempDBPath(t)
	db := mustOpenFile(t, path)
	tab, _ := db.CreateTable("t", NewSchema(Column{Name: "v", Type: DTInt}))
	rids := fillTable(t, tab, 0, 500)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := mustOpenFile(t, path)
	tab2 := db2.Table("t")
	// Delete some reopened rows, update others, insert more; then reopen
	// again and verify the final state.
	for _, rid := range rids[:100] {
		if err := tab2.Delete(rid); err != nil {
			t.Fatalf("delete %v failed after reopen: %v", rid, err)
		}
	}
	if _, err := tab2.Update(rids[200], Row{Int(-1)}); err != nil {
		t.Fatal(err)
	}
	fillTable(t, tab2, 1000, 100)
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}

	db3 := mustOpenFile(t, path)
	defer db3.Close()
	tab3 := db3.Table("t")
	if tab3.RowCount() != 500 {
		t.Fatalf("RowCount = %d, want 500", tab3.RowCount())
	}
	seen := make(map[int64]bool)
	tab3.Scan(func(_ RID, r Row) bool {
		seen[r[0].Int64()] = true
		return true
	})
	if seen[50] || !seen[-1] || !seen[1050] || !seen[499] {
		t.Fatalf("unexpected contents: deleted=%v updated=%v appended=%v", seen[50], seen[-1], seen[1050])
	}
}

func TestWALRedoRecovery(t *testing.T) {
	path := tempDBPath(t)
	db := mustOpenFile(t, path)
	tab, _ := db.CreateTable("t", NewSchema(Column{Name: "v", Type: DTInt}))
	fillTable(t, tab, 0, 300)
	// Commit to the WAL only: the data file keeps none of these pages yet.
	if err := db.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	// More writes after the commit — these must NOT survive the crash.
	fillTable(t, tab, 10_000, 50)
	if err := db.SimulateCrash(); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(path + ".wal"); err != nil || st.Size() == 0 {
		t.Fatalf("WAL missing before recovery: %v", err)
	}

	// Reopen: redo must restore exactly the committed state.
	db2 := mustOpenFile(t, path)
	defer db2.Close()
	tab2 := db2.Table("t")
	if tab2 == nil {
		t.Fatal("table lost in crash recovery")
	}
	if tab2.RowCount() != 300 {
		t.Fatalf("RowCount = %d, want 300 (committed rows only)", tab2.RowCount())
	}
	max := int64(-1)
	tab2.Scan(func(_ RID, r Row) bool {
		if v := r[0].Int64(); v > max {
			max = v
		}
		return true
	})
	if max != 299 {
		t.Fatalf("max recovered value = %d; uncommitted writes leaked", max)
	}
	if err := db2.VerifyChecksums(); err != nil {
		t.Fatalf("VerifyChecksums after redo: %v", err)
	}
}

func TestCrashBeforeAnyCommitLosesEverything(t *testing.T) {
	path := tempDBPath(t)
	db := mustOpenFile(t, path)
	tab, _ := db.CreateTable("gone", NewSchema(Column{Name: "v", Type: DTInt}))
	fillTable(t, tab, 0, 10)
	if err := db.SimulateCrash(); err != nil {
		t.Fatal(err)
	}
	db2 := mustOpenFile(t, path)
	defer db2.Close()
	if names := db2.TableNames(); len(names) != 0 {
		t.Fatalf("uncommitted table survived: %v", names)
	}
}

func TestTornWALTailDiscarded(t *testing.T) {
	path := tempDBPath(t)
	db := mustOpenFile(t, path)
	tab, _ := db.CreateTable("t", NewSchema(Column{Name: "v", Type: DTInt}))
	fillTable(t, tab, 0, 100)
	if err := db.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	fillTable(t, tab, 100, 100)
	if err := db.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	if err := db.SimulateCrash(); err != nil {
		t.Fatal(err)
	}
	// Tear the WAL: chop bytes off the end, destroying the second commit
	// record. Recovery must keep the first batch and discard the tail.
	walPath := path + ".wal"
	st, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, st.Size()-10); err != nil {
		t.Fatal(err)
	}
	db2 := mustOpenFile(t, path)
	defer db2.Close()
	if got := db2.Table("t").RowCount(); got != 100 {
		t.Fatalf("RowCount = %d, want 100 (first committed batch)", got)
	}
}

// corruptHeader flips a byte inside the data file's header block.
func corruptHeader(t *testing.T, path string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], 20); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], 20); err != nil {
		t.Fatal(err)
	}
}

func TestTornHeaderRescuedByWAL(t *testing.T) {
	path := tempDBPath(t)
	db := mustOpenFile(t, path)
	tab, _ := db.CreateTable("t", NewSchema(Column{Name: "v", Type: DTInt}))
	fillTable(t, tab, 0, 200)
	if err := db.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	if err := db.SimulateCrash(); err != nil {
		t.Fatal(err)
	}
	// Simulate a checkpoint torn mid-header-rewrite: the header is garbage
	// but the fsynced WAL still holds the committed batch (whose commit
	// record carries the header fields). Recovery must rebuild it.
	corruptHeader(t, path)
	db2 := mustOpenFile(t, path)
	defer db2.Close()
	if got := db2.Table("t").RowCount(); got != 200 {
		t.Fatalf("RowCount after header rescue = %d, want 200", got)
	}
	if err := db2.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptHeaderWithoutWALFailsOpen(t *testing.T) {
	path := tempDBPath(t)
	db := mustOpenFile(t, path)
	if _, err := db.CreateTable("t", NewSchema(Column{Name: "v", Type: DTInt})); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil { // clean close: WAL truncated
		t.Fatal(err)
	}
	corruptHeader(t, path)
	if _, err := OpenFile(path, Options{}); err == nil ||
		!strings.Contains(err.Error(), "header checksum mismatch") {
		t.Fatalf("OpenFile = %v, want header checksum mismatch", err)
	}
}

func TestChecksumDetectsCorruptPage(t *testing.T) {
	path := tempDBPath(t)
	db := mustOpenFile(t, path)
	tab, _ := db.CreateTable("t", NewSchema(Column{Name: "v", Type: DTInt}))
	rids := fillTable(t, tab, 0, 100)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside page 0's image (the table's first heap page).
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	off := pageOffset(0) + 8 + 512 // past CRC+id, inside the image
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	db2 := mustOpenFile(t, path) // meta pages are intact, so open succeeds
	defer db2.SimulateCrash()    // do not checkpoint garbage back
	err = db2.VerifyChecksums()
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("VerifyChecksums = %v, want checksum mismatch", err)
	}
	// A read through the pool fails with the corruption as its own error.
	if _, err := db2.Table("t").Get(rids[0]); !errors.Is(err, ErrChecksum) || !strings.Contains(err.Error(), "page 0") {
		t.Fatalf("Get on the corrupt page = %v, want ErrChecksum naming page 0", err)
	}
}

func TestCorruptMetaChainFailsOpen(t *testing.T) {
	path := tempDBPath(t)
	db := mustOpenFile(t, path)
	db.PutMeta("k", []byte("v"))
	if _, err := db.CreateTable("t", NewSchema(Column{Name: "v", Type: DTInt})); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Find the meta chain head from the file header and corrupt that page.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [28]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		t.Fatal(err)
	}
	metaHead := PageID(binary.LittleEndian.Uint32(hdr[16:20]))
	off := pageOffset(metaHead) + 8 + 100
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if _, err := OpenFile(path, Options{}); err == nil ||
		!strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("OpenFile = %v, want checksum mismatch", err)
	}
}

func TestCheckpointTruncatesWAL(t *testing.T) {
	path := tempDBPath(t)
	db := mustOpenFile(t, path)
	tab, _ := db.CreateTable("t", NewSchema(Column{Name: "v", Type: DTInt}))
	fillTable(t, tab, 0, 100)
	if err := db.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() <= int64(len(walMagic)) {
		t.Fatalf("WAL size after FlushWAL = %d, want page records", st.Size())
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st, err = os.Stat(path + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != 0 {
		t.Fatalf("WAL size after Checkpoint = %d, want 0", st.Size())
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFileIOStatsCounted(t *testing.T) {
	path := tempDBPath(t)
	db := mustOpenFile(t, path)
	tab, _ := db.CreateTable("t", NewSchema(Column{Name: "v", Type: DTInt}))
	fillTable(t, tab, 0, 2000)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with a tiny pool so scans must hit the file.
	db2, err := OpenFile(path, Options{BufferPoolPages: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	db2.Pool().ResetStats()
	count := 0
	db2.Table("t").Scan(func(RID, Row) bool { count++; return true })
	if count != 2000 {
		t.Fatalf("scan saw %d rows", count)
	}
	st := db2.Pool().Stats()
	if st.DiskReads == 0 {
		t.Fatalf("DiskReads = 0 after file-backed scan; stats = %+v", st)
	}
	// Mutate and checkpoint: real page writes and WAL appends must show up.
	t2 := db2.Table("t")
	if _, err := t2.Insert(Row{Int(42)}); err != nil {
		t.Fatal(err)
	}
	if err := db2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st = db2.Pool().Stats()
	if st.WALAppends == 0 || st.DiskWrites == 0 {
		t.Fatalf("WALAppends=%d DiskWrites=%d after checkpoint", st.WALAppends, st.DiskWrites)
	}
}

// TestInMemoryDurabilityOps: an in-memory database runs the file pager, so
// a commit logs and advances the durable generation and a checkpoint writes
// page slots, as on disk.
func TestInMemoryDurabilityOps(t *testing.T) {
	db := Open(Options{})
	if db.Path() != "" {
		t.Fatalf("Path = %q", db.Path())
	}
	tab, _ := db.CreateTable("t", NewSchema(Column{Name: "v", Type: DTInt}))
	fillTable(t, tab, 0, 100)
	gen := db.DurableGen()
	if err := db.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	if db.DurableGen() <= gen {
		t.Fatalf("DurableGen = %d after FlushWAL, was %d", db.DurableGen(), gen)
	}
	if st := db.Pool().Stats(); st.WALSyncs == 0 || st.WALAppends == 0 {
		t.Fatalf("WALSyncs=%d WALAppends=%d after FlushWAL", st.WALSyncs, st.WALAppends)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := db.Pool().Stats(); st.Checkpoints == 0 || st.DiskWrites == 0 {
		t.Fatalf("Checkpoints=%d DiskWrites=%d after Checkpoint", st.Checkpoints, st.DiskWrites)
	}
	if err := db.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}
