package rdbms

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
)

func TestCommitDurability(t *testing.T) {
	path := tempDBPath(t)
	db := mustOpenFile(t, path)
	tab, _ := db.CreateTable("t", NewSchema(Column{Name: "v", Type: DTInt}))
	fillTable(t, tab, 0, 500)
	if err := db.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	// Writes after the commit must not survive the crash.
	fillTable(t, tab, 10_000, 50)
	if err := db.SimulateCrash(); err != nil {
		t.Fatal(err)
	}
	db2 := mustOpenFile(t, path)
	defer db2.Close()
	if got := db2.Table("t").RowCount(); got != 500 {
		t.Fatalf("RowCount = %d, want 500", got)
	}
}

// commitRows runs writers goroutines, each inserting 0..rows-1 into its own
// table with a FlushWAL after every insert, and returns the WAL fsyncs the
// commits took. Every commit must be acked.
func commitRows(t *testing.T, db *DB, writers, rows int) int64 {
	t.Helper()
	tables := make([]*Table, writers)
	for i := range tables {
		tab, err := db.CreateTable(fmt.Sprintf("w%d", i), NewSchema(Column{Name: "v", Type: DTInt}))
		if err != nil {
			t.Fatal(err)
		}
		tables[i] = tab
	}
	if err := db.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	db.Pool().ResetStats()
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for _, tab := range tables {
		wg.Add(1)
		go func(tab *Table) {
			defer wg.Done()
			for j := 0; j < rows; j++ {
				if _, err := tab.Insert(Row{Int(int64(j))}); err != nil {
					errs <- err
					return
				}
				if err := db.FlushWAL(); err != nil {
					errs <- fmt.Errorf("%s commit %d: %w", tab.Name, j, err)
					return
				}
			}
		}(tab)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	return db.Pool().Stats().WALSyncs
}

// TestConcurrentCommittersShareFsyncs: with no timer anywhere, committers
// that stage while another commit holds the log ride its fsync — the
// leader/follower rule of commitWAL. Six writers must need fewer fsyncs than
// commit requests, one writer exactly one per commit, and every acked row
// must survive a crash.
func TestConcurrentCommittersShareFsyncs(t *testing.T) {
	single := mustOpenFile(t, tempDBPath(t))
	defer single.Close()
	if syncs := commitRows(t, single, 1, 100); syncs != 100 {
		t.Fatalf("one writer: %d fsyncs for 100 commits, want one each", syncs)
	}

	const writers, rows = 6, 200
	path := tempDBPath(t)
	db := mustOpenFile(t, path)
	syncs := commitRows(t, db, writers, rows)
	requests := int64(writers * rows)
	t.Logf("%d commit requests served by %d fsyncs (%.2f per commit)", requests, syncs, float64(syncs)/float64(requests))
	if syncs >= requests {
		t.Fatalf("WALSyncs = %d for %d concurrent commit requests: no fsync was shared", syncs, requests)
	}
	if err := db.SimulateCrash(); err != nil {
		t.Fatal(err)
	}
	db2 := mustOpenFile(t, path)
	defer db2.Close()
	for i := 0; i < writers; i++ {
		seen := make(map[int64]bool, rows)
		db2.Table(fmt.Sprintf("w%d", i)).Scan(func(_ RID, r Row) bool {
			seen[r[0].Int64()] = true
			return true
		})
		for j := 0; j < rows; j++ {
			if !seen[int64(j)] {
				t.Fatalf("table w%d: acked row %d lost in recovery", i, j)
			}
		}
	}
}

// TestCommitRacingRecoverIsNotAcked: FlushWAL stages under db.mu and commits
// after releasing it, so a Recover can run in between and discard the staged
// batch. The commit must then fail instead of acking a batch that is gone.
func TestCommitRacingRecoverIsNotAcked(t *testing.T) {
	path := tempDBPath(t)
	db := mustOpenFile(t, path)
	tab, _ := db.CreateTable("t", NewSchema(Column{Name: "v", Type: DTInt}))
	fillTable(t, tab, 0, 10)
	if err := db.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	fillTable(t, tab, 10, 50)
	fp := db.disk
	// FlushWAL's staging half, then a Recover before its commit half.
	db.mu.Lock()
	epoch := fp.epoch
	db.stageLocked()
	db.mu.Unlock()
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	gen := db.CommitGen()
	if err := fp.commitWAL(epoch); err == nil {
		t.Fatal("the commit of a batch Recover discarded was acked")
	}
	// The recovered database keeps taking commits.
	fillTable(t, db.Table("t"), 100, 5)
	if err := db.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	if db.CommitGen() != gen+1 {
		t.Fatalf("CommitGen = %d after one acked commit past %d", db.CommitGen(), gen)
	}
	if err := db.SimulateCrash(); err != nil {
		t.Fatal(err)
	}
	db2 := mustOpenFile(t, path)
	defer db2.Close()
	if got := db2.Table("t").RowCount(); got != 15 {
		t.Fatalf("RowCount after reopen = %d, want the 15 acked rows", got)
	}
}

func TestAutoCheckpointFiresAtThreshold(t *testing.T) {
	path := tempDBPath(t)
	db, err := OpenFile(path, Options{AutoCheckpointPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := db.CreateTable("t", NewSchema(
		Column{Name: "v", Type: DTInt}, Column{Name: "pad", Type: DTText},
	))
	// ~2000 rows with text payload spread across well over 4 pages.
	fillTable(t, tab, 0, 2000)
	if got := db.Pool().Stats().Checkpoints; got != 0 {
		t.Fatalf("Checkpoints before any commit = %d, want 0", got)
	}
	if err := db.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	st := db.Pool().Stats()
	if st.Checkpoints == 0 {
		t.Fatalf("auto-checkpoint did not fire; stats = %+v", st)
	}
	// The checkpoint truncated the WAL and wrote the pages home.
	if fi, err := os.Stat(path + ".wal"); err != nil || fi.Size() != 0 {
		t.Fatalf("WAL size after auto-checkpoint = %v (err %v), want 0", fi.Size(), err)
	}
	if err := db.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}
	// And the state is fully recoverable without the WAL.
	if err := db.SimulateCrash(); err != nil {
		t.Fatal(err)
	}
	db2 := mustOpenFile(t, path)
	defer db2.Close()
	if got := db2.Table("t").RowCount(); got != 2000 {
		t.Fatalf("RowCount after auto-checkpoint crash = %d, want 2000", got)
	}
}

func TestAutoCheckpointBelowThresholdDoesNotFire(t *testing.T) {
	path := tempDBPath(t)
	db, err := OpenFile(path, Options{AutoCheckpointPages: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tab, _ := db.CreateTable("t", NewSchema(Column{Name: "v", Type: DTInt}))
	fillTable(t, tab, 0, 100)
	if err := db.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	if got := db.Pool().Stats().Checkpoints; got != 0 {
		t.Fatalf("Checkpoints = %d, want 0 below threshold", got)
	}
	if fi, err := os.Stat(path + ".wal"); err != nil || fi.Size() == 0 {
		t.Fatalf("WAL unexpectedly truncated below threshold (size %v, err %v)", fi, err)
	}
}

// TestFreePageListReuse drops a table and checks that a similarly sized new
// table reuses its pages instead of growing the data file, on disk and in
// memory alike: the pages are reusable from the commit after the drop.
func TestFreePageListReuse(t *testing.T) {
	t.Run("file", func(t *testing.T) {
		path := tempDBPath(t)
		db := mustOpenFile(t, path)
		dropAndRefill(t, db)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db2 := mustOpenFile(t, path)
		defer db2.Close()
		checkRefilled(t, db2)
	})
	t.Run("memory", func(t *testing.T) {
		db := Open(Options{})
		defer db.Close()
		dropAndRefill(t, db)
		if err := db.FlushWAL(); err != nil {
			t.Fatal(err)
		}
		if err := db.Recover(); err != nil {
			t.Fatal(err)
		}
		checkRefilled(t, db)
	})
}

// dropAndRefill fills a table, commits, drops it, commits again and fills a
// new table of the same size, which must fit in the dropped table's pages.
func dropAndRefill(t *testing.T, db *DB) {
	t.Helper()
	tab, _ := db.CreateTable("big", NewSchema(
		Column{Name: "v", Type: DTInt}, Column{Name: "pad", Type: DTText},
	))
	fillTable(t, tab, 0, 3000)
	if err := db.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	before := db.Pool().Stats()
	if err := db.DropTable("big"); err != nil {
		t.Fatal(err)
	}
	after := db.Pool().Stats()
	if after.FreePages == before.FreePages {
		t.Fatalf("DropTable freed no pages (free=%d)", after.FreePages)
	}
	// Reclamation takes effect when the next staging writes a manifest that
	// no longer references the dropped heap.
	if err := db.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	pagesBefore := db.disk.pageCount()
	tab2, _ := db.CreateTable("big2", NewSchema(
		Column{Name: "v", Type: DTInt}, Column{Name: "pad", Type: DTText},
	))
	fillTable(t, tab2, 0, 3000)
	if grown := db.disk.pageCount() - pagesBefore; grown > 1 {
		t.Fatalf("data file grew by %d pages despite free list", grown)
	}
}

// checkRefilled checks, after a reopen, that the table dropAndRefill wrote
// into reused pages reads back whole.
func checkRefilled(t *testing.T, db *DB) {
	t.Helper()
	if got := db.Table("big2").RowCount(); got != 3000 {
		t.Fatalf("RowCount after reuse+reopen = %d, want 3000", got)
	}
	seen := 0
	db.Table("big2").Scan(func(RID, Row) bool { seen++; return true })
	if seen != 3000 {
		t.Fatalf("scan over reused pages saw %d rows", seen)
	}
	if err := db.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}
}

// TestFreePageListSurvivesReopen drops a table, closes, reopens, and checks
// the reclaimed pages are still reused.
func TestFreePageListSurvivesReopen(t *testing.T) {
	path := tempDBPath(t)
	db := mustOpenFile(t, path)
	tab, _ := db.CreateTable("victim", NewSchema(Column{Name: "v", Type: DTInt}))
	fillTable(t, tab, 0, 2000)
	if err := db.DropTable("victim"); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := mustOpenFile(t, path)
	defer db2.Close()
	if got := db2.Pool().Stats().FreePages; got == 0 {
		t.Fatal("free list lost across reopen")
	}
	pagesBefore := db2.disk.pageCount()
	tab2, _ := db2.CreateTable("heir", NewSchema(Column{Name: "v", Type: DTInt}))
	fillTable(t, tab2, 0, 2000)
	if grown := db2.disk.pageCount() - pagesBefore; grown > 1 {
		t.Fatalf("data file grew by %d pages; free list not honoured after reopen", grown)
	}
}

func TestTruncateReclaimsPages(t *testing.T) {
	path := tempDBPath(t)
	db := mustOpenFile(t, path)
	defer db.Close()
	tab, _ := db.CreateTable("t", NewSchema(Column{Name: "v", Type: DTInt}))
	if err := tab.CreateIndex("v"); err != nil {
		t.Fatal(err)
	}
	fillTable(t, tab, 0, 2000)
	tab.Truncate()
	if got := tab.RowCount(); got != 0 {
		t.Fatalf("RowCount after Truncate = %d", got)
	}
	if free := db.Pool().Stats().FreePages; free == 0 {
		t.Fatal("Truncate freed no pages")
	}
	// Table remains usable, index included.
	fillTable(t, tab, 0, 100)
	n := 0
	if ok, err := tab.IndexScan("v", 0, 99, func(RID, Row) bool { n++; return true }); err != nil || !ok || n != 100 {
		t.Fatalf("IndexScan after Truncate: ok=%v n=%d err=%v", ok, n, err)
	}
}

func TestFileLockSecondOpenerFails(t *testing.T) {
	path := tempDBPath(t)
	db := mustOpenFile(t, path)
	defer db.Close()
	if _, err := OpenFile(path, Options{}); err == nil ||
		!strings.Contains(err.Error(), "locked by another process") {
		t.Fatalf("second OpenFile = %v, want locked error", err)
	}
}

func TestFileLockReleasedOnClose(t *testing.T) {
	path := tempDBPath(t)
	db := mustOpenFile(t, path)
	if _, err := db.CreateTable("t", NewSchema(Column{Name: "v", Type: DTInt})); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := mustOpenFile(t, path) // lock released by Close
	defer db2.Close()
	if db2.Table("t") == nil {
		t.Fatal("table lost")
	}
}

// TestFileLockReleasedOnCrash: a crashed process (dropped descriptors)
// leaves no stale lock behind.
func TestFileLockReleasedOnCrash(t *testing.T) {
	path := tempDBPath(t)
	db := mustOpenFile(t, path)
	if err := db.SimulateCrash(); err != nil {
		t.Fatal(err)
	}
	db2 := mustOpenFile(t, path)
	defer db2.Close()
}
