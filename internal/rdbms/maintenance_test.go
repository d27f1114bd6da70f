package rdbms

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// corruptSlot smashes a few bytes in the middle of page id's data-file
// slot, out of band of the pager's own handle — the shape of bit rot or a
// misplaced write landing while the database is running.
func corruptSlot(t *testing.T, path string, id PageID) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	off := int64(fileHeaderSize) + int64(id)*pageSlotSize + 512
	if _, err := f.WriteAt([]byte("CORRUPTCORRUPT"), off); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
}

// slotRecorder notes every page slot read through the data file.
type slotRecorder struct {
	dbFile
	mu   sync.Mutex
	read map[PageID]bool
}

func (r *slotRecorder) ReadAt(p []byte, off int64) (int, error) {
	if off >= fileHeaderSize {
		r.mu.Lock()
		r.read[PageID((off-fileHeaderSize)/pageSlotSize)] = true
		r.mu.Unlock()
	}
	return r.dbFile.ReadAt(p, off)
}

// walkStore builds a store whose slot walk meets every kind of slot: a
// checkpointed heap page corrupted with no in-memory repair source, free
// pages, pending-free pages and pages dirty since the last checkpoint. It
// returns the open store, a recorder on its data file, and the corrupt page.
func walkStore(t *testing.T) (*DB, *slotRecorder, PageID) {
	t.Helper()
	path := tempDBPath(t)
	db := mustOpenFile(t, path)
	tab, _ := db.CreateTable("t", NewSchema(Column{Name: "id", Type: DTInt}, Column{Name: "name", Type: DTText}))
	rids := fillTable(t, tab, 0, 3000)
	for _, name := range []string{"free", "pending"} {
		tab, _ := db.CreateTable(name, NewSchema(Column{Name: "v", Type: DTInt}))
		fillTable(t, tab, 0, 2000)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	corrupt := rids[len(rids)/2].Page
	corruptSlot(t, path, corrupt)

	db = mustOpenFile(t, path)
	t.Cleanup(func() { db.Close() })
	db.PutMeta("dirty", []byte("committed, not checkpointed"))
	if err := db.DropTable("free"); err != nil {
		t.Fatal(err)
	}
	if err := db.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	if err := db.DropTable("pending"); err != nil {
		t.Fatal(err)
	}
	fp := db.disk
	fp.mu.Lock()
	defer fp.mu.Unlock()
	if len(fp.freeList) == 0 || len(fp.pendingFree) == 0 || len(fp.ckptDirty) == 0 {
		t.Fatalf("store holds %d free, %d pending-free, %d dirty pages; want some of each",
			len(fp.freeList), len(fp.pendingFree), len(fp.ckptDirty))
	}
	if fp.unverifiableLocked()[corrupt] {
		t.Fatalf("corrupt page %d is not a checkpointed slot", corrupt)
	}
	rec := &slotRecorder{dbFile: fp.f, read: make(map[PageID]bool)}
	fp.f = rec
	return db, rec, corrupt
}

// TestScrubBackupVerifyShareOneWalk runs the three slot walks over the same
// kind of store. Scrub and verify read exactly the slots outside the
// unverifiable set (dirty, free, pending free), backup exactly those outside
// the free set it pinned; verify and backup stop at the corrupt slot, scrub
// quarantines it and goes on. The paced passes report progress once per
// batch against a fixed total, and a Stop closed during the pacing pause
// ends them with ErrStopped.
func TestScrubBackupVerifyShareOneWalk(t *testing.T) {
	const batch = 4
	cases := []struct {
		name string
		run  func(db *DB, opts PassOptions) error
		// pinned: the pass skips the free set it pinned (read after the
		// pass), not the unverifiable set (read before it). stops: the pass
		// fails on the corrupt slot. paced: it takes PassOptions.
		pinned, stops, paced bool
	}{
		{"scrub", func(db *DB, opts PassOptions) error {
			res, err := db.Scrub(opts)
			if err == nil && len(res.Bad) != 1 {
				err = fmt.Errorf("scrub quarantined %v, want one page", res.Bad)
			}
			return err
		}, false, false, true},
		{"backup", func(db *DB, opts PassOptions) error {
			_, err := db.Backup(io.Discard, opts)
			return err
		}, true, true, true},
		{"verify", func(db *DB, _ PassOptions) error { return db.VerifyChecksums() }, false, true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db, rec, corrupt := walkStore(t)
			fp := db.disk
			fp.mu.RLock()
			skip := fp.unverifiableLocked()
			fp.mu.RUnlock()
			type call struct{ done, total int }
			var calls []call
			err := tc.run(db, PassOptions{BatchPages: batch, Progress: func(done, total int) error {
				calls = append(calls, call{done, total})
				return nil
			}})
			total := fp.pageCount()
			if tc.pinned {
				skip = make(map[PageID]bool)
				for _, id := range fp.freePages() {
					skip[id] = true
				}
			}
			// end bounds the slots the pass gets through.
			end := total
			if tc.stops {
				if !errors.Is(err, ErrChecksum) {
					t.Fatalf("%s = %v, want ErrChecksum", tc.name, err)
				}
				end = int(corrupt)
			} else if err != nil {
				t.Fatal(err)
			}
			var want, got []PageID
			for id := PageID(0); int(id) < total; id++ {
				if !skip[id] && int(id) <= end {
					want = append(want, id)
				}
				if rec.read[id] {
					got = append(got, id)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s read slots %v,\nwant %v", tc.name, got, want)
			}
			if !tc.paced {
				return
			}
			// Every batch that ends before the pass does reports once.
			var wantCalls []call
			for lo := 0; lo < total && min(lo+batch, total) <= end; lo += batch {
				wantCalls = append(wantCalls, call{min(lo+batch, total), total})
			}
			if !slices.Equal(calls, wantCalls) {
				t.Fatalf("%s progress calls %v, want %v", tc.name, calls, wantCalls)
			}

			// A Stop closed during the pause (a second per four-page
			// batch) ends the pass at once.
			db, _, _ = walkStore(t)
			stop := make(chan struct{})
			start := time.Now()
			err = tc.run(db, PassOptions{BatchPages: batch, PagesPerSecond: 1, Stop: stop,
				Progress: func(int, int) error { close(stop); return nil }})
			if !errors.Is(err, ErrStopped) {
				t.Fatalf("%s with Stop closed in the pause = %v, want ErrStopped", tc.name, err)
			}
			if d := time.Since(start); d > 2*time.Second {
				t.Fatalf("%s took %v to stop; the pause ignored Stop", tc.name, d)
			}
		})
	}
}

func TestIncrementalCheckpointWritesOnlyDirtyPages(t *testing.T) {
	path := tempDBPath(t)
	db := mustOpenFile(t, path)
	defer db.Close()
	tab, err := db.CreateTable("t", NewSchema(
		Column{Name: "id", Type: DTInt},
		Column{Name: "name", Type: DTText},
	))
	if err != nil {
		t.Fatal(err)
	}
	fillTable(t, tab, 0, 4000)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := db.Pool().Stats()
	full := st.CheckpointPages
	if full < 20 {
		t.Fatalf("first checkpoint wrote %d pages, want a multi-page table", full)
	}
	if st.DirtyPages != 0 {
		t.Fatalf("DirtyPages = %d after checkpoint, want 0", st.DirtyPages)
	}
	if st.ShadowPages == 0 {
		t.Fatal("ShadowPages = 0 after checkpoint, want retained clean cache")
	}
	// One more row dirties the tail heap page plus the rewritten catalog
	// chain — the next checkpoint must write only those, not the overlay.
	if _, err := tab.Insert(Row{Int(9999), Text("tail")}); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st = db.Pool().Stats()
	delta := st.CheckpointPages - full
	if delta <= 0 || delta > 8 {
		t.Fatalf("incremental checkpoint wrote %d pages, want 1..8 (full pass was %d)", delta, full)
	}
	if st.ShadowPages < delta {
		t.Fatalf("ShadowPages = %d, want the clean cache retained", st.ShadowPages)
	}
}

func TestScrubRepairsFromCleanCache(t *testing.T) {
	path := tempDBPath(t)
	db := mustOpenFile(t, path)
	defer db.Close()
	tab, _ := db.CreateTable("t", NewSchema(Column{Name: "v", Type: DTInt}))
	rids := fillTable(t, tab, 0, 1000)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The checkpoint retained every written page as a clean shadow entry —
	// the repair source. Corrupt one heap slot behind the pager's back.
	victim := rids[len(rids)/2].Page
	corruptSlot(t, path, victim)
	if err := db.VerifyChecksums(); !errors.Is(err, ErrChecksum) {
		t.Fatalf("VerifyChecksums = %v, want checksum failure before scrub", err)
	}

	res, err := db.Scrub(PassOptions{BatchPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Repaired) != 1 || res.Repaired[0] != victim {
		t.Fatalf("Repaired = %v, want [%d]", res.Repaired, victim)
	}
	if len(res.Bad) != 0 {
		t.Fatalf("Bad = %v, want none (clean cache held the image)", res.Bad)
	}
	if err := db.VerifyChecksums(); err != nil {
		t.Fatalf("VerifyChecksums after repair: %v", err)
	}
	st := db.Pool().Stats()
	if st.ScrubRuns != 1 || st.ScrubRepaired != 1 || st.ScrubBad != 0 || st.QuarantinedPages != 0 {
		t.Fatalf("scrub counters = runs %d repaired %d bad %d quarantined %d",
			st.ScrubRuns, st.ScrubRepaired, st.ScrubBad, st.QuarantinedPages)
	}
	if st.ScrubPages == 0 {
		t.Fatal("ScrubPages = 0 after a pass")
	}
	// The repair must be the checkpointed image: the table reads back whole.
	got := 0
	db.Table("t").Scan(func(_ RID, r Row) bool { got++; return true })
	if got != 1000 {
		t.Fatalf("scan after repair saw %d rows, want 1000", got)
	}
}

func TestScrubQuarantinesWithoutPoisoning(t *testing.T) {
	path := tempDBPath(t)
	db := mustOpenFile(t, path)
	tab, _ := db.CreateTable("t", NewSchema(Column{Name: "v", Type: DTInt}))
	rids := fillTable(t, tab, 0, 1000)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	victim := rids[len(rids)/2].Page
	corruptSlot(t, path, victim)

	// A fresh open has no retained cache and the pool never read the page:
	// no repair source exists, so the slot must be quarantined — degraded,
	// not poisoned.
	db2 := mustOpenFile(t, path)
	defer db2.Close()
	res, err := db2.Scrub(PassOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bad) != 1 || res.Bad[0] != victim {
		t.Fatalf("Bad = %v, want [%d]", res.Bad, victim)
	}
	if len(res.Repaired) != 0 {
		t.Fatalf("Repaired = %v, want none", res.Repaired)
	}
	st := db2.Pool().Stats()
	if st.ScrubBad != 1 || st.QuarantinedPages != 1 {
		t.Fatalf("ScrubBad = %d QuarantinedPages = %d, want 1/1", st.ScrubBad, st.QuarantinedPages)
	}
	if err := db2.Poisoned(); err != nil {
		t.Fatalf("scrub poisoned the store: %v", err)
	}
	// Writes elsewhere keep working.
	t2, err := db2.CreateTable("other", NewSchema(Column{Name: "v", Type: DTInt}))
	if err != nil {
		t.Fatal(err)
	}
	fillTable(t, t2, 0, 10)
	if err := db2.FlushWAL(); err != nil {
		t.Fatalf("commit on degraded store: %v", err)
	}
	// A second scrub pass does not double-count the same quarantined slot.
	if _, err := db2.Scrub(PassOptions{}); err != nil {
		t.Fatal(err)
	}
	if st := db2.Pool().Stats(); st.ScrubBad != 1 || st.QuarantinedPages != 1 {
		t.Fatalf("second pass re-counted: ScrubBad = %d QuarantinedPages = %d", st.ScrubBad, st.QuarantinedPages)
	}
}

func TestScrubProgressAbort(t *testing.T) {
	path := tempDBPath(t)
	db := mustOpenFile(t, path)
	defer db.Close()
	tab, _ := db.CreateTable("t", NewSchema(Column{Name: "v", Type: DTInt}))
	fillTable(t, tab, 0, 2000)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	abort := errors.New("stop here")
	calls := 0
	_, err := db.Scrub(PassOptions{BatchPages: 4, Progress: func(done, total int) error {
		calls++
		if done >= total/2 {
			return abort
		}
		return nil
	}})
	if !errors.Is(err, abort) {
		t.Fatalf("Scrub = %v, want the progress callback's error", err)
	}
	if calls == 0 {
		t.Fatal("progress callback never ran")
	}
	if st := db.Pool().Stats(); st.ScrubRuns != 0 {
		t.Fatalf("aborted pass counted as a run: ScrubRuns = %d", st.ScrubRuns)
	}
}

func TestVacuumTruncatesAfterDrop(t *testing.T) {
	path := tempDBPath(t)
	db := mustOpenFile(t, path)
	defer db.Close()
	keep, err := db.CreateTable("keep", NewSchema(
		Column{Name: "id", Type: DTInt},
		Column{Name: "name", Type: DTText},
	))
	if err != nil {
		t.Fatal(err)
	}
	fillTable(t, keep, 0, 50)
	big, err := db.CreateTable("big", NewSchema(
		Column{Name: "id", Type: DTInt},
		Column{Name: "name", Type: DTText},
	))
	if err != nil {
		t.Fatal(err)
	}
	fillTable(t, big, 0, 4000)
	db.PutMeta("app:cfg", bytes.Repeat([]byte("x"), 3*PageSize))
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Drop the bulk of the file. Its pages free up, but the catalog and
	// meta-value chains were allocated above them — without relocation the
	// tail could never be returned.
	if err := db.DropTable("big"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Vacuum()
	if err != nil {
		t.Fatal(err)
	}
	if res.PagesAfter >= res.PagesBefore {
		t.Fatalf("Vacuum pages %d -> %d, want a shrink", res.PagesBefore, res.PagesAfter)
	}
	if res.PagesMoved == 0 {
		t.Fatal("Vacuum moved no meta pages; chains should have been relocated downward")
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() > before.Size()/2 {
		t.Fatalf("file %d -> %d bytes, want at least half reclaimed", before.Size(), after.Size())
	}
	if res.BytesReclaimed != before.Size()-after.Size() {
		t.Fatalf("BytesReclaimed = %d, want %d (stat delta)", res.BytesReclaimed, before.Size()-after.Size())
	}
	if st := db.Pool().Stats(); st.Vacuums != 1 || st.VacuumPagesMoved == 0 || st.VacuumBytesFreed != res.BytesReclaimed {
		t.Fatalf("vacuum counters = %d/%d/%d", st.Vacuums, st.VacuumPagesMoved, st.VacuumBytesFreed)
	}
	if err := db.VerifyChecksums(); err != nil {
		t.Fatalf("VerifyChecksums after vacuum: %v", err)
	}

	// Everything that survived the drop must survive the vacuum and a
	// reopen: relocated chains are committed, not just staged.
	check := func(d *DB, label string) {
		t.Helper()
		if got := d.Table("keep").RowCount(); got != 50 {
			t.Fatalf("%s: keep.RowCount = %d, want 50", label, got)
		}
		v, ok, err := d.MetaValue("app:cfg")
		if err != nil || !ok || len(v) != 3*PageSize || v[0] != 'x' {
			t.Fatalf("%s: meta value lost (ok=%v len=%d err=%v)", label, ok, len(v), err)
		}
	}
	check(db, "post-vacuum")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := mustOpenFile(t, path)
	defer db2.Close()
	check(db2, "reopen")
	if err := db2.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}
	// Idempotence: a second pass on the compacted file reclaims nothing.
	res2, err := db2.Vacuum()
	if err != nil {
		t.Fatal(err)
	}
	if res2.BytesReclaimed != 0 {
		t.Fatalf("second Vacuum reclaimed %d bytes, want 0", res2.BytesReclaimed)
	}
}

// accountPages fails the test unless every page of the file is either on
// the free list or owned by exactly one live structure: a heap, the catalog
// root chain or a metadata value chain.
func accountPages(t *testing.T, db *DB) {
	t.Helper()
	fp := db.disk
	owner := make(map[PageID]string)
	claim := func(who string, ids []PageID) {
		for _, id := range ids {
			if prev, ok := owner[id]; ok {
				t.Fatalf("page %d belongs to both %s and %s", id, prev, who)
			}
			owner[id] = who
		}
	}
	claim("the free list", fp.freeList)
	claim("the catalog root", fp.metaPages)
	for k, loc := range db.metaLoc {
		claim(fmt.Sprintf("meta %q", k), loc.pages)
	}
	for _, tab := range db.tables {
		claim("table "+tab.Name, tab.heap.pages)
	}
	if len(fp.pendingFree) != 0 {
		t.Fatalf("%d pages still pending free", len(fp.pendingFree))
	}
	for id := 0; id < fp.pages; id++ {
		if _, ok := owner[PageID(id)]; !ok {
			t.Fatalf("page %d of %d is neither live nor free", id, fp.pages)
		}
	}
}

// TestVacuumReclaimsShrunkCatalog: when the catalog shrinks — 40 tables of
// 256 columns dropped, a hundred long metadata keys deleted — the pages its
// schema records and its root chain no longer need go to the free list.
// After a checkpoint and a reopen every page of the file is accounted for,
// and Vacuum returns the space.
func TestVacuumReclaimsShrunkCatalog(t *testing.T) {
	path := tempDBPath(t)
	db := mustOpenFile(t, path)
	keep, err := db.CreateTable("keep", NewSchema(Column{Name: "id", Type: DTInt}, Column{Name: "name", Type: DTText}))
	if err != nil {
		t.Fatal(err)
	}
	fillTable(t, keep, 0, 50)
	longKey := func(i int) string { return fmt.Sprintf("k%03d:%s", i, strings.Repeat("x", 200)) }
	for i := 0; i < 40; i++ {
		if _, err := db.CreateTable(fmt.Sprintf("wide%02d", i), wideSchema(256)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		db.PutMeta(longKey(i), []byte{byte(i)})
	}
	if err := db.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	if n := len(db.disk.metaPages); n < 3 {
		t.Fatalf("catalog root spans %d pages, want several", n)
	}
	for i := 0; i < 40; i++ {
		if err := db.DropTable(fmt.Sprintf("wide%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		db.DeleteMeta(longKey(i))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := len(db.disk.metaPages); n != 1 {
		t.Fatalf("catalog root still spans %d pages", n)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db = mustOpenFile(t, path)
	defer db.Close()
	accountPages(t, db)
	res, err := db.Vacuum()
	if err != nil {
		t.Fatal(err)
	}
	if res.PagesAfter > res.PagesBefore/4 {
		t.Fatalf("Vacuum pages %d -> %d, want the dropped catalog's space back", res.PagesBefore, res.PagesAfter)
	}
	accountPages(t, db)
	if got := db.Table("keep").RowCount(); got != 50 {
		t.Fatalf("keep.RowCount = %d after vacuum, want 50", got)
	}
}

// TestDropThenCloseAccountsForEveryPage: the chain of a dropped table's
// schema record is released while the closing commit is staged, and must be
// on the free list that same commit records — there is no later one.
func TestDropThenCloseAccountsForEveryPage(t *testing.T) {
	path := tempDBPath(t)
	db := mustOpenFile(t, path)
	if _, err := db.CreateTable("gone", wideSchema(1500)); err != nil {
		t.Fatal(err)
	}
	if err := db.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	if err := db.DropTable("gone"); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = mustOpenFile(t, path)
	defer db.Close()
	accountPages(t, db)
}

// TestVacuumRelocatesRootChain: Vacuum moves the tail of a multi-page
// catalog root chain into lower free slots and truncates its old home.
// Each chain page names its successor, so the head page must be restaged
// with the new link although its payload did not change; the reopen walks
// the chain.
func TestVacuumRelocatesRootChain(t *testing.T) {
	path := tempDBPath(t)
	db := mustOpenFile(t, path)
	// One page at the bottom of the file, freed below.
	if _, err := db.CreateTable("hole", NewSchema(Column{Name: "id", Type: DTInt})); err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("k%03d:%s", i, strings.Repeat("x", 200))
		want[k] = []byte{byte(i)}
		db.PutMeta(k, want[k])
	}
	// The values are staged first, the root chain above them at the top.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fp := db.disk
	chain := append([]PageID(nil), fp.metaPages...)
	last := len(chain) - 1
	if last < 2 || int(chain[last]) != fp.pages-1 {
		t.Fatalf("catalog root chain %v in a %d-page file, want several pages ending the file", chain, fp.pages)
	}
	if err := db.DropTable("hole"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Vacuum(); err != nil {
		t.Fatal(err)
	}
	if got := fp.metaPages; got[0] != chain[0] || got[last] >= chain[0] {
		t.Fatalf("Vacuum turned root chain %v into %v, want the head in place and the tail moved down", chain, got)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db = mustOpenFile(t, path)
	defer db.Close()
	accountPages(t, db)
	for k, v := range want {
		if got, ok, err := db.MetaValue(k); err != nil || !ok || !bytes.Equal(got, v) {
			t.Fatalf("meta %q = %v, %v, %v after vacuum and reopen", k[:4], got, ok, err)
		}
	}
}

// TestVacuumMidCompactionDataFaultPoisons is the checkpoint-compaction
// fault satellite: a data-file write fault fires inside the vacuum's
// checkpoint, the store poisons cleanly (no torn manifest), and a reopen
// recovers every committed row.
func TestVacuumMidCompactionDataFaultPoisons(t *testing.T) {
	for _, kind := range []FaultKind{FaultIOErr, FaultENOSPC} {
		t.Run(kind.String(), func(t *testing.T) {
			path := tempDBPath(t)
			fs := NewFaultSchedule(11)
			db, err := OpenFile(path, Options{Faults: fs})
			if err != nil {
				t.Fatal(err)
			}
			tab, _ := db.CreateTable("t", NewSchema(Column{Name: "v", Type: DTInt}))
			fillTable(t, tab, 0, 800)
			if err := db.FlushWAL(); err != nil {
				t.Fatal(err)
			}
			if err := db.DropTable("t"); err != nil {
				t.Fatal(err)
			}
			t2, _ := db.CreateTable("t2", NewSchema(Column{Name: "v", Type: DTInt}))
			fillTable(t, t2, 0, 200)
			// Arm now: the very next data-file write is the vacuum's own
			// checkpoint compaction writing a dirty page.
			fs.Arm(FaultRule{File: FaultFileData, Op: FaultWrite, Kind: kind, After: 1, Count: -1})
			_, err = db.Vacuum()
			if !errors.Is(err, ErrPoisoned) || !errors.Is(err, ErrInjected) {
				t.Fatalf("Vacuum = %v, want poisoned/injected", err)
			}
			if err := db.FlushWAL(); !errors.Is(err, ErrReadOnly) {
				t.Fatalf("commit after poisoned vacuum = %v, want read-only", err)
			}
			if err := db.SimulateCrash(); err != nil {
				t.Fatal(err)
			}
			db2 := mustOpenFile(t, path)
			defer db2.Close()
			if got := db2.Table("t2").RowCount(); got != 200 {
				t.Fatalf("recovered t2.RowCount = %d, want 200", got)
			}
			if db2.Table("t") != nil {
				t.Fatal("dropped table resurrected by recovery")
			}
			if err := db2.VerifyChecksums(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRecoverAfterDiskFull is the engine half of the disk-full-then-
// recovers story: ENOSPC mid-commit poisons, space frees up (the fault
// rule exhausts), and DB.Recover clears the poison in place — acked state
// intact, new writes resuming — without ever closing the *DB.
func TestRecoverAfterDiskFull(t *testing.T) {
	path := tempDBPath(t)
	fs := NewFaultSchedule(3)
	db, err := OpenFile(path, Options{Faults: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tab, _ := db.CreateTable("t", NewSchema(Column{Name: "v", Type: DTInt}))
	fillTable(t, tab, 0, 300)
	if err := db.FlushWAL(); err != nil {
		t.Fatal(err)
	}

	// Disk fills: the next WAL append tears and fails. Count=0 means the
	// space is freed right afterwards — the transient-fault shape.
	fs.Arm(FaultRule{File: FaultFileWAL, Op: FaultWrite, Kind: FaultENOSPC, After: 1})
	fillTable(t, tab, 300, 100)
	if err := db.FlushWAL(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("commit on full disk = %v, want poisoned", err)
	}
	if err := db.Poisoned(); err == nil {
		t.Fatal("Poisoned() = nil after ENOSPC")
	}

	if err := db.Recover(); err != nil {
		t.Fatalf("Recover after space freed: %v", err)
	}
	if err := db.Poisoned(); err != nil {
		t.Fatalf("still poisoned after successful Recover: %v", err)
	}
	if got := db.Pool().Stats().Recoveries; got != 1 {
		t.Fatalf("Recoveries = %d, want 1", got)
	}

	// The acked batch survived; the torn one is gone whole, not partially.
	tab = db.Table("t") // handles from before Recover are stale
	if got := tab.RowCount(); got != 300 {
		t.Fatalf("recovered RowCount = %d, want the acked 300", got)
	}
	// Writes resume and are durable across a real reopen.
	fillTable(t, tab, 300, 50)
	if err := db.FlushWAL(); err != nil {
		t.Fatalf("commit after recovery: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := mustOpenFile(t, path)
	defer db2.Close()
	if got := db2.Table("t").RowCount(); got != 350 {
		t.Fatalf("RowCount after reopen = %d, want 350", got)
	}
	if err := db2.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverKeepsPoisonWhenFaultPersists: recovery must not clear the
// poison while the underlying device still fails — the reopen's own
// verification hits the live fault and the store stays read-only.
func TestRecoverKeepsPoisonWhenFaultPersists(t *testing.T) {
	path := tempDBPath(t)
	fs := NewFaultSchedule(5)
	db, err := OpenFile(path, Options{Faults: fs})
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := db.CreateTable("t", NewSchema(Column{Name: "v", Type: DTInt}))
	fillTable(t, tab, 0, 200)
	if err := db.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	fs.Arm(FaultRule{File: FaultFileWAL, Op: FaultSync, Kind: FaultIOErr, After: 1})
	fillTable(t, tab, 200, 10)
	if err := db.FlushWAL(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("commit = %v, want poisoned", err)
	}
	// The device now fails every data-file read: Recover cannot verify the
	// store and must leave the poison in place.
	fs.Arm(FaultRule{File: FaultFileData, Op: FaultRead, Kind: FaultIOErr, After: 1, Count: -1})
	if err := db.Recover(); err == nil {
		t.Fatal("Recover succeeded against a persistently failing device")
	}
	if err := db.Poisoned(); err == nil {
		t.Fatal("Recover cleared the poison without verifying the store")
	}
	if got := db.Pool().Stats().Recoveries; got != 0 {
		t.Fatalf("failed recovery counted: Recoveries = %d", got)
	}
}

// TestRecoverInMemory: Recover reopens an in-memory database's files, so it
// keeps what was committed and drops what was not, as on disk.
func TestRecoverInMemory(t *testing.T) {
	db := Open(Options{})
	defer db.Close()
	tab, _ := db.CreateTable("t", NewSchema(Column{Name: "v", Type: DTInt}))
	fillTable(t, tab, 0, 1)
	if err := db.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	fillTable(t, tab, 1, 1)
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	var got []int64
	db.Table("t").Scan(func(_ RID, r Row) bool { got = append(got, r[0].Int64()); return true })
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("rows after Recover = %v, want the committed [0]", got)
	}
	if _, err := db.Scrub(PassOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Vacuum(); err != nil {
		t.Fatal(err)
	}
}

// TestScrubFindsInMemoryCorruption flips a bit in a checkpointed slot of an
// in-memory database's data file: VerifyChecksums reports it, and Scrub
// finds it and repairs it from the clean image it retains.
func TestScrubFindsInMemoryCorruption(t *testing.T) {
	db := Open(Options{})
	defer db.Close()
	tab, _ := db.CreateTable("t", NewSchema(Column{Name: "v", Type: DTInt}))
	rids := fillTable(t, tab, 0, 500)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	id := rids[0].Page
	file := db.disk.fs.(*memFS).files[db.Path()]
	(*file)[pageOffset(id)+8+100] ^= 0x10
	if err := db.VerifyChecksums(); !errors.Is(err, ErrChecksum) {
		t.Fatalf("VerifyChecksums = %v, want ErrChecksum", err)
	}
	res, err := db.Scrub(PassOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Repaired)+len(res.Bad) != 1 || !slices.Contains(append(res.Repaired, res.Bad...), id) {
		t.Fatalf("scrub = %+v, want page %d found", res, id)
	}
	if len(res.Repaired) == 1 {
		if err := db.VerifyChecksums(); err != nil {
			t.Fatalf("after repair: %v", err)
		}
	}
}
