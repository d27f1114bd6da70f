package rdbms

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"testing"
)

func TestFaultScheduleCountsAndFires(t *testing.T) {
	fs := NewFaultSchedule(1,
		FaultRule{File: FaultFileWAL, Op: FaultSync, Kind: FaultIOErr, After: 2},
		FaultRule{File: FaultFileData, Op: FaultWrite, Kind: FaultENOSPC, After: 1, Count: 1},
	)
	wal := &faultFile{f: nopFile{}, role: FaultFileWAL, fs: fs}
	data := &faultFile{f: nopFile{}, role: FaultFileData, fs: fs}

	if err := wal.Sync(); err != nil {
		t.Fatalf("first wal sync should pass: %v", err)
	}
	if err := wal.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("second wal sync = %v, want injected", err)
	}
	if err := wal.Sync(); err != nil {
		t.Fatalf("third wal sync should pass again (Count=0): %v", err)
	}
	if got := fs.Seen(FaultFileWAL, FaultSync); got != 3 {
		t.Fatalf("Seen(wal, sync) = %d, want 3", got)
	}

	buf := make([]byte, 8)
	for i := 0; i < 2; i++ {
		if _, err := data.WriteAt(buf, 0); !errors.Is(err, ErrInjected) {
			t.Fatalf("data write %d = %v, want injected (After=1 Count=1)", i, err)
		}
	}
	if _, err := data.WriteAt(buf, 0); err != nil {
		t.Fatalf("data write after rule exhausted: %v", err)
	}
	hits := fs.Injected()
	if hits.IOErrs != 1 || hits.NoSpace != 2 || hits.Total() != 3 {
		t.Fatalf("Injected = %+v", hits)
	}
}

// nopFile satisfies dbFile for schedule unit tests without touching disk.
type nopFile struct{}

func (nopFile) ReadAt(p []byte, off int64) (int, error)  { return len(p), nil }
func (nopFile) WriteAt(p []byte, off int64) (int, error) { return len(p), nil }
func (nopFile) Sync() error                              { return nil }
func (nopFile) Truncate(int64) error                     { return nil }
func (nopFile) Close() error                             { return nil }

func TestShortWriteTearsPrefix(t *testing.T) {
	fs := NewFaultSchedule(1, FaultRule{Op: FaultWrite, Kind: FaultShortWrite, After: 1})
	dir := t.TempDir()
	raw, err := os.Create(dir + "/f")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	f := wrapFaultFile(raw, FaultFileWAL, fs)
	n, err := f.WriteAt([]byte("0123456789"), 0)
	if !errors.Is(err, io.ErrShortWrite) || !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want short write + injected", err)
	}
	if n != 5 {
		t.Fatalf("n = %d, want 5 (torn prefix)", n)
	}
	st, _ := raw.Stat()
	if st.Size() != 5 {
		t.Fatalf("file size = %d, want only the torn prefix on disk", st.Size())
	}
}

// TestWALFsyncFailurePoisons is the fsyncgate scenario: the WAL fsync of a
// commit fails, the pager goes sticky read-only instead of retrying, reads
// keep working, and a reopen recovers a consistent committed prefix.
func TestWALFsyncFailurePoisons(t *testing.T) {
	path := tempDBPath(t)
	fs := NewFaultSchedule(7, FaultRule{File: FaultFileWAL, Op: FaultSync, Kind: FaultIOErr, After: 2})
	db, err := OpenFile(path, Options{Faults: fs})
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := db.CreateTable("t", NewSchema(Column{Name: "v", Type: DTInt}))
	fillTable(t, tab, 0, 100)
	if err := db.FlushWAL(); err != nil {
		t.Fatalf("first commit (healthy): %v", err)
	}
	fillTable(t, tab, 100, 100)
	err = db.FlushWAL()
	if !errors.Is(err, ErrPoisoned) || !errors.Is(err, ErrReadOnly) || !errors.Is(err, ErrInjected) {
		t.Fatalf("second commit = %v, want poisoned/read-only/injected", err)
	}
	if db.Poisoned() == nil {
		t.Fatal("Poisoned() = nil after failed fsync")
	}
	// No silent retry: the next commit fails immediately without touching
	// the WAL again.
	syncsBefore := fs.Seen(FaultFileWAL, FaultSync)
	if err := db.FlushWAL(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("third commit = %v, want sticky poison", err)
	}
	if got := fs.Seen(FaultFileWAL, FaultSync); got != syncsBefore {
		t.Fatalf("poisoned commit still fsynced (%d -> %d syncs)", syncsBefore, got)
	}
	// Reads still serve.
	seen := 0
	tab.Scan(func(_ RID, r Row) bool { seen++; return true })
	if seen != 200 {
		t.Fatalf("scan on poisoned db saw %d rows, want 200", seen)
	}
	if err := db.SimulateCrash(); err != nil {
		t.Fatal(err)
	}

	// Recovery: the first batch is durable; the second batch's records hit
	// the file (only the fsync failed, and the page cache survived), so
	// recovery may legitimately surface either 100 or 200 rows — but never
	// anything torn in between.
	db2 := mustOpenFile(t, path)
	defer db2.Close()
	got := db2.Table("t").RowCount()
	if got != 100 && got != 200 {
		t.Fatalf("recovered RowCount = %d, want the committed prefix (100) or the ambiguous batch too (200)", got)
	}
	if err := db2.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}
}

// TestWALFsyncFailurePoisonsInMemory: Options.Faults reaches an in-memory
// database's files too. A failed WAL fsync poisons it, and Recover heals it
// back to a committed state.
func TestWALFsyncFailurePoisonsInMemory(t *testing.T) {
	fs := NewFaultSchedule(7, FaultRule{File: FaultFileWAL, Op: FaultSync, Kind: FaultIOErr, After: 2})
	db := Open(Options{Faults: fs})
	defer db.Close()
	if db.Faults() != fs {
		t.Fatal("Faults() does not return the schedule")
	}
	tab, _ := db.CreateTable("t", NewSchema(Column{Name: "v", Type: DTInt}))
	fillTable(t, tab, 0, 100)
	if err := db.FlushWAL(); err != nil {
		t.Fatalf("first commit (healthy): %v", err)
	}
	fillTable(t, tab, 100, 100)
	if err := db.FlushWAL(); !errors.Is(err, ErrPoisoned) || !errors.Is(err, ErrInjected) {
		t.Fatalf("second commit = %v, want poisoned/injected", err)
	}
	if !errors.Is(db.Poisoned(), ErrPoisoned) {
		t.Fatalf("Poisoned() = %v after failed fsync", db.Poisoned())
	}
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	if db.Poisoned() != nil {
		t.Fatalf("Poisoned() = %v after Recover", db.Poisoned())
	}
	if got := db.Table("t").RowCount(); got != 100 && got != 200 {
		t.Fatalf("recovered RowCount = %d, want the committed prefix (100) or the ambiguous batch too (200)", got)
	}
}

// TestCheckpointDataFsyncFailure: the data-file fsync inside a checkpoint
// fails. The pager must poison (no silent retry against the same handles)
// and, because the WAL was not reset, a reopen recovers everything.
func TestCheckpointDataFsyncFailure(t *testing.T) {
	path := tempDBPath(t)
	db := mustOpenFile(t, path)
	tab, _ := db.CreateTable("t", NewSchema(Column{Name: "v", Type: DTInt}))
	fillTable(t, tab, 0, 50)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	fs := NewFaultSchedule(7, FaultRule{File: FaultFileData, Op: FaultSync, Kind: FaultIOErr, After: 1, Count: -1})
	db, err := OpenFile(path, Options{Faults: fs})
	if err != nil {
		t.Fatal(err)
	}
	fillTable(t, db.Table("t"), 50, 150)
	if err := db.FlushWAL(); err != nil {
		t.Fatalf("WAL-only commit must not fsync the data file: %v", err)
	}
	err = db.Checkpoint()
	if !errors.Is(err, ErrPoisoned) || !errors.Is(err, ErrInjected) {
		t.Fatalf("Checkpoint = %v, want poisoned/injected", err)
	}
	if err := db.FlushWAL(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("commit after failed checkpoint = %v, want read-only", err)
	}
	if err := db.SimulateCrash(); err != nil {
		t.Fatal(err)
	}

	db2 := mustOpenFile(t, path)
	defer db2.Close()
	if got := db2.Table("t").RowCount(); got != 200 {
		t.Fatalf("recovered RowCount = %d, want 200 (WAL redo over the failed checkpoint)", got)
	}
	if err := db2.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}
}

// TestENOSPCConcurrentCommitters fills the disk mid-run while several
// goroutines commit concurrently, sharing fsyncs: every ack must be
// durable, every post-poison commit must fail with ErrReadOnly, and the
// recovered database must hold every acked key.
func TestENOSPCConcurrentCommitters(t *testing.T) {
	path := tempDBPath(t)
	fs := NewFaultSchedule(7, FaultRule{File: FaultFileWAL, Op: FaultWrite, Kind: FaultENOSPC, After: 15, Count: -1})
	db, err := OpenFile(path, Options{Faults: fs})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 4
	const iters = 30
	acked := make([][]string, goroutines)
	sawErr := make([]bool, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				key := fmt.Sprintf("k-%d-%d", g, i)
				db.PutMeta(key, []byte("v"))
				if err := db.FlushWAL(); err != nil {
					if !errors.Is(err, ErrReadOnly) {
						t.Errorf("goroutine %d commit %d: %v, want read-only", g, i, err)
					}
					sawErr[g] = true
					return
				}
				acked[g] = append(acked[g], key)
			}
		}(g)
	}
	wg.Wait()
	anyErr := false
	for _, e := range sawErr {
		anyErr = anyErr || e
	}
	if !anyErr {
		t.Fatal("ENOSPC never fired; lower After")
	}
	if db.Poisoned() == nil {
		t.Fatal("pager not poisoned after ENOSPC commit failure")
	}
	if err := db.SimulateCrash(); err != nil {
		t.Fatal(err)
	}

	db2 := mustOpenFile(t, path)
	defer db2.Close()
	for g, keys := range acked {
		for _, key := range keys {
			if _, ok, err := db2.MetaValue(key); err != nil || !ok {
				t.Fatalf("acked key %s (goroutine %d) lost in recovery: %v", key, g, err)
			}
		}
	}
	if err := db2.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}
}

// TestBitFlipSurfacesChecksum: a read that silently corrupts one bit must
// fail with ErrChecksum as its own error, not return wrong data — a point
// read naming its own page, and every reader that walks the heap: a scan,
// the SQL executor and an index build all fail with it instead of returning
// what they could read.
func TestBitFlipSurfacesChecksum(t *testing.T) {
	path := tempDBPath(t)
	db := mustOpenFile(t, path)
	tab, _ := db.CreateTable("t", NewSchema(
		Column{Name: "id", Type: DTInt},
		Column{Name: "name", Type: DTText},
	))
	rids := fillTable(t, tab, 0, 3000) // spans many pages
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Calibrate: count the data-file reads a plain open performs, so the
	// flip can be scheduled on the first read after open (a page fetch for
	// the scan below, never the header or catalog).
	counter := NewFaultSchedule(1)
	db, err := OpenFile(path, Options{Faults: counter})
	if err != nil {
		t.Fatal(err)
	}
	openReads := counter.Seen(FaultFileData, FaultRead)
	if err := db.SimulateCrash(); err != nil { // no writes happened; disk unchanged
		t.Fatal(err)
	}

	fs := NewFaultSchedule(99, FaultRule{
		File: FaultFileData, Op: FaultRead, Kind: FaultBitFlip,
		After: int(openReads) + 1, Count: -1,
	})
	db, err = OpenFile(path, Options{Faults: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer db.SimulateCrash()
	seen := 0
	if err := db.Table("t").Scan(func(_ RID, r Row) bool { seen++; return true }); !errors.Is(err, ErrChecksum) {
		t.Fatalf("bit-flipped scan = %v after %d rows, want ErrChecksum", err, seen)
	}
	last := rids[len(rids)-1]
	if _, err := db.Table("t").Get(last); !errors.Is(err, ErrChecksum) || !strings.Contains(err.Error(), fmt.Sprintf("page %d:", last.Page)) {
		t.Fatalf("point read of %v over a bit-flipped heap = %v, want ErrChecksum naming its page", last, err)
	}
	if _, err := db.Query("SELECT count(*) FROM t"); !errors.Is(err, ErrChecksum) {
		t.Fatalf("query over a bit-flipped heap = %v, want ErrChecksum", err)
	}
	if err := db.Table("t").CreateIndex("id"); !errors.Is(err, ErrChecksum) {
		t.Fatalf("index build over a bit-flipped heap = %v, want ErrChecksum", err)
	}
	if fs.Injected().BitFlips == 0 {
		t.Fatal("no bit flip was injected; calibration off")
	}
}

// segmentOptions makes rotation happen every couple of commits.
func segmentOptions(maxSegments int) Options {
	return Options{
		WALSegmentBytes:     64 << 10,
		WALMaxSegments:      maxSegments,
		AutoCheckpointPages: -1, // isolate the segment-count trigger
	}
}

func TestWALRotationBoundsDisk(t *testing.T) {
	path := tempDBPath(t)
	db, err := OpenFile(path, segmentOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := db.CreateTable("t", NewSchema(Column{Name: "v", Type: DTInt}))
	var maxSegs, maxBytes int64
	for i := 0; i < 40; i++ {
		fillTable(t, tab, i*50, 50)
		if err := db.FlushWAL(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		st := db.Pool().Stats()
		if st.WALSegments > maxSegs {
			maxSegs = st.WALSegments
		}
		if st.WALDiskBytes > maxBytes {
			maxBytes = st.WALDiskBytes
		}
	}
	st := db.Pool().Stats()
	if st.WALRotations == 0 {
		t.Fatal("no rotations in 40 commits over 64KiB segments")
	}
	if st.Checkpoints == 0 {
		t.Fatal("segment cap never forced a compacting checkpoint")
	}
	if st.WALCompacted == 0 {
		t.Fatal("no segments were compacted away")
	}
	// Cap: maxSegments sealed + the active segment, observed post-commit.
	if maxSegs > 3 {
		t.Fatalf("segment count peaked at %d, want <= 3", maxSegs)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// A clean close compacts: only the (empty) seq-0 WAL file remains.
	if segs := listSegmentFiles(t, path); len(segs) != 0 {
		t.Fatalf("numbered segments left after clean close: %v", segs)
	}

	db2 := mustOpenFile(t, path)
	defer db2.Close()
	if got := db2.Table("t").RowCount(); got != 40*50 {
		t.Fatalf("RowCount = %d, want %d", got, 40*50)
	}
}

func listSegmentFiles(t *testing.T, path string) []string {
	t.Helper()
	matches, err := os.ReadDir(tDir(path))
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range matches {
		name := e.Name()
		if len(name) > 8 && name[len(name)-9:len(name)-4] == ".wal." {
			segs = append(segs, name)
		}
	}
	return segs
}

func tDir(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[:i]
		}
	}
	return "."
}

// TestRecoveryAcrossSegments commits across several segment boundaries,
// crashes, and expects redo to stitch the segments back together in order.
func TestRecoveryAcrossSegments(t *testing.T) {
	path := tempDBPath(t)
	db, err := OpenFile(path, segmentOptions(-1)) // rotate but never compact
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := db.CreateTable("t", NewSchema(Column{Name: "v", Type: DTInt}))
	commits := 0
	for db.Pool().Stats().WALRotations < 2 {
		fillTable(t, tab, commits*40, 40)
		if err := db.FlushWAL(); err != nil {
			t.Fatal(err)
		}
		commits++
		if commits > 200 {
			t.Fatal("rotation never happened")
		}
	}
	if err := db.SimulateCrash(); err != nil {
		t.Fatal(err)
	}
	if segs := listSegmentFiles(t, path); len(segs) < 2 {
		t.Fatalf("want >= 2 sealed segment files on disk after crash, got %v", segs)
	}

	db2, err := OpenFile(path, segmentOptions(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.Table("t").RowCount(); got != commits*40 {
		t.Fatalf("RowCount = %d, want %d (all %d commits across segments)", got, commits*40, commits)
	}
	if err := db2.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}
}

// TestStrayWALSegmentNamesIgnored: a file whose name parses as a segment
// number but is not the name walSegPath gives (.wal.1, .wal.+1, .wal.00001)
// is not part of the log. Reopen skips it after a clean close, and beside a
// real rotated segment a crash left behind, where .wal.1 duplicates
// .wal.0001.
func TestStrayWALSegmentNamesIgnored(t *testing.T) {
	for _, stray := range []string{".wal.1", ".wal.+1", ".wal.00001"} {
		t.Run(stray, func(t *testing.T) {
			path := tempDBPath(t)
			db := mustOpenFile(t, path)
			tab, _ := db.CreateTable("t", NewSchema(Column{Name: "v", Type: DTInt}))
			fillTable(t, tab, 0, 100)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path+stray, []byte("not a WAL segment"), 0o644); err != nil {
				t.Fatal(err)
			}
			db2 := mustOpenFile(t, path)
			defer db2.Close()
			if got := db2.Table("t").RowCount(); got != 100 {
				t.Fatalf("RowCount = %d, want 100", got)
			}
		})
	}
	t.Run("duplicate", func(t *testing.T) {
		path := tempDBPath(t)
		opts := Options{WALSegmentBytes: 1, WALMaxSegments: -1, AutoCheckpointPages: -1}
		db, err := OpenFile(path, opts)
		if err != nil {
			t.Fatal(err)
		}
		tab, _ := db.CreateTable("t", NewSchema(Column{Name: "v", Type: DTInt}))
		for i := 0; i < 2; i++ {
			fillTable(t, tab, i*100, 100)
			if err := db.FlushWAL(); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.SimulateCrash(); err != nil {
			t.Fatal(err)
		}
		seg, err := os.ReadFile(path + ".wal.0001")
		if err != nil || len(seg) == 0 {
			t.Fatalf("rotated segment: %d bytes, %v", len(seg), err)
		}
		if err := os.WriteFile(path+".wal.1", seg, 0o644); err != nil {
			t.Fatal(err)
		}
		db2, err := OpenFile(path, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer db2.Close()
		if got := db2.Table("t").RowCount(); got != 200 {
			t.Fatalf("RowCount = %d, want 200", got)
		}
	})
}

// TestSegmentsFoundUnderRelativePath: recovery lists rotated segments by
// the exact names walSegPath gives, so a data file named by a relative path
// with a "./" prefix still finds them.
func TestSegmentsFoundUnderRelativePath(t *testing.T) {
	t.Chdir(t.TempDir())
	path := "./rel.dsdb"
	db, err := OpenFile(path, segmentOptions(-1))
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := db.CreateTable("t", NewSchema(Column{Name: "v", Type: DTInt}))
	commits := 0
	for db.Pool().Stats().WALRotations < 2 {
		fillTable(t, tab, commits*40, 40)
		if err := db.FlushWAL(); err != nil {
			t.Fatal(err)
		}
		commits++
		if commits > 200 {
			t.Fatal("rotation never happened")
		}
	}
	if err := db.SimulateCrash(); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenFile(path, segmentOptions(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.Table("t").RowCount(); got != commits*40 {
		t.Fatalf("RowCount = %d, want %d (all %d commits across segments)", got, commits*40, commits)
	}
}

// TestTornMiddleSegmentDiscardsSuffix tears a record inside a middle
// segment: recovery must keep every commit before the tear and discard
// everything after it — including intact-looking later segments, which are
// not a valid continuation of a torn log.
func TestTornMiddleSegmentDiscardsSuffix(t *testing.T) {
	path := tempDBPath(t)
	db, err := OpenFile(path, segmentOptions(-1))
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := db.CreateTable("t", NewSchema(Column{Name: "v", Type: DTInt}))
	// Track which commit each rotation happened after.
	var batchAtRotation []int
	commits := 0
	lastRot := int64(0)
	for len(batchAtRotation) < 2 {
		fillTable(t, tab, commits*40, 40)
		if err := db.FlushWAL(); err != nil {
			t.Fatal(err)
		}
		commits++
		if rot := db.Pool().Stats().WALRotations; rot != lastRot {
			lastRot = rot
			batchAtRotation = append(batchAtRotation, commits)
		}
		if commits > 200 {
			t.Fatal("rotation never happened")
		}
	}
	// A couple more commits land in the now-active third segment.
	for i := 0; i < 2; i++ {
		fillTable(t, tab, commits*40, 40)
		if err := db.FlushWAL(); err != nil {
			t.Fatal(err)
		}
		commits++
	}
	if err := db.SimulateCrash(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail of segment 1 (the second segment, <path>.wal.0001):
	// its last commit record is destroyed.
	seg1 := fmt.Sprintf("%s.wal.%04d", path, 1)
	st, err := os.Stat(seg1)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg1, st.Size()-10); err != nil {
		t.Fatal(err)
	}

	db2, err := OpenFile(path, segmentOptions(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	// batchAtRotation[1] commits were fully inside segments 0 and 1; the
	// tear removed the last of them.
	want := (batchAtRotation[1] - 1) * 40
	if got := db2.Table("t").RowCount(); got != want {
		t.Fatalf("RowCount = %d, want %d (prefix up to the torn record)", got, want)
	}
	if err := db2.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}
}

// TestLegacySingleFileWAL: a database written with rotation disabled (the
// v2/v3 layout: one unbounded .wal) must recover under a rotation-enabled
// configuration.
func TestLegacySingleFileWAL(t *testing.T) {
	path := tempDBPath(t)
	db, err := OpenFile(path, Options{WALSegmentBytes: -1, WALMaxSegments: -1})
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := db.CreateTable("t", NewSchema(Column{Name: "v", Type: DTInt}))
	for i := 0; i < 10; i++ {
		fillTable(t, tab, i*100, 100)
		if err := db.FlushWAL(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.SimulateCrash(); err != nil {
		t.Fatal(err)
	}
	if st := db.Pool().Stats(); st.WALRotations != 0 {
		t.Fatalf("rotation fired with WALSegmentBytes<0 (%d rotations)", st.WALRotations)
	}

	db2, err := OpenFile(path, segmentOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.Table("t").RowCount(); got != 1000 {
		t.Fatalf("RowCount = %d, want 1000", got)
	}
	if err := db2.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}
}

// TestPerCommitRotation drives rotation at its most aggressive (a segment
// per commit) and checks both the counters and recovery across a crash.
func TestPerCommitRotation(t *testing.T) {
	path := tempDBPath(t)
	opts := Options{WALSegmentBytes: 1, WALMaxSegments: -1, AutoCheckpointPages: -1}
	db, err := OpenFile(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := db.CreateTable("t", NewSchema(Column{Name: "v", Type: DTInt}))
	fillTable(t, tab, 0, 100)
	if err := db.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	if rot := db.Pool().Stats().WALRotations; rot != 1 {
		t.Fatalf("WALRotations = %d, want 1 (segment bytes = 1)", rot)
	}
	fillTable(t, tab, 100, 100)
	if err := db.FlushWAL(); err != nil {
		t.Fatalf("second commit into rotated segment: %v", err)
	}
	if err := db.SimulateCrash(); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenFile(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.Table("t").RowCount(); got != 200 {
		t.Fatalf("RowCount = %d, want 200 across per-commit segments", got)
	}
}

// TestCompactionTruncateFailurePoisons: the checkpoint's WAL reset fails
// (the truncate of the oldest segment). The checkpoint itself is complete,
// but the pager must poison rather than keep committing into a log whose
// compaction state is unknown.
func TestCompactionTruncateFailurePoisons(t *testing.T) {
	path := tempDBPath(t)
	fs := NewFaultSchedule(7, FaultRule{File: FaultFileWAL, Op: FaultTruncate, Kind: FaultIOErr, After: 1, Count: -1})
	db, err := OpenFile(path, Options{AutoCheckpointPages: -1, Faults: fs})
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := db.CreateTable("t", NewSchema(Column{Name: "v", Type: DTInt}))
	fillTable(t, tab, 0, 100)
	if err := db.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	err = db.Checkpoint()
	if !errors.Is(err, ErrPoisoned) || !errors.Is(err, ErrInjected) {
		t.Fatalf("Checkpoint = %v, want poisoned/injected (WAL reset failed)", err)
	}
	if err := db.SimulateCrash(); err != nil {
		t.Fatal(err)
	}
	// The data reached the data file before the reset failed; whether the
	// WAL still replays over it or not, the rows survive.
	db2 := mustOpenFile(t, path)
	defer db2.Close()
	if got := db2.Table("t").RowCount(); got != 100 {
		t.Fatalf("RowCount = %d, want 100", got)
	}
}
