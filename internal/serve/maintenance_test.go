package serve

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"dataspread/internal/core"
	"dataspread/internal/rdbms"
)

// TestServeDiskFullRecover is the wire half of the disk-full-then-recovers
// story: an ENOSPC mid-commit poisons the served database (StatusReadOnly
// on every further mutation), the per-rule fault breakdown names the
// failure in Stats, and once the space is back a single OpRecover clears
// the poison — acked state intact, writes resuming on the same server
// process.
func TestServeDiskFullRecover(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.ds")
	fs := rdbms.NewFaultSchedule(21)
	db, err := rdbms.OpenFile(path, rdbms.Options{Faults: fs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	_, addr := startServer(t, db, core.Options{})
	c := dialT(t, addr)

	if err := c.Open("s"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Set("s", 1, 1, "acked"); err != nil {
		t.Fatalf("healthy write: %v", err)
	}

	// The disk fills for exactly one WAL append, then space frees up.
	fs.Arm(rdbms.FaultRule{File: rdbms.FaultFileWAL, Op: rdbms.FaultWrite, Kind: rdbms.FaultENOSPC, After: 1})
	if _, err := c.Set("s", 2, 1, "torn"); !errors.Is(err, rdbms.ErrReadOnly) {
		t.Fatalf("write on full disk = %v, want read-only", err)
	}
	if _, err := c.Set("s", 3, 1, "rejected"); !errors.Is(err, rdbms.ErrReadOnly) {
		t.Fatalf("write while poisoned = %v, want read-only", err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Poisoned {
		t.Fatal("Stats.Poisoned = false after ENOSPC commit")
	}
	if st.InjectedByKind.NoSpace == 0 {
		t.Fatalf("InjectedByKind = %+v, want the ENOSPC recorded", st.InjectedByKind)
	}
	found := false
	for _, fr := range st.Faults {
		if fr.Rule.Kind == rdbms.FaultENOSPC && fr.Injected > 0 {
			found = true
			if fr.Rule.File != rdbms.FaultFileWAL || fr.Rule.Op != rdbms.FaultWrite {
				t.Fatalf("rule breakdown mangled on the wire: %+v", fr)
			}
		}
	}
	if !found {
		t.Fatalf("per-rule breakdown %+v does not name the ENOSPC rule", st.Faults)
	}

	// Space is back (the rule is exhausted): one recover op heals in place.
	if err := c.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	st, err = c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Poisoned {
		t.Fatal("still poisoned after Recover")
	}
	if st.IO.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1", st.IO.Recoveries)
	}

	// The acked batch survived; the torn one vanished whole.
	cells, _, err := c.GetRange("s", 1, 1, 3, 1)
	if err != nil {
		t.Fatalf("read after recovery: %v", err)
	}
	if cells[0][0].Value.Text() != "acked" {
		t.Fatalf("A1 after recovery = %q, want the acked write", cells[0][0].Value.Text())
	}
	if cells[1][0].Value.Text() == "torn" {
		t.Fatal("unacked torn batch resurrected by recovery")
	}
	// Writes resume.
	if _, err := c.Set("s", 4, 1, "resumed"); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
	cells, _, err = c.GetRange("s", 4, 1, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cells[0][0].Value.Text() != "resumed" {
		t.Fatalf("A4 = %q, want the post-recovery write", cells[0][0].Value.Text())
	}
}

// TestServeScrubVacuumOps drives the maintenance ops over the wire on a
// healthy server: a scrub pass verifies every slot clean while the sheet
// stays served, and a vacuum returns a well-formed summary with the
// counters surfacing in Stats.
func TestServeScrubVacuumOps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.ds")
	db, err := rdbms.OpenFile(path, rdbms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	_, addr := startServer(t, db, core.Options{})
	c := dialT(t, addr)

	if err := c.Open("s"); err != nil {
		t.Fatal(err)
	}
	edits := make([]core.CellEdit, 0, 512)
	for i := 1; i <= 512; i++ {
		edits = append(edits, core.CellEdit{Row: i, Col: 1, Input: "payload payload payload"})
	}
	if _, err := c.SetCells("s", edits); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	sum, err := c.Scrub(0)
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if sum.Scanned == 0 || len(sum.Bad) != 0 || len(sum.Repaired) != 0 {
		t.Fatalf("scrub on healthy disk = %+v, want clean scan", sum)
	}
	vs, err := c.Vacuum()
	if err != nil {
		t.Fatalf("Vacuum: %v", err)
	}
	if vs.PagesAfter > vs.PagesBefore || vs.PagesBefore == 0 {
		t.Fatalf("vacuum summary = %+v", vs)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.IO.ScrubRuns != 1 || st.IO.ScrubPages == 0 || st.IO.Vacuums != 1 {
		t.Fatalf("maintenance counters = scrub %d/%d vacuum %d", st.IO.ScrubRuns, st.IO.ScrubPages, st.IO.Vacuums)
	}
	// The sheet is still fully served after both passes.
	cells, _, err := c.GetRange("s", 512, 1, 512, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cells[0][0].Value.Text() != "payload payload payload" {
		t.Fatalf("cell after maintenance = %q", cells[0][0].Value.Text())
	}
}

// corruptSlot smashes bytes in the middle of page id's data-file slot
// behind the database's back (the slot layout of rdbms.FilePager: an 8 KiB
// header, then a CRC, the page id and the page image per slot).
func corruptSlot(t *testing.T, path string, id rdbms.PageID) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	off := int64(rdbms.PageSize) + int64(id)*(8+rdbms.PageSize) + 512
	if _, err := f.WriteAt([]byte("CORRUPTCORRUPT"), off); err != nil {
		t.Fatal(err)
	}
}

// TestServeScrubReportsQuarantinedPages: a checkpointed slot corrupted with
// no in-memory repair source is quarantined, and a scrub over the wire
// returns the same findings — the quarantined page ids included — as the
// same pass run in-process on a twin of the file.
func TestServeScrubReportsQuarantinedPages(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "serve.ds")
	db, err := rdbms.OpenFile(path, rdbms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := db.CreateTable("t", rdbms.NewSchema(rdbms.Column{Name: "v", Type: rdbms.DTInt}))
	if err != nil {
		t.Fatal(err)
	}
	var victim rdbms.PageID
	for i := 0; i < 3000; i++ {
		rid, err := tab.Insert(rdbms.Row{rdbms.Int(int64(i))})
		if err != nil {
			t.Fatal(err)
		}
		if i == 1500 {
			victim = rid.Page
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	twin := filepath.Join(dir, "twin.ds")
	if err := os.WriteFile(twin, data, 0o644); err != nil {
		t.Fatal(err)
	}
	corruptSlot(t, path, victim)
	corruptSlot(t, twin, victim)

	db, err = rdbms.OpenFile(path, rdbms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	_, addr := startServer(t, db, core.Options{})
	got, err := dialT(t, addr).Scrub(0)
	if err != nil {
		t.Fatalf("Scrub over the wire: %v", err)
	}
	tdb, err := rdbms.OpenFile(twin, rdbms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tdb.Close()
	want, err := tdb.Scrub(rdbms.PassOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Bad) != 1 || want.Bad[0] != victim {
		t.Fatalf("in-process scrub quarantined %v, want [%d]", want.Bad, victim)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("wire scrub = %+v, in-process scrub of the twin = %+v", got, want)
	}
}

// TestServeCloseStopsPacedPass: a paced scrub or backup a client started
// does not hold up Server.Close — the server stops the pass — so a
// SIGTERM'd dsserver shuts down promptly.
func TestServeCloseStopsPacedPass(t *testing.T) {
	for _, op := range []string{"scrub", "backup"} {
		t.Run(op, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "serve.ds")
			db, err := rdbms.OpenFile(path, rdbms.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { db.Close() })
			tab, err := db.CreateTable("t", rdbms.NewSchema(rdbms.Column{Name: "v", Type: rdbms.DTText}))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20000; i++ {
				if _, err := tab.Insert(rdbms.Row{rdbms.Text("a row long enough to fill pages quickly")}); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if fi, err := os.Stat(path); err != nil || fi.Size() <= 65*rdbms.PageSize {
				t.Fatalf("store fits one 64-page batch (stat %v); the pass would never pause", err)
			}
			srv, addr := startServer(t, db, core.Options{})
			c := dialT(t, addr)
			reads := db.Pool().Stats().DiskReads
			passDone := make(chan struct{})
			go func() {
				defer close(passDone)
				// 8 pages/s: each 64-page batch is followed by an 8 s pause.
				if op == "scrub" {
					c.Scrub(8)
				} else {
					c.Backup(io.Discard, 8)
				}
			}()
			// Once the first batch is read, the pass is in its pause.
			for db.Pool().Stats().DiskReads-reads < 64 {
				select {
				case <-passDone:
					t.Fatalf("the %s ended before its first pause", op)
				case <-time.After(time.Millisecond):
				}
			}
			closed := make(chan error, 1)
			go func() { closed <- srv.Close() }()
			select {
			case err := <-closed:
				if err != nil {
					t.Fatalf("Close: %v", err)
				}
			case <-time.After(time.Second):
				t.Fatalf("Close still blocked 1s after a paced %s started over the wire", op)
			}
			<-passDone
		})
	}
}

// TestServeBackupStream drives OpBackup over the wire: the chunked response
// reassembles into a valid backup (large enough to span several StatusChunk
// frames), unsaved sheet edits are captured because the server saves open
// sheets first, the restored database serves the same cells, the backup
// counters surface in Stats, and the connection stays usable for ordinary
// requests after the stream.
func TestServeBackupStream(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "serve.ds")
	db, err := rdbms.OpenFile(path, rdbms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	_, addr := startServer(t, db, core.Options{})
	c := dialT(t, addr)

	if err := c.Open("s"); err != nil {
		t.Fatal(err)
	}
	edits := make([]core.CellEdit, 0, 8192)
	for i := 1; i <= 8192; i++ {
		edits = append(edits, core.CellEdit{Row: i, Col: 1, Input: "backup payload backup payload"})
	}
	if _, err := c.SetCells("s", edits); err != nil {
		t.Fatal(err)
	}

	bak := filepath.Join(dir, "serve.dsb")
	f, err := os.Create(bak)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := c.Backup(f, 0)
	if err != nil {
		t.Fatalf("Backup over the wire: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if sum.Pages == 0 || sum.Bytes == 0 || sum.Gen == 0 {
		t.Fatalf("backup summary = %+v", sum)
	}
	fi, err := os.Stat(bak)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != sum.Bytes {
		t.Fatalf("reassembled stream is %d bytes, summary says %d", fi.Size(), sum.Bytes)
	}
	if fi.Size() <= backupChunkSize {
		t.Fatalf("backup of %d bytes fits one chunk; grow the sheet so the test exercises chunking", fi.Size())
	}

	// The connection survives the stream.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after backup stream: %v", err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.IO.Backups != 1 || st.IO.BackupBytes != sum.Bytes || st.IO.DurableGen != int64(sum.Gen) {
		t.Fatalf("backup counters = backups %d bytes %d gen %d, want 1/%d/%d",
			st.IO.Backups, st.IO.BackupBytes, st.IO.DurableGen, sum.Bytes, sum.Gen)
	}

	// The backup restores to a database serving the same cells, including
	// the edits that were unsaved when the backup was requested.
	restored := filepath.Join(dir, "restored.ds")
	if err := rdbms.Restore(bak, restored, rdbms.RestoreOptions{}); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	rdb, err := rdbms.OpenFile(restored, rdbms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	eng, err := core.Load(rdb, "s", core.Options{})
	if err != nil {
		t.Fatalf("load restored sheet: %v", err)
	}
	for _, row := range []int{1, 4096, 8192} {
		got := eng.GetCell(row, 1).Value.Text()
		if got != "backup payload backup payload" {
			t.Fatalf("restored cell (%d,1) = %q", row, got)
		}
	}
}
