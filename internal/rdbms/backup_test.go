package rdbms

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// scanModel snapshots a table as id → text for exact content comparison.
func scanModel(tab *Table) map[int64]string {
	m := make(map[int64]string)
	tab.Scan(func(_ RID, r Row) bool {
		id := r[0].Int64()
		txt := ""
		if len(r) > 1 {
			txt = r[1].Str()
		}
		m[id] = txt
		return true
	})
	return m
}

func requireModel(t *testing.T, tab *Table, want map[int64]string, label string) {
	t.Helper()
	got := scanModel(tab)
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for id, txt := range want {
		if got[id] != txt {
			t.Fatalf("%s: row %d = %q, want %q", label, id, got[id], txt)
		}
	}
}

// backupToBuf takes one backup into memory.
func backupToBuf(t *testing.T, db *DB, opts PassOptions) (*bytes.Buffer, BackupResult) {
	t.Helper()
	var buf bytes.Buffer
	res, err := db.Backup(&buf, opts)
	if err != nil {
		t.Fatalf("Backup: %v", err)
	}
	return &buf, res
}

func writeBackupFile(t *testing.T, dir string, data []byte) string {
	t.Helper()
	p := filepath.Join(dir, "base.dsb")
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBackupRestoreRoundTrip(t *testing.T) {
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
	fillTable(t, tab, 0, 1500)
	// A dropped table plus a fat deleted meta value leave free pages, so the
	// trailer's free-page manifest is exercised too.
	junk, _ := db.CreateTable("junk", NewSchema(Column{Name: "v", Type: DTInt}))
	fillTable(t, junk, 0, 500)
	db.PutMeta("app:cfg", bytes.Repeat([]byte("x"), 3*PageSize))
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.DropTable("junk"); err != nil {
		t.Fatal(err)
	}
	db.DeleteMeta("app:cfg")
	model := scanModel(tab)

	buf, res := backupToBuf(t, db, PassOptions{BatchPages: 16})
	if res.Gen == 0 || res.Gen != db.DurableGen() {
		t.Fatalf("backup gen = %d, durable gen = %d", res.Gen, db.DurableGen())
	}
	if res.Pages == 0 || res.FreePages == 0 {
		t.Fatalf("res = %+v, want live and free pages", res)
	}
	if res.Bytes != int64(buf.Len()) {
		t.Fatalf("res.Bytes = %d, stream is %d", res.Bytes, buf.Len())
	}
	st := db.Pool().Stats()
	if st.Backups != 1 || st.BackupPages != int64(res.Pages) || st.BackupBytes != res.Bytes {
		t.Fatalf("counters = backups %d pages %d bytes %d, want 1/%d/%d",
			st.Backups, st.BackupPages, st.BackupBytes, res.Pages, res.Bytes)
	}
	if st.DurableGen != int64(res.Gen) {
		t.Fatalf("DurableGen stat = %d, want %d", st.DurableGen, res.Gen)
	}

	dir := t.TempDir()
	base := writeBackupFile(t, dir, buf.Bytes())
	dest := filepath.Join(dir, "restored.dsdb")
	if err := Restore(base, dest, RestoreOptions{}); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	rdb, err := OpenFile(dest, Options{})
	if err != nil {
		t.Fatalf("open restored: %v", err)
	}
	defer rdb.Close()
	if g := rdb.DurableGen(); g != res.Gen {
		t.Fatalf("restored durable gen = %d, want %d", g, res.Gen)
	}
	if err := rdb.VerifyChecksums(); err != nil {
		t.Fatalf("restored verification: %v", err)
	}
	requireModel(t, rdb.Table("t"), model, "restored")
	if rdb.Table("junk") != nil {
		t.Fatal("dropped table resurrected by restore")
	}
}

// TestHotBackupConsistentUnderCheckpoints drives writes and checkpoints
// from the walker's own progress callback — every batch boundary mutates
// pages on both sides of the cursor and forces them into their slots — and
// requires the restored store to hold exactly the pinned generation's
// state, proving the checkpoint pre-image path.
func TestHotBackupConsistentUnderCheckpoints(t *testing.T) {
	path := tempDBPath(t)
	db := mustOpenFile(t, path)
	defer db.Close()
	tab, _ := db.CreateTable("t", NewSchema(
		Column{Name: "id", Type: DTInt},
		Column{Name: "name", Type: DTText},
	))
	rids := fillTable(t, tab, 0, 3000)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	model := scanModel(tab)

	step := 0
	var buf bytes.Buffer
	res, err := db.Backup(&buf, PassOptions{BatchPages: 2, Progress: func(done, total int) error {
		step++
		// Overwrite a row near the front (already streamed) and one near the
		// back (not yet streamed), then checkpoint so the slots really change
		// under the walker.
		for _, i := range []int{step % 100, len(rids) - 1 - step%100} {
			if _, err := tab.Update(rids[i], Row{Int(int64(i)), Text(fmt.Sprintf("mutated-%d", step))}); err != nil {
				return err
			}
		}
		if step%4 == 0 {
			return db.Checkpoint()
		}
		return db.FlushWAL()
	}})
	if err != nil {
		t.Fatalf("hot backup: %v", err)
	}
	if step < 8 {
		t.Fatalf("progress ran %d times; the walk never interleaved", step)
	}

	dir := t.TempDir()
	base := writeBackupFile(t, dir, buf.Bytes())
	dest := filepath.Join(dir, "restored.dsdb")
	if err := Restore(base, dest, RestoreOptions{}); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	rdb, err := OpenFile(dest, Options{})
	if err != nil {
		t.Fatalf("open restored: %v", err)
	}
	defer rdb.Close()
	if g := rdb.DurableGen(); g != res.Gen {
		t.Fatalf("restored gen = %d, want pinned %d", g, res.Gen)
	}
	// The backup must hold the pre-backup state, not any of the mutations
	// committed while it streamed.
	requireModel(t, rdb.Table("t"), model, "pinned snapshot")
}

func TestHotBackupUnderConcurrentWriters(t *testing.T) {
	path := tempDBPath(t)
	db := mustOpenFile(t, path)
	defer db.Close()
	tab, _ := db.CreateTable("t", NewSchema(
		Column{Name: "id", Type: DTInt},
		Column{Name: "name", Type: DTText},
	))
	fillTable(t, tab, 0, 2000)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// One table per writer: table mutation is single-writer by contract
	// (the serve layer latches per table); concurrency here is at the DB,
	// pager and commit level.
	wtabs := make([]*Table, 4)
	for w := range wtabs {
		wtabs[w], _ = db.CreateTable(fmt.Sprintf("w%d", w), NewSchema(
			Column{Name: "id", Type: DTInt},
			Column{Name: "name", Type: DTText},
		))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var commits atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := wtabs[w].Insert(Row{Int(int64(100000 + w*10000 + i)), Text("hot")}); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				if i%8 == 0 {
					if err := db.FlushWAL(); err != nil {
						t.Errorf("writer %d flush: %v", w, err)
						return
					}
					commits.Add(1)
				}
				if i%64 == 0 {
					if err := db.Checkpoint(); err != nil {
						t.Errorf("writer %d checkpoint: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	var buf bytes.Buffer
	res, err := db.Backup(&buf, PassOptions{BatchPages: 8, PagesPerSecond: 20000})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("hot backup under writers: %v", err)
	}
	if commits.Load() == 0 {
		t.Fatal("no concurrent commits landed; the test raced nothing")
	}

	dir := t.TempDir()
	base := writeBackupFile(t, dir, buf.Bytes())
	dest := filepath.Join(dir, "restored.dsdb")
	if err := Restore(base, dest, RestoreOptions{}); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	rdb, err := OpenFile(dest, Options{})
	if err != nil {
		t.Fatalf("open restored: %v", err)
	}
	defer rdb.Close()
	if err := rdb.VerifyChecksums(); err != nil {
		t.Fatalf("restored verification: %v", err)
	}
	if g := rdb.DurableGen(); g != res.Gen {
		t.Fatalf("restored gen = %d, want pinned %d", g, res.Gen)
	}
	// The snapshot is one committed generation: the base rows are all
	// present and whole, and every hot row that made it in is whole.
	m := scanModel(rdb.Table("t"))
	for i := int64(0); i < 2000; i++ {
		if !strings.HasPrefix(m[i], "row-") {
			t.Fatalf("base row %d = %q after restore", i, m[i])
		}
	}
	for w := 0; w < 4; w++ {
		wt := rdb.Table(fmt.Sprintf("w%d", w))
		if wt == nil {
			t.Fatalf("writer table w%d missing after restore", w)
		}
		for id, txt := range scanModel(wt) {
			if txt != "hot" {
				t.Fatalf("hot row %d = %q after restore", id, txt)
			}
		}
	}
}

// TestPITRRestoreToExactGeneration restores to each generation committed
// after a base backup. One heap page is followed through them: within the one
// checkpoint epoch after the backup it is logged as an image, then as deltas,
// the last of them in a later segment than the image, and at every target the
// restored page must equal, byte for byte, the page as it was live at that
// generation.
func TestPITRRestoreToExactGeneration(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "src.dsdb")
	archive := filepath.Join(dir, "archive")
	// Small segments, and nothing but the explicit checkpoints compacts them.
	opts := segmentOptions(-1)
	opts.ArchiveDir = archive
	db, err := OpenFile(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tab, _ := db.CreateTable("t", NewSchema(
		Column{Name: "id", Type: DTInt},
		Column{Name: "name", Type: DTText},
	))
	type snap struct {
		gen   uint64
		model map[int64]string
		page  []byte // the followed page, once it is chosen
	}
	followed := noPage
	commit := func() snap {
		t.Helper()
		if err := db.FlushWAL(); err != nil {
			t.Fatal(err)
		}
		s := snap{gen: db.DurableGen(), model: scanModel(tab)}
		if followed != noPage {
			fp := db.filePager()
			fp.mu.RLock()
			s.page = append([]byte(nil), fp.shadow[followed].buf[:]...)
			fp.mu.RUnlock()
		}
		return s
	}
	fillTable(t, tab, 0, 300)
	s1 := commit()
	rids := fillTable(t, tab, 300, 300)
	s2 := commit()
	followed = rids[200].Page
	// Base backup lands between s2 and s3 (its checkpoint archives
	// everything up to here).
	buf, res := backupToBuf(t, db, PassOptions{})
	base := writeBackupFile(t, dir, buf.Bytes())
	if res.Gen < s2.gen {
		t.Fatalf("backup gen %d predates committed %d", res.Gen, s2.gen)
	}
	retouch := func(name string) {
		t.Helper()
		if rid, err := tab.Update(rids[200], Row{Int(int64(500)), Text(name)}); err != nil || rid != rids[200] {
			t.Fatalf("update of row 500: now at %v, err %v", rid, err)
		}
	}
	fillTable(t, tab, 600, 300)
	for i := 0; i < 100; i++ {
		tab.Delete(rids[i])
	}
	retouch("first")
	s3 := commit()
	retouch("again")
	s4 := commit()
	// A batch that outgrows the segment: the log rotates under the page.
	rotations := db.Pool().Stats().WALRotations
	fillTable(t, tab, 900, 3000)
	commit()
	if db.Pool().Stats().WALRotations == rotations {
		t.Fatal("the bulk batch did not rotate the log")
	}
	retouch("final")
	s5 := commit()
	// Archive the tail: generations still sitting in the live WAL are not
	// archived until compaction runs.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	restoreTo := func(gen uint64) *DB {
		t.Helper()
		dest := filepath.Join(t.TempDir(), "restored.dsdb")
		if err := Restore(base, dest, RestoreOptions{ArchiveDir: archive, TargetGen: gen}); err != nil {
			t.Fatalf("Restore(gen=%d): %v", gen, err)
		}
		rdb, err := OpenFile(dest, Options{})
		if err != nil {
			t.Fatalf("open restored(gen=%d): %v", gen, err)
		}
		t.Cleanup(func() { rdb.Close() })
		return rdb
	}
	// The archive holds the followed page as planned: since the backup, an
	// image, then deltas only, the last in a later file than the image.
	seqs, err := listArchiveSeqs(archive)
	if err != nil {
		t.Fatal(err)
	}
	files := make([]string, len(seqs))
	for i, seq := range seqs {
		files[i] = archivePath(archive, seq)
	}
	var kinds []byte
	var kindFiles []int
	pending, pendingFile := byte(0), 0
	for _, r := range walkSegments(t, files...) {
		switch {
		case !r.commit && r.id == followed:
			pending, pendingFile = 'i', r.seg
			if r.delta {
				pending = 'd'
			}
		case r.commit:
			if pending != 0 && r.gen > res.Gen {
				kinds, kindFiles = append(kinds, pending), append(kindFiles, pendingFile)
			}
			pending = 0
		}
	}
	if got := string(kinds); got != "idd" && got != "iddd" {
		t.Fatalf("page %d archived as %q since the backup, want an image then deltas", followed, got)
	}
	if last := len(kinds) - 1; kindFiles[0] == kindFiles[last] {
		t.Fatalf("page %d's image and last delta share archive file %s", followed, files[kindFiles[0]])
	}

	for _, s := range []snap{s3, s4, s5} {
		rdb := restoreTo(s.gen)
		if g := rdb.DurableGen(); g != s.gen {
			t.Fatalf("restored gen = %d, want %d", g, s.gen)
		}
		requireModel(t, rdb.Table("t"), s.model, fmt.Sprintf("gen %d", s.gen))
		p, err := rdb.filePager().readPageFromFile(followed)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p.buf[:], s.page) {
			t.Fatalf("gen %d: restored page %d differs from the live page at that generation", s.gen, followed)
		}
	}
	// TargetGen 0: as far as the archive reaches — at least s5.
	rdb := restoreTo(0)
	if g := rdb.DurableGen(); g < s5.gen {
		t.Fatalf("restore-to-latest reached gen %d, want >= %d", g, s5.gen)
	}
	requireModel(t, rdb.Table("t"), s5.model, "latest")
	// A target before the base backup is a gap, not a silent approximation.
	dest := filepath.Join(t.TempDir(), "tooearly.dsdb")
	if err := Restore(base, dest, RestoreOptions{ArchiveDir: archive, TargetGen: s1.gen}); !errors.Is(err, ErrArchiveGap) {
		t.Fatalf("restore before base = %v, want ErrArchiveGap", err)
	}
	if _, err := os.Stat(dest); !os.IsNotExist(err) {
		t.Fatal("failed restore left the target path behind")
	}
}

func TestRestoreRejectsHostileArtifacts(t *testing.T) {
	path := tempDBPath(t)
	db := mustOpenFile(t, path)
	tab, _ := db.CreateTable("t", NewSchema(Column{Name: "v", Type: DTInt}))
	fillTable(t, tab, 0, 800)
	buf, _ := backupToBuf(t, db, PassOptions{})
	good := buf.Bytes()
	db.Close()

	check := func(name string, mutate func([]byte) []byte, want error) {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			base := writeBackupFile(t, dir, mutate(append([]byte(nil), good...)))
			dest := filepath.Join(dir, "restored.dsdb")
			err := Restore(base, dest, RestoreOptions{})
			if !errors.Is(err, want) {
				t.Fatalf("Restore = %v, want %v", err, want)
			}
			if _, serr := os.Stat(dest); !os.IsNotExist(serr) {
				t.Fatal("rejected restore left the target path behind")
			}
			if _, serr := os.Stat(dest + ".restore-tmp"); !os.IsNotExist(serr) {
				t.Fatal("rejected restore left its temp path behind")
			}
		})
	}
	check("truncated", func(b []byte) []byte { return b[:len(b)-37] }, ErrBackupCorrupt)
	check("truncated-header", func(b []byte) []byte { return b[:20] }, ErrBackupFormat)
	check("bit-flipped-page", func(b []byte) []byte {
		b[backupHeaderSize+5+PageSize/2] ^= 0x40
		return b
	}, ErrBackupCorrupt)
	check("bit-flipped-trailer", func(b []byte) []byte {
		b[len(b)-10] ^= 0x01
		return b
	}, ErrBackupCorrupt)
	check("wrong-version", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[8:], 99)
		binary.LittleEndian.PutUint32(b[32:], crc32.Checksum(b[0:32], castagnoli))
		return b
	}, ErrBackupFormat)
	check("bad-magic", func(b []byte) []byte { copy(b, "NOTABKUP"); return b }, ErrBackupFormat)
	check("trailing-garbage", func(b []byte) []byte { return append(b, 0xEE) }, ErrBackupCorrupt)

	t.Run("target-exists", func(t *testing.T) {
		dir := t.TempDir()
		base := writeBackupFile(t, dir, good)
		dest := filepath.Join(dir, "restored.dsdb")
		if err := os.WriteFile(dest, []byte("precious"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := Restore(base, dest, RestoreOptions{}); err == nil {
			t.Fatal("Restore over an existing path succeeded")
		}
		b, _ := os.ReadFile(dest)
		if string(b) != "precious" {
			t.Fatal("Restore clobbered the existing target")
		}
	})
}

func TestRestoreRejectsArchiveGap(t *testing.T) {
	dir := t.TempDir()
	archive := filepath.Join(dir, "archive")
	db, err := OpenFile(filepath.Join(dir, "src.dsdb"), Options{ArchiveDir: archive})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tab, _ := db.CreateTable("t", NewSchema(Column{Name: "v", Type: DTInt}))
	fillTable(t, tab, 0, 50)
	buf, res := backupToBuf(t, db, PassOptions{})
	base := writeBackupFile(t, dir, buf.Bytes())
	// Three more archived batches, one checkpoint each so every generation
	// lands in its own archive file.
	for i := 0; i < 3; i++ {
		fillTable(t, tab, 100+i*10, 10)
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	finalGen := db.DurableGen()
	seqs, err := listArchiveSeqs(archive)
	if err != nil || len(seqs) < 3 {
		t.Fatalf("archive has %d segments (err %v), want >= 3", len(seqs), err)
	}
	// Removing a middle segment must break the chain detectably.
	if err := os.Remove(archivePath(archive, seqs[len(seqs)-2])); err != nil {
		t.Fatal(err)
	}
	dest := filepath.Join(dir, "restored.dsdb")
	if err := Restore(base, dest, RestoreOptions{ArchiveDir: archive, TargetGen: finalGen}); !errors.Is(err, ErrArchiveGap) {
		t.Fatalf("Restore across a missing segment = %v, want ErrArchiveGap", err)
	}
	if _, serr := os.Stat(dest); !os.IsNotExist(serr) {
		t.Fatal("failed restore left the target path behind")
	}
	// An unreachable future generation is also a gap, not silent rollback.
	if err := Restore(base, dest, RestoreOptions{ArchiveDir: archive, TargetGen: res.Gen + 1000}); !errors.Is(err, ErrArchiveGap) {
		t.Fatalf("Restore to unreachable gen = %v, want ErrArchiveGap", err)
	}
}

func TestBackupAndScrubStopPromptly(t *testing.T) {
	path := tempDBPath(t)
	db := mustOpenFile(t, path)
	defer db.Close()
	tab, _ := db.CreateTable("t", NewSchema(Column{Name: "v", Type: DTInt}))
	fillTable(t, tab, 0, 2000)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(stop)
	}()
	start := time.Now()
	// 4 pages/s over hundreds of pages would run for minutes; the stop
	// signal must cut through the pacing sleep.
	var buf bytes.Buffer
	_, err := db.Backup(&buf, PassOptions{BatchPages: 4, PagesPerSecond: 4, Stop: stop})
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("Backup = %v, want ErrStopped", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("stop took %v; the pacing sleep ignored it", d)
	}
	if st := db.Pool().Stats(); st.Backups != 0 {
		t.Fatalf("stopped backup counted as a run: Backups = %d", st.Backups)
	}
	_, err = db.Scrub(PassOptions{BatchPages: 4, PagesPerSecond: 4, Stop: stop})
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("Scrub with closed stop = %v, want ErrStopped", err)
	}
	// A stopped backup leaves no walk state behind: the next one runs.
	if _, err := db.Backup(&buf, PassOptions{}); err != nil {
		t.Fatalf("backup after stopped backup: %v", err)
	}
}

func TestVacuumRefusedDuringBackup(t *testing.T) {
	path := tempDBPath(t)
	db := mustOpenFile(t, path)
	defer db.Close()
	tab, _ := db.CreateTable("t", NewSchema(Column{Name: "v", Type: DTInt}))
	fillTable(t, tab, 0, 1000)
	var sawRefusal bool
	var buf bytes.Buffer
	_, err := db.Backup(&buf, PassOptions{BatchPages: 8, Progress: func(done, total int) error {
		if !sawRefusal {
			sawRefusal = true
			if _, verr := db.Vacuum(); verr == nil {
				return errors.New("vacuum ran during a backup")
			}
		}
		return nil
	}})
	if err != nil {
		t.Fatalf("Backup: %v", err)
	}
	if !sawRefusal {
		t.Fatal("progress never ran")
	}
	// After the backup, vacuum works again.
	if _, err := db.Vacuum(); err != nil {
		t.Fatalf("vacuum after backup: %v", err)
	}
}

func TestMaintenanceSchedulerRunsAndStops(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "src.dsdb")
	db := mustOpenFile(t, path)
	defer db.Close()
	tab, _ := db.CreateTable("t", NewSchema(Column{Name: "v", Type: DTInt}))
	fillTable(t, tab, 0, 500)
	if err := db.FlushWAL(); err != nil {
		t.Fatal(err)
	}

	if err := db.StartMaintenance(MaintenanceOptions{BackupEvery: time.Minute}); err == nil {
		t.Fatal("BackupEvery without BackupDir accepted")
	} else {
		db.StopMaintenance()
	}

	backups := filepath.Join(dir, "backups")
	type result struct {
		op  string
		err error
	}
	results := make(chan result, 64)
	err := db.StartMaintenance(MaintenanceOptions{
		ScrubEvery:  5 * time.Millisecond,
		BackupEvery: 5 * time.Millisecond,
		BackupDir:   backups,
		OnResult: func(op string, err error) {
			select {
			case results <- result{op, err}:
			default:
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor := func(op string, n int) {
		t.Helper()
		seen := map[string]int{}
		deadline := time.After(10 * time.Second)
		for seen[op] < n {
			select {
			case r := <-results:
				if r.err != nil {
					t.Fatalf("scheduled %s: %v", r.op, r.err)
				}
				seen[r.op]++
			case <-deadline:
				t.Fatalf("scheduler never completed %d %s ops: %v", n, op, seen)
			}
		}
	}
	listBackups := func() []string {
		t.Helper()
		ents, err := os.ReadDir(backups)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		sort.Strings(names)
		return names
	}
	waitFor("scrub", 1)
	waitFor("backup", 3)
	steady := listBackups()
	// The generation is idle, so further ticks dedup against the newest
	// backup instead of piling up files.
	waitFor("backup", 3)
	after := listBackups()
	db.StopMaintenance()
	db.StopMaintenance() // idempotent

	if len(steady) == 0 || !strings.HasPrefix(steady[0], "backup-") {
		t.Fatalf("backup dir = %v, want backup-<gen>.dsb files", steady)
	}
	if len(after) != len(steady) {
		t.Fatalf("idle ticks kept adding backups: %v -> %v", steady, after)
	}
	dest := filepath.Join(dir, "restored.dsdb")
	if err := Restore(filepath.Join(backups, after[len(after)-1]), dest, RestoreOptions{}); err != nil {
		t.Fatalf("restore scheduled backup: %v", err)
	}
	rdb, err := OpenFile(dest, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	if n := len(scanModel(rdb.Table("t"))); n != 500 {
		t.Fatalf("restored %d rows, want 500", n)
	}

	// Close stops a running scheduler without hanging.
	db2 := mustOpenFile(t, filepath.Join(dir, "src2.dsdb"))
	if err := db2.StartMaintenance(MaintenanceOptions{ScrubEvery: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- db2.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close with scheduler running: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung on the maintenance scheduler")
	}
}
