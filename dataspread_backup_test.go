package dataspread_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dataspread/internal/rdbms"
)

// TestBackupUnderWriterRestoresPinnedGen takes a paced hot backup while a
// writer keeps committing, and holds it to the disaster-recovery targets:
//
//   - the writer keeps committing through the stream: at least 20 of its
//     commits overlap the paced walk, each costing exactly one WAL fsync
//     (counted from IOStats.WALSyncs, not timed);
//   - the backup restores to a fully verified database pinned at exactly
//     the generation the backup stamped: the bulk table is identical to the
//     source, and the hot table holds precisely a prefix of the writer's
//     rows — at least every row committed before the backup started, never
//     a torn suffix.
func TestBackupUnderWriterRestoresPinnedGen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "src.ds")
	db, err := rdbms.OpenFile(path, rdbms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const baseRows = 20000
	base, err := db.CreateTable("base", rdbms.NewSchema(
		rdbms.Column{Name: "id", Type: rdbms.DTInt},
		rdbms.Column{Name: "pad", Type: rdbms.DTText},
	))
	if err != nil {
		t.Fatal(err)
	}
	hot, err := db.CreateTable("hot", rdbms.NewSchema(
		rdbms.Column{Name: "id", Type: rdbms.DTInt},
		rdbms.Column{Name: "pad", Type: rdbms.DTText},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < baseRows; i++ {
		if _, err := base.Insert(rdbms.Row{rdbms.Int(int64(i)), rdbms.Text(fmt.Sprintf("base-row-payload-%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// One writer commit: a small durable batch into the hot table. It
	// reports the WAL fsyncs that happened while it ran.
	hotN := 0
	writerCommit := func() int64 {
		t.Helper()
		before := db.Pool().Stats().WALSyncs
		for j := 0; j < 8; j++ {
			if _, err := hot.Insert(rdbms.Row{rdbms.Int(int64(hotN)), rdbms.Text("hot-row")}); err != nil {
				t.Fatal(err)
			}
			hotN++
		}
		if err := db.FlushWAL(); err != nil {
			t.Fatal(err)
		}
		return db.Pool().Stats().WALSyncs - before
	}
	const idleCommits = 100
	for i := 0; i < idleCommits; i++ {
		if n := writerCommit(); n != 1 {
			t.Fatalf("idle writer commit cost %d WAL fsyncs, want 1", n)
		}
	}

	// Pace the backup to roughly half a second over the current file, so
	// the writer genuinely overlaps the stream.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	rate := max(64, int(2*fi.Size()/rdbms.PageSize))
	bak := filepath.Join(dir, "src.dsb")
	f, err := os.Create(bak)
	if err != nil {
		t.Fatal(err)
	}
	var (
		bres rdbms.BackupResult
		berr error
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		bres, berr = db.Backup(f, rdbms.PassOptions{PagesPerSecond: rate, BatchPages: 16})
	}()
	// A commit racing the backup's pinning checkpoint may have its batch
	// committed by that checkpoint (and cost no fsync of its own); every
	// other overlapping commit costs exactly one.
	overlapped := 0
	for streaming := true; streaming; {
		select {
		case <-done:
			streaming = false
		default:
			if writerCommit() == 1 {
				overlapped++
			}
		}
	}
	if berr != nil {
		t.Fatalf("hot backup: %v", berr)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d one-fsync writer commits overlapped a %d-page backup paced at %d pages/s", overlapped, bres.Pages, rate)
	if overlapped < 20 {
		t.Errorf("only %d one-fsync writer commits overlapped the paced backup, want >= 20", overlapped)
	}

	// Restore and verify: full page verification, the stamped generation,
	// the bulk table identical, and the hot table an exact prefix of the
	// writer's rows.
	restored := filepath.Join(dir, "restored.ds")
	if err := rdbms.Restore(bak, restored, rdbms.RestoreOptions{}); err != nil {
		t.Fatalf("restore: %v", err)
	}
	rdb, err := rdbms.OpenFile(restored, rdbms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	if err := rdb.VerifyChecksums(); err != nil {
		t.Fatalf("restored verification: %v", err)
	}
	if got := rdb.DurableGen(); got != bres.Gen {
		t.Errorf("restored generation = %d, backup stamped %d", got, bres.Gen)
	}

	rbase := rdb.Table("base")
	if rbase == nil || rbase.RowCount() != baseRows {
		t.Fatal("restored base table lost rows")
	}
	seen := 0
	rbase.Scan(func(_ rdbms.RID, r rdbms.Row) bool {
		if id := r[0].Int64(); r[1].Str() != fmt.Sprintf("base-row-payload-%d", id) {
			t.Errorf("restored base row %d = %q", id, r[1].Str())
			return false
		}
		seen++
		return true
	})
	if seen != baseRows {
		t.Errorf("restored base table scanned %d rows, want %d", seen, baseRows)
	}

	// A consistent single-generation snapshot holds hot ids 0..K-1 exactly,
	// with every idle-phase row (durable before the backup pinned its
	// generation) and nothing past what the writer wrote. K need not land on
	// a writer-batch boundary: the pinning checkpoint makes staged edits
	// durable, mid-batch included.
	hotIDs := make(map[int64]bool)
	var maxID int64 = -1
	rdb.Table("hot").Scan(func(_ rdbms.RID, r rdbms.Row) bool {
		id := r[0].Int64()
		if hotIDs[id] {
			t.Errorf("restored hot table holds id %d twice", id)
		}
		hotIDs[id] = true
		maxID = max(maxID, id)
		return true
	})
	got := len(hotIDs)
	if int64(got) != maxID+1 || got < idleCommits*8 || got > hotN {
		t.Errorf("restored hot table: %d rows, max id %d (idle-phase rows %d, source rows %d): not an exact prefix",
			got, maxID, idleCommits*8, hotN)
	}
}
