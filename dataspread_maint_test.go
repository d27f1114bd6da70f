package dataspread_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dataspread/internal/rdbms"
)

// TestMaintenanceCheckpointVacuumScrub holds the self-healing storage
// passes to their structural targets on a churn-heavy database:
//
//   - an incremental checkpoint after a small delta writes O(dirty) pages,
//     not the whole retained overlay (pages written stay within the dirty
//     set plus the catalog chain, and at least 10x under the preceding
//     full checkpoint);
//   - a vacuum after dropping the churn table relocates trailing live
//     pages, truncates the data file, and reclaims at least half the
//     bytes on disk (verified against os.Stat, not just counters);
//   - an online scrub pass over the compacted file finds every slot clean,
//     and the store verifies after a reopen.
func TestMaintenanceCheckpointVacuumScrub(t *testing.T) {
	path := filepath.Join(t.TempDir(), "maint.ds")
	db, err := rdbms.OpenFile(path, rdbms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const keepRows, churnRows = 500, 30000
	keep, err := db.CreateTable("keep", rdbms.NewSchema(
		rdbms.Column{Name: "id", Type: rdbms.DTInt},
		rdbms.Column{Name: "name", Type: rdbms.DTText},
	))
	if err != nil {
		t.Fatal(err)
	}
	churn, err := db.CreateTable("churn", rdbms.NewSchema(
		rdbms.Column{Name: "id", Type: rdbms.DTInt},
		rdbms.Column{Name: "pad", Type: rdbms.DTText},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keepRows; i++ {
		if _, err := keep.Insert(rdbms.Row{rdbms.Int(int64(i)), rdbms.Text(fmt.Sprintf("keep-%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < churnRows; i++ {
		if _, err := churn.Insert(rdbms.Row{rdbms.Int(int64(i)), rdbms.Text(fmt.Sprintf("churn-row-payload-%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.FlushWAL(); err != nil {
		t.Fatal(err)
	}

	// Full checkpoint of the bulk load: the baseline every page is dirty
	// against.
	s0 := db.Pool().Stats()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s1 := db.Pool().Stats()
	fullPages := s1.CheckpointPages - s0.CheckpointPages

	// A small delta, then an incremental checkpoint: pages written must
	// follow the delta (dirty set + catalog chain), not the retained
	// overlay. The delta lands in churn's tail page — heap pages are
	// pinned, so appending to keep here would pin a live page above the
	// churn extent and block the truncate below.
	for i := 0; i < 20; i++ {
		if _, err := churn.Insert(rdbms.Row{rdbms.Int(int64(churnRows + i)), rdbms.Text("delta")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	s2 := db.Pool().Stats()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s3 := db.Pool().Stats()
	incPages := s3.CheckpointPages - s2.CheckpointPages
	if incPages > s2.DirtyPages+16 || incPages*10 > fullPages {
		t.Errorf("incremental checkpoint wrote %d pages (dirty %d, full baseline %d): not O(dirty)",
			incPages, s2.DirtyPages, fullPages)
	}
	if s2.ShadowPages < s2.DirtyPages || s2.ShadowPages <= incPages {
		t.Errorf("overlay not retained as clean cache: shadow %d, dirty %d", s2.ShadowPages, s2.DirtyPages)
	}

	// Churn: drop the big table, then vacuum. The reclaim is measured on
	// the file itself — counters must agree with os.Stat.
	if err := db.DropTable("churn"); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	vres, err := db.Vacuum()
	if err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() > before.Size()/2 {
		t.Errorf("vacuum reclaimed %d -> %d bytes: less than half", before.Size(), after.Size())
	}
	if got := before.Size() - after.Size(); got != vres.BytesReclaimed {
		t.Errorf("BytesReclaimed = %d, file shrank by %d", vres.BytesReclaimed, got)
	}

	// An online scrub over the compacted file: every remaining slot clean.
	sres, err := db.Scrub(rdbms.PassOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sres.Bad) != 0 || sres.Scanned == 0 {
		t.Errorf("scrub after vacuum: %d scanned, %d bad", sres.Scanned, len(sres.Bad))
	}

	// The compacted store must still hold every surviving row after a
	// clean reopen.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := rdbms.OpenFile(path, rdbms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if err := db2.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}
	if got := db2.Table("keep").RowCount(); got != keepRows {
		t.Fatalf("keep rows after vacuum+reopen = %d, want %d", got, keepRows)
	}
}
