package dataspread_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dataspread"
)

// The commit/persistence benchmark: with segmented, dirty-tracked
// manifests, the cost of making a structural edit durable follows the edit
// (a delta of ~100 ops), not the sheet (a full re-serialization of every
// positional map), and reopening the database re-registers formulas from
// the engine manifest instead of snapshotting the whole sheet.
// TestCommitSnapshot freezes the numbers into BENCH_commit.json with
// enforced floors.

// BenchmarkIncrementalSave exercises the dirty-segment save path once per
// push (bench smoke): a small edit between saves persists a delta, not the
// full manifest.
func BenchmarkIncrementalSave(b *testing.B) {
	dir := b.TempDir()
	path := filepath.Join(dir, "incsave.dsdb")
	db, err := dataspread.OpenFileDB(path)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	s := dataspread.NewSheet("s")
	for r := 1; r <= 2000; r++ {
		for c := 1; c <= 10; c++ {
			s.SetValue(r, c, dataspread.Number(float64(r+c)))
		}
	}
	eng, err := dataspread.OpenSheet(db, "s", s, "rom")
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.Save(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.InsertRowsAfter(1000, 1); err != nil { // includes Save
			b.Fatal(err)
		}
	}
}

// TestCommitSnapshot emits BENCH_commit.json (path from the
// BENCH_COMMIT_JSON env var; skipped when unset) and enforces the
// persistence targets on the 1M-cell sheet:
//
//   - a single 100-row structural edit's Save stages at least 5x fewer
//     manifest bytes than a forced full manifest rewrite;
//   - core.Load re-registers formulas without a full-sheet Snapshot: it
//     reads O(formula rows) heap pages, not O(all rows).
func TestCommitSnapshot(t *testing.T) {
	out := os.Getenv("BENCH_COMMIT_JSON")
	if out == "" {
		t.Skip("set BENCH_COMMIT_JSON=<path> to emit the commit snapshot")
	}
	dir := t.TempDir()
	snap := map[string]any{
		"sheet_rows": structRows, "sheet_cols": structCols,
		"formulas": structFormulas, "edit_row": structEditRow,
	}

	eng := buildStructEngine(t, filepath.Join(dir, "struct.dsdb"), structRows)
	db := eng.DB()
	path := db.Path()

	// Incremental commit: one 100-row mid-sheet insert, manifest staged as
	// a delta.
	s0 := db.Pool().Stats()
	start := time.Now()
	if err := eng.InsertRowsAfter(structEditRow, 100); err != nil { // includes Save
		t.Fatal(err)
	}
	commitSec := time.Since(start).Seconds()
	s1 := db.Pool().Stats()
	incBytes := s1.ManifestBytes - s0.ManifestBytes
	incSegs := s1.ManifestSegments - s0.ManifestSegments

	// Full-rewrite baseline: the same store serialized the pre-segmentation
	// way (every positional map re-emitted).
	start = time.Now()
	if err := eng.Store().SaveManifestFull(); err != nil {
		t.Fatal(err)
	}
	if err := db.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	fullSec := time.Since(start).Seconds()
	s2 := db.Pool().Stats()
	fullBytes := s2.ManifestBytes - s1.ManifestBytes
	reduction := float64(fullBytes) / float64(incBytes)
	snap["commit_ms"] = commitSec * 1e3
	snap["full_save_ms"] = fullSec * 1e3
	snap["manifest_bytes_incremental"] = incBytes
	snap["manifest_bytes_full"] = fullBytes
	snap["manifest_segments_incremental"] = incSegs
	snap["manifest_reduction"] = reduction

	// Load: reopen the 1M-cell database and measure wall time and heap
	// pages read.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := dataspread.OpenFileDB(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	before := db2.Pool().Stats()
	start = time.Now()
	eng2, err := dataspread.LoadEngine(db2, "struct")
	if err != nil {
		t.Fatal(err)
	}
	loadSec := time.Since(start).Seconds()
	after := db2.Pool().Stats()
	loadPages := after.PagesRead - before.PagesRead
	snap["load_ms"] = loadSec * 1e3
	snap["load_pages_read"] = loadPages
	if got, _ := eng2.GetCell(structEditRow-1, 3).Value.Num(); got == 0 {
		t.Fatal("reloaded sheet lost its cells")
	}

	blob, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("commit %.2fms staging %d manifest bytes (%d segments) vs %d full (%.1fx reduction); load %.1fms, %d pages",
		commitSec*1e3, incBytes, incSegs, fullBytes, reduction, loadSec*1e3, loadPages)
	if reduction < 5 {
		t.Errorf("incremental commit staged %d manifest bytes vs %d full: %.1fx reduction < 5x target",
			incBytes, fullBytes, reduction)
	}
	// The 1M-cell heap spans thousands of pages; Load must stay far below.
	if loadPages > 200 {
		t.Errorf("Load read %d heap pages, want O(formula rows) (<= 200)", loadPages)
	}
}
