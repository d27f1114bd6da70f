package dataspread_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dataspread"
)

func bulkEdits(n int) []dataspread.CellEdit {
	edits := make([]dataspread.CellEdit, n)
	for i := range edits {
		edits[i] = dataspread.CellEdit{Row: i/50 + 1, Col: i%50 + 1, Input: fmt.Sprintf("%d", i)}
	}
	return edits
}

// TestSetCellsOneFsyncPerBatch is the acceptance check for the batched
// write path: an N-edit SetCells batch commits with exactly one WAL fsync and
// one record for each page it touched, where the per-cell Set+Save loop pays
// one fsync per edit — and, once the edited pages are in the log, under 256
// bytes for each.
func TestSetCellsOneFsyncPerBatch(t *testing.T) {
	const n = 1000
	dir := t.TempDir()

	path := filepath.Join(dir, "bulk.dsdb")
	db, err := dataspread.OpenFileDB(path)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := dataspread.NewEngine(db, "s")
	if err != nil {
		t.Fatal(err)
	}
	db.Pool().ResetStats()
	if err := eng.SetCells(bulkEdits(n)); err != nil {
		t.Fatal(err)
	}
	st := db.Pool().Stats()
	if st.WALSyncs != 1 {
		t.Fatalf("SetCells(%d edits): WALSyncs = %d, want 1", n, st.WALSyncs)
	}
	if st.WALBytes == 0 || st.WALAppends == 0 {
		t.Fatalf("SetCells wrote nothing to the WAL: %+v", st)
	}
	// A page touched k times in the batch is logged once, not k times: the
	// batch's page records are no more than the pages dirty since open.
	if st.WALAppends > st.DirtyPages {
		t.Fatalf("SetCells(%d edits) logged %d page records for %d dirty pages", n, st.WALAppends, st.DirtyPages)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the batch was genuinely persisted.
	db2, err := dataspread.OpenFileDB(path)
	if err != nil {
		t.Fatal(err)
	}
	eng2, err := dataspread.LoadEngine(db2, "s")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := eng2.GetCell(n/50, 50).Value.Num(); v != n-1 {
		t.Fatalf("last bulk cell = %v, want %d", eng2.GetCell(n/50, 50).Value, n-1)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}

	// Per-cell baseline on a smaller batch: one fsync per edit.
	const m = 50
	db3, err := dataspread.OpenFileDB(filepath.Join(dir, "percell.dsdb"))
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	eng3, err := dataspread.NewEngine(db3, "s")
	if err != nil {
		t.Fatal(err)
	}
	db3.Pool().ResetStats()
	var lastCommit int64
	for _, ed := range bulkEdits(m) {
		before := db3.Pool().Stats().WALBytes
		if err := eng3.Set(ed.Row, ed.Col, ed.Input); err != nil {
			t.Fatal(err)
		}
		if err := eng3.Save(); err != nil {
			t.Fatal(err)
		}
		lastCommit = db3.Pool().Stats().WALBytes - before
	}
	st3 := db3.Pool().Stats()
	if st3.WALSyncs != m {
		t.Fatalf("per-cell loop: WALSyncs = %d, want %d", st3.WALSyncs, m)
	}
	// In the steady state every page the edit changes is in the log already
	// and the commit carries what changed, not page images.
	if lastCommit == 0 || lastCommit >= 256 {
		t.Fatalf("per-cell loop: the last Set+Save logged %d bytes, want under 256", lastCommit)
	}
}

// TestSetCellsDurableAcrossCrash runs the bulk path and checks crash
// recovery sees the whole batch.
func TestSetCellsDurableAcrossCrash(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crash.dsdb")
	db, err := dataspread.OpenFileDB(path)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := dataspread.NewEngine(db, "s")
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SetCells(bulkEdits(2000)); err != nil {
		t.Fatal(err)
	}
	if err := db.SimulateCrash(); err != nil {
		t.Fatal(err)
	}
	db2, err := dataspread.OpenFileDB(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	eng2, err := dataspread.LoadEngine(db2, "s")
	if err != nil {
		t.Fatal(err)
	}
	for _, probe := range []int{0, 777, 1999} {
		r, c := probe/50+1, probe%50+1
		if v, _ := eng2.GetCell(r, c).Value.Num(); v != float64(probe) {
			t.Fatalf("cell (%d,%d) = %v, want %d", r, c, eng2.GetCell(r, c).Value, probe)
		}
	}
}

// measureBulkLoad loads n cells via one SetCells batch and returns the
// sustained rate and WAL volume. Used by the benchmark and the
// BENCH_disk.json snapshot.
func measureBulkLoad(t testing.TB, dir string, n int) (cellsPerSec, walBytesPerEdit float64) {
	path := filepath.Join(dir, "bulkload.dsdb")
	db, err := dataspread.OpenFileDB(path)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := dataspread.NewEngine(db, "s")
	if err != nil {
		t.Fatal(err)
	}
	db.Pool().ResetStats()
	start := time.Now()
	if err := eng.SetCells(bulkEdits(n)); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	st := db.Pool().Stats()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	os.Remove(path)
	os.Remove(path + ".wal")
	return float64(n) / elapsed.Seconds(), float64(st.WALBytes) / float64(n)
}

func measurePerCellSave(t testing.TB, dir string, n int) (cellsPerSec float64) {
	path := filepath.Join(dir, "percellload.dsdb")
	db, err := dataspread.OpenFileDB(path)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := dataspread.NewEngine(db, "s")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for _, ed := range bulkEdits(n) {
		if err := eng.Set(ed.Row, ed.Col, ed.Input); err != nil {
			t.Fatal(err)
		}
		if err := eng.Save(); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	os.Remove(path)
	os.Remove(path + ".wal")
	return float64(n) / elapsed.Seconds()
}

// BenchmarkBulkLoadDisk compares sustained write throughput on the
// file-backed pager: a 50k-cell SetCells bulk load (one WAL commit) against
// the per-cell Set+Save loop (one fsync per cell, measured on a smaller
// grid so the smoke run stays fast). Custom metrics report cells/sec and
// WAL bytes per edit.
func BenchmarkBulkLoadDisk(b *testing.B) {
	b.Run("SetCells50k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rate, walPerEdit := measureBulkLoad(b, b.TempDir(), 50_000)
			b.ReportMetric(rate, "cells/sec")
			b.ReportMetric(walPerEdit, "walB/edit")
		}
	})
	b.Run("PerCellSave500", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.ReportMetric(measurePerCellSave(b, b.TempDir(), 500), "cells/sec")
		}
	})
}

// TestDiskThroughputSnapshot emits BENCH_disk.json (path from the
// BENCH_DISK_JSON env var; skipped when unset) with the sustained-write
// numbers of the durable engine, and enforces the headline target: the
// batched path sustains at least 10x the per-cell Save throughput.
func TestDiskThroughputSnapshot(t *testing.T) {
	out := os.Getenv("BENCH_DISK_JSON")
	if out == "" {
		t.Skip("set BENCH_DISK_JSON=<path> to emit the disk throughput snapshot")
	}
	dir := t.TempDir()
	bulkRate, walPerEdit := measureBulkLoad(t, dir, 50_000)
	perCellRate := measurePerCellSave(t, dir, 500)
	ratio := bulkRate / perCellRate
	snap := map[string]any{
		"bulk_cells":              50_000,
		"bulk_cells_per_sec":      bulkRate,
		"bulk_wal_bytes_per_edit": walPerEdit,
		"per_cell_cells":          500,
		"per_cell_cells_per_sec":  perCellRate,
		"speedup":                 ratio,
	}
	blob, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("bulk %.0f cells/s, per-cell %.0f cells/s, speedup %.1fx, %.1f WAL B/edit",
		bulkRate, perCellRate, ratio, walPerEdit)
	if ratio < 10 {
		t.Fatalf("bulk load speedup %.1fx < 10x target", ratio)
	}
}
