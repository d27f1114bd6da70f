package dataspread_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"dataspread"
)

// The structural-edit benchmark: the paper's headline scenario is inserting
// rows mid-sheet in O(log n) (Section III, Fig. 23). These helpers measure
// the engine's batched structural path (one count-aware positional shift,
// one shift-aware formula pass, incremental recalc, one WAL commit) against
// the equivalent loop of single-row edits, on a 1M-cell sheet with 1k
// registered formulas, and TestStructuralEditSnapshot freezes the numbers
// into BENCH_struct.json with enforced floors.

const (
	structRows     = 10000
	structCols     = 100 // 1M cells
	structFormulas = 1000
	structEditRow  = 5000 // mid-sheet
)

// buildStructEngine materializes a dense structRows×structCols sheet as one
// ROM region with `formulas` SUM formulas in the top rows, all reading
// strictly above the mid-sheet edit row.
func buildStructEngine(tb testing.TB, dir string, disk bool, formulas int) (*dataspread.Engine, func()) {
	tb.Helper()
	s := dataspread.NewSheet("struct")
	for r := 1; r <= structRows; r++ {
		for c := 1; c <= structCols; c++ {
			s.SetValue(r, c, dataspread.Number(float64(r*1000+c)))
		}
	}
	// Formulas occupy the top rows, reading a small band further down but
	// far above the edit row: none straddle a mid-sheet insert.
	for i := 0; i < formulas; i++ {
		r, c := i/structCols+1, i%structCols+1
		s.SetFormula(r, c, fmt.Sprintf("SUM(%s)", dataspread.NewRange(20+r, c, 30+r, c)))
	}
	var db *dataspread.DB
	var err error
	var path string
	if disk {
		path = filepath.Join(dir, fmt.Sprintf("struct%d.dsdb", formulas))
		db, err = dataspread.OpenFileDB(path)
		if err != nil {
			tb.Fatal(err)
		}
	} else {
		db = dataspread.OpenDB()
	}
	eng, err := dataspread.OpenSheet(db, "struct", s, "rom")
	if err != nil {
		tb.Fatal(err)
	}
	if disk {
		if err := eng.Checkpoint(); err != nil {
			tb.Fatal(err)
		}
	}
	// The build leaves a few hundred megabytes of garbage (the source sheet,
	// the load's scratch). Whether the collector's last cycle happened to end
	// after it or before it decides what a one-sample timing of a 100-row
	// insert reads (0.2 ms on a collected heap, 0.6-0.9 ms on a full one, at
	// any commit): collect it, so the timings measure the edit.
	runtime.GC()
	cleanup := func() {
		if disk {
			db.Close() //nolint:errcheck // bench teardown
			os.Remove(path)
			os.Remove(path + ".wal")
		}
	}
	return eng, cleanup
}

// timeSingleInserts runs n single-row inserts at the mid-sheet row and
// returns the average seconds per insert.
func timeSingleInserts(tb testing.TB, eng *dataspread.Engine, n int) float64 {
	tb.Helper()
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := eng.InsertRowAfter(structEditRow); err != nil {
			tb.Fatal(err)
		}
	}
	return time.Since(start).Seconds() / float64(n)
}

// timeBatchedInsert runs one InsertRowsAfter(structEditRow, k) and returns
// elapsed seconds.
func timeBatchedInsert(tb testing.TB, eng *dataspread.Engine, k int) float64 {
	tb.Helper()
	start := time.Now()
	if err := eng.InsertRowsAfter(structEditRow, k); err != nil {
		tb.Fatal(err)
	}
	return time.Since(start).Seconds()
}

// BenchmarkStructuralEdit exercises the batched and single-row structural
// paths on a reduced sheet (the bench smoke runs every path once per push).
func BenchmarkStructuralEdit(b *testing.B) {
	s := dataspread.NewSheet("small")
	for r := 1; r <= 500; r++ {
		for c := 1; c <= 20; c++ {
			s.SetValue(r, c, dataspread.Number(float64(r+c)))
		}
	}
	for c := 1; c <= 20; c++ {
		s.SetFormula(1, c, fmt.Sprintf("SUM(%s)", dataspread.NewRange(10, c, 20, c)))
	}
	db := dataspread.OpenDB()
	eng, err := dataspread.OpenSheet(db, "small", s, "rom")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("SingleRow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := eng.InsertRowAfter(250); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Batched100", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := eng.InsertRowsAfter(250, 100); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Delete100", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := eng.DeleteRows(251, 100); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestStructuralEditSnapshot emits BENCH_struct.json (path from the
// BENCH_STRUCT_JSON env var; skipped when unset) and enforces the
// structural-edit targets on the 1M-cell sheet:
//
//   - batched 100-row mid-sheet insert beats 100 single-row inserts by at
//     least 10x, on both the in-memory and the file-backed pager;
//   - a single-row insert with 1k registered formulas (none reading across
//     the edit) recomputes 0 formulas and rewrites 0 formulas (counter
//     hook), and its cost does not scale with the formula count (measured
//     against a 10-formula engine at a generous 5x bound).
func TestStructuralEditSnapshot(t *testing.T) {
	out := os.Getenv("BENCH_STRUCT_JSON")
	if out == "" {
		t.Skip("set BENCH_STRUCT_JSON=<path> to emit the structural edit snapshot")
	}
	dir := t.TempDir()
	snap := map[string]any{
		"sheet_rows": structRows, "sheet_cols": structCols,
		"formulas": structFormulas, "edit_row": structEditRow,
	}

	// In-memory engine with the full formula population.
	mem, memCleanup := buildStructEngine(t, dir, false, structFormulas)
	timeSingleInserts(t, mem, 3) // warm up
	st := mem.LastEditStats()
	if st.Recomputed != 0 || st.Rewritten != 0 || st.Relocated != 0 {
		t.Errorf("mid-sheet single insert touched formulas: %+v (want all zero)", st)
	}
	snap["single_recomputed"] = st.Recomputed
	snap["single_rewritten"] = st.Rewritten
	memSingle := timeSingleInserts(t, mem, 20)
	memBatched := timeBatchedInsert(t, mem, 100)
	memSingles100 := timeSingleInserts(t, mem, 100) * 100
	memCleanup()
	memSpeedup := memSingles100 / memBatched
	snap["mem_single_insert_us"] = memSingle * 1e6
	snap["mem_batched_100_ms"] = memBatched * 1e3
	snap["mem_singles_100_ms"] = memSingles100 * 1e3
	snap["mem_batched_speedup"] = memSpeedup

	// Formula-count scaling: the same sheet with 10 formulas.
	few, fewCleanup := buildStructEngine(t, dir, false, 10)
	timeSingleInserts(t, few, 3)
	fewSingle := timeSingleInserts(t, few, 20)
	fewCleanup()
	scaling := memSingle / fewSingle
	snap["few_formulas"] = 10
	snap["few_single_insert_us"] = fewSingle * 1e6
	snap["formula_scaling"] = scaling

	// File-backed engine: the batched path also amortizes the WAL commit.
	disk, diskCleanup := buildStructEngine(t, dir, true, structFormulas)
	timeSingleInserts(t, disk, 3)
	diskSingle := timeSingleInserts(t, disk, 10)
	diskBatched := timeBatchedInsert(t, disk, 100)
	diskSingles100 := timeSingleInserts(t, disk, 100) * 100
	diskCleanup()
	diskSpeedup := diskSingles100 / diskBatched
	snap["disk_single_insert_us"] = diskSingle * 1e6
	snap["disk_batched_100_ms"] = diskBatched * 1e3
	snap["disk_singles_100_ms"] = diskSingles100 * 1e3
	snap["disk_batched_speedup"] = diskSpeedup

	blob, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("mem: single %.0fµs, batched-100 %.1fms vs 100 singles %.1fms (%.1fx); disk: %.1fms vs %.1fms (%.1fx); formula scaling %.2fx",
		memSingle*1e6, memBatched*1e3, memSingles100*1e3, memSpeedup,
		diskBatched*1e3, diskSingles100*1e3, diskSpeedup, scaling)
	// PR 5's incremental manifests cut every single insert's Save from an
	// O(rows) re-serialization (~450µs on this sheet) to an O(1) delta, so
	// the batched path no longer amortizes that cost and the in-memory
	// ratio dropped from ~66x to ~8-13x (the surviving advantage is the
	// count-aware positional shift and the single propagation pass). The
	// gate tracks the new baseline; the disk ratio keeps its 10x floor —
	// fsync amortization still dominates there.
	if memSpeedup < 5 {
		t.Errorf("in-memory batched 100-row insert speedup %.1fx < 5x target", memSpeedup)
	}
	if diskSpeedup < 10 {
		t.Errorf("disk batched 100-row insert speedup %.1fx < 10x target", diskSpeedup)
	}
	if scaling >= 5 {
		t.Errorf("single-row insert scales with formula count: %.2fx at 1000 vs 10 formulas (want < 5x)", scaling)
	}
}

// TestStructuralEditSurfacesCorruptPage: a structural edit that must
// rewrite a formula whose block is unreadable fails loudly instead of
// persisting a blank value over the cell's stored contents (the rewrite
// path write-throughs the cell it read back; a swallowed read error there
// would commit data loss).
func TestStructuralEditSurfacesCorruptPage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "structcorrupt.dsdb")
	s := dataspread.NewSheet("s")
	const rows, cols = 2000, 10
	for r := 1; r <= rows; r++ {
		for c := 1; c <= cols; c++ {
			s.SetValue(r, c, dataspread.Number(float64(r*100+c)))
		}
	}
	// Formulas across the early heap pages, all reading far down the sheet
	// so any mid-sheet row insert must rewrite them.
	for r := 30; r <= 120; r += 10 {
		s.SetFormula(r, 2, fmt.Sprintf("SUM(A%d:A%d)", r+1, rows))
	}
	db, err := dataspread.OpenFileDB(path)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := dataspread.OpenSheet(db, "s", s, "rom")
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := dataspread.OpenFileDB(path, dataspread.WithBufferPoolPages(2))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	eng2, err := dataspread.LoadEngine(db2, "s")
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Data file layout: 8 KiB header block, then per-page slots of
	// 4-byte CRC + 4-byte page id + 8 KiB image (see the read-path test).
	const headerSize, slotSize, slotHeader = 8192, 8 + 8192, 8
	for _, page := range []int64{2, 3, 4, 5} {
		if _, err := f.WriteAt([]byte("CORRUPTION"), headerSize+page*slotSize+slotHeader+512); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	if err := eng2.InsertRowsAfter(1000, 5); err == nil {
		t.Fatal("structural edit over a corrupt formula block reported no error")
	} else {
		t.Logf("surfaced: %v", err)
	}
}
