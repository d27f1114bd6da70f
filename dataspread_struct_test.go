package dataspread_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dataspread"
)

// The structural-edit fixture: the paper's headline scenario is inserting
// rows mid-sheet in O(log n) (Section III, Fig. 23). buildStructEngine lays
// out a dense sheet with 1k registered formulas for the engine's batched
// structural path (one count-aware positional shift, one shift-aware formula
// pass, incremental recalc, one WAL commit); TestStructuralEditCost pins that
// path's costs by counters and TestCommitSnapshot its persistence.

const (
	structRows     = 10000
	structCols     = 100 // 1M cells
	structFormulas = 1000
	structEditRow  = 5000 // mid-sheet
)

// buildStructEngine materializes a dense rows×structCols sheet as one ROM
// region on a file-backed database at path, with structFormulas SUM
// formulas in the top rows, all reading strictly above row 50 (none straddle
// a mid-sheet insert), and checkpoints it. The database closes at cleanup.
func buildStructEngine(tb testing.TB, path string, rows int) *dataspread.Engine {
	tb.Helper()
	s := dataspread.NewSheet("struct")
	for r := 1; r <= rows; r++ {
		for c := 1; c <= structCols; c++ {
			s.SetValue(r, c, dataspread.Number(float64(r*1000+c)))
		}
	}
	for i := 0; i < structFormulas; i++ {
		r, c := i/structCols+1, i%structCols+1
		s.SetFormula(r, c, fmt.Sprintf("SUM(%s)", dataspread.NewRange(20+r, c, 30+r, c)))
	}
	db, err := dataspread.OpenFileDB(path)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() }) //nolint:errcheck // a test may have closed it
	eng, err := dataspread.OpenSheet(db, "struct", s, "rom")
	if err != nil {
		tb.Fatal(err)
	}
	if err := eng.Checkpoint(); err != nil {
		tb.Fatal(err)
	}
	return eng
}

// TestStructuralEditCost pins the structural path by counters, not timings.
// A single-row insert in the middle of a dense sheet whose 1k formulas all
// read above it touches no formula: nothing relocated, rewritten, dropped or
// recomputed. On the file pager a 100-row insert commits with the WAL fsyncs
// of one single-row insert, and the loop of 100 single-row inserts it
// replaces costs 100 times that. A top-of-sheet insert over a row sum per
// row rewrites every sum in the registry and no stored tuple.
func TestStructuralEditCost(t *testing.T) {
	const rows, at = 1000, 500
	eng := buildStructEngine(t, filepath.Join(t.TempDir(), "struct.dsdb"), rows)
	syncs := func(edit func() error) int64 {
		t.Helper()
		before := eng.DB().Pool().Stats().WALSyncs
		if err := edit(); err != nil {
			t.Fatal(err)
		}
		return eng.DB().Pool().Stats().WALSyncs - before
	}
	one := syncs(func() error { return eng.InsertRowsAfter(at, 1) })
	if st := eng.LastEditStats(); st.Relocated+st.Rewritten+st.Dropped+st.Recomputed != 0 {
		t.Errorf("mid-sheet single insert touched formulas: %+v (want all zero)", st)
	}
	if one < 1 {
		t.Fatalf("a single-row insert committed with %d WAL fsyncs", one)
	}
	if got := syncs(func() error { return eng.InsertRowsAfter(at, 100) }); got != one {
		t.Errorf("100-row insert: %d WAL fsyncs, want one edit's %d", got, one)
	}
	loop := syncs(func() error {
		for i := 0; i < 100; i++ {
			if err := eng.InsertRowsAfter(at, 1); err != nil {
				return err
			}
		}
		return nil
	})
	if loop != 100*one {
		t.Errorf("100 single-row inserts: %d WAL fsyncs, want %d", loop, 100*one)
	}

	// A top-of-sheet insert and its delete over 30,000 row sums move and
	// re-text every formula in the registry, and write no cell: the store
	// holds values only, and every tuple is as it was bar the inserted one.
	const sums = 30_000
	s := dataspread.NewSheet("sums")
	for r := 1; r <= sums; r++ {
		s.SetValue(r, 1, dataspread.Number(float64(r)))
		s.SetFormula(r, 17, fmt.Sprintf("SUM(A%d:P%d)", r, r))
	}
	top, err := dataspread.OpenSheet(dataspread.OpenDB(), "sums", s, "rom")
	if err != nil {
		t.Fatal(err)
	}
	tuples := func() map[dataspread.RID]string {
		out := map[dataspread.RID]string{}
		for _, name := range top.DB().TableNames() {
			top.DB().Table(name).Scan(func(rid dataspread.RID, row dataspread.Row) bool {
				out[rid] = fmt.Sprint(row)
				return true
			})
		}
		return out
	}
	before := tuples()
	for _, edit := range []func() error{func() error { return top.InsertRowsAfter(1, 1) }, func() error { return top.DeleteRows(2, 1) }} {
		if err := edit(); err != nil {
			t.Fatal(err)
		}
		if st := top.LastEditStats(); st.Relocated != sums-1 || st.Rewritten != sums-1 || st.Recomputed != 0 {
			t.Errorf("top-of-sheet edit: %+v, want %d relocated and re-texted in the registry, none recomputed", st, sums-1)
		}
		written, added := 0, 0
		for rid, row := range tuples() {
			if was, ok := before[rid]; !ok {
				added++
			} else if was != row {
				written++
			}
		}
		if written != 0 || added > 1 {
			t.Errorf("top-of-sheet edit rewrote %d stored tuples and added %d, want none and at most the inserted row", written, added)
		}
	}
	if c := top.GetCell(sums, 17); c.Formula != fmt.Sprintf("SUM(A%d:P%d)", sums, sums) || c.Value.String() != fmt.Sprint(sums) {
		t.Errorf("row sum %d after insert and delete = %+v", sums, c)
	}
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
			if err := eng.InsertRowsAfter(250, 1); err != nil {
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
