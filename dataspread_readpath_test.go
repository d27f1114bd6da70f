package dataspread_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dataspread"
)

// TestReadErrSurfacesCorruptPage is the regression for silently swallowed
// read errors: before the read-path overhaul a checksum-corrupt heap page
// rendered its cells blank with no signal anywhere above the buffer pool.
// Now the engine reports it through ReadErr after the affected read.
func TestReadErrSurfacesCorruptPage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corrupt.dsdb")

	// Build a dense ROM-decomposed sheet spanning many heap pages.
	s := dataspread.NewSheet("s")
	const rows, cols = 2000, 10
	for r := 1; r <= rows; r++ {
		for c := 1; c <= cols; c++ {
			s.SetValue(r, c, dataspread.Number(float64(r*100+c)))
		}
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

	// Reopen with a pool too small to retain the working set, reload the
	// engine, then corrupt a heap page image in place. Page 0 belongs to the
	// (empty) overflow table and the meta chain sits above the heap extent,
	// so an early page is guaranteed to be ROM heap holding live rows.
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
	// 4-byte CRC + 4-byte page id + 8 KiB image.
	const headerSize, slotSize, slotHeader = 8192, 8 + 8192, 8
	for _, page := range []int64{2, 3} {
		if _, err := f.WriteAt([]byte("CORRUPTION"), headerSize+page*slotSize+slotHeader+512); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// A full-range read crosses the corrupt pages: the cells render blank
	// (not garbage) and the failure surfaces through ReadErr.
	cells := eng2.GetCells(dataspread.MustRange(fmt.Sprintf("A1:J%d", rows)))
	if len(cells) != rows {
		t.Fatalf("grid rows = %d", len(cells))
	}
	err = eng2.ReadErr()
	if err == nil {
		t.Fatal("checksum-corrupt page read back blank with no error: ReadErr = nil")
	}
	t.Logf("surfaced: %v", err)
	// ReadErr is take-and-clear: a second call with no new failure is nil.
	if err := eng2.ReadErr(); err != nil {
		t.Fatalf("ReadErr did not clear: %v", err)
	}
	// The slot ReadErr drains is engine-wide; a stamped read returns the error
	// of its own loads instead. With the first reader's error recorded and not
	// yet taken, a second reader's SnapshotRange over intact rows at the far
	// end returns its cells without that error, and the first reader still
	// finds it.
	_ = eng2.GetCells(dataspread.MustRange(fmt.Sprintf("A1:J%d", rows)))
	far, _, err := eng2.SnapshotRange(dataspread.MustRange(fmt.Sprintf("A%d:J%d", rows-9, rows)))
	if err != nil {
		t.Fatalf("read of intact rows returned another reader's error: %v", err)
	}
	for i, row := range far {
		for j, c := range row {
			if want := dataspread.Number(float64((rows-9+i)*100 + j + 1)); !c.Value.Equal(want) {
				t.Fatalf("intact cell (%d,%d) = %v, want %v", rows-9+i, j+1, c.Value, want)
			}
		}
	}
	if err := eng2.ReadErr(); err == nil {
		t.Fatal("the first reader's error was handed to another reader: ReadErr = nil")
	}
	// The corrupt range fails through the stamped read too, and leaves nothing
	// behind in the slot.
	if _, _, err := eng2.SnapshotRange(dataspread.MustRange(fmt.Sprintf("A1:J%d", rows))); err == nil {
		t.Fatal("stamped read over the corrupt pages returned no error")
	}
	if err := eng2.ReadErr(); err != nil {
		t.Fatalf("stamped read left its error in the shared slot: %v", err)
	}
	// A clean re-read of an intact region stays error-free.
	_ = eng2.GetCells(dataspread.MustRange("A1:B2"))
	if rerr := eng2.ReadErr(); rerr != nil {
		t.Logf("note: intact-region read reported %v (pool may have re-touched a corrupt page)", rerr)
	}
}

// TestFaultFormulaOverCorruptPage: the recalc executor reads a formula's
// inputs through the cache, where an unreadable tile reads blank. A formula
// over a checksum-corrupt page must fail its edit with the page's cause, not
// sum the blanks and commit the wrong value as if it were right.
func TestFaultFormulaOverCorruptPage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "formulacorrupt.dsdb")
	s := dataspread.NewSheet("s")
	const rows, cols = 2000, 10
	for r := 1; r <= rows; r++ {
		for c := 1; c <= cols; c++ {
			s.SetValue(r, c, dataspread.Number(float64(r*100+c)))
		}
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
	for _, page := range []int64{2, 3} {
		if _, err := f.WriteAt([]byte("CORRUPTION"), headerSize+page*slotSize+slotHeader+512); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// The formula's own tile, far down the sheet, reads; its input range
	// crosses the corrupt pages.
	err = eng2.Set(rows, cols+2, fmt.Sprintf("=SUM(A1:A%d)", rows))
	if !errors.Is(err, dataspread.ErrChecksum) {
		t.Fatalf("formula over a corrupt page: err = %v, want ErrChecksum", err)
	}
	t.Logf("surfaced: %v", err)
	if v := eng2.GetCell(rows, cols+2).Value; !v.IsEmpty() {
		t.Fatalf("a formula over a corrupt page committed %v", v)
	}
	// Once the failing formula is cleared, a formula over intact rows computes.
	if err := eng2.Set(rows, cols+2, ""); err != nil {
		t.Fatalf("clearing the failed formula: %v", err)
	}
	if err := eng2.Set(rows, cols+3, fmt.Sprintf("=SUM(A%d:A%d)", rows-1, rows)); err != nil {
		t.Fatalf("formula over intact rows: %v", err)
	}
	if got, want := eng2.GetCell(rows, cols+3).Value, dataspread.Number(float64((rows-1)*100+1+rows*100+1)); !got.Equal(want) {
		t.Fatalf("formula over intact rows = %v, want %v", got, want)
	}
}
