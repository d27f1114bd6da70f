package dataspread_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dataspread"
	"dataspread/internal/core"
	"dataspread/internal/hybrid"
	"dataspread/internal/rdbms"
)

// The golden fixture under testdata/golden-v8 is a small database in the one
// format this build reads and writes (data file version 8, which covers the
// store and engine manifests and the WAL records too), frozen as a crashed
// session left it:
//
//	golden.dsdb           data file, checkpointed before the last edits
//	golden.dsdb.wal       a sealed (rotated-out) WAL segment, never replayed:
//	                      page images, each page's first record since the
//	                      checkpoint
//	golden.dsdb.wal.0001  the active segment with one more commit, whose
//	                      pages are all in the sealed segment already: page
//	                      deltas
//
// Sheet "fix" holds a dense 40x6 block of r*100+c (a ROM region), a sparse
// diagonal (in the overflow RCV table), a 3x2 range linked to the catalog
// table "people" (a TOM region), a SUM and a formula reading it (a second
// ROM region), a two-cell #CYCLE!, and — in the unreplayed log — a two-row
// insert after row 10 plus three later edits. It exists so accidental drift
// of any persisted structure fails a test; an intended format change bumps
// the data-file version and regenerates it:
//
//	GOLDEN_REGEN=1 go test -run TestGoldenCurrentFormat .
const (
	goldenDir  = "testdata/golden-v8"
	goldenName = "golden.dsdb"
)

var goldenFiles = []string{goldenName, goldenName + ".wal", goldenName + ".wal.0001"}

// writeGolden regenerates the fixture in dir.
func writeGolden(t *testing.T, dir string) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range goldenFiles {
		if err := os.Remove(filepath.Join(dir, f)); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	s := dataspread.NewSheet("fix")
	for r := 1; r <= 40; r++ {
		for c := 1; c <= 6; c++ {
			s.SetValue(r, c, dataspread.Number(float64(r*100+c)))
		}
	}
	for i := 0; i < 24; i++ {
		s.SetValue(60+3*i, 10+i, dataspread.Text(fmt.Sprintf("s%d", i)))
	}
	s.SetFormula(42, 1, "SUM(A1:A40)")
	s.SetFormula(42, 2, "A42*2")
	// The first commit after the checkpoint (the structural edit commits
	// itself) outgrows a 64 KiB segment and rotates the log; the second
	// stays in the fresh segment. Neither trigger may checkpoint them away.
	db, err := dataspread.OpenFileDB(filepath.Join(dir, goldenName),
		dataspread.WithWALSegments(64<<10, -1), dataspread.WithAutoCheckpoint(-1))
	must(err)
	// Under the paper's ideal cost model a table is free, so even this small
	// sheet decomposes into several regions instead of one bounding box.
	eng, err := core.Open(db, "fix", s, "agg", core.Options{CostParams: hybrid.IdealCost})
	must(err)
	must(eng.Set(44, 1, "=A45+1"))
	must(eng.Set(45, 1, "=A44+1"))
	must(eng.Set(1, 8, "id"))
	must(eng.Set(1, 9, "name"))
	must(eng.Set(2, 8, "7"))
	must(eng.Set(2, 9, "grace"))
	must(eng.Set(3, 8, "9"))
	must(eng.Set(3, 9, "alan"))
	_, err = eng.LinkTable(dataspread.MustRange("H1:I3"), "people")
	must(err)
	must(eng.Checkpoint())
	must(eng.InsertRowsAfter(10, 2))
	must(eng.Set(11, 1, "777"))
	must(eng.Set(12, 2, "=A11+1"))
	must(eng.Set(2, 9, "hopper"))
	must(eng.Save())
	must(db.SimulateCrash())
	if extra, _ := filepath.Glob(filepath.Join(dir, goldenName+".wal.0002")); len(extra) > 0 {
		t.Fatalf("generator rotated twice (%v): the second commit outgrew the segment bound", extra)
	}
}

// copyGolden copies the fixture into a temp dir and returns the data file
// path.
func copyGolden(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, f := range goldenFiles {
		data, err := os.ReadFile(filepath.Join(goldenDir, f))
		if err != nil {
			t.Fatal(err)
		}
		if f != goldenName && len(data) == 0 {
			t.Fatalf("fixture segment %s is empty: the fixture must carry an unreplayed log", f)
		}
		if err := os.WriteFile(filepath.Join(dir, f), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return filepath.Join(dir, goldenName)
}

// walRecordKinds walks one WAL segment by its record framing alone — type
// byte, then a fixed size, or for a delta the u16 payload length at offset 5 —
// and counts the records of each type.
func walRecordKinds(t *testing.T, name string) map[byte]int {
	t.Helper()
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[byte]int{}
	for off := len("DSWAL001"); off < len(data); {
		typ := data[off]
		kinds[typ]++
		switch typ {
		case 1:
			off += 1 + 4 + 8192 + 4
		case 3:
			off += 1 + 12 + 8 + 4
		case 4:
			off += 1 + 4 + 2 + int(binary.LittleEndian.Uint16(data[off+5:])) + 4
		default:
			t.Fatalf("%s: record type %d at offset %d", name, typ, off)
		}
	}
	return kinds
}

// assertGolden checks the fixture's contents as the crashed session
// committed them: values, formulas, positions after the row insert, the
// linked table and the region kinds.
func assertGolden(t *testing.T, db *dataspread.DB, eng *dataspread.Engine) {
	t.Helper()
	num := func(r, c int, want float64) {
		t.Helper()
		if got, ok := eng.GetCell(r, c).Value.Num(); !ok || got != want {
			t.Fatalf("cell (%d,%d) = %v, want %v", r, c, eng.GetCell(r, c).Value, want)
		}
	}
	text := func(r, c int, want string) {
		t.Helper()
		if got := eng.GetCell(r, c).Value.Text(); got != want {
			t.Fatalf("cell (%d,%d) = %q, want %q", r, c, got, want)
		}
	}
	formula := func(r, c int, want string) {
		t.Helper()
		if got := eng.GetCell(r, c).Formula; got != want {
			t.Fatalf("formula (%d,%d) = %q, want %q", r, c, got, want)
		}
	}
	// Rows 1..10 in place, two inserted rows, rows 11..40 shifted to 13..42.
	num(1, 1, 101)
	num(10, 6, 1006)
	num(11, 1, 777)
	if !eng.GetCell(12, 1).IsBlank() || !eng.GetCell(11, 2).IsBlank() {
		t.Fatal("inserted rows are not blank outside the edited cells")
	}
	num(13, 1, 1101)
	num(42, 6, 4006)
	// The sparse diagonal starts below the insert and moved with it.
	text(62, 10, "s0")
	text(62+3*23, 33, "s23")
	// Formulas moved and were rewritten by the insert.
	formula(44, 1, "SUM(A1:A42)")
	num(44, 1, 82040+777) // sum of r*100+1 for r=1..40, plus the inserted 777
	formula(44, 2, "A44*2")
	num(44, 2, 2*(82040+777))
	formula(12, 2, "A11+1")
	num(12, 2, 778)
	formula(46, 1, "A47+1")
	formula(47, 1, "A46+1")
	text(46, 1, "#CYCLE!")
	text(47, 1, "#CYCLE!")
	// The linked range sits above the insert; its edit went to the table.
	text(1, 8, "id")
	num(2, 8, 7)
	text(2, 9, "hopper")
	text(3, 9, "alan")
	people := db.Table("people")
	if people == nil || people.RowCount() != 2 {
		t.Fatalf("linked table people = %v", people)
	}
	kinds := map[hybrid.Kind]int{}
	for _, reg := range eng.Store().Regions() {
		kinds[reg.Kind]++
	}
	if kinds[hybrid.ROM] != 2 || kinds[hybrid.TOM] != 1 || len(kinds) != 2 {
		t.Fatalf("fixture regions = %v, want two ROM and one TOM", eng.Store().Regions())
	}
	// Segment 0 is the overflow RCV; it holds the diagonal and the cycle.
	blob, _ := db.GetMeta("sheet:fix:seg:0:order")
	if _, err := rdbms.EachRecord(blob, func(_ int, rec *rdbms.RecordReader) error {
		rec.Int()
		rec.Int()
		// The row ordering leads with its entry count.
		if n, _ := binary.Uvarint([]byte(rec.Text())); n < 24 {
			return fmt.Errorf("row ordering of %d entries", n)
		}
		rec.Text()
		return nil
	}); err != nil {
		t.Fatalf("overflow RCV order % x: %v", blob, err)
	}
	if err := eng.ReadErr(); err != nil {
		t.Fatalf("read error over the golden fixture: %v", err)
	}
}

// metaBlobs snapshots every persisted manifest blob (store roots, segment
// headers, orders and deltas, engine manifests, formula sets).
func metaBlobs(t *testing.T, db *dataspread.DB) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, k := range db.MetaKeys("") {
		v, ok, err := db.MetaValue(k)
		if err != nil || !ok {
			t.Fatalf("meta %q: ok=%v err=%v", k, ok, err)
		}
		out[k] = v
	}
	return out
}

// TestGoldenCurrentFormat: the checked-in database recovers its unreplayed
// log, loads, and holds exactly the committed cells; and since the fixture
// was written by this same format, saving it again and reopening leaves
// every manifest blob byte-identical — a writer that drifts from the bytes
// on disk fails here.
func TestGoldenCurrentFormat(t *testing.T) {
	if os.Getenv("GOLDEN_REGEN") != "" {
		writeGolden(t, goldenDir)
	}
	path := copyGolden(t)
	// Every record type is in the fixture: the sealed segment holds first
	// touches (images), the active one pages already logged (deltas).
	if k := walRecordKinds(t, path+".wal"); k[1] == 0 || k[4] != 0 || k[3] != 1 {
		t.Fatalf("sealed segment holds records %v, want images and one commit", k)
	}
	if k := walRecordKinds(t, path+".wal.0001"); k[4] == 0 || k[3] != 1 {
		t.Fatalf("active segment holds records %v, want deltas and one commit", k)
	}
	db, err := dataspread.OpenFileDB(path)
	if err != nil {
		t.Fatalf("golden fixture no longer opens: %v", err)
	}
	if names := dataspread.SheetNames(db); len(names) != 1 || names[0] != "fix" {
		t.Fatalf("SheetNames = %v, want [fix]", names)
	}
	eng, err := dataspread.LoadEngine(db, "fix")
	if err != nil {
		t.Fatalf("golden fixture no longer loads: %v", err)
	}
	assertGolden(t, db, eng)
	before := metaBlobs(t, db)
	if len(before) < 8 {
		t.Fatalf("fixture holds only %d manifest blobs", len(before))
	}
	if err := eng.Save(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := dataspread.OpenFileDB(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	after := metaBlobs(t, db2)
	for k, v := range before {
		if w, ok := after[k]; !ok {
			t.Errorf("manifest blob %q vanished across save/reopen", k)
		} else if !bytes.Equal(v, w) {
			t.Errorf("manifest blob %q changed across save/reopen:\n was % x\n now % x", k, v, w)
		}
	}
	for k := range after {
		if _, ok := before[k]; !ok {
			t.Errorf("save/reopen added manifest blob %q", k)
		}
	}
	eng2, err := dataspread.LoadEngine(db2, "fix")
	if err != nil {
		t.Fatal(err)
	}
	assertGolden(t, db2, eng2)
}

// castagnoli is the checksum polynomial of every on-disk structure.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// rewriteMeta edits one manifest value of the closed database at path
// through the metadata KV and closes it again (checkpointed).
func rewriteMeta(key string, edit func(t *testing.T, blob []byte) []byte) func(*testing.T, string) {
	return func(t *testing.T, path string) {
		db, err := dataspread.OpenFileDB(path)
		if err != nil {
			t.Fatal(err)
		}
		blob, ok := db.GetMeta(key)
		if !ok {
			t.Fatalf("no meta key %q", key)
		}
		db.PutMeta(key, edit(t, blob))
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// editRecord re-encodes the value's n-th record — its datums are ints and
// texts as layout spells them ("iiti") — with edit applied, and leaves the
// records around it as they are.
func editRecord(n int, layout string, edit func(row rdbms.Row)) func(*testing.T, []byte) []byte {
	return func(t *testing.T, blob []byte) []byte {
		var out []byte
		for i := 0; len(blob) > 0; i++ {
			rec, rest, err := rdbms.NextRecord(blob)
			if err != nil {
				t.Fatal(err)
			}
			if i == n {
				var row rdbms.Row
				for _, c := range layout {
					if c == 'i' {
						row = append(row, rdbms.Int(rec.Int()))
					} else {
						row = append(row, rdbms.Text(rec.Text()))
					}
				}
				if err := rec.Done(); err != nil {
					t.Fatalf("record %d is not laid out %q: %v", n, layout, err)
				}
				edit(row)
				out = rdbms.AppendRecord(out, row)
			} else {
				out = append(out, blob[:len(blob)-len(rest)]...)
			}
			blob = rest
		}
		return out
	}
}

// editCatalogRoot damages the catalog root of the closed database at path:
// edit gets the data-file header and the root's bytes inside its one
// checksummed meta page, and both are written back with the page's checksum
// (the header's is edit's to redo).
func editCatalogRoot(edit func(t *testing.T, hdr, root []byte)) func(*testing.T, string) {
	return func(t *testing.T, path string) {
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		hdr := make([]byte, 36)
		if _, err := f.ReadAt(hdr, 0); err != nil {
			t.Fatal(err)
		}
		head, n := binary.LittleEndian.Uint32(hdr[16:]), binary.LittleEndian.Uint32(hdr[20:])
		const pageSize = 8192
		if n >= pageSize-4 {
			t.Fatalf("catalog root spans several pages (%d bytes)", n)
		}
		slot := make([]byte, 8+pageSize)
		off := int64(pageSize) + int64(head)*int64(len(slot))
		if _, err := f.ReadAt(slot, off); err != nil {
			t.Fatal(err)
		}
		edit(t, hdr, slot[8+4:8+4+n])
		binary.LittleEndian.PutUint32(slot[0:4], crc32.Checksum(slot[8:], castagnoli))
		if _, err := f.WriteAt(slot, off); err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(hdr, 0); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFormatVersionChecksAreExact: every persisted structure is read for
// exactly the version this build writes. An older or a newer one — data-file
// header, WAL commit record — fails the open with an error naming what was
// found and what is supported; it is never misparsed as current, and an old
// log is never mistaken for a torn tail and truncated. The structures the
// header's version covers — catalog root, store manifest, engine manifest,
// formula set — carry none of their own and are decoded strictly instead: a
// damaged one fails the open or the load naming the store or sheet and the
// record, and never opens a sheet with less in it than was saved.
func TestFormatVersionChecksAreExact(t *testing.T) {
	headerVersion := func(v uint32) func(*testing.T, string) {
		return func(t *testing.T, path string) {
			f, err := os.OpenFile(path, os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			var b [4]byte
			binary.LittleEndian.PutUint32(b[:], v)
			if _, err := f.WriteAt(b[:], 8); err != nil {
				t.Fatal(err)
			}
		}
	}
	cases := []struct {
		name string
		// damage rewrites the cleanly closed database at path.
		damage func(t *testing.T, path string)
		want   []string
	}{
		{"header of the JSON manifests", headerVersion(4), []string{"format version 4", "only version 8"}},
		{"header of the text-encoded cells", headerVersion(5), []string{"format version 5", "only version 8"}},
		{"header of the image-only log", headerVersion(6), []string{"format version 6", "only version 8"}},
		{"header of formula source in the cells", headerVersion(7), []string{"format version 7, this build reads only version 8"}},
		{"header newer", headerVersion(9), []string{"format version 9", "only version 8"}},
		{"wal commit record without generation", func(t *testing.T, path string) {
			// An intact record of the removed type 2: u32 page count, meta
			// head, meta length, CRC-32C.
			rec := make([]byte, 17)
			rec[0] = 2
			binary.LittleEndian.PutUint32(rec[1:], 1)
			binary.LittleEndian.PutUint32(rec[13:], crc32.Checksum(rec[:13], castagnoli))
			if err := os.WriteFile(path+".wal", append([]byte("DSWAL001"), rec...), 0o644); err != nil {
				t.Fatal(err)
			}
		}, []string{"record type 2", "only type 3"}},
		{"catalog root with an unknown record tag", editCatalogRoot(func(t *testing.T, hdr, root []byte) {
			// The first record: frame length, datum count, then the tag
			// as a one-byte int datum (type byte 1, zigzag varint).
			_, n := binary.Uvarint(root)
			_, m := binary.Uvarint(root[n:])
			tag := root[n+m:]
			if tag[0] != 1 || tag[1] >= 0x80 {
				t.Fatalf("catalog root does not start with a small int tag: % x", root[:8])
			}
			tag[1] = 2 * 9
		}), []string{"catalog root record 0", "record tag 9"}},
		{"catalog root with trailing bytes", editCatalogRoot(func(t *testing.T, hdr, root []byte) {
			// One more byte than the records fill, in the header's length.
			binary.LittleEndian.PutUint32(hdr[20:], uint32(len(root))+1)
			binary.LittleEndian.PutUint32(hdr[32:], crc32.Checksum(hdr[:32], castagnoli))
		}), []string{"catalog root record"}},
		{"store root with an unknown region kind", rewriteMeta("sheet:fix", editRecord(1, "iiiiti", func(row rdbms.Row) {
			row[4] = rdbms.Text("rox")
		})), []string{`store "fix" root`, "record 1", `region kind "rox"`}},
		{"segment order with a trailing byte", rewriteMeta("sheet:fix:seg:1:order", func(t *testing.T, blob []byte) []byte {
			return append(blob, 0)
		}), []string{`store "fix" segment 1 order`, "record 1"}},
		{"engine manifest with a datum of the wrong type", rewriteMeta("engine:fix", editRecord(0, "tiii", func(row rdbms.Row) {
			row[1] = rdbms.Text("47")
		})), []string{`sheet "fix" manifest`, "record 0", "datum 1"}},
		{"formula record whose count is 0", rewriteMeta("engine:fix:formulas", editRecord(1, "iiiit", func(row rdbms.Row) {
			row[2] = rdbms.Int(0)
		})), []string{`sheet "fix" formula set`, "record 1", "run of 0 cells"}},
		{"formula set cut short at a record", rewriteMeta("engine:fix:formulas", func(t *testing.T, blob []byte) []byte {
			_, rest, err := rdbms.NextRecord(blob)
			if err != nil {
				t.Fatal(err)
			}
			_, rest, err = rdbms.NextRecord(rest)
			if err != nil || len(rest) == 0 {
				t.Fatalf("formula set holds one run only: %v", err)
			}
			return blob[:len(blob)-len(rest)]
		}), []string{`sheet "fix" formula set`, "formula cells in 2 records"}},
		{"cell datum with an unknown tag", func(t *testing.T, path string) {
			// A cell column admits any datum, so the damage goes in through
			// the table: the first tuple of the region holding A1.
			db, err := dataspread.OpenFileDB(path)
			if err != nil {
				t.Fatal(err)
			}
			tab := db.Table("fix_r1")
			tab.Scan(func(rid rdbms.RID, row rdbms.Row) bool {
				row[0] = rdbms.Text("Zbogus")
				if _, err := tab.Update(rid, row); err != nil {
					t.Fatal(err)
				}
				return false
			})
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		}, []string{`table "fix_r1" rid (`, "column c0", "unknown cell tag 'Z'"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := copyGolden(t)
			// Replay and checkpoint the fixture's log first, so the damage
			// lands on a cleanly closed database.
			db, err := dataspread.OpenFileDB(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			tc.damage(t, path)
			walBefore, _ := os.ReadFile(path + ".wal")

			db, err = dataspread.OpenFileDB(path)
			if err == nil {
				var eng *dataspread.Engine
				if eng, err = dataspread.LoadEngine(db, "fix"); err == nil {
					// Cells are not read by the load: damage to one shows
					// when a view reaches it.
					_, _, err = eng.SnapshotRange(dataspread.MustRange("A1:F50"))
				}
				db.SimulateCrash()
			}
			if err == nil {
				t.Fatal("open and load succeeded")
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not mention %q", err, w)
				}
			}
			if walAfter, _ := os.ReadFile(path + ".wal"); !bytes.Equal(walBefore, walAfter) {
				t.Errorf("refused open rewrote the WAL (%d -> %d bytes)", len(walBefore), len(walAfter))
			}
		})
	}
}

// TestSnapshotFreeLoadIO: loading a persisted sheet touches O(formulas)
// state, not O(cells) — the buffer pool reads a handful of pages, not the
// whole heap.
func TestSnapshotFreeLoadIO(t *testing.T) {
	path := filepath.Join(t.TempDir(), "loadio.dsdb")
	s := dataspread.NewSheet("big")
	const rows, cols = 2000, 20
	for r := 1; r <= rows; r++ {
		for c := 1; c <= cols; c++ {
			s.SetValue(r, c, dataspread.Number(float64(r*cols+c)))
		}
	}
	for i := 0; i < 30; i++ {
		s.SetFormula(rows+1, i+1, fmt.Sprintf("SUM(%s)", dataspread.NewRange(1, i+1, rows, i+1)))
	}
	db, err := dataspread.OpenFileDB(path)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := dataspread.OpenSheet(db, "big", s, "rom")
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := dataspread.OpenFileDB(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	before := db2.Pool().Stats()
	if _, err := dataspread.LoadEngine(db2, "big"); err != nil {
		t.Fatal(err)
	}
	after := db2.Pool().Stats()
	// The 40k-cell heap spans hundreds of pages; a snapshot-free load must
	// stay an order of magnitude below that (overflow scan + stragglers).
	if pages := after.PagesRead - before.PagesRead; pages > 40 {
		t.Fatalf("Load read %d heap pages, want O(formulas) (<= 40)", pages)
	}
}
