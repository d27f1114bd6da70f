package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"dataspread/internal/cache"
	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
)

// A rectangle reaching above row 1 or left of column 1, or whose From is past
// its To, is refused at the door of the read path: ReadRange and
// SnapshotRange return an error, PeekCells (nil, false), GetCell and
// CellValue a blank with the refusal left for ReadErr. VisitRange clips to
// A1 instead. Each of these panicked before.
func TestReadRangeRefusesCellsOutsideTheSheet(t *testing.T) {
	e := newEngine(t)
	if err := e.Set(1, 1, "7"); err != nil {
		t.Fatal(err)
	}
	for _, g := range []sheet.Range{
		sheet.NewRange(0, 1, 0, 1),
		sheet.NewRange(1, 0, 1, 0),
		sheet.NewRange(0, 0, 3, 3),
		{From: sheet.Ref{Row: 3, Col: 2}, To: sheet.Ref{Row: 1, Col: 1}},
		{From: sheet.Ref{Row: 1, Col: 2}, To: sheet.Ref{Row: 1, Col: 1}},
	} {
		if cells, _, _, err := e.ReadRange(g); err == nil || cells != nil {
			t.Errorf("ReadRange(%+v) = %d rows, %v; want refused", g, len(cells), err)
		}
		if cells, ok := e.PeekCells(g); ok || cells != nil {
			t.Errorf("PeekCells(%+v) = %d rows, %v; want (nil, false)", g, len(cells), ok)
		}
	}
	if _, _, err := e.SnapshotRange(sheet.NewRange(1, 0, 5, 0)); err == nil {
		t.Error("SnapshotRange of column 0 was accepted")
	}
	if err := e.ReadErr(); err != nil {
		t.Fatalf("a refused ReadRange left %v for ReadErr", err)
	}
	for _, c := range []sheet.Cell{e.GetCell(0, 1), e.GetCell(1, 0), {Value: e.CellValue(sheet.Ref{})}} {
		if !c.IsBlank() {
			t.Errorf("a cell outside the sheet reads %+v", c)
		}
	}
	if err := e.ReadErr(); err == nil {
		t.Error("GetCell outside the sheet left no error for ReadErr")
	}
	var seen []sheet.Ref
	e.VisitRange(sheet.NewRange(0, 0, 5, 5), func(r sheet.Ref, _ sheet.Value) bool {
		seen = append(seen, r)
		return true
	})
	if len(seen) != 1 || seen[0] != (sheet.Ref{Row: 1, Col: 1}) {
		t.Errorf("VisitRange from (0,0) visited %v, want A1", seen)
	}
	if v := e.CellValue(sheet.Ref{Row: 1, Col: 1}); !v.Equal(sheet.Number(7)) {
		t.Errorf("A1 = %v after the refused reads", v)
	}
}

// TestVisitRangeEquivalenceProperty: the streaming VisitRange must agree
// with per-cell GetCell (and GetCells) for every physical layout the
// optimizer can choose, over random sheets and rectangles.
func TestVisitRangeEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for _, algo := range []string{"rom", "com", "rcv", "agg"} {
		s := sheet.New("p")
		const rows, cols = 90, 24
		for n := 0; n < 700; n++ {
			row := rng.Intn(rows) + 1
			col := rng.Intn(cols) + 1
			if rng.Intn(5) == 0 {
				s.Set(sheet.Ref{Row: row, Col: col}, sheet.Cell{Value: sheet.Str(fmt.Sprintf("t%d", n))})
			} else {
				s.SetValue(row, col, sheet.Number(float64(n)))
			}
		}
		e, err := Open(rdbms.Open(rdbms.Options{}), "p", s, algo, Options{})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		for trial := 0; trial < 8; trial++ {
			r0 := rng.Intn(rows) + 1
			c0 := rng.Intn(cols) + 1
			g := sheet.NewRange(r0, c0, r0+rng.Intn(rows), c0+rng.Intn(cols))
			// VisitRange vs GetCell: every visited cell matches, every
			// non-blank cell is visited, order is row-major.
			visited := make(map[sheet.Ref]sheet.Value)
			var last sheet.Ref
			e.VisitRange(g, func(r sheet.Ref, v sheet.Value) bool {
				if last != (sheet.Ref{}) && (r.Row < last.Row || (r.Row == last.Row && r.Col <= last.Col)) {
					t.Fatalf("%s: VisitRange not row-major: %v after %v", algo, r, last)
				}
				last = r
				visited[r] = v
				return true
			})
			cells := e.GetCells(g)
			for i := range cells {
				for j := range cells[i] {
					ref := sheet.Ref{Row: g.From.Row + i, Col: g.From.Col + j}
					point := e.GetCell(ref.Row, ref.Col)
					if !cells[i][j].Value.Equal(point.Value) {
						t.Fatalf("%s: GetCells(%v) = %v, GetCell = %v", algo, ref, cells[i][j].Value, point.Value)
					}
					v, ok := visited[ref]
					if point.IsBlank() != !ok {
						t.Fatalf("%s: VisitRange visited=%v but cell blank=%v at %v", algo, ok, point.IsBlank(), ref)
					}
					if ok && !v.Equal(point.Value) {
						t.Fatalf("%s: VisitRange(%v) = %v, GetCell = %v", algo, ref, v, point.Value)
					}
				}
			}
		}
		if err := e.ReadErr(); err != nil {
			t.Fatalf("%s: unexpected read error: %v", algo, err)
		}
	}
}

// TestReopenedCOMFirstTileReadsOneChunkPerColumn: the first tile of a
// reopened COM region costs one heap page per column. A column of 5,000
// numbers is one tuple chained over three chunks; the tile wants its first
// 64 attributes, all in the head chunk, so the read stops there. Reading
// whole chains, the same tile cost 16 x 3 = 48 pool misses.
func TestReopenedCOMFirstTileReadsOneChunkPerColumn(t *testing.T) {
	const rows, cols = 5000, 16
	path := filepath.Join(t.TempDir(), "com.dsdb")
	db, err := rdbms.OpenFile(path, rdbms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := sheet.New("com")
	for r := 1; r <= rows; r++ {
		for c := 1; c <= cols; c++ {
			s.SetValue(r, c, sheet.Number(float64(r*100+c)))
		}
	}
	e, err := Open(db, "com", s, "com", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Save(); err != nil {
		t.Fatal(err)
	}
	e.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = rdbms.OpenFile(path, rdbms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if e, err = Load(db, "com", Options{}); err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	before := db.Pool().Stats()
	cells, _, _, err := e.ReadRange(sheet.NewRange(1, 1, 64, cols))
	if err != nil {
		t.Fatal(err)
	}
	// Slack for pages other than the 16 column heads (this layout reads
	// none today).
	const slack = 2
	if misses := db.Pool().Stats().PoolMisses - before.PoolMisses; misses > cols+slack {
		t.Fatalf("the first tile cost %d pool misses, want at most %d", misses, cols+slack)
	}
	for r := 1; r <= 64; r++ {
		for c := 1; c <= cols; c++ {
			if v := cells[r-1][c-1].Value; !v.Equal(sheet.Number(float64(r*100 + c))) {
				t.Fatalf("cell (%d,%d) = %v", r, c, v)
			}
		}
	}
}

// TestColdTileLoadBytes bounds what one cold load of a dense numeric 64 x 16
// ROM tile allocates, read through the engine with a one-tile cache so that
// every read loads: the tile's typed columns (9 KiB) and the read's own
// bookkeeping, with no cell grid between the store and the cache. A load that
// decoded into grids first allocated about 107 KB.
func TestColdTileLoadBytes(t *testing.T) {
	const ceiling = 12 << 10
	s := sheet.New("t")
	for r := 1; r <= 2*cache.BlockRows; r++ {
		for c := 1; c <= cache.BlockCols; c++ {
			s.SetValue(r, c, sheet.Number(float64(r*100+c)))
		}
	}
	e, err := Open(rdbms.Open(rdbms.Options{}), "t", s, "rom", Options{CacheBlocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			row := 1 + i%2*cache.BlockRows // the other tile: a miss
			if got := e.GetCell(row, 1); !got.Value.Equal(sheet.Number(float64(row*100 + 1))) {
				b.Fatalf("A%d = %v", row, got.Value)
			}
		}
	})
	if misses := e.CacheStats().Misses; misses < int64(res.N) {
		t.Fatalf("%d reads loaded %d tiles: not every read was cold", res.N, misses)
	}
	t.Logf("%d B in %d allocations per cold tile load", res.AllocedBytesPerOp(), res.AllocsPerOp())
	if got := res.AllocedBytesPerOp(); got > ceiling {
		t.Errorf("a cold tile load allocates %d B, want at most %d", got, ceiling)
	}
}

// TestDamagedDatumFailsTileLoad: a stored datum that is no cell, met halfway
// through decoding a tile, fails the read with an error naming the table,
// the tuple and the column; the tile reads blank and is not cached, so once
// the datum is repaired the next read loads the cells.
func TestDamagedDatumFailsTileLoad(t *testing.T) {
	s := sheet.New("t")
	for r := 1; r <= cache.BlockRows; r++ {
		for c := 1; c <= cache.BlockCols; c++ {
			s.SetValue(r, c, sheet.Number(float64(r*100+c)))
		}
	}
	db := rdbms.Open(rdbms.Options{})
	e, err := Open(db, "t", s, "rom", Options{})
	if err != nil {
		t.Fatal(err)
	}
	tab := db.Table("t_r1")
	var damaged rdbms.RID
	var good rdbms.Datum
	n := 0
	if err := tab.Scan(func(rid rdbms.RID, row rdbms.Row) bool { // heap order is row order here
		if n++; n < 40 {
			return true
		}
		damaged, good = rid, row[4]
		row[4] = rdbms.Text("Zbogus")
		if _, err := tab.Update(rid, row); err != nil {
			t.Fatal(err)
		}
		return false
	}); err != nil {
		t.Fatal(err)
	}
	g := sheet.NewRange(1, 1, cache.BlockRows, cache.BlockCols)
	cells, _, _, err := e.ReadRange(g)
	if err == nil {
		t.Fatal("a tile holding a damaged datum loaded")
	}
	for _, w := range []string{`table "t_r1"`, fmt.Sprintf("rid %v", damaged), "column c4", "unknown cell tag 'Z'"} {
		if !strings.Contains(err.Error(), w) {
			t.Errorf("error %q does not name %q", err, w)
		}
	}
	for i, row := range cells {
		for j, c := range row {
			if !c.IsBlank() {
				t.Fatalf("(%d,%d) of the failed tile reads %+v", i+1, j+1, c)
			}
		}
	}
	if _, ok := e.PeekCells(g); ok {
		t.Fatal("the failed tile is resident")
	}
	row, err := tab.Get(damaged)
	if err != nil {
		t.Fatal(err)
	}
	row[4] = good
	if _, err := tab.Update(damaged, row); err != nil {
		t.Fatal(err)
	}
	if got := e.GetCell(40, 5); !got.Value.Equal(sheet.Number(4005)) {
		t.Fatalf("E40 after the repair = %+v", got)
	}
}
