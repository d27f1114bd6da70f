package cache

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"dataspread/internal/sheet"
)

// sameCell reports whether two cells are identical as far as any reader can
// tell: kind, value (NaN equal to NaN, -0 apart from +0) and formula.
func sameCell(a, b sheet.Cell) bool {
	if a.Formula != b.Formula || a.Value.Kind() != b.Value.Kind() || !a.Value.Equal(b.Value) {
		return false
	}
	x, _ := a.Value.Num()
	y, _ := b.Value.Num()
	return math.Signbit(x) == math.Signbit(y)
}

// checkReads compares every read path over g with want (absent: blank):
// Get per cell, ReadRange, Snapshot when g is resident, and VisitRange, which
// must yield exactly want's non-blank cells in row-major order. It returns
// whether Snapshot found g resident.
func checkReads(t *testing.T, c *Cache, g sheet.Range, want map[sheet.Ref]sheet.Cell) bool {
	t.Helper()
	grid, err := c.ReadRange(g)
	if err != nil {
		t.Fatal(err)
	}
	var gen atomic.Uint64
	snap, _, _, resident := c.Snapshot(g, &gen)
	var visits []sheet.Ref
	c.VisitRange(g, func(r sheet.Ref, cell sheet.Cell) bool {
		if !sameCell(cell, want[r]) || cell.IsBlank() {
			t.Fatalf("VisitRange %v = %#v, want %#v", r, cell, want[r])
		}
		visits = append(visits, r)
		return true
	})
	n := 0
	for row := g.From.Row; row <= g.To.Row; row++ {
		for col := g.From.Col; col <= g.To.Col; col++ {
			r := sheet.Ref{Row: row, Col: col}
			w := want[r]
			i, j := row-g.From.Row, col-g.From.Col
			if got := grid[i][j]; !sameCell(got, w) {
				t.Fatalf("ReadRange %v = %#v, want %#v", r, got, w)
			}
			if resident && !sameCell(snap[i][j], w) {
				t.Fatalf("Snapshot %v = %#v, want %#v", r, snap[i][j], w)
			}
			if w.IsBlank() {
				continue
			}
			if n >= len(visits) || visits[n] != r {
				t.Fatalf("VisitRange's cell %d is not %v (%d visited)", n, r, len(visits))
			}
			n++
		}
	}
	if n != len(visits) {
		t.Fatalf("VisitRange visited %d cells, want %d", len(visits), n)
	}
	// Point reads tile by tile, so a small cache does not reload per cell.
	for _, k := range BlockCover(g) {
		ov, _ := g.Intersect(blockRange(blockKey{k.BR, k.BC}))
		for row := ov.From.Row; row <= ov.To.Row; row++ {
			for col := ov.From.Col; col <= ov.To.Col; col++ {
				r := sheet.Ref{Row: row, Col: col}
				if got := c.Get(r); !sameCell(got, want[r]) {
					t.Fatalf("Get %v = %#v, want %#v", r, got, want[r])
				}
			}
		}
	}
	checkTileLayout(t, c)
	return resident
}

// checkTileLayout checks every resident tile's columns against the layout:
// slices sized to the extent, the extent inside the tile, blanks all zero,
// and formula text exactly where the kind byte says.
func checkTileLayout(t *testing.T, c *Cache) {
	t.Helper()
	c.mu.RLock()
	defer c.mu.RUnlock()
	for k, e := range c.blocks {
		b := e.Value.(*block)
		n := BlockRows * b.width()
		if b.key != k || (b.hi >= b.lo && (b.lo < 0 || b.hi >= BlockCols)) || len(b.kind) != n || len(b.num) != n ||
			(b.str != nil && len(b.str) != n) || (b.formula != nil && len(b.formula) != n) {
			t.Fatalf("tile %v: key %v, extent %d..%d, %d kinds, %d nums, %d strs, %d formulas",
				k, b.key, b.lo, b.hi, len(b.kind), len(b.num), len(b.str), len(b.formula))
		}
		for i, kb := range b.kind {
			var str, formula string
			if b.str != nil {
				str = b.str[i]
			}
			if b.formula != nil {
				formula = b.formula[i]
			}
			if kb == 0 && (b.num[i] != 0 || str != "") || (kb&formulaBit != 0) != (formula != "") {
				t.Fatalf("tile %v cell %d: kind %#x, num %v, str %q, formula %q", k, i, kb, b.num[i], str, formula)
			}
		}
	}
}

// tileCells is one cell of every shape a tile must keep: every kind, the
// awkward floats, the empty string (not blank), both bools, an error, a
// formula over each value kind and a formula still pending.
func tileCells() []sheet.Cell {
	vals := []sheet.Value{
		sheet.Number(1.5), sheet.Number(math.NaN()), sheet.Number(math.Copysign(0, -1)),
		sheet.Number(math.Inf(1)), sheet.Number(math.Inf(-1)), sheet.Str("text"),
		sheet.Str(""), sheet.Bool(true), sheet.Bool(false), sheet.ErrDiv0,
	}
	var out []sheet.Cell
	for _, v := range vals {
		out = append(out, sheet.Cell{Value: v})
	}
	for _, v := range vals {
		out = append(out, sheet.Cell{Value: v, Formula: "A1+" + v.Text()})
	}
	return append(out, sheet.Cell{Formula: "B2*2"})
}

// TestCacheTileRoundTrip stores every cell shape in one column of a tile,
// once through LoadBlock and once through Publish, and reads each back
// identically through every read path, again after an aligned Shift
// renumbers the tile, after writes widen the one-column tile on both sides,
// and after a write blanks a cell.
func TestCacheTileRoundTrip(t *testing.T) {
	cells := tileCells()
	for _, viaPublish := range []bool{false, true} {
		s := sheet.New("t")
		want := map[sheet.Ref]sheet.Cell{}
		for i, cell := range cells {
			want[sheet.Ref{Row: i + 1, Col: 5}] = cell
		}
		if !viaPublish {
			for r, cell := range want {
				s.Set(r, cell)
			}
		}
		b := &sheetBacking{s: s}
		c := New(b, 4)
		g := sheet.NewRange(1, 1, BlockRows, BlockCols)
		c.Get(g.From)
		if viaPublish {
			var writes []sheet.CellWrite
			for r, cell := range want {
				s.Set(r, cell)
				writes = append(writes, write(r, cell))
			}
			c.Publish(writes, nil, nil, nil)
		}
		if !checkReads(t, c, g, want) {
			t.Fatal("tile not resident")
		}
		for i, cell := range cells {
			got := c.Get(sheet.Ref{Row: i + 1, Col: 5})
			k1, n1, s1 := got.Value.Parts()
			k2, n2, s2 := cell.Value.Parts()
			if k1 != k2 || math.Float64bits(n1) != math.Float64bits(n2) || s1 != s2 {
				t.Fatalf("cell %d: parts %v %v %q, want %v %v %q", i, k1, n1, s1, k2, n2, s2)
			}
		}

		// Widen on both sides, then blank one cell.
		var writes []sheet.CellWrite
		for i, cell := range cells {
			writes = append(writes, write(sheet.Ref{Row: i + 1, Col: 2}, cell), write(sheet.Ref{Row: 40 + i, Col: BlockCols}, cell))
		}
		writes = append(writes, write(sheet.Ref{Row: 2, Col: 5}, sheet.Cell{}))
		for _, w := range writes {
			s.Set(w.Ref(), w.Cell)
			if w.Cell.IsBlank() {
				delete(want, w.Ref())
			} else {
				want[w.Ref()] = w.Cell
			}
		}
		loads := b.loads
		c.Publish(writes, nil, nil, nil)
		checkReads(t, c, g, want)

		// An aligned insert above renumbers the tile without a reload.
		moved := map[sheet.Ref]sheet.Cell{}
		s2 := sheet.New("t")
		for r, cell := range want {
			r.Row += BlockRows
			moved[r] = cell
			s2.Set(r, cell)
		}
		b.s = s2
		c.Shift(true, 1, BlockRows)
		checkReads(t, c, sheet.NewRange(BlockRows+1, 1, 2*BlockRows, BlockCols), moved)
		if b.loads != loads {
			t.Fatalf("renumbered tile reloaded: %d loads, want %d", b.loads, loads)
		}
	}
}

// shiftCells applies a structural edit to a reference map with the cache's
// convention: delta > 0 inserts before at, delta < 0 deletes from at.
func shiftCells(m map[sheet.Ref]sheet.Cell, rows bool, at, delta int) map[sheet.Ref]sheet.Cell {
	out := make(map[sheet.Ref]sheet.Cell, len(m))
	for r, cell := range m {
		x := &r.Col
		if rows {
			x = &r.Row
		}
		switch {
		case *x < at:
		case delta < 0 && *x < at-delta:
			continue
		default:
			*x += delta
		}
		out[r] = cell
	}
	return out
}

// TestCacheTileDifferential runs seeded random operations against a map of
// the sheet, with a three-tile cache so tiles are evicted and reloaded, and
// checks every read against the map.
func TestCacheTileDifferential(t *testing.T) {
	shapes := tileCells()
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		want := map[sheet.Ref]sheet.Cell{}
		b := &sheetBacking{s: sheet.New("t")}
		c := New(b, 3)
		const rows, cols = 3 * BlockRows, 3 * BlockCols
		randRange := func() sheet.Range {
			r0, c0 := rng.Intn(rows)+1, rng.Intn(cols)+1
			return sheet.NewRange(r0, c0, r0+rng.Intn(BlockRows+8), c0+rng.Intn(BlockCols+4))
		}
		for op := 0; op < 400; op++ {
			switch n := rng.Intn(10); {
			case n < 4:
				writes := make([]sheet.CellWrite, rng.Intn(40)+1)
				for i := range writes {
					w := write(sheet.Ref{Row: rng.Intn(rows) + 1, Col: rng.Intn(cols) + 1}, sheet.Cell{})
					if rng.Intn(4) > 0 {
						w.Cell = shapes[rng.Intn(len(shapes))]
					}
					writes[i] = w
					b.s.Set(w.Ref(), w.Cell)
					if w.Cell.IsBlank() {
						delete(want, w.Ref())
					} else {
						want[w.Ref()] = w.Cell
					}
				}
				c.Publish(writes, nil, nil, nil)
			case n < 8:
				checkReads(t, c, randRange(), want)
			case n < 9:
				rowsAxis := rng.Intn(2) == 0
				span := BlockCols
				if rowsAxis {
					span = BlockRows
				}
				at, delta := rng.Intn(2*span)+1, rng.Intn(3)+1
				if rng.Intn(2) == 0 {
					delta *= span // aligned
				}
				if rng.Intn(2) == 0 {
					delta = -delta
				}
				want = shiftCells(want, rowsAxis, at, delta)
				s := sheet.New("t")
				for r, cell := range want {
					s.Set(r, cell)
				}
				b.s = s
				c.Shift(rowsAxis, at, delta)
			default:
				c.Invalidate(randRange())
			}
		}
		checkReads(t, c, sheet.NewRange(1, 1, rows, cols), want)
	}
}

// TestCacheTileFootprint measures what a resident tile costs on the heap:
// 256 tiles of one shape each, the HeapAlloc delta after a collection
// divided by 256. Formula text is one shared literal, so only the tile's own
// columns count.
func TestCacheTileFootprint(t *testing.T) {
	const tiles = 256
	for _, tc := range []struct {
		name  string
		cell  func(sheet.Ref) sheet.Cell
		bound uint64
	}{
		{"dense numeric 64x16", func(r sheet.Ref) sheet.Cell {
			return sheet.Cell{Value: sheet.Number(float64(r.Row))}
		}, 10 << 10},
		{"formula column 64x1", func(r sheet.Ref) sheet.Cell {
			if r.Col != 1 {
				return sheet.Cell{}
			}
			return sheet.Cell{Value: sheet.Number(float64(r.Row)), Formula: "SUM(B1:P1)"}
		}, 3 << 10},
		{"blank", func(sheet.Ref) sheet.Cell { return sheet.Cell{} }, 512},
	} {
		c := New(funcBacking(tc.cell), tiles)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < tiles; i++ {
			c.Get(sheet.Ref{Row: i*BlockRows + 1, Col: 1})
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(c)
		per := (after.HeapAlloc - min(after.HeapAlloc, before.HeapAlloc)) / tiles
		t.Logf("%s: %d B per tile", tc.name, per)
		if per > tc.bound {
			t.Errorf("%s: %d B per resident tile, want at most %d", tc.name, per, tc.bound)
		}
	}
}

// TestTileReaderMatchesGet reads random cells of random tiles, every cell
// shape among them and extents widened by Publish on both sides, through one
// tile reader and through Get: the two agree, also with a cache smaller than
// the tiles read, which evicts tiles the reader holds.
func TestTileReaderMatchesGet(t *testing.T) {
	shapes := tileCells()
	for _, capacity := range []int{64, 2} {
		rng := rand.New(rand.NewSource(int64(capacity)))
		s := sheet.New("t")
		const rows, cols = 4 * BlockRows, 4 * BlockCols
		for i := 0; i < 600; i++ {
			s.Set(sheet.Ref{Row: rng.Intn(rows) + 1, Col: rng.Intn(cols) + 1}, shapes[rng.Intn(len(shapes))])
		}
		c := New(&sheetBacking{s: s}, capacity)
		var writes []sheet.CellWrite // widen the loaded tiles' extents
		for i := 0; i < 200; i++ {
			r := sheet.Ref{Row: rng.Intn(rows) + 1, Col: rng.Intn(cols) + 1}
			c.Get(r)
			r.Col = (r.Col-1)/BlockCols*BlockCols + 1 + rng.Intn(2)*(BlockCols-1)
			writes = append(writes, write(r, shapes[rng.Intn(len(shapes))]))
			s.Set(r, writes[len(writes)-1].Cell)
		}
		c.Publish(writes, nil, nil, nil)
		tr := c.TileReader()
		for i := 0; i < 5000; i++ {
			r := sheet.Ref{Row: rng.Intn(rows) + 1, Col: rng.Intn(cols) + 1}
			if rng.Intn(4) > 0 { // mostly near the last read, as a chunk's reads are
				r = sheet.Ref{Row: min(rows, r.Row%BlockRows+1), Col: min(cols, r.Col%3+1)}
			}
			if got, want := tr.Get(r), c.Get(r); !sameCell(got, want) || !sameCell(got, s.Get(r)) {
				t.Fatalf("capacity %d: reader %v = %#v, Get %#v, sheet %#v", capacity, r, got, want, s.Get(r))
			}
		}
	}
}

// TestTileReaderEvictedTileReadsTheSame evicts the tile a reader holds: the
// reader goes on reading it, unchanged and without a load, since an evicted
// tile is never written again.
func TestTileReaderEvictedTileReadsTheSame(t *testing.T) {
	s := sheet.New("t")
	a, far := sheet.Ref{Row: 3, Col: 4}, sheet.Ref{Row: 5*BlockRows + 1, Col: 1}
	s.Set(a, sheet.Cell{Value: sheet.Number(7), Formula: "B1*7"})
	b := &sheetBacking{s: s}
	c := New(b, 1)
	tr := c.TileReader()
	before := tr.Get(a)
	c.Get(far) // the one-tile cache evicts a's tile
	c.Publish([]sheet.CellWrite{write(a, sheet.Cell{Value: sheet.Number(8)})}, nil, nil, nil)
	loads := b.loads
	if got := tr.Get(a); !sameCell(got, before) || b.loads != loads {
		t.Fatalf("evicted tile read %#v after %d loads, want %#v after none", got, b.loads-loads, before)
	}
	if got := c.Get(a); !sameCell(got, sheet.Cell{Value: sheet.Number(7), Formula: "B1*7"}) {
		t.Fatalf("Get %v = %#v: the store's cell, since the publish met no resident tile", a, got)
	}
}

// TestTileReaderCountsPerTile counts a reader's visits: a move to a resident
// tile counts one hit, a move to a cold one one miss and one load, and reads
// inside the two tiles it holds count nothing.
func TestTileReaderCountsPerTile(t *testing.T) {
	b := &sheetBacking{s: sheet.New("t")}
	c := New(b, 8)
	x, y, z := sheet.Ref{Row: 1, Col: 1}, sheet.Ref{Row: 1, Col: BlockCols + 1}, sheet.Ref{Row: BlockRows + 1, Col: 1}
	c.Get(x)
	c.ResetStats()
	tr := c.TileReader()
	visit := func(base sheet.Ref) {
		for row := 0; row < BlockRows; row++ {
			for col := 0; col < BlockCols; col++ {
				tr.Get(sheet.Ref{Row: base.Row + row, Col: base.Col + col})
			}
		}
	}
	visit(x) // resident: one hit
	visit(y) // cold: one miss, one load
	for i := 0; i < 3; i++ {
		tr.Get(x)
		tr.Get(y)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 || b.loads != 2 {
		t.Fatalf("two tiles read whole: %+v, %d loads; want 1 hit, 1 miss, 2 loads", st, b.loads)
	}
	visit(z)  // a third tile: one more miss
	tr.Get(x) // x was the older of the two held: moved to again
	if st := c.Stats(); st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("after a third tile: %+v, want 2 hits, 2 misses", st)
	}
}

// tileBacking fills a Tile from a sheet the way a store does, in a seeded
// random order: a cell's value and formula in either order (a formula-only
// cell sometimes with a blank Set beside it), after narrowing the span to
// span when it is set. failAfter > 0 fails the load after that many cells.
type tileBacking struct {
	s         *sheet.Sheet
	span      *[2]int
	rng       *rand.Rand
	failAfter int
}

func (b *tileBacking) LoadBlock(g sheet.Range, t Tile) error {
	if b.span != nil {
		t = t.Span(b.span[0], b.span[1])
	}
	var refs []sheet.Ref
	b.s.EachSorted(func(r sheet.Ref, _ sheet.Cell) {
		if g.Contains(r) {
			refs = append(refs, r)
		}
	})
	b.rng.Shuffle(len(refs), func(i, j int) { refs[i], refs[j] = refs[j], refs[i] })
	for n, r := range refs {
		if b.failAfter > 0 && n == b.failAfter {
			return fmt.Errorf("injected failure after %d cells", n)
		}
		i, j, cell := r.Row-g.From.Row, r.Col-g.From.Col, b.s.Get(r)
		setValue := !cell.Value.IsEmpty() || b.rng.Intn(2) == 0
		if b.rng.Intn(2) == 0 && setValue {
			t.Set(i, j, cell.Value)
			setValue = false
		}
		if cell.Formula != "" {
			t.SetFormula(i, j, cell.Formula)
		}
		if setValue {
			t.Set(i, j, cell.Value)
		}
	}
	return nil
}

// TestTileLoadMatchesCells fills tiles of every shape through Tile — every
// value kind, formula-only cells, blank edge columns, one column, a dense
// tile, a blank one — under span hints that are missing, exact, too wide,
// too narrow and empty, in random order. Every read path returns the cells,
// and the loaded tile keeps exactly the extent of its non-blank columns with
// columns of that width and no more capacity, and text tables only where a
// cell has text.
func TestTileLoadMatchesCells(t *testing.T) {
	shapes := tileCells()
	rng := rand.New(rand.NewSource(45))
	layouts := []struct {
		name string
		cell func(r, c int) sheet.Cell
	}{
		{"every kind, blank edges", func(r, c int) sheet.Cell {
			if c < 3 || c > 12 || rng.Intn(3) == 0 {
				return sheet.Cell{}
			}
			return shapes[rng.Intn(len(shapes))]
		}},
		{"formula-only edges", func(r, c int) sheet.Cell {
			switch {
			case (c == 1 || c == 14) && r%7 == 0:
				return sheet.Cell{Formula: "B2*2"}
			case c > 4 && c < 9:
				return sheet.Cell{Value: sheet.Number(float64(r * c))}
			}
			return sheet.Cell{}
		}},
		{"last column", func(r, c int) sheet.Cell {
			if c != BlockCols-1 {
				return sheet.Cell{}
			}
			return sheet.Cell{Value: sheet.Str("x"), Formula: "A1"}
		}},
		{"dense", func(r, c int) sheet.Cell { return sheet.Cell{Value: sheet.Number(float64(r*BlockCols + c))} }},
		{"blank", func(r, c int) sheet.Cell { return sheet.Cell{} }},
	}
	spans := []*[2]int{nil, {0, BlockCols - 1}, {3, 12}, {6, 7}, {0, 0}, {BlockCols, -1}}
	for _, layout := range layouts {
		name := layout.name
		for _, span := range spans {
			s := sheet.New("t")
			want := map[sheet.Ref]sheet.Cell{}
			g := blockRange(blockKey{br: 1, bc: 2})
			lo, hi, strs, formulas := BlockCols, -1, false, false
			for r := 0; r < BlockRows; r++ {
				for c := 0; c < BlockCols; c++ {
					cell := layout.cell(r, c)
					if cell.IsBlank() {
						continue
					}
					ref := sheet.Ref{Row: g.From.Row + r, Col: g.From.Col + c}
					s.Set(ref, cell)
					want[ref] = cell
					lo, hi = min(lo, c), max(hi, c)
					_, _, str := cell.Value.Parts()
					strs, formulas = strs || str != "", formulas || cell.Formula != ""
				}
			}
			c := New(&tileBacking{s: s, span: span, rng: rng}, 4)
			if !checkReads(t, c, g, want) {
				t.Fatalf("%s, span %v: tile not resident", name, span)
			}
			b := c.blocks[blockKey{br: 1, bc: 2}].Value.(*block)
			n := BlockRows * max(0, hi-lo+1)
			if b.lo != lo || b.hi != hi || cap(b.kind) != n || cap(b.num) != n ||
				(b.str != nil) != strs || (b.formula != nil) != formulas {
				t.Fatalf("%s, span %v: extent %d..%d (want %d..%d), capacity %d kinds, %d nums, str table %v (want %v), formula table %v (want %v)",
					name, span, b.lo, b.hi, lo, hi, cap(b.kind), cap(b.num), b.str != nil, strs, b.formula != nil, formulas)
			}
		}
	}
}

// TestTileLoadFailureLeavesBlank: a load that fails after filling part of
// its tile reads blank, reports the failure, and caches nothing, so the next
// read loads again and sees the cells.
func TestTileLoadFailureLeavesBlank(t *testing.T) {
	s := sheet.New("t")
	for r := 1; r <= BlockRows; r++ {
		s.SetValue(r, 3, sheet.Number(float64(r)))
	}
	b := &tileBacking{s: s, rng: rand.New(rand.NewSource(1)), failAfter: 40}
	c := New(b, 4)
	if got := c.Get(sheet.Ref{Row: 5, Col: 3}); !got.IsBlank() {
		t.Fatalf("a failed load reads %+v", got)
	}
	if err := c.TakeErr(); err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("TakeErr = %v", err)
	}
	if _, err := c.ReadRange(sheet.NewRange(1, 1, 2, 2)); err == nil {
		t.Fatal("the failed tile was cached")
	}
	b.failAfter = 0
	if got := c.Get(sheet.Ref{Row: 5, Col: 3}); !got.Value.Equal(sheet.Number(5)) {
		t.Fatalf("after the failure, C5 = %+v", got)
	}
}
