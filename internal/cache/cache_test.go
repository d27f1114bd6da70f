package cache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"dataspread/internal/sheet"
)

// sheetBacking adapts a plain sheet as the storage layer. The cache loads
// blocks from concurrent readers, so the bookkeeping is mutex-guarded.
type sheetBacking struct {
	s  *sheet.Sheet
	mu sync.Mutex
	// loads counts LoadBlock calls; failNext makes the next one fail
	// (read-error surfacing tests).
	loads    int
	failNext bool
}

func (b *sheetBacking) LoadBlock(g sheet.Range, t Tile) error {
	b.mu.Lock()
	b.loads++
	fail := b.failNext
	b.failNext = false
	b.mu.Unlock()
	if fail {
		return fmt.Errorf("injected load failure for %v", g)
	}
	b.s.Each(func(r sheet.Ref, c sheet.Cell) {
		if g.Contains(r) {
			t.Set(r.Row-g.From.Row, r.Col-g.From.Col, c.Value)
			t.SetFormula(r.Row-g.From.Row, r.Col-g.From.Col, c.Formula)
		}
	})
	return nil
}

// write is one cell of a published batch.
func write(r sheet.Ref, cell sheet.Cell) sheet.CellWrite {
	return sheet.CellWrite{Row: r.Row, Col: r.Col, Cell: cell}
}

func TestCacheReadThrough(t *testing.T) {
	s := sheet.New("t")
	s.SetValue(1, 1, sheet.Number(42))
	b := &sheetBacking{s: s}
	c := New(b, 4)

	got := c.Get(sheet.Ref{Row: 1, Col: 1})
	if !got.Value.Equal(sheet.Number(42)) {
		t.Fatalf("Get = %v", got)
	}
	if b.loads != 1 {
		t.Fatalf("loads = %d", b.loads)
	}
	// Second read from the same block: no new load.
	c.Get(sheet.Ref{Row: 2, Col: 2})
	if b.loads != 1 {
		t.Fatalf("loads after warm read = %d", b.loads)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCachePublishKeepsResidentBlocksCoherent: the cache is a read cache —
// the writer persists to the backing itself and publishes what it wrote. A
// resident block shows the published cell without a reload; a non-resident
// block is left alone and reads the backing's cell through on its next load.
// The same step clears the written cells' pending bits, flags the cells it is
// told to, and advances the generation when given one.
func TestCachePublishKeepsResidentBlocksCoherent(t *testing.T) {
	s := sheet.New("t")
	b := &sheetBacking{s: s}
	c := New(b, 4)
	var gen atomic.Uint64
	a1, b1 := sheet.Ref{Row: 1, Col: 1}, sheet.Ref{Row: 1, Col: 2}
	c.Get(a1) // make the block resident
	markOne(c, a1)
	s.Set(a1, sheet.Cell{Value: sheet.Number(7)})
	c.Publish([]sheet.CellWrite{write(a1, sheet.Cell{Value: sheet.Number(7)})}, nil, []sheet.Ref{b1}, &gen)
	if !c.Get(a1).Value.Equal(sheet.Number(7)) || b.loads != 1 {
		t.Fatalf("resident publish: cell %v after %d loads, want 7 after 1", c.Get(a1), b.loads)
	}
	if c.IsPending(a1) || !c.IsPending(b1) || c.PendingCount() != 1 || gen.Load() != 1 {
		t.Fatalf("publish left A1 pending=%v B1 pending=%v count=%d gen=%d, want false true 1 1",
			c.IsPending(a1), c.IsPending(b1), c.PendingCount(), gen.Load())
	}
	// A written cell that is also flagged (an installed formula) ends pending.
	c.Publish([]sheet.CellWrite{write(b1, sheet.Cell{Formula: "A1"})}, nil, []sheet.Ref{b1}, nil)
	if !c.IsPending(b1) || gen.Load() != 1 {
		t.Fatalf("written-and-flagged cell pending=%v, gen %d; want true, 1", c.IsPending(b1), gen.Load())
	}
	// Blank publish clears.
	s.Set(a1, sheet.Cell{})
	c.Publish([]sheet.CellWrite{write(a1, sheet.Cell{})}, nil, nil, nil)
	if !c.Get(a1).IsBlank() {
		t.Fatal("blank publish did not clear")
	}
	// A publish into a block that is not resident neither loads nor caches it.
	far := sheet.Ref{Row: BlockRows*3 + 1, Col: 1}
	s.Set(far, sheet.Cell{Value: sheet.Number(9)})
	c.Publish([]sheet.CellWrite{write(far, sheet.Cell{Value: sheet.Number(-1)})}, nil, nil, nil)
	if b.loads != 1 {
		t.Fatalf("publish loaded a block: %d loads", b.loads)
	}
	if !c.Get(far).Value.Equal(sheet.Number(9)) {
		t.Fatalf("non-resident block read %v, want the backing's 9", c.Get(far))
	}
}

// TestCachePublishSnapshotAtomic is the visibility point under -race: a
// writer publishes uniform batches across 2 x 2 tiles, each with its
// generation; every concurrent Snapshot sees one value everywhere and the
// generation that goes with it. A Snapshot with a tile evicted reports
// not-resident rather than a partial grid, and counts nothing.
func TestCachePublishSnapshotAtomic(t *testing.T) {
	const batches = 200
	g := sheet.NewRange(1, 1, 2*BlockRows, 2*BlockCols)
	s := sheet.New("t")
	c := New(&sheetBacking{s: s}, 8)
	c.ReadRange(g) // all four tiles resident, blank: generation 0 shows value 0
	writes := make([]sheet.CellWrite, 0, g.Area())
	for row := g.From.Row; row <= g.To.Row; row++ {
		for col := g.From.Col; col <= g.To.Col; col++ {
			writes = append(writes, write(sheet.Ref{Row: row, Col: col}, sheet.Cell{}))
		}
	}
	var gen atomic.Uint64
	var wg sync.WaitGroup
	var done atomic.Bool
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for !done.Load() {
				before := c.Stats()
				cells, _, at, ok := c.Snapshot(g, &gen)
				if !ok {
					t.Error("resident range reported not resident")
					return
				}
				if after := c.Stats(); after.Hits < before.Hits+4 || after.Misses != before.Misses {
					t.Errorf("stats %+v -> %+v across a 4-tile resident read", before, after)
					return
				}
				if at < last {
					t.Errorf("generation went backwards: %d after %d", at, last)
					return
				}
				last = at
				want := sheet.Value{}
				if at > 0 {
					want = sheet.Number(float64(at))
				}
				for _, row := range cells {
					for _, cell := range row {
						if !cell.Value.Equal(want) {
							t.Errorf("generation %d shows %v, want %v everywhere", at, cell.Value, want)
							return
						}
					}
				}
			}
		}()
	}
	for v := 1; v <= batches; v++ {
		for i := range writes {
			writes[i].Cell = sheet.Cell{Value: sheet.Number(float64(v))}
		}
		c.Publish(writes, nil, nil, &gen)
	}
	done.Store(true)
	wg.Wait()

	c.Invalidate(sheet.NewRange(1, 1, 1, 1)) // evict the top-left tile
	before := c.Stats()
	if cells, _, _, ok := c.Snapshot(g, &gen); ok || cells != nil {
		t.Fatalf("snapshot with an evicted tile: ok=%v cells=%v, want not resident", ok, cells != nil)
	}
	if after := c.Stats(); after != before {
		t.Fatalf("failed snapshot moved the counters: %+v -> %+v", before, after)
	}
	if _, err := c.ReadRange(g); err != nil {
		t.Fatal(err)
	}
	if after := c.Stats(); after.Misses != before.Misses+1 || after.Hits != before.Hits+3 {
		t.Fatalf("read-through after the eviction: %+v -> %+v, want 1 miss and 3 hits", before, after)
	}
}

func TestCacheEviction(t *testing.T) {
	s := sheet.New("t")
	for i := 0; i < 10; i++ {
		s.SetValue(i*BlockRows+1, 1, sheet.Number(float64(i)))
	}
	b := &sheetBacking{s: s}
	c := New(b, 2) // room for two blocks
	for i := 0; i < 10; i++ {
		c.Get(sheet.Ref{Row: i*BlockRows + 1, Col: 1})
	}
	if c.Stats().Evictions < 8 {
		t.Fatalf("evictions = %d", c.Stats().Evictions)
	}
	// Re-reading the first block misses again.
	before := b.loads
	c.Get(sheet.Ref{Row: 1, Col: 1})
	if b.loads != before+1 {
		t.Fatal("evicted block should reload")
	}
}

func TestCacheGetRangeSpansBlocks(t *testing.T) {
	s := sheet.New("t")
	for row := 1; row <= BlockRows*2; row++ {
		for col := 1; col <= BlockCols*2; col++ {
			s.SetValue(row, col, sheet.Number(float64(row*1000+col)))
		}
	}
	b := &sheetBacking{s: s}
	c := New(b, 16)
	g := sheet.NewRange(BlockRows-2, BlockCols-2, BlockRows+2, BlockCols+2)
	m, _ := c.ReadRange(g)
	if len(m) != g.Rows() || len(m[0]) != g.Cols() {
		t.Fatalf("dims = %dx%d", len(m), len(m[0]))
	}
	for i := range m {
		for j := range m[i] {
			row, col := g.From.Row+i, g.From.Col+j
			want := sheet.Number(float64(row*1000 + col))
			if !m[i][j].Value.Equal(want) {
				t.Fatalf("cell (%d,%d) = %v want %v", row, col, m[i][j].Value, want)
			}
		}
	}
	// Four blocks touched.
	if b.loads != 4 {
		t.Fatalf("loads = %d want 4", b.loads)
	}
}

func TestCacheInvalidate(t *testing.T) {
	s := sheet.New("t")
	s.SetValue(1, 1, sheet.Number(1))
	b := &sheetBacking{s: s}
	c := New(b, 8)
	c.Get(sheet.Ref{Row: 1, Col: 1})

	// Mutate the backing behind the cache's back (a structural edit).
	s.SetValue(1, 1, sheet.Number(99))
	if c.Get(sheet.Ref{Row: 1, Col: 1}).Value.Equal(sheet.Number(99)) {
		t.Fatal("cache should still hold the stale value")
	}
	c.Invalidate(sheet.NewRange(1, 1, 1, 1))
	if !c.Get(sheet.Ref{Row: 1, Col: 1}).Value.Equal(sheet.Number(99)) {
		t.Fatal("invalidate did not take")
	}

	c.InvalidateAll()
	before := b.loads
	c.Get(sheet.Ref{Row: 1, Col: 1})
	if b.loads != before+1 {
		t.Fatal("InvalidateAll did not clear")
	}
}

// TestCacheVisitRange checks the streaming walk: row-major order, blanks
// skipped, early stop honoured.
func TestCacheVisitRange(t *testing.T) {
	s := sheet.New("t")
	// A sparse diagonal across several blocks.
	for i := 0; i < 5; i++ {
		s.SetValue(i*20+1, i*7+1, sheet.Number(float64(i)))
	}
	b := &sheetBacking{s: s}
	c := New(b, 16)
	g := sheet.NewRange(1, 1, 100, 40)
	var visited []sheet.Ref
	c.VisitRange(g, func(r sheet.Ref, cell sheet.Cell) bool {
		if cell.IsBlank() {
			t.Fatalf("blank cell visited at %v", r)
		}
		visited = append(visited, r)
		return true
	})
	if len(visited) != 5 {
		t.Fatalf("visited %d cells, want 5: %v", len(visited), visited)
	}
	for i := 1; i < len(visited); i++ {
		a, b := visited[i-1], visited[i]
		if a.Row > b.Row || (a.Row == b.Row && a.Col >= b.Col) {
			t.Fatalf("not row-major: %v before %v", a, b)
		}
	}
	// Early stop.
	n := 0
	c.VisitRange(g, func(sheet.Ref, sheet.Cell) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Fatalf("early stop visited %d", n)
	}
}

// TestCacheLoadErrorSurfaced is the regression for silently swallowed read
// errors: a failed block load must be reported by TakeErr (the cells read
// blank), and the failure must not be cached — the next read retries.
func TestCacheLoadErrorSurfaced(t *testing.T) {
	s := sheet.New("t")
	s.SetValue(1, 1, sheet.Number(5))
	b := &sheetBacking{s: s, failNext: true}
	c := New(b, 4)

	if got := c.Get(sheet.Ref{Row: 1, Col: 1}); !got.IsBlank() {
		t.Fatalf("failed load returned %v, want blank", got)
	}
	if err := c.TakeErr(); err == nil {
		t.Fatal("load failure was swallowed: TakeErr = nil")
	}
	if err := c.TakeErr(); err != nil {
		t.Fatalf("TakeErr did not clear: %v", err)
	}
	// The failure was not cached: the next read goes back to the backing
	// and succeeds.
	if got := c.Get(sheet.Ref{Row: 1, Col: 1}); !got.Value.Equal(sheet.Number(5)) {
		t.Fatalf("retry after failed load = %v, want 5", got)
	}
	if err := c.TakeErr(); err != nil {
		t.Fatalf("unexpected error after successful retry: %v", err)
	}
}

// TestCacheConcurrentReaders hammers Get/ReadRange/VisitRange from several
// goroutines (run under -race) and checks every reader sees consistent
// values.
func TestCacheConcurrentReaders(t *testing.T) {
	s := sheet.New("t")
	const rows, cols = 4 * BlockRows, 3 * BlockCols
	for row := 1; row <= rows; row++ {
		for col := 1; col <= cols; col++ {
			s.SetValue(row, col, sheet.Number(float64(row*1000+col)))
		}
	}
	c := New(&sheetBacking{s: s}, 8) // small: force concurrent evictions
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < 30; it++ {
				r0 := (w*37+it*13)%(rows-20) + 1
				c0 := (w*11+it*7)%(cols-5) + 1
				g := sheet.NewRange(r0, c0, r0+19, c0+4)
				m, _ := c.ReadRange(g)
				for i := range m {
					for j := range m[i] {
						want := float64((r0+i)*1000 + c0 + j)
						if !m[i][j].Value.Equal(sheet.Number(want)) {
							errs <- fmt.Errorf("ReadRange(%d,%d) = %v want %v", r0+i, c0+j, m[i][j].Value, want)
							return
						}
					}
				}
				got := c.Get(sheet.Ref{Row: r0, Col: c0})
				if !got.Value.Equal(sheet.Number(float64(r0*1000 + c0))) {
					errs <- fmt.Errorf("Get(%d,%d) = %v", r0, c0, got.Value)
					return
				}
				seen := 0
				c.VisitRange(g, func(sheet.Ref, sheet.Cell) bool { seen++; return true })
				if seen != g.Rows()*g.Cols() {
					errs <- fmt.Errorf("VisitRange saw %d of %d cells", seen, g.Rows()*g.Cols())
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := c.TakeErr(); err != nil {
		t.Fatal(err)
	}
}

// TestCacheShiftRowsKeepsBlocksAbove: after a mid-sheet row insert, blocks
// strictly above the edit stay resident (reads hit, no backing load).
func TestCacheShiftRowsKeepsBlocksAbove(t *testing.T) {
	s := sheet.New("t")
	s.SetValue(1, 1, sheet.Number(1))
	s.SetValue(500, 1, sheet.Number(500))
	b := &sheetBacking{s: s}
	c := New(b, 64)
	c.Get(sheet.Ref{Row: 1, Col: 1})   // block row 0 resident
	c.Get(sheet.Ref{Row: 500, Col: 1}) // a block below the edit
	loadsBefore := b.loads
	hitsBefore := c.Stats().Hits

	// The backing mutates first (as the engine's store does), then the
	// cache learns about the shift.
	s.InsertRowAfter(200) // rows >= 201 move down 1
	c.Shift(true, 201, 1)

	// Above the edit: still resident.
	got := c.Get(sheet.Ref{Row: 1, Col: 1})
	if !got.Value.Equal(sheet.Number(1)) {
		t.Fatalf("A1 after shift = %v", got)
	}
	if b.loads != loadsBefore {
		t.Fatalf("block above edit reloaded: %d -> %d loads", loadsBefore, b.loads)
	}
	if c.Stats().Hits != hitsBefore+1 {
		t.Fatalf("hit counter = %d want %d", c.Stats().Hits, hitsBefore+1)
	}
	// Below the edit (unaligned single-row shift): dropped, reads through.
	got = c.Get(sheet.Ref{Row: 501, Col: 1})
	if !got.Value.Equal(sheet.Number(500)) {
		t.Fatalf("moved cell = %v", got)
	}
	if b.loads != loadsBefore+1 {
		t.Fatalf("block below edit not reloaded")
	}
}

// TestCacheShiftRowsAlignedRenumber: a block-aligned shift renumbers
// resident blocks below the edit instead of dropping them.
func TestCacheShiftRowsAlignedRenumber(t *testing.T) {
	s := sheet.New("t")
	s.SetValue(200, 3, sheet.Number(7))
	b := &sheetBacking{s: s}
	c := New(b, 64)
	c.Get(sheet.Ref{Row: 200, Col: 3})
	loadsBefore := b.loads

	s.InsertRowAfter(64) // rows >= 65 move down; 200 -> 264
	// BlockRows-aligned insert at a block boundary: rows >= 65 shift by 64.
	c.Shift(true, 65, BlockRows)

	got := c.Get(sheet.Ref{Row: 200 + BlockRows, Col: 3})
	if !got.Value.Equal(sheet.Number(7)) {
		t.Fatalf("renumbered read = %v", got)
	}
	if b.loads != loadsBefore {
		t.Fatalf("aligned shift reloaded: %d -> %d", loadsBefore, b.loads)
	}
	// The old location must not serve stale data: it reads through.
	got = c.Get(sheet.Ref{Row: 200, Col: 3})
	if !got.Value.IsEmpty() {
		t.Fatalf("old location after shift = %v", got)
	}
}

// TestCacheShiftRowsDeleteDropsBand: deleting a band drops intersecting
// blocks and keeps blocks above; aligned deletes renumber blocks below.
func TestCacheShiftRowsDeleteDropsBand(t *testing.T) {
	s := sheet.New("t")
	s.SetValue(1, 1, sheet.Number(1))
	s.SetValue(300, 1, sheet.Number(300))
	b := &sheetBacking{s: s}
	c := New(b, 64)
	c.Get(sheet.Ref{Row: 1, Col: 1})
	c.Get(sheet.Ref{Row: 100, Col: 1})
	c.Get(sheet.Ref{Row: 300, Col: 1})
	loadsBefore := b.loads

	// Delete rows 65..128 (one whole block, aligned): block 0 stays, the
	// deleted block drops, blocks below renumber up.
	for i := 0; i < BlockRows; i++ {
		s.DeleteRow(65)
	}
	c.Shift(true, 65, -BlockRows)

	if got := c.Get(sheet.Ref{Row: 1, Col: 1}); !got.Value.Equal(sheet.Number(1)) {
		t.Fatalf("A1 = %v", got)
	}
	if got := c.Get(sheet.Ref{Row: 300 - BlockRows, Col: 1}); !got.Value.Equal(sheet.Number(300)) {
		t.Fatalf("shifted 300 = %v", got)
	}
	if b.loads != loadsBefore {
		t.Fatalf("aligned delete reloaded blocks: %d -> %d", loadsBefore, b.loads)
	}
}

// TestCacheShiftColsKeepsBlocksLeft mirrors the row test on the column axis.
func TestCacheShiftColsKeepsBlocksLeft(t *testing.T) {
	s := sheet.New("t")
	s.SetValue(1, 1, sheet.Number(1))
	s.SetValue(1, 100, sheet.Number(100))
	b := &sheetBacking{s: s}
	c := New(b, 64)
	c.Get(sheet.Ref{Row: 1, Col: 1})
	c.Get(sheet.Ref{Row: 1, Col: 100})
	loadsBefore := b.loads

	s.InsertColumnAfter(50)
	c.Shift(false, 51, 1)

	if got := c.Get(sheet.Ref{Row: 1, Col: 1}); !got.Value.Equal(sheet.Number(1)) {
		t.Fatalf("A1 = %v", got)
	}
	if b.loads != loadsBefore {
		t.Fatalf("left-of-edit block reloaded")
	}
	if got := c.Get(sheet.Ref{Row: 1, Col: 101}); !got.Value.Equal(sheet.Number(100)) {
		t.Fatalf("shifted col read = %v", got)
	}
}

// TestCacheShiftConcurrentWithReaders: the shift takes the exclusive lock;
// concurrent readers must stay race-free (run under -race in CI).
func TestCacheShiftConcurrentWithReaders(t *testing.T) {
	s := sheet.New("t")
	for r := 1; r <= 512; r++ {
		s.SetValue(r, 1, sheet.Number(float64(r)))
	}
	b := &sheetBacking{s: s}
	c := New(b, 16)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Get(sheet.Ref{Row: (i+w*100)%512 + 1, Col: 1})
				c.ReadRange(sheet.NewRange((i%400)+1, 1, (i%400)+30, 2))
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		c.Shift(true, 128, BlockRows)
		c.Shift(true, 128, -BlockRows)
	}
	close(stop)
	wg.Wait()
}
