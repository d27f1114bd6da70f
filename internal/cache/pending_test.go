package cache

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"dataspread/internal/sheet"
)

// The pending-bit sidecar is staleness state, not cache: bits survive
// eviction, clear exactly once, and the range views (count, refs, mask)
// agree with the per-cell bits.

// markOne sets one pending bit through a one-mark pass.
func markOne(c *Cache, r sheet.Ref) bool {
	m := c.PendingMarker()
	defer m.Release()
	return len(m.Mark(sheet.Range{From: r, To: r}, nil)) == 1
}

func TestPendingBits(t *testing.T) {
	c := New(&sheetBacking{s: sheet.New("t")}, 4)

	a := sheet.Ref{Row: 1, Col: 1}
	b := sheet.Ref{Row: BlockRows + 5, Col: BlockCols + 3} // different block
	if c.IsPending(a) || c.PendingCount() != 0 {
		t.Fatal("fresh cache has pending cells")
	}
	if !markOne(c, a) {
		t.Fatal("first mark of a = false, want newly set")
	}
	if markOne(c, a) {
		t.Fatal("second mark of a = true, want already set")
	}
	if !markOne(c, b) {
		t.Fatal("mark of b = false")
	}
	if !c.IsPending(a) || !c.IsPending(b) || c.PendingCount() != 2 {
		t.Fatalf("IsPending(a)=%v IsPending(b)=%v count=%d, want true/true/2",
			c.IsPending(a), c.IsPending(b), c.PendingCount())
	}

	refs := c.PendingRefs()
	got := map[sheet.Ref]bool{}
	for _, r := range refs {
		got[r] = true
	}
	if len(refs) != 2 || !got[a] || !got[b] {
		t.Fatalf("PendingRefs = %v, want the set {%v %v}", refs, a, b)
	}

	c.Publish(nil, []sheet.Ref{a}, nil, nil)
	c.Publish(nil, []sheet.Ref{a}, nil, nil) // already clear: counts nothing
	if c.IsPending(a) || c.PendingCount() != 1 {
		t.Fatalf("after clear: IsPending(a)=%v count=%d", c.IsPending(a), c.PendingCount())
	}

	c.ClearAllPending()
	if c.PendingCount() != 0 || c.IsPending(b) {
		t.Fatal("ClearAllPending left pending bits")
	}
}

func TestPendingRangeViews(t *testing.T) {
	c := New(&sheetBacking{s: sheet.New("t")}, 4)
	marked := []sheet.Ref{
		{Row: 1, Col: 1},
		{Row: 2, Col: 3},
		{Row: BlockRows + 1, Col: 2}, // next block row
	}
	for _, r := range marked {
		markOne(c, r)
	}

	g := sheet.NewRange(1, 1, 3, 3)
	if n := c.PendingInRange(g); n != 2 {
		t.Fatalf("PendingInRange(%v) = %d, want 2", g, n)
	}
	mask := c.PendingMask(g)
	if mask == nil || !mask[0][0] || !mask[1][2] || mask[2][1] {
		t.Fatalf("PendingMask(%v) = %v", g, mask)
	}
	// A window with no pending cells takes the nil fast path.
	if m := c.PendingMask(sheet.NewRange(10, 10, 20, 20)); m != nil {
		t.Fatalf("mask over clean window = %v, want nil", m)
	}

	// Bits are residency-independent: evict everything, bits remain.
	for i := 0; i < 64; i++ {
		c.Get(sheet.Ref{Row: i*BlockRows + 1, Col: 1})
	}
	if n := c.PendingCount(); n != len(marked) {
		t.Fatalf("pending after eviction churn = %d, want %d", n, len(marked))
	}
}

// The column marker sets a segment's bits tile by tile and reports exactly
// the sub-segments it newly set — joined across a 64-row tile boundary, split
// around bits already set — and PendingCount follows its count.
func TestPendingMarkerColumnSegments(t *testing.T) {
	c := New(&sheetBacking{s: sheet.New("t")}, 4)
	seg := func(col, lo, hi int) sheet.Range { return sheet.NewRange(lo, col, hi, col) }
	m := c.PendingMarker()
	if got := m.Mark(seg(3, BlockRows-4, BlockRows+6), nil); !slices.Equal(got, []sheet.Range{seg(3, BlockRows-4, BlockRows+6)}) {
		t.Fatalf("fresh segment across a tile boundary = %v", got)
	}
	pre := []sheet.Ref{{Row: 2*BlockRows - 2, Col: 20}, {Row: 2*BlockRows + 3, Col: 20}}
	for _, r := range pre {
		m.Mark(sheet.Range{From: r, To: r}, nil)
	}
	fresh := []sheet.Range{seg(9, 1, 2*BlockRows-5)} // appended to, never joined with
	got := m.Mark(seg(20, 2*BlockRows-4, 2*BlockRows+6), fresh)
	want := []sheet.Range{seg(9, 1, 2*BlockRows-5), seg(20, 2*BlockRows-4, 2*BlockRows-3),
		seg(20, 2*BlockRows-1, 2*BlockRows+2), seg(20, 2*BlockRows+4, 2*BlockRows+6)}
	if !slices.Equal(got, want) {
		t.Fatalf("fresh sub-segments of a partly marked segment = %v, want %v", got, want)
	}
	if again := m.Mark(seg(20, 2*BlockRows-4, 2*BlockRows+6), nil); again != nil {
		t.Fatalf("marking a marked segment again reported %v", again)
	}
	n := m.Release()
	if n != 11+2+9 || c.PendingCount() != n {
		t.Fatalf("Release = %d, PendingCount = %d, want both %d", n, c.PendingCount(), 11+2+9)
	}
	for row := 2*BlockRows - 4; row <= 2*BlockRows+6; row++ {
		if !c.IsPending(sheet.Ref{Row: row, Col: 20}) || c.IsPending(sheet.Ref{Row: row, Col: 19}) {
			t.Fatalf("row %d: the marked column or its neighbour is wrong", row)
		}
	}
}

// A reader's pending query gets in while a long marking pass runs: the pass
// keeps marking until the reader is done, so a marker that held the lock
// throughout would run to its cap of a million cells.
func TestPendingMarkerBoundsEachHold(t *testing.T) {
	c := New(&sheetBacking{s: sheet.New("t")}, 4)
	const limit = 1_000_000
	done := make(chan struct{})
	m := c.PendingMarker()
marking:
	for row := 1; row <= limit; row += 10 {
		m.Mark(sheet.NewRange(row, 1, row+9, 1), nil)
		if row == 11 {
			go func() {
				c.PendingCount()
				close(done)
			}()
		}
		select {
		case <-done:
			break marking
		default:
		}
	}
	n := m.Release()
	if n >= limit {
		t.Fatalf("the reader waited behind all %d marks", n)
	}
	if got := c.PendingCount(); got != n {
		t.Fatalf("PendingCount = %d after %d new marks", got, n)
	}
}

func TestPendingConcurrentMarkClear(t *testing.T) {
	c := New(&sheetBacking{s: sheet.New("t")}, 4)
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r := sheet.Ref{Row: w*perWorker + i + 1, Col: 1}
				markOne(c, r)
				c.IsPending(r)
				c.Publish(nil, []sheet.Ref{r}, nil, nil)
			}
		}(w)
	}
	wg.Wait()
	if n := c.PendingCount(); n != 0 {
		t.Fatalf("pending after balanced mark/clear = %d, want 0", n)
	}
}

// TestPendingOf tests random cells' bits in one call: the answers match a
// per-cell IsPending, in order, appended to what dst held.
func TestPendingOf(t *testing.T) {
	c := New(&sheetBacking{s: sheet.New("t")}, 4)
	rng := rand.New(rand.NewSource(1))
	randRef := func() sheet.Ref { return sheet.Ref{Row: rng.Intn(3*BlockRows) + 1, Col: rng.Intn(3*BlockCols) + 1} }
	for i := 0; i < 300; i++ {
		markOne(c, randRef())
	}
	refs := make([]sheet.Ref, 2000)
	for i := range refs {
		refs[i] = randRef()
		if i > 0 && rng.Intn(2) == 0 { // runs of one tile, as a chunk has
			refs[i] = sheet.Ref{Row: refs[i-1].Row, Col: refs[i-1].Col%(3*BlockCols) + 1}
		}
	}
	got := c.PendingOf(refs, []bool{true})
	if len(got) != len(refs)+1 || !got[0] {
		t.Fatalf("PendingOf returned %d answers after dst's one, want %d", len(got)-1, len(refs))
	}
	for i, r := range refs {
		if got[i+1] != c.IsPending(r) {
			t.Fatalf("PendingOf %v = %v, IsPending %v", r, got[i+1], c.IsPending(r))
		}
	}
}

// TestPublishClears clears bits through Publish's writes and clear list: the
// listed bits clear, a mask emptied is dropped (so the mask map, PendingCount
// and PendingRefs agree), other tiles keep theirs, and flags apply after the
// clears — a cell both cleared and flagged ends pending.
func TestPublishClears(t *testing.T) {
	c := New(&sheetBacking{s: sheet.New("t")}, 4)
	tile := func(br, bc, n int) []sheet.Ref {
		var refs []sheet.Ref
		for i := 0; i < n; i++ {
			refs = append(refs, sheet.Ref{Row: br*BlockRows + i + 1, Col: bc*BlockCols + i%BlockCols + 1})
		}
		return refs
	}
	emptied, written, kept := tile(0, 0, 40), tile(0, 1, 30), tile(2, 2, 10)
	for _, refs := range [][]sheet.Ref{emptied, written, kept} {
		for _, r := range refs {
			markOne(c, r)
		}
	}
	var writes []sheet.CellWrite
	for _, r := range written {
		writes = append(writes, write(r, sheet.Cell{Value: sheet.Number(1)}))
	}
	// The clears interleave two tiles' runs, one of them the written tile.
	clear := append(append(append([]sheet.Ref{}, emptied[:20]...), kept[:5]...), emptied[20:]...)
	flag := []sheet.Ref{emptied[3], {Row: 10 * BlockRows, Col: 1}}
	c.Publish(writes, clear, flag, nil)
	for _, r := range append(append(append([]sheet.Ref{}, emptied...), written...), kept[:5]...) {
		if want := r == emptied[3]; c.IsPending(r) != want {
			t.Fatalf("%v pending %v, want %v", r, !want, want)
		}
	}
	for _, r := range kept[5:] {
		if !c.IsPending(r) {
			t.Fatalf("%v cleared, though nothing listed it", r)
		}
	}
	want := 1 + 5 + 1 // emptied[3], kept[5:], the far flag
	if n, refs := c.PendingCount(), c.PendingRefs(); n != want || len(refs) != want {
		t.Fatalf("PendingCount %d, PendingRefs %d cells; want %d", n, len(refs), want)
	}
	if n := len(c.pending.masks); n != 3 {
		t.Fatalf("%d masks left, want 3: the re-flagged cell's, kept's and the far flag's", n)
	}
	c.Publish(nil, []sheet.Ref{emptied[3]}, nil, nil)
	if _, ok := c.pending.masks[blockKey{0, 0}]; ok {
		t.Fatal("a mask emptied by a one-cell clear was kept")
	}
}
