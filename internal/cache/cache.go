// Package cache provides the LRU cell cache of DataSpread's execution
// engine (Section VI): cells fetched from the storage layer are kept in
// memory in a read-through manner. It is a read cache: writers persist
// through the storage layer and call Publish to make resident blocks show it.
// Caching is block-granular (rectangular tiles of the sheet), matching the
// scrolling access pattern where a viewport's worth of cells is needed at
// once.
//
// A block is typed columns over the columns it holds (about 9 KiB a dense
// numeric tile, 2 KiB a formula column, none a blank one), composed into
// sheet.Cells on the way out without per-cell map lookups. The cache is safe
// for concurrent readers: hits touch only a read lock and per-block reference
// bits (second-chance eviction instead of exact LRU move-to-front keeps the
// hit path mutation-free), and misses load from the backing outside the cache
// lock so cold scans overlap their storage reads. Publish takes the exclusive
// lock and may run beside Snapshot readers; Invalidate and the shifts run
// with the engine's structure lock held exclusively, readers out.
package cache

import (
	"container/list"
	"sync"
	"sync/atomic"

	"dataspread/internal/sheet"
)

// BlockRows and BlockCols define the cache tile size.
const (
	BlockRows = 64
	BlockCols = 16
)

// Stats counts cache behaviour.
type Stats struct {
	Hits, Misses, Evictions int64
}

// Backing is the storage layer underneath the cache.
type Backing interface {
	// LoadBlock materializes the block range as a dense row-major grid of
	// exactly g.Rows() x g.Cols() cells, blank cells as zero values.
	LoadBlock(g sheet.Range) ([][]sheet.Cell, error)
}

type blockKey struct{ br, bc int }

type block struct {
	key blockKey
	// Typed columns over the tile's column extent lo..hi (none when hi < lo):
	// block-local (r, c) is index r*(hi-lo+1)+c-lo of kind (a sheet.Kind, with
	// formulaBit for a formula; 0 is blank), num (a number, or a bool as 0/1)
	// and the text tables str and formula, nil until a cell needs one. Publish
	// may swap the slices for wider ones: read them only under the cache lock.
	lo, hi       int
	kind         []uint8
	num          []float64
	str, formula []string
	// used is the second-chance reference bit, set by hits and cleared by
	// the eviction sweep.
	used atomic.Bool
}

const formulaBit = 0x80 // set in the kind byte of a cell that carries a formula

// newBlock builds the tile for k from a dense grid of its cells (nil: blank),
// numbers and bools in line, text through set. kind and num are never nil.
func newBlock(k blockKey, grid [][]sheet.Cell) *block {
	lo, hi := BlockCols, -1
	for _, row := range grid {
		for c := range row {
			if !row[c].IsBlank() {
				lo, hi = min(lo, c), max(hi, c)
			}
		}
	}
	w := max(0, hi-lo+1)
	b := &block{key: k, lo: lo, hi: hi, kind: make([]uint8, BlockRows*w), num: make([]float64, BlockRows*w)}
	for r, row := range grid {
		row, kind, num := row[lo:max(lo, hi+1)], b.kind[r*w:(r+1)*w], b.num[r*w:(r+1)*w]
		for c := range row {
			vk, n, s := row[c].Value.Parts()
			kind[c], num[c] = uint8(vk), n
			if s != "" || row[c].Formula != "" {
				b.set(r, lo+c, &row[c])
			}
		}
	}
	return b
}

func (b *block) width() int { return max(0, b.hi-b.lo+1) }

// put composes cell i of the extent into the blank *d field by field (a whole-Cell store costs more).
func (b *block) put(i int, d *sheet.Cell) {
	var str string
	if b.str != nil {
		str = b.str[i]
	}
	d.Value = sheet.ValueOf(sheet.Kind(b.kind[i]&^formulaBit), b.num[i], str)
	if b.formula != nil {
		d.Formula = b.formula[i]
	}
}

// set stores cell at block-local (r, c), widening the extent to c when the
// cell is not blank. The caller owns b or holds the cache lock exclusively.
func (b *block) set(r, c int, cell *sheet.Cell) {
	k, num, str := cell.Value.Parts()
	kb := uint8(k)
	if cell.Formula != "" {
		kb |= formulaBit
	}
	if c < b.lo || c > b.hi {
		if kb == 0 {
			return
		}
		b.widen(min(b.lo, c), max(b.hi, c))
	}
	i := r*b.width() + c - b.lo
	b.kind[i], b.num[i] = kb, num
	setText(&b.str, i, str, len(b.kind))
	setText(&b.formula, i, cell.Formula, len(b.kind))
}

// setText stores s at i of a text table of n cells, allocated for a non-empty s.
func setText(table *[]string, i int, s string, n int) {
	if *table == nil && s != "" {
		*table = make([]string, n)
	}
	if *table != nil {
		(*table)[i] = s
	}
}

// widen reallocates the tile's columns over the extent lo..hi, which covers
// the current one, and copies the cells across.
func (b *block) widen(lo, hi int) {
	w, nw, off := b.width(), hi-lo+1, b.lo-lo
	b.kind, b.num = regrid(b.kind, w, nw, off), regrid(b.num, w, nw, off)
	b.str, b.formula, b.lo, b.hi = regrid(b.str, w, nw, off), regrid(b.formula, w, nw, off), lo, hi
}

// regrid copies BlockRows rows of width w into new ones of width nw, each
// row moved right by off. A nil table stays nil: kind and num never are.
func regrid[T any](old []T, w, nw, off int) []T {
	if old == nil {
		return nil
	}
	out := make([]T, BlockRows*nw)
	for r := 0; w > 0 && r < BlockRows; r++ {
		copy(out[r*nw+off:], old[r*w:(r+1)*w])
	}
	return out
}

// Cache is a block-granular cell cache with second-chance eviction.
type Cache struct {
	backing  Backing
	capacity int // max blocks

	mu     sync.RWMutex
	blocks map[blockKey]*list.Element // -> *block
	lru    *list.List

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64

	errMu   sync.Mutex
	lastErr error

	// pending is the staleness sidecar (see pending.go): bits survive
	// block eviction and are managed by the background recalc scheduler.
	pending pendingSet
}

// New creates a cache holding up to capacity blocks (minimum 1; zero means
// 256 blocks ≈ 256k cells).
func New(backing Backing, capacity int) *Cache {
	if capacity == 0 {
		capacity = 256
	}
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		backing:  backing,
		capacity: capacity,
		blocks:   make(map[blockKey]*list.Element),
		lru:      list.New(),
	}
}

func keyFor(r sheet.Ref) blockKey {
	return blockKey{br: (r.Row - 1) / BlockRows, bc: (r.Col - 1) / BlockCols}
}

func blockRange(k blockKey) sheet.Range {
	return sheet.NewRange(
		k.br*BlockRows+1, k.bc*BlockCols+1,
		(k.br+1)*BlockRows, (k.bc+1)*BlockCols,
	)
}

// local returns ref's block-local row and column within its block k.
func local(k blockKey, r sheet.Ref) (row, col int) {
	return r.Row - 1 - k.br*BlockRows, r.Col - 1 - k.bc*BlockCols
}

// Get returns the cell at r, loading its block on a miss. Load failures
// render the cell blank and are surfaced by TakeErr.
func (c *Cache) Get(r sheet.Ref) sheet.Cell {
	k := keyFor(r)
	b := c.loadOrBlank(k)
	var cell sheet.Cell
	c.mu.RLock()
	if row, col := local(k, r); col >= b.lo && col <= b.hi {
		b.put(row*b.width()+col-b.lo, &cell)
	}
	c.mu.RUnlock()
	return cell
}

// newGrid allocates the dense output for g: one flat backing array.
func newGrid(g sheet.Range) [][]sheet.Cell {
	rows, cols := g.Rows(), g.Cols()
	flat := make([]sheet.Cell, rows*cols)
	out := make([][]sheet.Cell, rows)
	for i := range out {
		out[i] = flat[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return out
}

// copyTile composes the part of g that tile k (held in b) covers into g's
// grid, one row segment of the tile's extent at a time; the grid's cells
// outside the extent stay blank, as newGrid left them. k is one of g's tiles;
// the caller holds the cache lock.
func copyTile(out [][]sheet.Cell, g sheet.Range, k blockKey, b *block) {
	bg := blockRange(k)
	ov, _ := g.Intersect(bg)
	lo, hi := max(ov.From.Col-bg.From.Col, b.lo), min(ov.To.Col-bg.From.Col, b.hi)
	for row := ov.From.Row; row <= ov.To.Row && lo <= hi; row++ {
		dst := out[row-g.From.Row][bg.From.Col+lo-g.From.Col:][:hi-lo+1]
		src := (row-bg.From.Row)*b.width() + lo - b.lo
		for j := range dst {
			b.put(src+j, &dst[j])
		}
	}
}

// ReadRange materializes a rectangular range through the cache, block by
// block, and returns the first failure among the loads it performed itself
// (the failed tiles render blank).
func (c *Cache) ReadRange(g sheet.Range) ([][]sheet.Cell, error) {
	out := newGrid(g)
	var first error
	k1, k2 := keyFor(g.From), keyFor(g.To)
	for br := k1.br; br <= k2.br; br++ {
		for bc := k1.bc; bc <= k2.bc; bc++ {
			k := blockKey{br, bc}
			b, err := c.load(k)
			if err != nil && first == nil {
				first = err
			}
			c.mu.RLock()
			copyTile(out, g, k, b)
			c.mu.RUnlock()
		}
	}
	return out, first
}

// VisitRange streams the range's non-blank cells to fn in row-major order
// without materializing an output grid: per block-row band it pins the
// band's blocks once, then walks each sheet row across the band, composing
// the row's non-blank cells (a blank is skipped by its kind byte) into a
// reused row buffer under the cache lock. fn runs outside the lock, so it may
// re-enter the cache. Returning false stops the walk.
func (c *Cache) VisitRange(g sheet.Range, fn func(sheet.Ref, sheet.Cell) bool) {
	var buf [BlockCols]sheet.Cell // a row of one tile needs no heap buffer
	rowBuf := append(buf[:0], make([]sheet.Cell, g.Cols())...)
	k1 := keyFor(g.From)
	k2 := keyFor(g.To)
	band := make([]*block, k2.bc-k1.bc+1)
	for br := k1.br; br <= k2.br; br++ {
		for bc := k1.bc; bc <= k2.bc; bc++ {
			band[bc-k1.bc] = c.loadOrBlank(blockKey{br, bc})
		}
		loRow := max(g.From.Row, br*BlockRows+1)
		hiRow := min(g.To.Row, (br+1)*BlockRows)
		for row := loRow; row <= hiRow; row++ {
			clear(rowBuf)
			c.mu.RLock()
			for bc := k1.bc; bc <= k2.bc; bc++ {
				b := band[bc-k1.bc]
				base := bc * BlockCols // sheet column of block-local column 0, less one
				lo, hi := max(g.From.Col-1-base, b.lo), min(g.To.Col-1-base, b.hi)
				src := (row-1-br*BlockRows)*b.width() - b.lo
				for col := lo; col <= hi; col++ {
					if b.kind[src+col] != 0 {
						b.put(src+col, &rowBuf[base+1+col-g.From.Col])
					}
				}
			}
			c.mu.RUnlock()
			for j := range rowBuf {
				if rowBuf[j].IsBlank() {
					continue
				}
				if !fn(sheet.Ref{Row: row, Col: g.From.Col + j}, rowBuf[j]) {
					return
				}
			}
		}
	}
}

// Invalidate drops every cached block intersecting g (used after
// structural edits, which move cells across blocks).
func (c *Cache) Invalidate(g sheet.Range) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for e := c.lru.Front(); e != nil; {
		next := e.Next()
		b := e.Value.(*block)
		if blockRange(b.key).Intersects(g) {
			delete(c.blocks, b.key)
			c.lru.Remove(e)
		}
		e = next
	}
}

// InvalidateAll empties the cache.
func (c *Cache) InvalidateAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.blocks = make(map[blockKey]*list.Element)
	c.lru.Init()
}

// Shift adjusts resident blocks for a structural edit on the rows (or
// columns) axis: delta > 0 inserts delta rows before row `at` (rows >= at
// move down by delta); delta < 0 deletes the -delta rows [at, at-delta-1].
// Blocks strictly above (left of) the edit stay resident untouched — a
// mid-sheet insert no longer cools the viewport the user is looking at.
// Blocks whose rows move are renumbered in place when the shift preserves
// block alignment (delta a multiple of BlockRows, or BlockCols for columns)
// and dropped otherwise; blocks straddling the edit or intersecting a deleted
// band always drop.
func (c *Cache) Shift(rows bool, at, delta int) {
	if delta == 0 {
		return
	}
	// Pending bits address pre-shift positions; the engine drains the
	// recalc scheduler before structural edits, so the sidecar is empty
	// here — drop anything left rather than relocate stale bits.
	c.ClearAllPending()
	span := BlockCols
	if rows {
		span = BlockRows
	}
	firstMoved := at
	if delta < 0 {
		firstMoved = at - delta // first surviving index past the deleted band
	}
	aligned := delta%span == 0
	blockDelta := delta / span
	c.mu.Lock()
	defer c.mu.Unlock()
	var drops []*list.Element
	type rekey struct {
		e  *list.Element
		nk blockKey
	}
	var rekeys []rekey
	for e := c.lru.Front(); e != nil; e = e.Next() {
		b := e.Value.(*block)
		g := blockRange(b.key)
		lo, hi := g.From.Col, g.To.Col
		if rows {
			lo, hi = g.From.Row, g.To.Row
		}
		switch {
		case hi < at:
			// Strictly above/left of the edit: resident and untouched.
		case aligned && lo >= firstMoved:
			nk := b.key
			if rows {
				nk.br += blockDelta
			} else {
				nk.bc += blockDelta
			}
			rekeys = append(rekeys, rekey{e, nk})
		default:
			drops = append(drops, e)
		}
	}
	for _, e := range drops {
		b := e.Value.(*block)
		delete(c.blocks, b.key)
		c.lru.Remove(e)
	}
	// Two phases: every old key leaves the map before any new key lands, so
	// renumbered blocks cannot collide with blocks that also move.
	for _, rk := range rekeys {
		delete(c.blocks, rk.e.Value.(*block).key)
	}
	for _, rk := range rekeys {
		b := rk.e.Value.(*block)
		b.key = rk.nk
		c.blocks[rk.nk] = rk.e
	}
}

// Retext replaces the formula text of the resident cells among refs, leaving
// their values and pending bits as they are. text(i) is called for a resident
// refs[i] only — a structural edit renders the text of the formulas a tile
// holds and no other — and under the cache lock, so it must not call back
// into the cache. A tile loaded later renders the new text itself.
func (c *Cache) Retext(refs []sheet.Ref, text func(i int) string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, r := range refs {
		if e, ok := c.blocks[keyFor(r)]; ok {
			b := e.Value.(*block)
			if row, col := local(b.key, r); col >= b.lo && col <= b.hi {
				setText(&b.formula, row*b.width()+col-b.lo, text(i), len(b.kind))
			}
		}
	}
}

// TakeErr returns the first block-load failure recorded since the last call
// and clears it (nil when none). A failed load renders the affected cells
// blank; callers that must distinguish blank from unreadable check this
// after their reads.
func (c *Cache) TakeErr() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	err := c.lastErr
	c.lastErr = nil
	return err
}

// NoteErr leaves a read failure for TakeErr, unless one is already held.
func (c *Cache) NoteErr(err error) {
	c.errMu.Lock()
	if c.lastErr == nil {
		c.lastErr = err
	}
	c.errMu.Unlock()
}

// Stats returns a snapshot of hit/miss counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
}

// ResetStats zeroes the counters.
func (c *Cache) ResetStats() {
	c.hits.Store(0)
	c.misses.Store(0)
	c.evictions.Store(0)
}

// loadOrBlank is load for the readers that render an unreadable block blank
// and leave the failure to TakeErr.
func (c *Cache) loadOrBlank(k blockKey) *block {
	b, err := c.load(k)
	if err != nil {
		c.NoteErr(err)
	}
	return b
}

// load returns the block for k, reading it through from the backing on a
// miss. A failed load returns the error with an uncached blank block, so a
// later read retries the backing instead of caching the failure.
func (c *Cache) load(k blockKey) (*block, error) {
	c.mu.RLock()
	if e, ok := c.blocks[k]; ok {
		b := e.Value.(*block)
		b.used.Store(true)
		c.mu.RUnlock()
		c.hits.Add(1)
		return b, nil
	}
	c.mu.RUnlock()
	c.misses.Add(1)
	// Load outside the lock: the storage read may be slow (disk), and
	// concurrent cold readers should overlap, not serialize.
	cells, err := c.backing.LoadBlock(blockRange(k))
	if err != nil {
		return newBlock(k, nil), err
	}
	b := newBlock(k, cells)
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.blocks[k]; ok {
		// A concurrent loader won the race; use its block.
		return e.Value.(*block), nil
	}
	for c.lru.Len() >= c.capacity {
		tail := c.lru.Back()
		if tail == nil {
			break
		}
		old := tail.Value.(*block)
		if old.used.Swap(false) {
			c.lru.MoveToFront(tail)
			continue
		}
		delete(c.blocks, old.key)
		c.lru.Remove(tail)
		c.evictions.Add(1)
	}
	c.blocks[k] = c.lru.PushFront(b)
	return b, nil
}
