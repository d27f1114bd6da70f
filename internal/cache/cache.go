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
// sheet.Cells on the way out without per-cell map lookups. A miss hands the
// backing a Tile, into which the store decodes each cell straight: no grid
// stands between the storage read and the typed columns. The cache is safe
// for concurrent readers: a hit probes the block map under the read lock,
// sets the block's reference bit and counts one hit (second-chance eviction
// instead of exact LRU move-to-front keeps the hit path mutation-free), then
// composes the cells under the read lock; misses load from the backing
// outside the cache lock so cold scans overlap their storage reads. Publish
// takes the exclusive lock and may run beside Snapshot readers; Invalidate
// and the shifts run with the engine's structure lock held exclusively,
// readers out.
//
// The recalc executor reads through a TileReader instead: one map probe and
// one counted hit per tile it moves to, not per cell, and the tile's columns
// read without the cache lock under the engine's edit lock, which every
// writer of a resident tile's columns holds. On the recalc path Stats
// therefore counts tile visits, not cells.
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
	// LoadBlock fills t with the cells of the block range g, in coordinates
	// relative to g: each non-blank value through t.Set, each formula's text
	// through t.SetFormula. Cells it does not set are blank. After an error
	// the cache discards t and keeps the tile blank.
	LoadBlock(g sheet.Range, t Tile) error
}

type blockKey struct{ br, bc int }

type block struct {
	key blockKey
	// Typed columns over the tile's column extent lo..hi (none when hi < lo):
	// block-local (r, c) is index r*(hi-lo+1)+c-lo of kind (a sheet.Kind, with
	// formulaBit for a formula; 0 is blank), num (a number, or a bool as 0/1)
	// and the text tables str and formula, nil until a cell needs one. Publish
	// may swap the slices for wider ones: read them under the cache lock, or
	// under the engine's edit lock (TileReader).
	lo, hi       int
	kind         []uint8
	num          []float64
	str, formula []string
	// used is the second-chance reference bit, set by hits and cleared by
	// the eviction sweep.
	used atomic.Bool
}

const formulaBit = 0x80 // set in the kind byte of a cell that carries a formula

// blankBlock is the tile for k with no cells: no columns at all.
func blankBlock(k blockKey) *block {
	return &block{key: k, lo: BlockCols, hi: -1, kind: []uint8{}, num: []float64{}}
}

// Tile is the tile a Backing fills in LoadBlock, at coordinates relative to
// its range: Set and SetFormula write a cell's kind, number and text straight
// into the tile's typed columns. The first cell allocates the columns of the
// tile's span at once, and a load trims them to the non-blank ones. A Tile is
// a value; its copies share the tile. Its writes take no lock: a backing owns
// the tile it fills, and Publish holds the cache lock exclusively.
type Tile struct {
	b      *block
	lo, hi int // the span, tile-local
}

// NewTile returns an empty tile spanning every column, for a backing driven
// outside the cache.
func NewTile() Tile { return Tile{b: blankBlock(blockKey{}), hi: BlockCols - 1} }

// Span returns t spanning columns lo..hi, the only ones the backing can hold
// cells in. A cell outside them still lands, widening the columns.
func (t Tile) Span(lo, hi int) Tile {
	t.lo, t.hi = max(lo, 0), min(hi, BlockCols-1)
	return t
}

// Set stores value v at (r, c), keeping the cell's formula.
func (t Tile) Set(r, c int, v sheet.Value) {
	k, num, str := v.Parts()
	if b, i := t.at(r, c, k != sheet.KindEmpty); b != nil {
		b.kind[i], b.num[i] = uint8(k)|b.kind[i]&formulaBit, num
		setText(&b.str, i, str, len(b.kind))
	}
}

// SetFormula stores the formula text of the cell at (r, c), keeping its value.
func (t Tile) SetFormula(r, c int, text string) {
	if b, i := t.at(r, c, text != ""); b != nil {
		if b.kind[i] &^= formulaBit; text != "" {
			b.kind[i] |= formulaBit
		}
		setText(&b.formula, i, text, len(b.kind))
	}
}

// Cell composes the cell at (r, c).
func (t Tile) Cell(r, c int) sheet.Cell { return t.b.cell(r, c) }

// at returns the tile and the index of (r, c) in its columns, allocating the
// span on the first cell and widening past it, or nil when c lies outside the
// columns and the cell to store there is blank.
func (t Tile) at(r, c int, nonBlank bool) (*block, int) {
	b := t.b
	if c < b.lo || c > b.hi {
		if !nonBlank {
			return nil, 0
		}
		lo, hi := b.lo, b.hi
		if lo > hi {
			lo, hi = t.lo, t.hi
		}
		b.resize(min(lo, c), max(hi, c))
	}
	return b, r*b.width() + c - b.lo
}

func (b *block) width() int { return max(0, b.hi-b.lo+1) }

// cell composes the cell at block-local (r, c).
func (b *block) cell(r, c int) (cell sheet.Cell) {
	if c >= b.lo && c <= b.hi {
		b.put(r*b.width()+c-b.lo, &cell)
	}
	return cell
}

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

// setText stores s at i of a text table of n cells, allocated for a non-empty s.
func setText(table *[]string, i int, s string, n int) {
	if *table == nil && s != "" {
		*table = make([]string, n)
	}
	if *table != nil {
		(*table)[i] = s
	}
}

// trim narrows the tile's columns to its non-blank ones, none for a blank
// tile: the extent a loaded tile keeps.
func (b *block) trim() {
	lo, hi := b.lo, b.hi
	for lo <= hi && b.blankCol(lo) {
		lo++
	}
	for hi > lo && b.blankCol(hi) {
		hi--
	}
	if lo > hi {
		b.lo, b.hi, b.kind, b.num, b.str, b.formula = BlockCols, -1, []uint8{}, []float64{}, nil, nil
	} else if lo != b.lo || hi != b.hi {
		b.resize(lo, hi)
	}
}

// blankCol reports whether block-local column c of the extent holds no cell.
func (b *block) blankCol(c int) bool {
	for i := c - b.lo; i < len(b.kind); i += b.width() {
		if b.kind[i] != 0 {
			return false
		}
	}
	return true
}

// resize reallocates the tile's columns over the extent lo..hi and copies
// across the cells of the current extent that it covers: it widens for a
// write past the extent and narrows in trim.
func (b *block) resize(lo, hi int) {
	w, nw, off := b.width(), hi-lo+1, b.lo-lo
	b.kind, b.num = regrid(b.kind, w, nw, off), regrid(b.num, w, nw, off)
	b.str, b.formula, b.lo, b.hi = regrid(b.str, w, nw, off), regrid(b.formula, w, nw, off), lo, hi
}

// regrid copies BlockRows rows of width w into new ones of width nw, each
// row moved right by off (left for a negative off) and cut to the new
// width. A nil table stays nil: kind and num never are.
func regrid[T any](old []T, w, nw, off int) []T {
	if old == nil {
		return nil
	}
	out := make([]T, BlockRows*nw)
	for r := 0; w > 0 && r < BlockRows; r++ {
		copy(out[r*nw+max(off, 0):(r+1)*nw], old[r*w+max(-off, 0):(r+1)*w])
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
	b, err := c.load(k)
	if err != nil {
		c.NoteErr(err)
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return b.cell(local(k, r))
}

// TileReader reads cells for the recalc executor tile by tile: it keeps the
// last two tiles it touched and reads their columns directly, so it takes the
// cache lock, probes the block map and counts a hit (or loads on a miss) only
// when it moves to a tile it does not hold. It reads without the cache lock,
// which is safe while its owner holds the engine's edit lock: every writer of
// a resident tile's columns (Publish, Retext, Shift, Invalidate) runs under
// that lock, loads and evictions change only the map and the atomic used bit,
// and an evicted tile is never written again, so a tile evicted while held
// reads as it did. A reader lives for one pass over one recalc chunk, before
// the chunk's Publish, and is not safe for concurrent use: the executor takes
// one for a chunk's evaluation and one for its old values, on the goroutine
// that commits it. An unreadable tile reads blank, and Err returns the
// first such failure, so the executor commits nothing computed from it.
type TileReader struct {
	c     *Cache
	keys  [2]blockKey
	tiles [2]*block // the last tile touched first; nil until one is
	err   error
}

// TileReader starts a reader.
func (c *Cache) TileReader() TileReader { return TileReader{c: c} }

// Get returns the cell at r, as Cache.Get does.
func (t *TileReader) Get(r sheet.Ref) sheet.Cell {
	k := keyFor(r)
	b := t.tiles[0]
	if b == nil || t.keys[0] != k {
		if b = t.tiles[1]; b == nil || t.keys[1] != k {
			var err error
			if b, err = t.c.load(k); err != nil && t.err == nil {
				t.err = err
			}
		}
		t.keys[0], t.keys[1], t.tiles[0], t.tiles[1] = k, t.keys[0], b, t.tiles[0]
	}
	return b.cell(local(k, r))
}

// VisitRange is Cache.VisitRange with a load failure kept for Err.
func (t *TileReader) VisitRange(g sheet.Range, fn func(sheet.Ref, sheet.Cell) bool) {
	if err := t.c.VisitRange(g, fn); err != nil && t.err == nil {
		t.err = err
	}
}

// Err returns the first tile load that failed through this reader.
func (t *TileReader) Err() error { return t.err }

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
// re-enter the cache. Returning false stops the walk. It returns the first
// failure among its loads; the failed tiles read blank.
func (c *Cache) VisitRange(g sheet.Range, fn func(sheet.Ref, sheet.Cell) bool) error {
	var buf [BlockCols]sheet.Cell // a row of one tile needs no heap buffer
	rowBuf := append(buf[:0], make([]sheet.Cell, g.Cols())...)
	k1 := keyFor(g.From)
	k2 := keyFor(g.To)
	band := make([]*block, k2.bc-k1.bc+1)
	var first error
	for br := k1.br; br <= k2.br; br++ {
		for bc := k1.bc; bc <= k2.bc; bc++ {
			b, err := c.load(blockKey{br, bc})
			if err != nil && first == nil {
				first = err
			}
			band[bc-k1.bc] = b
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
					return first
				}
			}
		}
	}
	return first
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
	b := blankBlock(k)
	if err := c.backing.LoadBlock(blockRange(k), Tile{b: b, hi: BlockCols - 1}); err != nil {
		return blankBlock(k), err
	}
	b.trim()
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
