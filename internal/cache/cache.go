// Package cache provides the LRU cell cache of DataSpread's execution
// engine (Section VI): cells fetched from the storage layer are kept in
// memory in a read-through manner. It is a read cache: writers persist
// through the storage layer and call Publish to make resident blocks show it.
// Caching is block-granular (rectangular tiles of the sheet), matching the
// scrolling access pattern where a viewport's worth of cells is needed at
// once.
//
// Blocks are dense row-major []sheet.Cell arrays filled by one block-aligned
// GetCells call against the backing store, so a warm viewport read is a
// handful of slice copies — no per-cell map lookups, no per-range
// materialization of intermediate maps. The cache is safe for concurrent
// readers: hits touch only a read lock and per-block reference bits
// (second-chance eviction instead of exact LRU move-to-front keeps the hit
// path mutation-free), and misses load from the backing outside the cache
// lock so cold scans overlap their storage reads. Publish takes the
// exclusive lock and may run beside Snapshot readers; Invalidate and the
// shifts run with the engine's structure lock held exclusively, readers out.
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
	// cells is the dense row-major tile: cells[r*BlockCols+c] holds the
	// cell at block-local (r, c).
	cells []sheet.Cell
	// used is the second-chance reference bit, set by hits and cleared by
	// the eviction sweep.
	used atomic.Bool
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

// cellIndex returns the dense offset of ref within its block.
func cellIndex(k blockKey, r sheet.Ref) int {
	return (r.Row-1-k.br*BlockRows)*BlockCols + (r.Col - 1 - k.bc*BlockCols)
}

// Get returns the cell at r, loading its block on a miss. Load failures
// render the cell blank and are surfaced by TakeErr.
func (c *Cache) Get(r sheet.Ref) sheet.Cell {
	k := keyFor(r)
	b := c.loadOrBlank(k)
	c.mu.RLock()
	cell := b.cells[cellIndex(k, r)]
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

// copyTile copies the part of g that tile k (held in b) covers into g's grid,
// one row segment at a time. k is one of g's tiles; the caller holds the cache
// lock.
func copyTile(out [][]sheet.Cell, g sheet.Range, k blockKey, b *block) {
	bg := blockRange(k)
	ov, _ := g.Intersect(bg)
	for row := ov.From.Row; row <= ov.To.Row; row++ {
		src := (row - bg.From.Row) * BlockCols
		lo := src + ov.From.Col - bg.From.Col
		hi := src + ov.To.Col - bg.From.Col + 1
		copy(out[row-g.From.Row][ov.From.Col-g.From.Col:], b.cells[lo:hi])
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
// band's blocks once, then walks each sheet row across the band copying one
// row segment at a time into a reused buffer (fn runs outside the cache
// lock, so it may re-enter the cache). Returning false stops the walk.
func (c *Cache) VisitRange(g sheet.Range, fn func(sheet.Ref, sheet.Cell) bool) {
	cols := g.Cols()
	rowBuf := make([]sheet.Cell, cols)
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
			c.mu.RLock()
			for bc := k1.bc; bc <= k2.bc; bc++ {
				b := band[bc-k1.bc]
				src := (row - 1 - br*BlockRows) * BlockCols
				loCol := max(g.From.Col, bc*BlockCols+1)
				hiCol := min(g.To.Col, (bc+1)*BlockCols)
				copy(rowBuf[loCol-g.From.Col:],
					b.cells[src+loCol-1-bc*BlockCols:src+hiCol-bc*BlockCols])
			}
			c.mu.RUnlock()
			for j := 0; j < cols; j++ {
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
	g := blockRange(k)
	cells, err := c.backing.LoadBlock(g)
	b := &block{key: k, cells: make([]sheet.Cell, BlockRows*BlockCols)}
	if err != nil {
		return b, err
	}
	for i := range cells {
		copy(b.cells[i*BlockCols:(i+1)*BlockCols], cells[i])
	}
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
