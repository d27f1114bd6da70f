package cache

import "dataspread/internal/sheet"

// Snapshot support: the serving layer gives concurrent readers
// generation-stamped snapshot reads while a writer mutates the engine. The
// substrate is this cache's resident blocks — reads that can be satisfied
// without touching the backing store are safe concurrently with a storage
// writer (all block access is under the cache lock), and the serving layer
// overlays pre-images of the blocks the writer dirties. This file exports
// the block geometry those overlays align to, plus PeekRange, the
// resident-only read primitive.

// BlockKey identifies one cache tile: the sheet is partitioned into
// BlockRows x BlockCols rectangles, and (BR, BC) are the zero-based tile
// coordinates (row band, column band).
type BlockKey struct{ BR, BC int }

// BlockKeyFor returns the tile containing the cell.
func BlockKeyFor(r sheet.Ref) BlockKey {
	k := keyFor(r)
	return BlockKey{BR: k.br, BC: k.bc}
}

// Range returns the sheet rectangle the tile covers.
func (k BlockKey) Range() sheet.Range {
	return blockRange(blockKey{br: k.BR, bc: k.BC})
}

// BlockCover returns the tiles covering g, in row-major order.
func BlockCover(g sheet.Range) []BlockKey {
	k1, k2 := keyFor(g.From), keyFor(g.To)
	out := make([]BlockKey, 0, (k2.br-k1.br+1)*(k2.bc-k1.bc+1))
	for br := k1.br; br <= k2.br; br++ {
		for bc := k1.bc; bc <= k2.bc; bc++ {
			out = append(out, BlockKey{BR: br, BC: bc})
		}
	}
	return out
}

// AlignToBlocks expands g to the smallest block-aligned rectangle
// containing it. Reads latch the tables under the aligned range, not the
// requested one: a block load touches every region its tile intersects,
// so the latch set must cover the whole tile.
func AlignToBlocks(g sheet.Range) sheet.Range {
	k1, k2 := keyFor(g.From), keyFor(g.To)
	return sheet.NewRange(
		k1.br*BlockRows+1, k1.bc*BlockCols+1,
		(k2.br+1)*BlockRows, (k2.bc+1)*BlockCols,
	)
}

// PeekRange materializes the range from resident blocks only, never
// touching the backing store. It returns (nil, false) when any covering
// block is not resident. Unlike GetRange it is safe concurrently with a
// storage-layer writer: everything it reads is under the cache lock, and
// the lock is held across the whole assembly, so the result is one
// consistent point-in-time view of the resident blocks.
func (c *Cache) PeekRange(g sheet.Range) ([][]sheet.Cell, bool) {
	rows, cols := g.Rows(), g.Cols()
	flat := make([]sheet.Cell, rows*cols)
	out := make([][]sheet.Cell, rows)
	for i := range out {
		out[i] = flat[i*cols : (i+1)*cols : (i+1)*cols]
	}
	k1, k2 := keyFor(g.From), keyFor(g.To)
	c.mu.RLock()
	defer c.mu.RUnlock()
	for br := k1.br; br <= k2.br; br++ {
		for bc := k1.bc; bc <= k2.bc; bc++ {
			k := blockKey{br, bc}
			e, ok := c.blocks[k]
			if !ok {
				return nil, false
			}
			b := e.Value.(*block)
			b.used.Store(true)
			bg := blockRange(k)
			ov, ok := g.Intersect(bg)
			if !ok {
				continue
			}
			for row := ov.From.Row; row <= ov.To.Row; row++ {
				src := (row - bg.From.Row) * BlockCols
				lo := src + ov.From.Col - bg.From.Col
				hi := src + ov.To.Col - bg.From.Col + 1
				copy(out[row-g.From.Row][ov.From.Col-g.From.Col:], b.cells[lo:hi])
			}
		}
	}
	return out, true
}
