package cache

import (
	"container/list"
	"sync/atomic"

	"dataspread/internal/sheet"
)

// The visibility point. A batch of cell writes becomes visible in one step,
// inside this cache: Publish pokes the written cells into resident blocks,
// clears their staleness bits, flags the batch's own formula cells and
// advances the generation under one exclusive hold of the cache lock (the
// pending sidecar's lock nested inside it); Snapshot assembles cells,
// staleness mask and generation under one shared hold. A Snapshot therefore
// shows all of a batch together with its generation, or none of it, and a
// recomputed value never shows without its bit cleared or the reverse. The
// writer's side of the bargain: between a batch's storage write and its
// Publish nothing may load a block from the backing store (it would show the
// batch under the old generation); the engine's write-window latch keeps cold
// readers out for exactly that window.

// BlockKey identifies one cache tile: the sheet is partitioned into
// BlockRows x BlockCols rectangles, and (BR, BC) are the zero-based tile
// coordinates (row band, column band).
type BlockKey struct{ BR, BC int }

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

// Publish makes one batch, already persisted by the caller, visible: every
// written cell is poked into its block when the block is resident (a
// non-resident block reads the batch through on its next load) and its pending
// bit cleared — what was written is the cell's definitive value until
// something marks it again — as are the bits of the clear cells, whose
// displayed value already is their definitive one; then the flag cells are
// marked pending, and gen, when not nil, advances. Writes and clears look a
// tile up once per run of it, and a mask the run emptied is dropped at the
// run's end.
func (c *Cache) Publish(writes []sheet.CellWrite, clear, flag []sheet.Ref, gen *atomic.Uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := &c.pending
	p.mu.Lock()
	defer p.mu.Unlock()
	run := p.clearRun()
	last, e := blockKey{-1, -1}, (*list.Element)(nil)
	for i := range writes {
		w := &writes[i]
		r := w.Ref()
		if k := keyFor(r); k != last {
			last, e = k, c.blocks[k]
		}
		if e != nil {
			row, col := local(last, r)
			t := Tile{b: e.Value.(*block), lo: BlockCols, hi: -1} // no span: a write widens to its column alone
			t.Set(row, col, w.Cell.Value)
			t.SetFormula(row, col, w.Cell.Formula)
		}
		run.clear(r)
	}
	for _, r := range clear {
		run.clear(r)
	}
	run.end()
	for _, r := range flag {
		p.set(r)
	}
	if gen != nil {
		gen.Add(1)
	}
}

// Snapshot materializes g from resident blocks only, with its staleness mask
// (nil when nothing in g is pending) and the value of gen, all under one hold
// of the cache lock: a point-in-time view no Publish can split. It never
// touches the backing store; when a covering block is not resident it reports
// ok false and counts nothing — the caller's read through the cache counts
// that range's hits and misses instead.
func (c *Cache) Snapshot(g sheet.Range, gen *atomic.Uint64) (cells [][]sheet.Cell, pending [][]bool, at uint64, ok bool) {
	k1, k2 := keyFor(g.From), keyFor(g.To)
	c.mu.RLock()
	defer c.mu.RUnlock()
	// Residency first: a cold range costs no allocation here.
	for br := k1.br; br <= k2.br; br++ {
		for bc := k1.bc; bc <= k2.bc; bc++ {
			if _, ok := c.blocks[blockKey{br, bc}]; !ok {
				return nil, nil, 0, false
			}
		}
	}
	cells = newGrid(g)
	for br := k1.br; br <= k2.br; br++ {
		for bc := k1.bc; bc <= k2.bc; bc++ {
			k := blockKey{br, bc}
			b := c.blocks[k].Value.(*block)
			b.used.Store(true)
			copyTile(cells, g, k, b)
		}
	}
	c.hits.Add(int64((k2.br - k1.br + 1) * (k2.bc - k1.bc + 1)))
	return cells, c.PendingMask(g), gen.Load(), true
}
