package cache

import (
	"slices"
	"sync"

	"dataspread/internal/sheet"
)

// Pending-bit sidecar: one bit per cell marking "this formula's displayed
// value is stale; a background recalculation will refresh it". Staleness is
// state, not cache — the masks are keyed like the block map but held in a
// separate structure that is independent of residency, so evicting a block
// does not forget which of its cells are pending.
//
// The engine's recalc executor (internal/core/recalc.go) is the only writer
// in practice: edits mark the dependency cone pending, committed waves clear
// their bits in the Publish that pokes the recomputed values (a cell whose
// value stands is cleared in the same Publish), and readers
// surface the bits as staleness flags (Snapshot samples them in the same hold
// as the cells). All methods are safe for concurrent use; the sidecar's lock
// nests inside the cache's block lock, never the other way round.

// pendingWords is the mask length for one block's BlockRows×BlockCols cells.
const pendingWords = (BlockRows*BlockCols + 63) / 64

type pendingSet struct {
	mu    sync.RWMutex
	masks map[blockKey][]uint64
	count int
}

func (p *pendingSet) bitFor(r sheet.Ref) (blockKey, int) {
	k := keyFor(r)
	row, col := local(k, r)
	return k, row*BlockCols + col
}

// mask returns block k's mask, creating it. The caller holds p.mu.
func (p *pendingSet) mask(k blockKey) []uint64 {
	if p.masks == nil {
		p.masks = make(map[blockKey][]uint64)
	}
	m := p.masks[k]
	if m == nil {
		m = make([]uint64, pendingWords)
		p.masks[k] = m
	}
	return m
}

// set sets r's bit, reporting whether it was newly set. The caller holds
// p.mu.
func (p *pendingSet) set(r sheet.Ref) bool {
	k, bit := p.bitFor(r)
	m := p.mask(k)
	w, b := bit/64, uint64(1)<<(bit%64)
	if m[w]&b != 0 {
		return false
	}
	m[w] |= b
	p.count++
	return true
}

// pendingRun clears bits a run of one tile at a time: one mask lookup per
// run, and the mask dropped at the run's end when the run emptied it.
type pendingRun struct {
	p *pendingSet
	k blockKey
	m []uint64 // k's mask, nil when it has none
}

// clearRun starts clearing. The caller holds p.mu until the run's end.
func (p *pendingSet) clearRun() pendingRun { return pendingRun{p: p, k: blockKey{-1, -1}} }

// clear clears r's bit.
func (run *pendingRun) clear(r sheet.Ref) {
	k, bit := run.p.bitFor(r)
	if k != run.k {
		run.end()
		run.k, run.m = k, run.p.masks[k]
	}
	if w, b := bit/64, uint64(1)<<(bit%64); run.m != nil && run.m[w]&b != 0 {
		run.m[w] &^= b
		run.p.count--
	}
}

// end drops the current tile's mask if no bit of it is left.
func (run *pendingRun) end() {
	if run.m != nil && !slices.ContainsFunc(run.m, func(w uint64) bool { return w != 0 }) {
		delete(run.p.masks, run.k)
	}
	run.m = nil
}

// pendingHold bounds how many cells a PendingMarker covers in one hold of
// the sidecar's lock (a hold ends at a tile's last row, up to 63 past it).
const pendingHold = 256

// PendingMarker sets pending bits for the edit path, which marks 40,400-cell
// dependency cones through it by column segment: it takes the sidecar's lock
// at its first mark and then once per pendingHold cells, releasing it between
// holds, so a reader's pending mask never waits behind a whole cone. Between
// its first Mark and Release the caller must not call into the cache.
type PendingMarker struct {
	p       *pendingSet
	n, held int
}

// PendingMarker starts a marking pass.
func (c *Cache) PendingMarker() PendingMarker { return PendingMarker{p: &c.pending} }

// Mark sets the pending bits of rows seg.From.Row..seg.To.Row of column
// seg.From.Col — one mask lookup per 64-row tile, not per cell — and appends
// to fresh the sub-segments whose bits it newly set, in row order.
func (m *PendingMarker) Mark(seg sheet.Range, fresh []sheet.Range) []sheet.Range {
	first := len(fresh)
	for ref := seg.From; ref.Row <= seg.To.Row; {
		if m.held >= pendingHold {
			m.Release()
		}
		if m.held == 0 {
			m.p.mu.Lock()
		}
		k := keyFor(ref)
		end, mask := min(seg.To.Row, (k.br+1)*BlockRows), m.p.mask(k)
		m.held += end - ref.Row + 1
		for ; ref.Row <= end; ref.Row++ {
			_, bit := m.p.bitFor(ref)
			if w, b := bit/64, uint64(1)<<(bit%64); mask[w]&b == 0 {
				mask[w] |= b
				m.p.count++
				m.n++
				if last := len(fresh) - 1; last >= first && fresh[last].To.Row == ref.Row-1 {
					fresh[last].To = ref
				} else {
					fresh = append(fresh, sheet.Range{From: ref, To: ref})
				}
			}
		}
	}
	return fresh
}

// Release drops the lock if a hold is open and returns how many bits the pass
// has newly set. The marker may mark again after it.
func (m *PendingMarker) Release() int {
	if m.held > 0 {
		m.held = 0
		m.p.mu.Unlock()
	}
	return m.n
}

// IsPending reports whether r's displayed value awaits recalculation.
func (c *Cache) IsPending(r sheet.Ref) bool {
	k, bit := c.pending.bitFor(r)
	p := &c.pending
	p.mu.RLock()
	defer p.mu.RUnlock()
	return has(p.masks[k], bit)
}

// PendingOf appends to dst whether each of refs is pending, in one hold of the
// sidecar's lock and one mask lookup per run of a tile: the recalc executor's
// test of a chunk.
func (c *Cache) PendingOf(refs []sheet.Ref, dst []bool) []bool {
	p := &c.pending
	p.mu.RLock()
	defer p.mu.RUnlock()
	k, m := blockKey{-1, -1}, []uint64(nil)
	for _, r := range refs {
		rk, bit := p.bitFor(r)
		if rk != k {
			k, m = rk, p.masks[rk]
		}
		dst = append(dst, has(m, bit))
	}
	return dst
}

// has reports whether bit is set in the mask m (nil: none is).
func has(m []uint64, bit int) bool { return m != nil && m[bit/64]&(uint64(1)<<(bit%64)) != 0 }

// PendingCount returns the number of cells currently marked pending.
func (c *Cache) PendingCount() int {
	p := &c.pending
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.count
}

// PendingInRange counts pending cells inside g.
func (c *Cache) PendingInRange(g sheet.Range) int {
	n := 0
	c.visitPending(g, func(sheet.Ref) { n++ })
	return n
}

// PendingRefs returns every pending cell, in no particular order — the recalc
// scheduler's rebuild source of truth (its plan sorts each wave itself).
func (c *Cache) PendingRefs() []sheet.Ref {
	p := &c.pending
	p.mu.RLock()
	out := make([]sheet.Ref, 0, p.count)
	for k, m := range p.masks {
		base := sheet.Ref{Row: k.br*BlockRows + 1, Col: k.bc*BlockCols + 1}
		for bit := 0; bit < BlockRows*BlockCols; bit++ {
			if has(m, bit) {
				out = append(out, sheet.Ref{
					Row: base.Row + bit/BlockCols,
					Col: base.Col + bit%BlockCols,
				})
			}
		}
	}
	p.mu.RUnlock()
	return out
}

// PendingIs reports whether the pending set is exactly the cells of segs,
// disjoint ranges of n cells in all: one hold of the sidecar's lock, one mask
// lookup per tile row a range crosses. The recalc executor's kept plan test.
func (c *Cache) PendingIs(n int, segs []sheet.Range) bool {
	p := &c.pending
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.count != n {
		return false
	}
	k, m := blockKey{-1, -1}, []uint64(nil)
	for _, g := range segs {
		for r := g.From; r.Row <= g.To.Row; r.Row++ {
			for r.Col = g.From.Col; r.Col <= g.To.Col; r.Col++ {
				rk, bit := p.bitFor(r)
				if rk != k {
					k, m = rk, p.masks[rk]
				}
				if !has(m, bit) {
					return false
				}
			}
		}
	}
	return true
}

// PendingRefsIn returns the pending cells inside g, in no particular order —
// the recalc scheduler's viewport fast-path seeds.
func (c *Cache) PendingRefsIn(g sheet.Range) []sheet.Ref {
	var out []sheet.Ref
	c.visitPending(g, func(r sheet.Ref) { out = append(out, r) })
	return out
}

// PendingMask returns a per-cell pending grid for g, or nil when no cell
// inside g is pending (the common fast path for readers).
func (c *Cache) PendingMask(g sheet.Range) [][]bool {
	var mask [][]bool
	c.visitPending(g, func(r sheet.Ref) {
		if mask == nil {
			mask = make([][]bool, g.To.Row-g.From.Row+1)
			for i := range mask {
				mask[i] = make([]bool, g.To.Col-g.From.Col+1)
			}
		}
		mask[r.Row-g.From.Row][r.Col-g.From.Col] = true
	})
	return mask
}

// visitPending streams the pending cells inside g to fn, in arbitrary
// order, under the sidecar's read lock.
func (c *Cache) visitPending(g sheet.Range, fn func(sheet.Ref)) {
	p := &c.pending
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.count == 0 {
		return
	}
	for _, k := range BlockCover(g) {
		m := p.masks[blockKey{br: k.BR, bc: k.BC}]
		if m == nil {
			continue
		}
		baseRow, baseCol := k.BR*BlockRows+1, k.BC*BlockCols+1
		for bit := 0; bit < BlockRows*BlockCols; bit++ {
			if !has(m, bit) {
				continue
			}
			r := sheet.Ref{Row: baseRow + bit/BlockCols, Col: baseCol + bit%BlockCols}
			if r.Row >= g.From.Row && r.Row <= g.To.Row && r.Col >= g.From.Col && r.Col <= g.To.Col {
				fn(r)
			}
		}
	}
}

// ClearAllPending drops every pending bit. Structural edits call it after
// the engine has drained the scheduler: a shift relocates cells, and the
// (empty, post-drain) mask must not leave bits pointing at pre-shift
// positions.
func (c *Cache) ClearAllPending() {
	p := &c.pending
	p.mu.Lock()
	p.masks = nil
	p.count = 0
	p.mu.Unlock()
}
