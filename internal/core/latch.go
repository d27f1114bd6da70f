package core

import (
	"sync"

	"dataspread/internal/cache"
	"dataspread/internal/model"
	"dataspread/internal/sheet"
)

// The engine's concurrency. Every exported Engine method may be called from
// any goroutine, in both recalc modes; every lock is taken in this package.
//
// The one lock order:
//
//	writeMu → structure lock → table latches, ascending → cache lock → pending sidecar
//
// (Two leaves beside it: sched.mu, the executor's flags, is taken under
// writeMu or alone and holds nothing but the pending sidecar; latchTable.mu,
// the latch registry, is held across no other acquisition.)
//
//   - writeMu is the edit lock: every mutation (cell batch, structural edit,
//     LinkTable, Optimize, Save) and every executor step holds it, so the
//     engine's maps, the dependency graph and the store have one writer at a
//     time, and the evaluator, which runs under it, reads the cache unlatched.
//   - The structure lock freezes the region layout (which table owns which
//     cell). Shared by everything below; exclusive, inside writeMu, around the
//     in-memory and store mutation of a structural edit, LinkTable's link and
//     Optimize's swap — not around their settle or their fsync.
//   - A table latch, keyed by the hybrid store's manifest segment id, is
//     write-held around one thing: a batch's store write through its publish
//     (applyLocked, commit), the window in which a block loaded from the store
//     would show the batch under the old generation (cache/snapshot.go). A
//     reader that has to load a block read-holds the latch of every table its
//     block-aligned range can touch: it waits out that window and nothing
//     else — not a chunk's evaluation, not an inline cone, not a Save.
//   - Visibility is decided inside the cell cache: a batch becomes visible,
//     with its generation, in the publish that ends the window, and a resident
//     range is read, with its mask and generation, under one shared hold of the
//     cache lock, touching no latch. The database-wide durable counterpart of
//     the generation is rdbms.DB.CommitGen.

// latchTable is the engine's per-table latch registry.
type latchTable struct {
	structure sync.RWMutex
	// mu guards segs; the per-segment latches are created lazily.
	mu   sync.Mutex
	segs map[int]*sync.RWMutex
	// wsegs and wheld are the one writer's latch set, reused from batch to
	// batch under writeMu so that an edit allocates nothing to latch.
	wsegs []int
	wheld []*sync.RWMutex
}

// hold appends to ls the latches of the given (sorted) segment ids, creating
// missing ones, and takes them; the caller holds the structure lock shared.
func (lt *latchTable) hold(ls []*sync.RWMutex, segs []int, write bool) []*sync.RWMutex {
	lt.mu.Lock()
	if lt.segs == nil {
		lt.segs = make(map[int]*sync.RWMutex)
	}
	for _, s := range segs {
		l, ok := lt.segs[s]
		if !ok {
			l = &sync.RWMutex{}
			lt.segs[s] = l
		}
		ls = append(ls, l)
	}
	lt.mu.Unlock()
	for _, l := range ls {
		if write {
			l.Lock()
		} else {
			l.RLock()
		}
	}
	return ls
}

// release drops what hold took, then the structure lock's shared hold.
func (lt *latchTable) release(ls []*sync.RWMutex, write bool) {
	for i := len(ls) - 1; i >= 0; i-- {
		if write {
			ls[i].Unlock()
		} else {
			ls[i].RUnlock()
		}
	}
	lt.structure.RUnlock()
}

// rlatch read-latches the tables under the block-aligned expansion of g (a
// cache-miss block load reads whole tiles).
func (e *Engine) rlatch(g sheet.Range) []*sync.RWMutex {
	e.latches.structure.RLock()
	return e.latches.hold(nil, e.store.SegsFor(cache.AlignToBlocks(g)), false)
}

// wlatch write-latches the tables owning the cells of a batch, for its store
// write through its publish. The caller holds writeMu.
func (e *Engine) wlatch(writes []model.CellWrite) []*sync.RWMutex {
	lt := &e.latches
	lt.structure.RLock()
	lt.wsegs = e.store.SegsForWrites(lt.wsegs[:0], writes)
	lt.wheld = lt.hold(lt.wheld[:0], lt.wsegs, true)
	return lt.wheld
}

// Generation returns the engine's mutation generation: the number of
// applied mutation batches (cell edits, structural edits, migrations).
// ReadRange stamps every read with the generation its cells belong to.
func (e *Engine) Generation() uint64 { return e.gen.Load() }

// snapshot is the read's resident step: cells, mask and generation out of one
// shared hold of the cache lock (cache.Snapshot), unless a covering block is
// not resident or a structural mutation is in flight or queued.
func (e *Engine) snapshot(g sheet.Range) (cells [][]sheet.Cell, pending [][]bool, gen uint64, ok bool) {
	if !e.latches.structure.TryRLock() {
		return nil, nil, 0, false
	}
	defer e.latches.structure.RUnlock()
	return e.cache.Snapshot(g, &e.gen)
}

// ReadRange is the one read path: the cells of g, their staleness mask (nil
// when nothing in g is pending), the generation they belong to, and the error
// of the block loads this call performed itself. Resident: the snapshot.
// Otherwise the read latches are taken, blocking, the range is read through
// the cache, and mask and generation are sampled while still latched — no
// batch on these tables can be in its write window, so the three agree.
func (e *Engine) ReadRange(g sheet.Range) ([][]sheet.Cell, [][]bool, uint64, error) {
	if cells, pending, gen, ok := e.snapshot(g); ok {
		return cells, pending, gen, nil
	}
	defer e.latches.release(e.rlatch(g), false)
	cells, err := e.cache.ReadRange(g)
	return cells, e.cache.PendingMask(g), e.gen.Load(), err
}

// SnapshotRange is ReadRange without the staleness mask.
func (e *Engine) SnapshotRange(g sheet.Range) ([][]sheet.Cell, uint64, error) {
	cells, _, gen, err := e.ReadRange(g)
	return cells, gen, err
}

// PeekCells is ReadRange's resident step alone: (nil, false) when any
// covering block would need a storage read.
func (e *Engine) PeekCells(g sheet.Range) ([][]sheet.Cell, bool) {
	cells, _, _, ok := e.snapshot(g)
	return cells, ok
}

// GetCells is the getCells(range) primitive of Section III: ReadRange with
// unreadable cells blank and the failure left for ReadErr.
func (e *Engine) GetCells(g sheet.Range) [][]sheet.Cell {
	cells, _, _, err := e.ReadRange(g)
	if err != nil {
		e.cache.NoteErr(err)
	}
	return cells
}

// GetCell returns one cell.
func (e *Engine) GetCell(row, col int) sheet.Cell {
	return e.GetCells(sheet.NewRange(row, col, row, col))[0][0]
}

// CellValue returns one cell's value.
func (e *Engine) CellValue(r sheet.Ref) sheet.Value { return e.GetCell(r.Row, r.Col).Value }

// VisitRange visits the filled cells of g, clipped to the content bounds, in
// row-major order until fn returns false.
func (e *Engine) VisitRange(g sheet.Range, fn func(sheet.Ref, sheet.Value) bool) {
	g, ok := e.clip(g)
	if !ok {
		return
	}
	for i, row := range e.GetCells(g) {
		for j, c := range row {
			if !c.IsBlank() && !fn(sheet.Ref{Row: g.From.Row + i, Col: g.From.Col + j}, c.Value) {
				return
			}
		}
	}
}
