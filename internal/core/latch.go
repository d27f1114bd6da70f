package core

import (
	"fmt"

	"dataspread/internal/sheet"
)

// The engine's concurrency. Every exported Engine method may be called from
// any goroutine, in both recalc modes; every lock is taken in this package.
//
// The one lock order:
//
//	writeMu → structure → window → cache lock → pending sidecar
//
// (One leaf beside it: sched.mu, the executor's flags, is taken under writeMu
// or alone and holds nothing but the pending sidecar.)
//
//   - writeMu is the edit lock: every mutation (cell batch, structural edit,
//     LinkTable, Optimize, Save) and every executor step holds it, so the
//     engine's maps, the dependency graph and the store have one writer at a
//     time, and the evaluator, which runs under it, reads the cache unlatched.
//   - structure freezes the region layout (which table owns which cell).
//     Readers hold it shared; it is held exclusively, inside writeMu, around
//     the in-memory and store mutation of a structural edit, LinkTable's link
//     and Optimize's swap — not around their settle or their fsync. A batch
//     writer holds writeMu, so it can never overlap a layout change, and does
//     not take structure at all.
//   - window is held exclusively by a batch from its store write through its
//     publish (applyLocked, commit): the window in which a block loaded from
//     the store would show the batch under the old generation
//     (cache/snapshot.go). For an edit it covers the store write, formula
//     registration, the pending-mark walk and the publish; for a chunk, the
//     store write and the publish. A reader that has to load a block holds it
//     shared: it waits out that window and nothing else — not a chunk's
//     evaluation, not a settle, not a Save. A block load renders formula text
//     from the registry: its every mutation holds structure or window
//     exclusively, besides writeMu.
//   - Visibility is decided inside the cell cache: a batch becomes visible,
//     with its generation, in the publish that ends the window, and a resident
//     range is read, with its mask and generation, under one shared hold of the
//     cache lock, touching no latch. The database-wide durable counterpart of
//     the generation is rdbms.DB.CommitGen.

// Generation returns the engine's mutation generation: the number of
// applied mutation batches (cell edits, structural edits, migrations).
// ReadRange stamps every read with the generation its cells belong to.
func (e *Engine) Generation() uint64 { return e.gen.Load() }

// inSheet refuses a range that reaches above row 1 or left of column 1, or
// whose From is past its To: every read and LinkTable checks it at the door.
func inSheet(g sheet.Range) error {
	if !g.From.Valid() || g.From.Row > g.To.Row || g.From.Col > g.To.Col {
		return fmt.Errorf("core: range (%d,%d)-(%d,%d) is outside the sheet", g.From.Row, g.From.Col, g.To.Row, g.To.Col)
	}
	return nil
}

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
// of the block loads this call performed itself. A range outside the sheet is
// refused. Resident: the snapshot. Otherwise both latches are read-held,
// blocking, the range is read through the cache, and mask and generation are
// sampled while still latched — no batch can be in its write window, so the
// three agree.
func (e *Engine) ReadRange(g sheet.Range) ([][]sheet.Cell, [][]bool, uint64, error) {
	if err := inSheet(g); err != nil {
		return nil, nil, 0, err
	}
	if cells, pending, gen, ok := e.snapshot(g); ok {
		return cells, pending, gen, nil
	}
	e.latches.structure.RLock()
	defer e.latches.structure.RUnlock()
	e.latches.window.RLock()
	defer e.latches.window.RUnlock()
	cells, err := e.cache.ReadRange(g)
	return cells, e.cache.PendingMask(g), e.gen.Load(), err
}

// SnapshotRange is ReadRange without the staleness mask.
func (e *Engine) SnapshotRange(g sheet.Range) ([][]sheet.Cell, uint64, error) {
	cells, _, gen, err := e.ReadRange(g)
	return cells, gen, err
}

// PeekCells is ReadRange's resident step alone: (nil, false) when any
// covering block would need a storage read, or g is outside the sheet.
func (e *Engine) PeekCells(g sheet.Range) ([][]sheet.Cell, bool) {
	if inSheet(g) != nil {
		return nil, false
	}
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

// GetCell returns one cell; a cell outside the sheet reads blank, the refusal
// left for ReadErr.
func (e *Engine) GetCell(row, col int) sheet.Cell {
	if cells := e.GetCells(sheet.NewRange(row, col, row, col)); cells != nil {
		return cells[0][0]
	}
	return sheet.Cell{}
}

// CellValue returns one cell's value.
func (e *Engine) CellValue(r sheet.Ref) sheet.Value { return e.GetCell(r.Row, r.Col).Value }

// VisitRange visits the filled cells of g, clipped to the sheet and the
// content bounds, in row-major order until fn returns false.
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
