package serve

import (
	"sync"

	"dataspread/internal/core"
	"dataspread/internal/sheet"
)

// sheetHandle is one open engine shared by every session.
//
// Reads go straight to core.Engine.ReadRange: cells, staleness mask and
// generation from one point in time, without waiting on a writer when the
// range is cache-resident. When a batch becomes visible, and under which
// generation, is decided inside the engine (the publish in its cell cache);
// this layer only orders the writers of a sheet and keeps their fsync off
// the latches.
type sheetHandle struct {
	name string
	eng  *core.Engine
	// wmu serializes writers (cell batches, structural edits, saves).
	wmu sync.Mutex
}

// setCells applies one batch under the write latches of the tables it
// writes, and makes it durable after releasing them: readers loading a cold
// block wait for the apply, never for the WAL fsync (writers on this sheet
// do, via wmu).
func (h *sheetHandle) setCells(edits []core.CellEdit) (uint64, error) {
	if len(edits) == 0 {
		return h.eng.Generation(), nil
	}
	h.wmu.Lock()
	defer h.wmu.Unlock()
	refs := make([]sheet.Ref, len(edits))
	for i, ed := range edits {
		refs[i] = sheet.Ref{Row: ed.Row, Col: ed.Col}
	}
	release := h.eng.WLatchRefs(refs)
	err := h.eng.ApplyCells(edits)
	gen := h.eng.Generation()
	release()
	if err != nil {
		return gen, err
	}
	return gen, h.eng.Save()
}

// structural runs one structural edit (op already bound to the engine)
// under full quiescence.
func (h *sheetHandle) structural(op func() error) (uint64, error) {
	h.wmu.Lock()
	defer h.wmu.Unlock()
	// Drain the recalc scheduler before quiescing: the engine's structural
	// path waits for pending-free state, but the scheduler's commit chunks
	// need the table latches the exclusive latch below holds — draining
	// under the latch would deadlock. wmu is held, so no new writer can
	// re-mark cells pending between the drain and the latch.
	if err := h.eng.Drain(); err != nil {
		return h.eng.Generation(), err
	}
	release := h.eng.LatchExclusive()
	err := op()
	gen := h.eng.Generation()
	release()
	return gen, err
}
