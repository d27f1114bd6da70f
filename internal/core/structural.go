package core

import (
	"fmt"

	"dataspread/internal/depgraph"
	"dataspread/internal/formula"
	"dataspread/internal/sheet"
)

// Structural edits — the paper's headline scenario (Section III, Fig. 23).
// The storage layer already makes the shift itself O(log n) per region via
// the positional maps; this file makes the engine layer scale with the
// *affected region* rather than the sheet:
//
//   - one count-aware shift per region (HybridStore.Shift: inserting 100
//     rows is one positional pass and one WAL commit, not 100),
//   - a shift-aware formula pass: formulas whose cell and reads all lie
//     strictly before the edit are never looked at — no reparse, no tuple
//     rewrite; the formula registry moves whole fill-down runs
//     (depgraph.Shift), splitting only those the edit straddles, and only
//     formulas whose references cross the edit get their expressions
//     rewritten and re-persisted,
//   - incremental recalculation: only formulas whose read ranges straddle
//     or absorb the edited band re-evaluate (inserted blanks and deleted
//     values change range aggregates; purely-shifted references do not),
//     plus their transitive dependents — never every formula,
//   - targeted cache maintenance: cache.Shift keeps blocks
//     strictly above/left of the edit resident and renumbers aligned
//     blocks, instead of invalidating the whole read cache.

// EditStats describes the work done by the most recent structural edit
// (test hook and bench/ probe).
type EditStats struct {
	// Relocated counts formulas whose cell moved with the edit. Relocation
	// moves their run in memory only — the stored tuple moved with its
	// region's positional map.
	Relocated int
	// Rewritten counts formulas whose references crossed the edit and were
	// rewritten in the registry (no storage write: the store holds values
	// only). Formulas entirely before the edit are never rewritten.
	Rewritten int
	// Dropped counts formulas destroyed because their cell was deleted.
	Dropped int
	// Recomputed counts formula evaluations triggered by the edit: only
	// formulas whose read ranges straddle/absorb the edited band, plus
	// their transitive dependents.
	Recomputed int
}

// LastEditStats returns the counters of the most recent structural edit.
func (e *Engine) LastEditStats() EditStats {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	return e.lastEdit
}

// InsertRowsAfter inserts count rows after `row` (Section III:
// insertRowAfter; 0 prepends) as one batched structural edit: a single
// count-aware positional shift per stored region, one shift-aware formula
// pass, recalculation limited to formulas reading across the edit, and one
// WAL commit. It, DeleteRows, InsertColumnsAfter and DeleteColumns are Shift
// in the insert-after convention, without the generation.
func (e *Engine) InsertRowsAfter(row, count int) error {
	_, err := e.Shift(depgraph.Rows, row+1, max(count, 0))
	return err
}

// DeleteRows removes the count rows [row, row+count-1].
func (e *Engine) DeleteRows(row, count int) error {
	_, err := e.Shift(depgraph.Rows, row, -max(count, 0))
	return err
}

// InsertColumnsAfter inserts count columns after `col`.
func (e *Engine) InsertColumnsAfter(col, count int) error {
	_, err := e.Shift(depgraph.Cols, col+1, max(count, 0))
	return err
}

// DeleteColumns removes the count columns [col, col+count-1].
func (e *Engine) DeleteColumns(col, count int) error {
	_, err := e.Shift(depgraph.Cols, col, -max(count, 0))
	return err
}

// Shift is the one structural-edit entry, in depgraph.Shift's convention: a
// positive delta inserts delta blank rows or columns before index `at`, a
// negative one deletes the -delta rows or columns starting at `at` (the
// wrappers turn a count below 1 into delta 0, which is rejected). It takes
// the same pipeline as a cell edit — apply (shiftLocked) -> mark pending ->
// settle -> write through — followed by one WAL commit, and returns the
// generation the edit published.
func (e *Engine) Shift(axis depgraph.Axis, at, delta int) (uint64, error) {
	sh := formula.Shift{Rows: axis == depgraph.Rows, At: at, Count: max(delta, -delta), Delete: delta < 0}
	if sh.Count < 1 || at < 1 {
		return 0, fmt.Errorf("core: structural edit of %d rows/columns at index %d", delta, at)
	}
	if err := e.writeGuard(); err != nil {
		return 0, err
	}
	defer e.lockWritesDrained()()
	gen, err := e.shiftLocked(sh, axis, at, delta)
	if err != nil {
		return 0, err
	}
	if err := e.settle(); err != nil {
		return 0, err
	}
	return gen, e.saveLocked()
}

// shiftLocked is the structural edit up to the point where readers may see
// it, with the structure lock held exclusively: the store's positional shift,
// bounds, cache, formula relocation, the pending marks of the formulas reading
// across the edit, the generation — not the settle or the save that follow.
func (e *Engine) shiftLocked(sh formula.Shift, axis depgraph.Axis, at, delta int) (uint64, error) {
	e.latches.structure.Lock()
	defer e.latches.structure.Unlock()
	e.lastEdit = EditStats{}
	band, extent := sheet.NewRange(1, at, maxCoord, at+sh.Count-1), &e.maxCol
	if sh.Rows {
		band, extent = sheet.NewRange(at, 1, at+sh.Count-1, maxCoord), &e.maxRow
	}
	// Formulas reading the doomed band recompute after a delete (their
	// aggregates lose values; single references become #REF!). Collected
	// pre-shift, mapped through the edit below.
	var seeds []sheet.Ref
	if sh.Delete {
		seeds = e.deps.DirectDependents(band)
	}
	// The store decides every refusal before it mutates anything, so a
	// refused edit returns here with the store, cache and graph untouched.
	if err := e.store.Shift(sh.Rows, at, delta); err != nil {
		return 0, err
	}
	if last := int(extent.Load()); !sh.Delete {
		// The extent grows only when the insert displaces content: blank
		// rows appended past the last filled row do not move anything.
		if at <= last {
			extent.Add(int64(sh.Count))
		}
	} else if over := min(last, at+sh.Count-1) - at + 1; over > 0 {
		// Clamp the decrement to rows that actually held content, so
		// repeated out-of-range deletes cannot shrink bounds below live data.
		extent.Add(-int64(over))
	}
	e.cache.Shift(sh.Rows, at, delta)
	e.applyShift(axis, at, delta)
	if sh.Delete {
		seeds = shiftSeeds(seeds, axis, at, sh.Count)
	} else {
		// Only formulas whose (post-shift) ranges absorb the inserted blank
		// band can change value; purely-shifted references read the same
		// cells.
		seeds = e.deps.DirectDependents(band)
	}
	// A cycle the edit broke (by deleting one of its members, say) is marked
	// through its members that read the band. Never a full recalculation.
	e.lastEdit.Recomputed = e.mark(seeds, nil)
	return e.gen.Add(1), nil
}

// maxCoord bounds the open edge of an edit band (any real reference fits).
const maxCoord = 1 << 29

// applyShift relocates the engine's formula state under a structural edit:
// the registry moves its runs and reports which formulas moved, which read
// across the edit (rewritten there), and which were deleted. No cell is
// written: the store holds values only, and its positional maps moved them.
// Resident tiles get the rewritten text (cache.Retext renders it for them
// alone); a tile loaded later renders it from the registry.
func (e *Engine) applyShift(axis depgraph.Axis, at, delta int) {
	res := e.deps.Shift(axis, at, delta)
	e.lastEdit.Relocated += len(res.MovedNew)
	e.lastEdit.Dropped += len(res.Dropped)
	e.lastEdit.Rewritten += len(res.Rewritten)
	if e.lastEdit.Relocated+e.lastEdit.Dropped+e.lastEdit.Rewritten > 0 {
		e.formulasDirty = true
	}
	e.cache.Retext(res.Rewritten, func(i int) string { return res.Exprs[i].String() })
}

// shiftSeeds maps pre-edit recompute seeds through a deletion: seeds inside
// the deleted band vanish (their formulas are gone), seeds past it shift.
func shiftSeeds(seeds []sheet.Ref, axis depgraph.Axis, at, count int) []sheet.Ref {
	out := seeds[:0]
	for _, r := range seeds {
		idx := r.Col
		if axis == depgraph.Rows {
			idx = r.Row
		}
		nw, ok := depgraph.ShiftIndex(idx, at, -count)
		if !ok {
			continue // the seed formula itself was deleted
		}
		if axis == depgraph.Rows {
			r.Row = nw
		} else {
			r.Col = nw
		}
		out = append(out, r)
	}
	return out
}
