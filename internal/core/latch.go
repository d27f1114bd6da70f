package core

import (
	"sort"
	"sync"

	"dataspread/internal/cache"
	"dataspread/internal/sheet"
)

// Concurrency façade for serving the engine to many clients at once.
//
// The storage substrate is single-writer per table: concurrent readers are
// fully supported (shared-lock pager fetches, lock-protected cell cache),
// and writers to *different* tables may proceed in parallel, but a reader
// must never overlap a writer of the same table. This file enforces that
// contract with per-table latches keyed by the hybrid store's manifest
// segment ids, under a structure lock that freezes the region layout:
//
//   - readers take the structure lock shared plus a read latch on every
//     table their (block-aligned) range can touch,
//   - cell writers take the structure lock shared plus a write latch on
//     every table their dirty cells live in — so two engines over the same
//     database, or two writes to disjoint regions, run in parallel,
//   - structural edits (and anything else that moves the region layout)
//     take the structure lock exclusively, excluding everyone.
//
// Latches are acquired in ascending segment order (SegsFor/SegsForRefs
// return sorted ids), so overlapping writers cannot deadlock.
//
// Visibility hangs off a per-engine generation: every applied mutation
// batch bumps it, and SnapshotRange stamps each read with the generation
// it observed. The serving layer pins these stamps to give scrolling
// viewports snapshot-isolated reads while a bulk load is mid-flight; the
// database-wide durable counterpart is rdbms.DB.CommitGen, advanced by the
// group-commit flusher.
//
// Single-goroutine users (dsshell's local mode, the test harness) never
// touch this file: a synchronous engine's plain methods stay latch-free and
// the latch table stays empty.

// latchTable is the engine's per-table latch registry.
type latchTable struct {
	// structure freezes the region layout: held shared by cell readers and
	// writers, exclusively by structural edits.
	structure sync.RWMutex
	// mu guards segs; the per-segment latches are created lazily.
	mu   sync.Mutex
	segs map[int]*sync.RWMutex
}

// forSegs returns the latches for the given (sorted) segment ids, creating
// missing ones.
func (lt *latchTable) forSegs(segs []int) []*sync.RWMutex {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if lt.segs == nil {
		lt.segs = make(map[int]*sync.RWMutex)
	}
	out := make([]*sync.RWMutex, len(segs))
	for i, s := range segs {
		l, ok := lt.segs[s]
		if !ok {
			l = &sync.RWMutex{}
			lt.segs[s] = l
		}
		out[i] = l
	}
	return out
}

// Generation returns the engine's mutation generation: the number of
// applied mutation batches (cell edits, structural edits, migrations).
// Reads taken under a read latch observe a stable generation; the serving
// layer uses the stamp to hand snapshot-isolated viewports to clients.
func (e *Engine) Generation() uint64 { return e.gen.Load() }

// bumpGeneration records one applied mutation batch.
func (e *Engine) bumpGeneration() { e.gen.Add(1) }

// RLatchRange takes read latches covering the absolute range g and returns
// the release function. The latch set is computed over the block-aligned
// expansion of g, because a cache-miss block load reads whole tiles.
func (e *Engine) RLatchRange(g sheet.Range) func() {
	e.latches.structure.RLock()
	ls := e.latches.forSegs(e.store.SegsFor(cache.AlignToBlocks(g)))
	for _, l := range ls {
		l.RLock()
	}
	return func() {
		for i := len(ls) - 1; i >= 0; i-- {
			ls[i].RUnlock()
		}
		e.latches.structure.RUnlock()
	}
}

// TryRLatchRange is RLatchRange without blocking: it returns (release,
// true) when every latch was free, and (nil, false) when a writer holds —
// or is queued for — any of them, in which case nothing is held on return.
// The serving layer uses this to decide between a direct engine read and
// the snapshot (overlay + resident cache) path.
func (e *Engine) TryRLatchRange(g sheet.Range) (func(), bool) {
	if !e.latches.structure.TryRLock() {
		return nil, false
	}
	ls := e.latches.forSegs(e.store.SegsFor(cache.AlignToBlocks(g)))
	for i, l := range ls {
		if !l.TryRLock() {
			for j := i - 1; j >= 0; j-- {
				ls[j].RUnlock()
			}
			e.latches.structure.RUnlock()
			return nil, false
		}
	}
	return func() {
		for i := len(ls) - 1; i >= 0; i-- {
			ls[i].RUnlock()
		}
		e.latches.structure.RUnlock()
	}, true
}

// WLatchRefs takes write latches on every table owning one of the given
// cells and returns the release function. Concurrent writers with disjoint
// table sets proceed in parallel; acquisition is in segment order, so
// overlapping writers queue instead of deadlocking.
func (e *Engine) WLatchRefs(refs []sheet.Ref) func() {
	e.latches.structure.RLock()
	ls := e.latches.forSegs(e.store.SegsForRefs(refs))
	for _, l := range ls {
		l.Lock()
	}
	return func() {
		for i := len(ls) - 1; i >= 0; i-- {
			ls[i].Unlock()
		}
		e.latches.structure.RUnlock()
	}
}

// LatchExclusive takes the structure lock exclusively, excluding every
// latched reader and writer — the envelope for structural edits, layout
// migrations (Optimize), and any operation that must see a quiesced
// engine.
func (e *Engine) LatchExclusive() func() {
	e.latches.structure.Lock()
	return e.latches.structure.Unlock
}

// SnapshotRange is the latched snapshot read: it takes read latches over
// g, materializes the range, and stamps it with the generation it
// observed. While the latches are held no writer can touch the underlying
// tables, so the cells and the stamp are one consistent point-in-time
// view.
func (e *Engine) SnapshotRange(g sheet.Range) ([][]sheet.Cell, uint64, error) {
	release := e.RLatchRange(g)
	defer release()
	cells := e.GetCells(g)
	return cells, e.Generation(), e.ReadErr()
}

// AffectedRefs returns the full dirty set of a prospective cell-edit
// batch: the edited cells themselves plus every formula cell the edit would
// mark pending (depgraph.Reach). The serving layer pre-images exactly these
// cells' blocks — and, around a synchronous engine, write-latches their
// tables — before letting the writer loose, so snapshot readers keep serving
// the prior generation while the batch applies. Sorted and deduplicated.
func (e *Engine) AffectedRefs(refs []sheet.Ref) []sheet.Ref {
	out := append(e.deps.Reach(refs), refs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Row != out[j].Row {
			return out[i].Row < out[j].Row
		}
		return out[i].Col < out[j].Col
	})
	dedup := out[:0]
	for i, r := range out {
		if i == 0 || r != out[i-1] {
			dedup = append(dedup, r)
		}
	}
	return dedup
}
