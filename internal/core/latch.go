package core

import (
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
//   - a reader that has to load a block takes the structure lock shared plus
//     a read latch on every table its (block-aligned) range can touch,
//   - cell writers take the structure lock shared plus a write latch on
//     every table their dirty cells live in — so two engines over the same
//     database, or two writes to disjoint regions, run in parallel,
//   - structural edits (and anything else that moves the region layout)
//     take the structure lock exclusively, excluding everyone.
//
// Latches are acquired in ascending segment order (SegsFor/SegsForRefs
// return sorted ids), so overlapping writers cannot deadlock.
//
// Visibility is not decided here but inside the cell cache
// (cache/snapshot.go): a cell-edit batch becomes visible, with its
// generation, in the one publish that ends Engine.applyLocked, and ReadRange
// — the one read entry — assembles a warm range with its staleness mask and
// generation under one shared hold of the cache lock, touching no table
// latch. A reply shows all of a batch with its generation or none of it, and a
// writer's latch hold is invisible to a warm viewport; the latches only keep
// block loads out of the window between a batch's storage write and its
// publish. The database-wide durable counterpart of the generation is
// rdbms.DB.CommitGen, advanced by the group-commit flusher.
//
// Single-goroutine users (dsshell's local mode, the test harness) never
// touch this file: the engine's plain methods stay latch-free and the latch
// table stays empty.

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
// ReadRange stamps every read with the generation its cells belong to.
func (e *Engine) Generation() uint64 { return e.gen.Load() }

// bumpGeneration records one applied mutation batch that excludes readers
// (structural edits, LinkTable, Optimize); a cell-edit batch's generation
// advances inside its publish instead.
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

// WLatchRefs takes write latches on every table a write of the given cells
// mutates before it returns, and returns the release function: the tables
// owning the cells and, on an engine without a dispatcher, those of the cone
// the write settles inline (callers are the engine's one writer at a time, so
// the dependency graph is read unlocked). Concurrent writers with disjoint
// table sets proceed in parallel; acquisition is in segment order, so
// overlapping writers queue instead of deadlocking.
func (e *Engine) WLatchRefs(refs []sheet.Ref) func() {
	if !e.sched.async {
		refs = append(e.deps.Reach(refs), refs...)
	}
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

// ReadRange is the one read entry for concurrent use: the cells of g, their
// staleness mask (nil when nothing in g is pending), the generation they
// belong to, and the error of the block loads this call performed itself.
// Resident, and no structural edit in flight or queued: cells, mask and
// generation come out of one shared hold of the cache lock (cache.Snapshot);
// no table latch is computed or taken. Otherwise the read latches are taken,
// blocking, the range is read through the cache, and mask and generation are
// sampled while still latched — no batch on these tables can be between its
// storage write and its publish, so the three agree.
func (e *Engine) ReadRange(g sheet.Range) ([][]sheet.Cell, [][]bool, uint64, error) {
	if e.latches.structure.TryRLock() {
		cells, pending, gen, ok := e.cache.Snapshot(g, &e.gen)
		e.latches.structure.RUnlock()
		if ok {
			return cells, pending, gen, nil
		}
	}
	release := e.RLatchRange(g)
	defer release()
	cells, err := e.cache.ReadRange(g)
	return cells, e.cache.PendingMask(g), e.Generation(), err
}

// SnapshotRange is ReadRange without the staleness mask.
func (e *Engine) SnapshotRange(g sheet.Range) ([][]sheet.Cell, uint64, error) {
	cells, _, gen, err := e.ReadRange(g)
	return cells, gen, err
}
