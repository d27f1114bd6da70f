// Package core implements the DATASPREAD engine of Section VI: the
// execution engine (formula parser, dependency graph, evaluator, LRU cell
// cache) layered on the storage engine (hybrid translator over ROM / COM /
// RCV / TOM regions with positional mapping). It exposes the
// spreadsheet-oriented and database-oriented operations of Section III.
package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"dataspread/internal/cache"
	"dataspread/internal/depgraph"
	"dataspread/internal/formula"
	"dataspread/internal/hybrid"
	"dataspread/internal/model"
	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
)

// Options configures an Engine.
type Options struct {
	// CacheBlocks caps the LRU cell cache in 64x16 tiles (0: 256); ~9 KiB a dense numeric tile.
	CacheBlocks int
	// CostParams drives the hybrid optimizer (zero value: PostgresCost).
	CostParams hybrid.CostParams
	// AsyncRecalc decides who runs the one recalc executor (recalc.go) — the
	// paper's LazyBrowsing direction. True: edits mark their dependency cone
	// pending and return immediately; a background dispatcher evaluates the
	// cone in topological waves, cells inside registered viewports first.
	// False (default; tests, single-user CLI): the edit runs the same plan on
	// the calling goroutine and returns with nothing pending.
	AsyncRecalc bool
	// RecalcWorkers is ignored: every chunk evaluates on the goroutine that
	// commits it. The field stays only until the benchmark harness stops
	// setting it (ROADMAP item 1(j)).
	RecalcWorkers int
}

// Engine is one open spreadsheet bound to a database.
type Engine struct {
	name  string
	db    *rdbms.DB
	store *model.HybridStore
	cache *cache.Cache
	// deps is the formula registry and its dependency graph in one: every
	// formula, constants and formulas on a dependency cycle included, as a
	// fill-down run — one head expression, its reads and its member rows
	// (depgraph.Graph.Formula, formula.EvalAt), the unit the formula set
	// persists — and the only home of formula source: tile loads render it
	// (overlayFormulas). Whether a formula shows #CYCLE! is decided by the
	// recalc plan from the graph alone, never recorded beside it.
	deps *depgraph.Graph
	// bounds tracks the content extent (written under writeMu, read from
	// anywhere).
	maxRow, maxCol atomic.Int64
	params         hybrid.CostParams
	seq            int
	// lastEdit records the work done by the most recent structural edit.
	lastEdit EditStats
	// formulasDirty marks the formula population as changed since the last
	// manifest save; a clean population skips re-serializing the formula
	// set entirely (the meta KV's byte-equality check backstops false
	// positives).
	formulasDirty bool
	// gen counts applied mutation batches. writeMu is the edit lock: every
	// field above but the bounds is read and written under it. latches holds
	// the region-layout lock and the write-window latch, which keeps block
	// loads out of a batch's store write through its publish (latch.go).
	gen     atomic.Uint64
	writeMu sync.Mutex
	latches struct{ structure, window sync.RWMutex }
	// sched holds the recalc executor's state: viewports, plan flags and —
	// on an AsyncRecalc engine — the dispatcher goroutine.
	sched *recalcScheduler
}

// storeBacking adapts the engine's current hybrid store (Optimize swaps it)
// to the cache's Backing interface: a block load is the store's range read
// (one page pin per heap page, projection pushed down to the tile's columns)
// decoding each value straight into the tile, then the formula text overlaid;
// load errors flow into the cache, which keeps the tile blank.
type storeBacking struct{ e *Engine }

func (b storeBacking) LoadBlock(g sheet.Range, t cache.Tile) error {
	lo, hi := b.e.store.ColumnSpan(g)
	t = t.Span(lo-g.From.Col, hi-g.From.Col)
	if err := b.e.store.ReadCells(g, t.Set); err != nil {
		return err
	}
	b.e.overlayFormulas(g, t)
	return nil
}

// renderBufs recycles overlayFormulas' render buffer across tile loads.
var renderBufs = sync.Pool{New: func() any { return new([]byte) }}

// overlayFormulas writes the source text of every formula in g into its cell
// of the tile loaded for g, which holds values only: each run member prints
// its head moved down to its row (formula.AppendAt) into one buffer, one
// string a tile that the cells' texts slice. The caller keeps the registry
// still: it holds the edit lock, or the structure and window latches shared,
// and every registry mutation holds writeMu and one of those exclusively.
func (e *Engine) overlayFormulas(g sheet.Range, t cache.Tile) {
	type member struct{ row, col, end int32 } // a cell of the tile, where its text ends
	var stack [cache.BlockRows * cache.BlockCols]member
	members, buf := stack[:0], renderBufs.Get().(*[]byte)
	e.deps.RunsIn(g, func(first sheet.Ref, k, n int, head formula.Expr) {
		for i := range n {
			*buf = formula.AppendAt(*buf, head, k+i)
			members = append(members, member{int32(first.Row - g.From.Row + i), int32(first.Col - g.From.Col), int32(len(*buf))})
		}
	})
	text, start := string(*buf), int32(0)
	for _, m := range members {
		t.SetFormula(int(m.row), int(m.col), text[start:m.end])
		start = m.end
	}
	*buf = (*buf)[:0]
	renderBufs.Put(buf)
}

// params returns the hybrid optimizer's cost parameters (zero value:
// PostgresCost).
func (o Options) params() hybrid.CostParams {
	if o.CostParams == (hybrid.CostParams{}) {
		return hybrid.PostgresCost
	}
	return o.CostParams
}

// buildEngine builds the engine over an existing store: empty formula state,
// a cold cache and the recalc executor New, Open and Load all start from,
// its dispatcher not yet running (launch).
func buildEngine(db *rdbms.DB, name string, hs *model.HybridStore, opts Options) *Engine {
	e := &Engine{
		name:   name,
		db:     db,
		store:  hs,
		deps:   depgraph.New(),
		params: opts.params(),
	}
	e.cache = cache.New(storeBacking{e}, opts.CacheBlocks)
	e.startRecalc(opts)
	return e
}

// New opens an empty spreadsheet named name on the database.
func New(db *rdbms.DB, name string, opts Options) (*Engine, error) {
	if err := validateSheetName(name); err != nil {
		return nil, err
	}
	hs, err := model.NewHybridStore(db, name)
	if err != nil {
		return nil, err
	}
	return buildEngine(db, name, hs, opts).launch(false)
}

// Open loads a sheet into a new engine, choosing the physical layout with
// the hybrid optimizer (algo: "dp", "greedy", "agg", "rom", "com", "rcv"),
// and recalculates every formula (launch).
func Open(db *rdbms.DB, name string, s *sheet.Sheet, algo string, opts Options) (*Engine, error) {
	if err := validateSheetName(name); err != nil {
		return nil, err
	}
	d, err := hybrid.Decompose(s, algo, hybrid.Options{Params: opts.params(), Models: hybrid.AllModels})
	if err != nil {
		return nil, err
	}
	hs, err := model.Materialize(db, name, "", s, d)
	if err != nil {
		return nil, err
	}
	e := buildEngine(db, name, hs, opts)
	var regErr error
	s.EachSorted(func(r sheet.Ref, c sheet.Cell) {
		e.grow(r.Row, r.Col)
		if c.HasFormula() && regErr == nil {
			var w cellWrite
			if w, regErr = formulaWrite(r, c.Formula); regErr == nil {
				e.deps.SetFormula(r, w.expr)
				e.formulasDirty = true
			}
		}
	})
	if regErr != nil {
		return nil, regErr
	}
	return e.launch(true)
}

// validateSheetName rejects names that would collide with the manifest
// key conventions: segment and formula-set keys live under ":"-separated
// suffixes of the sheet's meta keys, and name listings exclude any key
// with a ":" infix.
func validateSheetName(name string) error {
	if name == "" {
		return fmt.Errorf("core: empty sheet name")
	}
	if strings.Contains(name, ":") {
		return fmt.Errorf("core: sheet name %q must not contain ':'", name)
	}
	return nil
}

// DB exposes the backing database.
func (e *Engine) DB() *rdbms.DB { return e.db }

// Store exposes the hybrid store (for storage accounting in benchmarks; using
// it beside a writer is the caller's business).
func (e *Engine) Store() *model.HybridStore {
	e.latches.structure.RLock()
	defer e.latches.structure.RUnlock()
	return e.store
}

// Bounds returns the tracked content extent.
func (e *Engine) Bounds() (rows, cols int) { return int(e.maxRow.Load()), int(e.maxCol.Load()) }

func (e *Engine) grow(row, col int) {
	if int64(row) > e.maxRow.Load() {
		e.maxRow.Store(int64(row))
	}
	if int64(col) > e.maxCol.Load() {
		e.maxCol.Store(int64(col))
	}
}

// clip cuts g to A1 and the content bounds (a whole-column reference must not
// walk vast empty ranges); ok is false when nothing is left.
func (e *Engine) clip(g sheet.Range) (sheet.Range, bool) {
	rows, cols := e.Bounds()
	g.From.Row, g.From.Col = max(g.From.Row, 1), max(g.From.Col, 1)
	g.To.Row, g.To.Col = min(g.To.Row, rows), min(g.To.Col, cols)
	return g, g.To.Row >= g.From.Row && g.To.Col >= g.From.Col
}

// evalReader is the evaluator's formula.Resolver. It runs under writeMu, so
// it reads the cache unlatched: cells through a tile reader of its own (one
// per chunk), ranges streamed out block by block (one reused row buffer, no
// materialized grid), so large aggregations stay allocation-light.
// An unreadable tile reads blank and is kept for tiles.Err, which the
// executor checks before it commits. Pass it by pointer: a value converted to
// the Resolver allocates per cell.
type evalReader struct {
	e     *Engine
	tiles cache.TileReader
}

func (r *evalReader) CellValue(ref sheet.Ref) sheet.Value { return r.tiles.Get(ref).Value }

func (r *evalReader) VisitRange(g sheet.Range, fn func(sheet.Ref, sheet.Value) bool) {
	if g, ok := r.e.clip(g); ok {
		r.tiles.VisitRange(g, func(ref sheet.Ref, c sheet.Cell) bool { return fn(ref, c.Value) })
	}
}

// ReadErr returns the first storage read error recorded since the last call
// and clears it (nil when none). The read primitives (GetCell, GetCells,
// VisitRange, CellValue) render unreadable cells blank rather than failing
// mid-render; callers that must distinguish blank from unreadable — a
// checksum-corrupt page, a torn data file — check ReadErr after reading.
// The slot is engine-wide: concurrent readers use ReadRange, which returns
// the error of its own loads.
func (e *Engine) ReadErr() error { return e.cache.TakeErr() }

// CacheStats returns the cell cache's hit/miss/eviction counters.
func (e *Engine) CacheStats() cache.Stats { return e.cache.Stats() }

// writeGuard rejects mutations while the backing database is poisoned,
// before they touch in-memory state: a write applied in memory could never
// become durable, and would make the served state diverge from what a
// restart recovers. The returned error unwraps to rdbms.ErrReadOnly (and
// rdbms.ErrPoisoned), so callers degrade to read-only with one errors.Is.
// Reads are never guarded — they keep serving the committed generation and
// resident cache.
func (e *Engine) writeGuard() error {
	if err := e.db.Poisoned(); err != nil {
		return fmt.Errorf("core: %s: %w", e.name, err)
	}
	return nil
}

// CellEdit is one entry of a SetCells batch: user input addressed to a
// cell, following Set's convention ("=..." installs a formula, "" clears,
// anything else is a literal).
type CellEdit struct {
	Row, Col int
	Input    string
}

// cellWrite is one typed entry of a cell-edit batch: a formula (expr, parsed
// once from src) or a literal value; the zero value clears the cell.
type cellWrite struct {
	ref   sheet.Ref
	value sheet.Value
	src   string
	expr  formula.Expr
}

// formulaWrite parses a formula source (without '=') into a batch entry whose
// src is the canonical text: the one the registry renders on every read.
func formulaWrite(ref sheet.Ref, src string) (cellWrite, error) {
	expr, err := formula.Parse(src)
	if err != nil {
		return cellWrite{}, fmt.Errorf("core: formula at %v: %w", ref, err)
	}
	return cellWrite{ref: ref, src: expr.String(), expr: expr}, nil
}

// parseEdit types one user input.
func parseEdit(ed CellEdit) (cellWrite, error) {
	ref := sheet.Ref{Row: ed.Row, Col: ed.Col}
	if strings.HasPrefix(ed.Input, "=") {
		return formulaWrite(ref, ed.Input[1:])
	}
	return cellWrite{ref: ref, value: sheet.ParseLiteral(ed.Input)}, nil
}

// Set writes user input: text beginning with '=' installs a formula,
// anything else a literal value; empty text clears the cell.
func (e *Engine) Set(row, col int, input string) error {
	_, err := e.ApplyCells([]CellEdit{{Row: row, Col: col, Input: input}})
	return err
}

// SetValue writes a plain value (updateCell of Section III); text beginning
// with '=' stays text.
func (e *Engine) SetValue(row, col int, v sheet.Value) error {
	_, err := e.apply([]cellWrite{{ref: sheet.Ref{Row: row, Col: col}, value: v}})
	return err
}

// Clear blanks a cell.
func (e *Engine) Clear(row, col int) error {
	_, err := e.apply([]cellWrite{{ref: sheet.Ref{Row: row, Col: col}}})
	return err
}

// SetFormula installs a formula (source without '='). A formula on a
// dependency cycle shows #CYCLE!.
func (e *Engine) SetFormula(row, col int, src string) error {
	w, err := formulaWrite(sheet.Ref{Row: row, Col: col}, src)
	if err == nil {
		_, err = e.apply([]cellWrite{w})
	}
	return err
}

// SetCells applies a batch of edits and persists it with a single WAL
// commit — N edits cost one fsync instead of N (the batched write path;
// per-edit Set+Save costs one fsync each). Edits to the same cell
// apply in order: the last one wins. On an in-memory database the WAL
// commit is a no-op.
func (e *Engine) SetCells(edits []CellEdit) error {
	if len(edits) == 0 {
		return nil
	}
	if _, err := e.ApplyCells(edits); err != nil {
		return err
	}
	return e.Save()
}

// ApplyCells is SetCells without the trailing Save: the batch applies to
// the store, cache, and dependency graph, but durability is the caller's
// (the serving layer saves after it, with nothing held). It returns the
// generation the batch published; Generation() may have moved on by then. A
// malformed formula rejects the whole batch before anything is touched.
func (e *Engine) ApplyCells(edits []CellEdit) (uint64, error) {
	batch := make([]cellWrite, len(edits))
	for i, ed := range edits {
		w, err := parseEdit(ed)
		if err != nil {
			return 0, err
		}
		batch[i] = w
	}
	return e.apply(batch)
}

// apply is the one cell-edit entry: every cell mutation (Set, SetValue,
// SetFormula, Clear, SetCells/ApplyCells, PlaceTable, LinkTable's clear)
// builds a batch and takes the pipeline apply -> mark pending -> settle ->
// write through. On return a synchronous engine has nothing pending; an
// AsyncRecalc engine has the batch's dependency cone marked and the
// dispatcher woken. It returns the batch's generation.
func (e *Engine) apply(batch []cellWrite) (uint64, error) {
	if len(batch) == 0 {
		return e.gen.Load(), nil
	}
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	gen, err := e.applyLocked(batch)
	if err != nil {
		return 0, err
	}
	return gen, e.settle()
}

// applyLocked applies a batch up to and including its publish (the caller
// settles). Order: validate; one store write carrying the values and the
// formula cells — if it fails (ENOSPC, a poisoned pager, a read-only linked
// header) nothing is visible and formula registrations, cache, dependency
// graph and bounds are exactly as they were, no half-applied batch; then the
// in-memory mutation; then the cone's pending marks (a cell flagged a moment
// early is harmless, a stale one unflagged is not); then the publish, the one
// step in which readers see the batch, its generation and its own formula
// cells flagged. Between the store write and the publish nothing may read
// through the cache — a block loaded in that window would show the batch under
// the old generation — so that window, and nothing else, holds the
// write-window latch exclusively. Row-oriented regions rewrite each covered
// tuple once.
func (e *Engine) applyLocked(batch []cellWrite) (uint64, error) {
	if err := e.writeGuard(); err != nil {
		return 0, err
	}
	// The last edit to a cell wins: superseded edits never reach the store
	// or the formula registry, so values and formulas cannot reorder.
	last := make(map[sheet.Ref]int, len(batch))
	for i, w := range batch {
		if !w.ref.Valid() {
			return 0, fmt.Errorf("core: cell position (%d,%d) out of range", w.ref.Row, w.ref.Col)
		}
		last[w.ref] = i
	}
	kept := make([]cellWrite, 0, len(last))
	refs := make([]sheet.Ref, 0, len(last))
	writes := make([]model.CellWrite, 0, len(last))
	shown := e.cache.TileReader()
	for i, w := range batch {
		if last[w.ref] != i {
			continue
		}
		cell := sheet.Cell{Value: w.value}
		if w.expr != nil {
			// LazyBrowsing: a formula cell keeps the value it was showing
			// until the executor computes it.
			cell = sheet.Cell{Value: shown.Get(w.ref).Value, Formula: w.src}
		}
		kept = append(kept, w)
		refs = append(refs, w.ref)
		writes = append(writes, model.CellWrite{Row: w.ref.Row, Col: w.ref.Col, Cell: cell})
	}
	if err := shown.Err(); err != nil {
		return 0, err
	}
	e.latches.window.Lock()
	defer e.latches.window.Unlock()
	if err := e.store.UpdateCells(writes); err != nil {
		return 0, err
	}
	for _, w := range kept {
		e.dropFormula(w.ref)
		if w.expr != nil || !w.value.IsEmpty() {
			e.grow(w.ref.Row, w.ref.Col)
		}
	}
	// Formulas register after every overwritten registration is gone, in
	// batch order, cycles and all: the executor gives a formula on a cycle
	// its #CYCLE!.
	var installed []sheet.Ref
	for _, w := range kept {
		if w.expr != nil {
			e.formulasDirty = true
			installed = append(installed, w.ref)
			e.deps.SetFormula(w.ref, w.expr)
		}
	}
	// One propagation pass for the whole batch: everything reading an edited
	// cell is marked here — the members of a cycle the batch broke among them,
	// since they read the edited cell through it; the publish clears the bits
	// of written cells, so it flags the installed ones.
	e.mark(nil, refs)
	e.cache.Publish(writes, nil, installed, &e.gen)
	return e.gen.Load(), nil
}

// commit is the write-through of a chunk: its recomputed values, #CYCLE!
// included, in one store write, then a publish without a generation of its
// own that shows them and clears their pending bits together with those of
// the clear cells, whose value stands, inside the write window. The batch
// reaches the cache as the store took it, uncopied.
func (e *Engine) commit(writes []model.CellWrite, clear []sheet.Ref) error {
	if len(writes)+len(clear) == 0 {
		return nil
	}
	e.latches.window.Lock()
	defer e.latches.window.Unlock()
	if err := e.store.UpdateCells(writes); err != nil {
		return err
	}
	e.cache.Publish(writes, clear, nil, nil)
	return nil
}

// mark sets the pending bits a mutation owes: the seed formulas themselves
// plus every formula transitively reading a seed or a changed cell. It
// returns how many cells were newly marked. The walk moves column segments
// and stops at cells already pending (their dependents are pending too); the
// marker sets a segment's bits a 64-row tile at a time, in bounded holds of
// the pending lock, so marking costs O(runs met + newly marked cells).
func (e *Engine) mark(seeds, changed []sheet.Ref) int {
	m := e.cache.PendingMarker()
	defer m.Release()
	for _, r := range seeds {
		m.Mark(sheet.Range{From: r, To: r}, nil)
	}
	e.deps.Mark(append(changed[:len(changed):len(changed)], seeds...), m.Mark)
	return m.Release()
}

// dropFormula forgets whatever formula ref held.
func (e *Engine) dropFormula(ref sheet.Ref) {
	if _, _, live := e.deps.Formula(ref); live {
		e.formulasDirty = true
		e.deps.Remove(ref)
	}
}

// recalc settles whatever is pending, after marking every formula when all
// is set.
func (e *Engine) recalc(all bool) error {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	if all {
		m := e.cache.PendingMarker()
		e.deps.Runs(func(first sheet.Ref, n int, _ formula.Expr) {
			m.Mark(sheet.Range{From: first, To: sheet.Ref{Row: first.Row + n - 1, Col: first.Col}}, nil)
		})
		m.Release()
	}
	return e.settle()
}
