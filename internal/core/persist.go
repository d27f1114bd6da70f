package core

import (
	"fmt"
	"strings"

	"dataspread/internal/formula"
	"dataspread/internal/model"
	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
)

// The engine state that lives outside the hybrid store is persisted under two
// metadata keys, both length-framed rows of the heap's row codec
// (rdbms.AppendRecord / rdbms.EachRecord) like the store's own manifests:
//
//	engine:<name>           the engine manifest, one record: which store backs
//	                        the sheet (it changes on Optimize), the content
//	                        bounds and the migration sequence counter
//	engine:<name>:formulas  the formula set: a record holding the number of
//	                        formula cells, then one record per fill-down run
//
// The formula set is rewritten only when a formula changed — bounds growth
// from an edit never re-serializes it — and lets Load register each run as it
// is, touching O(runs) state instead of snapshotting the whole sheet to find
// the formulas.
//
// A run is a maximal vertical stretch of one formula filled down a column:
// (column, first row, count, flags, source of the first cell). Runs are
// vertical, heads are ordinary A1 text without the leading '=', and member k
// of a run is its head moved down k rows (formula.MoveDown: every row
// reference that is not $-absolute grows by k). Flags are 0. Flag 1
// (flagCycle) is read, never written: earlier writers kept a cell they showed
// #CYCLE! outside the registry and saved it as a run of one with that flag.
// Load registers such a record like any run of one and settles the cell
// again: a formula that only reads a cycle evaluates. Records
// are in (column, row) order and every run is as long as it can be, so one
// formula population has one encoding. Neither value carries a version (the
// data-file header's covers them); decoding is strict instead, and an error
// names the sheet and the record.

// engineMetaKey is the metadata KV prefix for persisted engine state.
const engineMetaKey = "engine:"

// flagCycle marks a run of one an earlier writer stored as cycle-poisoned.
const flagCycle = 1

// formulasKey is the meta key carrying a sheet's formula set.
func formulasKey(name string) string { return engineMetaKey + name + ":formulas" }

// Save persists the engine into the database and commits the write-ahead
// log: the hybrid store manifest (only its dirty segments), the engine
// manifest, and every dirty page become durable. On an in-memory database
// the manifests are written but the WAL commit is a no-op. Save serializes
// against the recalc dispatcher (which writes the values it computes) but
// does not wait for convergence; on an AsyncRecalc engine call Drain first
// for a converged save.
func (e *Engine) Save() error {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	return e.saveLocked()
}

// saveLocked is Save for callers already holding the edit lock (structural
// edits, the dispatcher's drain-save).
func (e *Engine) saveLocked() error {
	if err := e.saveManifests(); err != nil {
		return err
	}
	return e.db.FlushWAL()
}

// Checkpoint is Save plus a full data-file checkpoint (pages written to
// their slots, WAL truncated).
func (e *Engine) Checkpoint() error {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	if err := e.saveManifests(); err != nil {
		return err
	}
	return e.db.Checkpoint()
}

// encodeFormulaSet serializes the registry's runs in (column, row) order. A
// run that continues the one above it — a run an edit split and a later edit
// refilled — joins it, so only heads of maximal runs are ever rendered to
// text, and an unchanged formula population serializes to identical bytes,
// which the metadata KV's equality check turns into a free commit.
func (e *Engine) encodeFormulaSet() []byte {
	var recs []formulaRun
	e.deps.Runs(func(first sheet.Ref, n int, head formula.Expr) {
		if i := len(recs) - 1; i >= 0 && recs[i].ref.Col == first.Col && recs[i].ref.Row+recs[i].n == first.Row &&
			formula.IsMovedDown(recs[i].head, head, first.Row-recs[i].ref.Row) {
			recs[i].n += n
			return
		}
		recs = append(recs, formulaRun{first, n, head})
	})
	out := rdbms.AppendRecord(nil, rdbms.Row{rdbms.Int(int64(e.deps.Len()))})
	for _, r := range recs {
		out = rdbms.AppendRecord(out, rdbms.Row{rdbms.Int(int64(r.ref.Col)), rdbms.Int(int64(r.ref.Row)),
			rdbms.Int(int64(r.n)), rdbms.Int(0), rdbms.Text(r.head.String())})
	}
	return out
}

// formulaSet is a decoded formula set, ready to register: its runs in
// (column, row) order, and the cells of the flag-1 records among them.
type formulaSet struct {
	runs     []formulaRun
	poisoned []sheet.Ref
}

// formulaRun is one fill-down run: n cells from ref, member k being head
// moved down k rows.
type formulaRun struct {
	ref  sheet.Ref
	n    int
	head formula.Expr
}

// decodeFormulaSet is encodeFormulaSet's inverse over a sheet of the given
// bounds: each head is parsed once, and a run stays one head. Records out of
// order or overlapping, a cell outside the bounds, a run of no cells, an
// unknown flag, a head that does not parse and a cell count other than the
// one the first record holds are all errors — never a shorter set. Nothing is
// sized by that count, which only the bounds limit: what the decode holds
// grows with the records, which the blob's length limits.
func decodeFormulaSet(blob []byte, rows, cols int) (formulaSet, error) {
	var set formulaSet
	total, cells, last := 0, 0, sheet.Ref{}
	n, err := rdbms.EachRecord(blob, func(i int, rec *rdbms.RecordReader) error {
		if i == 0 {
			if total = int(rec.Int()); total < 0 || total > rows*cols {
				return fmt.Errorf("%d formula cells in a %dx%d sheet", total, rows, cols)
			}
			return nil
		}
		col, row, count, flags, src := int(rec.Int()), int(rec.Int()), int(rec.Int()), rec.Int(), rec.Text()
		ref := sheet.Ref{Row: row, Col: col}
		switch {
		case count < 1 || flags&^flagCycle != 0 || flags == flagCycle && count != 1:
			return fmt.Errorf("run of %d cells with flags %d", count, flags)
		case row < 1 || col < 1 || col > cols || count > rows-row+1:
			return fmt.Errorf("run of %d cells from %v in a %dx%d sheet", count, ref, rows, cols)
		case col < last.Col || col == last.Col && row <= last.Row:
			return fmt.Errorf("run from %v after the cell %v", ref, last)
		}
		last = sheet.Ref{Row: row + count - 1, Col: col}
		cells += count
		head, err := formula.Parse(src)
		if err != nil {
			return fmt.Errorf("formula at %v: %w", ref, err)
		}
		set.runs = append(set.runs, formulaRun{ref, count, head})
		if flags == flagCycle {
			set.poisoned = append(set.poisoned, ref)
		}
		return nil
	})
	if err == nil && (n == 0 || cells != total) {
		err = fmt.Errorf("%d formula cells in %d records where %d belong", cells, n, total)
	}
	return set, err
}

func (e *Engine) saveManifests() error {
	if err := e.store.SaveManifest(); err != nil {
		return err
	}
	if e.formulasDirty {
		e.db.PutMeta(formulasKey(e.name), e.encodeFormulaSet())
		e.formulasDirty = false
	}
	rows, cols := e.Bounds()
	e.db.PutMeta(engineMetaKey+e.name, rdbms.AppendRecord(nil, rdbms.Row{
		rdbms.Text(e.store.Name()), rdbms.Int(int64(rows)), rdbms.Int(int64(cols)), rdbms.Int(int64(e.seq))}))
	return nil
}

// SheetNames lists the sheets persisted in the database. Auxiliary keys
// sharing the prefix (the per-sheet formula sets) are excluded by their
// exact ":formulas" suffix, so sheets whose names contain ':' still list.
func SheetNames(db *rdbms.DB) []string {
	keys := db.MetaKeys(engineMetaKey)
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		name := k[len(engineMetaKey):]
		if strings.HasSuffix(name, ":formulas") {
			continue
		}
		out = append(out, name)
	}
	return out
}

// Load reattaches a persisted sheet: the hybrid store is rebuilt from its
// manifest over the already-loaded catalog, and formulas are re-registered
// from the formula set (their cached values were persisted with their cells,
// so nothing but a flag-1 record's cell is recomputed and no sheet snapshot
// is taken — opening touches O(runs) state, not O(cells)). The two halves
// share nothing until registration, so the formula set is read and its heads
// parsed on a goroutine of its own while this one rebuilds the store.
func Load(db *rdbms.DB, name string, opts Options) (*Engine, error) {
	blob, ok, err := db.MetaValue(engineMetaKey + name)
	if err != nil {
		return nil, fmt.Errorf("core: sheet %q manifest unreadable: %w", name, err)
	}
	if !ok {
		return nil, fmt.Errorf("core: no persisted sheet %q", name)
	}
	var store string
	var rows, cols, seq int
	n, err := rdbms.EachRecord(blob, func(_ int, rec *rdbms.RecordReader) error {
		store, rows, cols, seq = rec.Text(), int(rec.Int()), int(rec.Int()), int(rec.Int())
		return nil
	})
	if err == nil && n != 1 {
		err = fmt.Errorf("%d records where 1 belongs", n)
	}
	if err != nil {
		return nil, fmt.Errorf("core: sheet %q manifest: %w", name, err)
	}
	var set formulaSet
	var setErr error
	joined := make(chan struct{})
	go func() {
		defer close(joined)
		set, setErr = loadFormulaSet(db, name, rows, cols)
	}()
	hs, err := model.LoadHybridStore(db, store)
	<-joined
	if err == nil {
		err = setErr
	}
	if err != nil {
		return nil, err
	}
	e := buildEngine(db, name, hs, opts)
	e.seq = seq
	e.grow(rows, cols)
	for _, r := range set.runs {
		e.deps.AddRun(r.ref, r.n, r.head)
	}
	// A flag-1 cell stored #CYCLE! even when it only read a cycle: it
	// settles again, on the caller (synchronous) or the dispatcher.
	e.mark(set.poisoned, nil)
	// An AsyncRecalc engine revalidates a reloaded sheet in the background:
	// persisted values can lag persisted formulas (the saving session may
	// have crashed between a formula-durable edit and its next drain-save),
	// so every formula recalculates — viewport-first, like any other
	// recalculation — instead of the open trusting the stored values or
	// blocking on a full recompute. A synchronous engine saved nothing it
	// had not computed.
	return e.launch(e.sched.async && e.deps.Len() > 0)
}

// loadFormulaSet reads and decodes a sheet's formula set (empty when the
// sheet never saved one).
func loadFormulaSet(db *rdbms.DB, name string, rows, cols int) (formulaSet, error) {
	blob, ok, err := db.MetaValue(formulasKey(name))
	if err != nil {
		// An unreadable formula set must fail the load: treating it as
		// absent would silently demote every formula to a static value.
		return formulaSet{}, fmt.Errorf("core: sheet %q formula set unreadable: %w", name, err)
	}
	if !ok {
		return formulaSet{}, nil
	}
	set, err := decodeFormulaSet(blob, rows, cols)
	if err != nil {
		err = fmt.Errorf("core: sheet %q formula set: %w", name, err)
	}
	return set, err
}
