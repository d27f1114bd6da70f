package core

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"dataspread/internal/model"
	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
)

// engineMetaKey is the metadata KV prefix for persisted engine state.
const engineMetaKey = "engine:"

// engineFormatVersion is the one engine manifest layout this build reads
// and writes (the formula set is persisted beside it); Load refuses any
// other.
const engineFormatVersion = 2

// engineManifest is the engine state that lives outside the hybrid store:
// which store backs the sheet (it changes on Optimize), the content bounds
// and the migration sequence counter. The formula cell set (refs + source
// text) is persisted alongside under its own meta key
// ("engine:<name>:formulas"), rewritten only when a formula changed —
// bounds growth from an edit never re-serializes the formula population.
// Persisting the formulas lets Load re-register them and rebuild the
// dependency graph directly, touching O(formulas) state instead of
// snapshotting the whole sheet to find them.
type engineManifest struct {
	Version int    `json:"version,omitempty"`
	Store   string `json:"store"`
	MaxRow  int    `json:"max_row"`
	MaxCol  int    `json:"max_col"`
	Seq     int    `json:"seq"`
}

// formulasKey is the meta key carrying a sheet's formula set.
func formulasKey(name string) string { return engineMetaKey + name + ":formulas" }

// formulaManifest records one formula cell: position and source (without
// the leading '='). Cyc marks cycle-poisoned cells, which Load restores
// into the engine's cycle set instead of registering them — a reloaded
// session keeps exactly the saving session's graph.
type formulaManifest struct {
	Row int    `json:"r"`
	Col int    `json:"c"`
	Src string `json:"f"`
	Cyc bool   `json:"cyc,omitempty"`
}

// Save persists the engine into the database and commits the write-ahead
// log: the hybrid store manifest (only its dirty segments), the engine
// manifest, and every dirty page become durable. On an in-memory database
// the manifests are written but the WAL commit is a no-op. Save serializes
// against the recalc dispatcher (which mutates the formula maps when it
// poisons cycles) but does not wait for convergence; on an AsyncRecalc
// engine call Drain first for a converged save.
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

// formulaManifests serializes the live formula set: registered expressions
// plus cycle-poisoned cells (which the dependency graph does not track but
// whose source must survive a reload), sorted for deterministic output —
// an unchanged formula population serializes to identical bytes, which the
// metadata KV's equality check turns into a free commit.
func (e *Engine) formulaManifests() []formulaManifest {
	out := make([]formulaManifest, 0, len(e.exprs)+len(e.cycles))
	for ref, expr := range e.exprs {
		out = append(out, formulaManifest{Row: ref.Row, Col: ref.Col, Src: expr.String()})
	}
	for ref, src := range e.cycles {
		out = append(out, formulaManifest{Row: ref.Row, Col: ref.Col, Src: src, Cyc: true})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Row != out[j].Row {
			return out[i].Row < out[j].Row
		}
		return out[i].Col < out[j].Col
	})
	return out
}

func (e *Engine) saveManifests() error {
	if err := e.store.SaveManifest(); err != nil {
		return err
	}
	if e.formulasDirty {
		blob, err := json.Marshal(e.formulaManifests())
		if err != nil {
			return err
		}
		e.db.PutMeta(formulasKey(e.name), blob)
		e.formulasDirty = false
	}
	rows, cols := e.Bounds()
	blob, err := json.Marshal(engineManifest{
		Version: engineFormatVersion,
		Store:   e.store.Name(),
		MaxRow:  rows,
		MaxCol:  cols,
		Seq:     e.seq,
	})
	if err != nil {
		return err
	}
	e.db.PutMeta(engineMetaKey+e.name, blob)
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
// from the manifest's formula set (their cached values were persisted with
// their cells, so nothing is recomputed and no sheet snapshot is taken —
// opening touches O(formulas) state, not O(cells)).
func Load(db *rdbms.DB, name string, opts Options) (*Engine, error) {
	blob, ok, err := db.MetaValue(engineMetaKey + name)
	if err != nil {
		return nil, fmt.Errorf("core: sheet %q manifest unreadable: %w", name, err)
	}
	if !ok {
		return nil, fmt.Errorf("core: no persisted sheet %q", name)
	}
	var m engineManifest
	if err := json.Unmarshal(blob, &m); err != nil {
		return nil, fmt.Errorf("core: corrupt manifest for sheet %q: %w", name, err)
	}
	if m.Version != engineFormatVersion {
		return nil, fmt.Errorf("core: sheet %q manifest is format version %d, this build reads only version %d",
			name, m.Version, engineFormatVersion)
	}
	hs, err := model.LoadHybridStore(db, m.Store)
	if err != nil {
		return nil, err
	}
	e := buildEngine(db, name, hs, opts)
	e.seq = m.Seq
	e.grow(m.MaxRow, m.MaxCol)
	fblob, ok, err := db.MetaValue(formulasKey(name))
	if err != nil {
		// An unreadable formula set must fail the load: treating it as
		// absent would silently demote every formula to a static value.
		return nil, fmt.Errorf("core: sheet %q formula set unreadable: %w", name, err)
	}
	if ok {
		var formulas []formulaManifest
		if err := json.Unmarshal(fblob, &formulas); err != nil {
			return nil, fmt.Errorf("core: corrupt formula set for sheet %q: %w", name, err)
		}
		for _, f := range formulas {
			ref := sheet.Ref{Row: f.Row, Col: f.Col}
			if f.Cyc {
				// Poisoned at save time: restore into the cycle set
				// (value #CYCLE! is in the stored cell), not the graph.
				e.cycles[ref] = f.Src
				continue
			}
			if err := e.registerFormula(ref, f.Src); err != nil {
				return nil, err
			}
		}
	}
	// The registered state is by construction identical to the stored
	// blob: the first save after a reload has nothing to re-serialize.
	e.formulasDirty = false
	// An AsyncRecalc engine revalidates a reloaded sheet in the background:
	// persisted values can lag persisted formulas (the saving session may
	// have crashed between a formula-durable edit and its next drain-save),
	// so every formula recalculates — viewport-first, like any other
	// recalculation — instead of the open trusting the stored values or
	// blocking on a full recompute. A synchronous engine saved nothing it
	// had not computed.
	if e.sched.async && len(e.exprs) > 0 {
		return e, e.RecalcAll()
	}
	return e, nil
}

// Recover heals a poisoned database in place (rdbms.DB.Recover: fresh file
// handles, WAL redo, full page verification) and reattaches one sheet from
// the recovered state. Recovery rolls visible state back to the last
// durably committed batch, so every Engine opened before the call is stale
// and must be replaced by the returned one. A sheet that had never been
// flushed before the fault simply does not exist in the recovered catalog;
// it is recreated empty rather than failing, mirroring an open-or-create.
func Recover(db *rdbms.DB, name string, opts Options) (*Engine, error) {
	if err := db.Recover(); err != nil {
		return nil, err
	}
	for _, n := range SheetNames(db) {
		if n == name {
			return Load(db, name, opts)
		}
	}
	return New(db, name, opts)
}
