// Package model implements the physical data models of Section IV-B — ROM,
// COM, RCV and TOM translators — over the rdbms substrate, with positional
// access provided by internal/posmap. Each translator serves one
// rectangular region of a spreadsheet in region-local 1-based coordinates;
// the HybridStore multiplexes a whole sheet across a set of translators
// according to a hybrid.Decomposition (the "hybrid translator" of the
// DataSpread architecture, Section VI).
package model

import (
	"fmt"

	"dataspread/internal/hybrid"
	"dataspread/internal/posmap"
	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
)

// Translator is the "collection of cells" abstraction of Section VI: a
// region of the sheet stored physically in the database, with one read
// (getCells of Section III, as a visitor) and one write (updateCells).
// Coordinates are region-local and 1-based.
type Translator interface {
	// Kind identifies the physical model.
	Kind() hybrid.Kind
	// Rows and Cols return the region's current logical dimensions.
	Rows() int
	Cols() int
	// ReadCells is the range read (CellReader): fn sees each non-blank cell
	// of the local range g once, at its offset from g's top-left corner. A
	// point read is the 1×1 range; GetCells builds a grid from it.
	CellReader
	// UpdateCells writes a batch of cells, blanks clearing. Writes to one
	// cell apply in batch order (the last wins), and a write past the extent
	// on an axis the model grows materializes the region up to it. Every
	// refusal — a position out of range, a linked region's header row, a
	// formula or a mistyped value in a linked region, an RCV column past its
	// surrogate capacity — is decided for the whole batch before the first
	// tuple is written; after that only I/O can fail. Row-oriented models
	// rewrite each touched tuple once (one "query" per row, as in the
	// paper's Figure 22 setup), and append a row past the extent as one
	// built tuple.
	UpdateCells(ws []CellWrite) error
	// Shift is the structural edit, in depgraph.Shift's convention on the
	// axis rows selects: delta > 0 makes room for delta blank rows or columns
	// before local index at (at = extent+1 appends), delta < 0 removes the
	// -delta starting at at — one count-aware positional shift either way.
	Shift(rows bool, at, delta int) error
	// StorageBytes reports the physical footprint of the region.
	StorageBytes() int64
	// Drop removes the backing tables.
	Drop() error
}

// CellWrite is one cell write of a batch: in absolute coordinates at the
// HybridStore, region-local at a Translator. It is sheet's type, so a batch
// passes from the store to the cache's publish as it is.
type CellWrite = sheet.CellWrite

// refuser is what every translator implements besides Translator: the
// refusals UpdateCells would meet on ws, decided without writing. The store
// asks each region of a batch before it writes to any.
type refuser interface {
	refuse(ws []CellWrite) error
}

// Config carries construction parameters shared by the translators.
type Config struct {
	DB *rdbms.DB
	// Scheme selects the positional mapping ("hierarchical" by default).
	Scheme string
	// TableName is the backing table's name; it must be unique per
	// translator instance.
	TableName string
}

func (c Config) scheme() string {
	if c.Scheme == "" {
		return "hierarchical"
	}
	return c.Scheme
}

// checkShift validates a Shift against the region's extent on its axis: an
// insert goes before an index in 1..extent+1, a delete covers indexes inside
// 1..extent.
func checkShift(kind hybrid.Kind, rows bool, at, delta, extent int) error {
	axis := "column"
	if rows {
		axis = "row"
	}
	switch {
	case delta == 0:
		return fmt.Errorf("model: %v shift of zero %ss", kind, axis)
	case delta > 0 && (at < 1 || at > extent+1):
		return fmt.Errorf("model: %v insert before %s %d out of range", kind, axis, at)
	case delta < 0 && (at < 1 || at-delta-1 > extent):
		return fmt.Errorf("model: %v delete %ss %d..%d out of range", kind, axis, at, at-delta-1)
	}
	return nil
}

// shiftTuples is the row shift of a tuple-per-row region (ROM, TOM): an
// insert writes delta empty tuples and splices their pointers in with one
// positional-map shift; a delete reads every tuple of the band, deletes
// them, and only then removes the band from the map in one pass, so an
// unreadable page refuses the delete with the map and the heap unchanged.
// No other tuple is touched — no cascading updates (Section V).
func shiftTuples(table *rdbms.Table, rowMap *posmap.Tracked, at, delta int) error {
	if delta < 0 {
		rids := rowMap.FetchRange(at, -delta)
		if err := readAll(table, rids); err != nil {
			return fmt.Errorf("model: row delete: %w", err)
		}
		for _, rid := range rids {
			if err := table.Delete(rid); err != nil {
				return fmt.Errorf("model: row delete: %w", err)
			}
		}
		rowMap.DeleteMany(at, -delta)
		return nil
	}
	rids := make([]rdbms.RID, delta)
	for i := range rids {
		rid, err := table.Insert(make(rdbms.Row, table.Schema.Arity()))
		if err != nil {
			return err
		}
		rids[i] = rid
	}
	if !rowMap.InsertMany(at, rids) {
		return fmt.Errorf("model: %s: positional insert failed", table.Name)
	}
	return nil
}

// readAll reads every tuple at rids, so a delete can refuse an unreadable
// one before it changes anything.
func readAll(table *rdbms.Table, rids []rdbms.RID) error {
	var row rdbms.Row
	for _, rid := range rids {
		var err error
		if row, err = table.GetInto(rid, row); err != nil {
			return err
		}
	}
	return nil
}

func (c Config) validate() error {
	if c.DB == nil {
		return fmt.Errorf("model: Config.DB is required")
	}
	if c.TableName == "" {
		return fmt.Errorf("model: Config.TableName is required")
	}
	return nil
}

// idMap adapts posmap.Map (which stores tuple pointers) to carry stable
// 48-bit surrogate identifiers, used by RCV where one ordered position
// (a row or column) corresponds to many tuples rather than one. The
// surrogate is packed into the RID's 32-bit page and 16-bit slot fields.
type idMap struct{ m *posmap.Tracked }

func newIDMap(scheme string) idMap { return idMap{m: posmap.NewTracked(scheme)} }

func idToRID(id int64) rdbms.RID {
	return rdbms.RID{Page: rdbms.PageID(uint32(id >> 16)), Slot: uint16(id & 0xFFFF)}
}

func ridToID(r rdbms.RID) int64 { return int64(r.Page)<<16 | int64(r.Slot) }

func (im idMap) Len() int { return im.m.Len() }

func (im idMap) At(pos int) (int64, bool) {
	rid, ok := im.m.Fetch(pos)
	if !ok {
		return 0, false
	}
	return ridToID(rid), true
}

func (im idMap) Range(pos, count int) []int64 {
	rids := im.m.FetchRange(pos, count)
	out := make([]int64, len(rids))
	for i, r := range rids {
		out[i] = ridToID(r)
	}
	return out
}

func (im idMap) Insert(pos int, id int64) bool { return im.m.Insert(pos, idToRID(id)) }

func (im idMap) InsertMany(pos int, ids []int64) bool {
	rids := make([]rdbms.RID, len(ids))
	for i, id := range ids {
		rids[i] = idToRID(id)
	}
	return im.m.InsertMany(pos, rids)
}

func (im idMap) DeleteMany(pos, count int) { im.m.DeleteMany(pos, count) }
