package model

import (
	"fmt"
	"slices"

	"dataspread/internal/hybrid"
	"dataspread/internal/posmap"
	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
)

// ROM is the row-oriented translator (Section IV-B): one database tuple per
// spreadsheet row. There is no stored RowID attribute — row order lives
// exclusively in the positional map, which is what eliminates cascading
// updates (Section V). Column order is kept in colPos, a display-position
// to physical-attribute indirection, so column inserts/deletes never
// rewrite tuples.
type ROM struct {
	cfg    Config
	table  *rdbms.Table
	rowMap *posmap.Tracked
	// colPos[display-1] = physical attribute index in the table schema.
	colPos []int
	// nextCol numbers physical attributes (they are append-only; deleted
	// display columns orphan their attribute, like a dropped column in
	// PostgreSQL).
	nextCol int
	// row is writeRow's tuple buffer, reused row after row: only the
	// region's single writer touches it, and the table copies what it stores.
	row rdbms.Row
}

// NewROM creates an empty ROM region of the given width.
func NewROM(cfg Config, cols int) (*ROM, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cols < 1 {
		return nil, fmt.Errorf("model: ROM needs at least one column")
	}
	schema := rdbms.Schema{}
	for i := 0; i < cols; i++ {
		schema.Cols = append(schema.Cols, rdbms.Column{Name: colName(i), Type: rdbms.DTAny})
	}
	t, err := cfg.DB.CreateTable(cfg.TableName, schema)
	if err != nil {
		return nil, err
	}
	r := &ROM{cfg: cfg, table: t, rowMap: posmap.NewTracked(), nextCol: cols}
	for i := 0; i < cols; i++ {
		r.colPos = append(r.colPos, i)
	}
	return r, nil
}

func colName(i int) string { return fmt.Sprintf("c%d", i) }

// Kind implements Translator.
func (r *ROM) Kind() hybrid.Kind { return hybrid.ROM }

// Rows implements Translator.
func (r *ROM) Rows() int { return r.rowMap.Len() }

// Cols implements Translator.
func (r *ROM) Cols() int { return len(r.colPos) }

// ReadCells implements Translator. This is the scrolling hot path: the
// range's tuple pointers come from one positional-map range walk into a
// pooled buffer, the rows are fetched with one buffer-pool pin per heap page
// (rdbms.Table.GetMany), and only the attributes backing the range's columns
// are decoded — a k-column range of an n-column region costs O(k) attribute
// materializations per row, not O(n) — each straight to fn.
func (r *ROM) ReadCells(g sheet.Range, fn func(i, j int, v sheet.Value)) error {
	// Projection: physical attribute index -> range column offset, sorted by
	// physical index as the partial decoder requires; a tile's columns fit
	// the stack buffers.
	var projBuf, offsBuf [16]int
	proj, offs := projBuf[:0], offsBuf[:0]
	for j := 0; j < g.Cols(); j++ {
		if col := g.From.Col + j; col >= 1 && col <= len(r.colPos) {
			proj = append(proj, r.colPos[col-1])
			offs = append(offs, j)
		}
	}
	sortProjPairs(proj, offs)
	bufp := getRIDBuf()
	defer putRIDBuf(bufp)
	rids := r.rowMap.FetchRangeInto(*bufp, g.From.Row, g.Rows())
	*bufp = rids
	err := r.table.GetMany(rids, proj, func(i int, vals rdbms.Row) error {
		for k, j := range offs {
			v, err := cellAt(r.table, rids[i], proj[k], vals[k])
			if err != nil {
				return err
			}
			if !v.IsEmpty() {
				fn(i, j, v)
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("model: ROM range read: %w", err)
	}
	return nil
}

// UpdateCells implements Translator. The batch is grouped by row with one
// stable bucket pass over its row span — batch order kept within a row, so
// the last write to a cell wins — and each touched tuple is written once. Rows
// grow on demand: a row past the extent is appended as one built tuple, the
// unwritten rows before it as empty ones.
func (r *ROM) UpdateCells(ws []CellWrite) error {
	if err := r.refuse(ws); err != nil || len(ws) == 0 {
		return err
	}
	lo, hi := ws[0].Row, ws[0].Row
	for _, w := range ws {
		lo, hi = min(lo, w.Row), max(hi, w.Row)
	}
	// Counting sort on the row: ends[b] counts row lo+b's writes, then holds
	// where its bucket starts in order, then — every write placed — where it
	// ends.
	ends := make([]int32, hi-lo+1)
	for _, w := range ws {
		ends[w.Row-lo]++
	}
	sum := int32(0)
	for b, n := range ends {
		ends[b], sum = sum, sum+n
	}
	order := make([]int32, len(ws))
	for i, w := range ws {
		order[ends[w.Row-lo]] = int32(i)
		ends[w.Row-lo]++
	}
	start := int32(0)
	for b, end := range ends {
		if start < end {
			if err := r.writeRow(lo+b, ws, order[start:end]); err != nil {
				return err
			}
		}
		start = end
	}
	return nil
}

// refuse refuses a batch with a write outside the region's columns or above
// its first row.
func (r *ROM) refuse(ws []CellWrite) error {
	for _, w := range ws {
		if w.Row < 1 || w.Col < 1 || w.Col > len(r.colPos) {
			return fmt.Errorf("model: ROM cell (%d,%d) out of range", w.Row, w.Col)
		}
	}
	return nil
}

// writeRow applies the writes ws[k], k in group, to one row with one tuple
// write: an update of the row's tuple, or the insert of a built one past the
// extent.
func (r *ROM) writeRow(row int, ws []CellWrite, group []int32) error {
	for r.rowMap.Len() < row-1 {
		if err := r.appendTuple(make(rdbms.Row, r.table.Schema.Arity())); err != nil {
			return err
		}
	}
	tuple := r.row[:0]
	rid, exists := r.rowMap.Fetch(row)
	if exists {
		var err error
		if tuple, err = r.table.GetInto(rid, tuple); err != nil {
			return fmt.Errorf("model: ROM row %d: %w", row, err)
		}
	}
	tuple = padRow(tuple, r.table.Schema.Arity())
	r.row = tuple
	for _, k := range group {
		tuple[r.colPos[ws[k].Col-1]] = encodeCell(ws[k].Cell)
	}
	if !exists {
		return r.appendTuple(tuple)
	}
	newRID, err := r.table.Update(rid, tuple)
	if err != nil {
		return err
	}
	if newRID != rid {
		r.rowMap.Update(row, newRID)
	}
	return nil
}

// appendTuple inserts a tuple as the region's new last row.
func (r *ROM) appendTuple(tuple rdbms.Row) error {
	rid, err := r.table.Insert(tuple)
	if err != nil {
		return err
	}
	if !r.rowMap.Insert(r.rowMap.Len()+1, rid) {
		return fmt.Errorf("model: ROM rowMap append failed")
	}
	return nil
}

// Shift implements Translator. Rows shift as tuples (shiftTuples). A column
// insert appends physical attributes and splices them into the display order
// with one copy; a column delete drops the display mapping and orphans the
// attributes (reclaimed only on migration, like a dropped column in a row
// store). Either way no existing tuple is rewritten: reads pad missing
// attributes with NULL.
func (r *ROM) Shift(rows bool, at, delta int) error {
	if err := r.refuseShift(rows, at, delta); err != nil {
		return err
	}
	if rows {
		return shiftTuples(r.table, r.rowMap, at, delta)
	}
	at--
	if delta < 0 {
		r.colPos = append(r.colPos[:at], r.colPos[at-delta:]...)
		return nil
	}
	phys := make([]int, delta)
	for i := range phys {
		if err := r.table.AddColumn(rdbms.Column{Name: colName(r.nextCol), Type: rdbms.DTAny}); err != nil {
			return err
		}
		r.nextCol++
		phys[i] = r.table.Schema.Arity() - 1
	}
	r.colPos = slices.Insert(r.colPos, at, phys...)
	return nil
}

func (r *ROM) refuseShift(rows bool, at, delta int) error {
	if rows {
		return refuseRows(hybrid.ROM, r.table, r.rowMap, at, delta)
	}
	if -delta == len(r.colPos) {
		return fmt.Errorf("model: ROM cannot delete its last column")
	}
	return checkShift(hybrid.ROM, rows, at, delta, len(r.colPos))
}

// StorageBytes implements Translator.
func (r *ROM) StorageBytes() int64 { return r.table.StorageBytes() }

// Drop implements Translator.
func (r *ROM) Drop() error { return r.cfg.DB.DropTable(r.cfg.TableName) }

// padRow pads a short (pre-AddColumn) tuple with NULLs to arity.
func padRow(row rdbms.Row, arity int) rdbms.Row {
	for len(row) < arity {
		row = append(row, rdbms.Null)
	}
	return row
}
