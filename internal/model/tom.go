package model

import (
	"errors"
	"fmt"

	"dataspread/internal/hybrid"
	"dataspread/internal/posmap"
	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
)

// TOM is the table-oriented translator: a database-linked table
// (Section IV-B "Database-Linked Tables", Section VI "TOM is handled as a
// special case of ROM"). The region's schema is owned by the database
// catalog; spreadsheet edits translate into typed DML on the linked table,
// and external DML is re-synchronized with Refresh. Row 1 of the region
// renders the column headers; column structure is fixed (linked relations
// do not gain or lose attributes from the grid side).
type TOM struct {
	db     *rdbms.Table
	rowMap *posmap.Tracked
	// headers reports whether the region's first row shows column names.
	headers bool
	// row is UpdateCells' tuple buffer, the region's single writer's alone.
	row rdbms.Row
}

// LinkTOM wraps an existing database table as a linked region. Its initial
// row order is heap order, matching what linkTable displays on first load.
// A table whose heap cannot be read whole is not linked.
func LinkTOM(table *rdbms.Table, headers bool) (*TOM, error) {
	t := &TOM{db: table, rowMap: posmap.NewTracked(), headers: headers}
	if err := t.Refresh(); err != nil {
		return nil, err
	}
	return t, nil
}

// Refresh rebuilds the positional map from the current table contents
// (two-way sync after external DML). A heap that cannot be read whole
// leaves the map as it was and returns the error.
func (t *TOM) Refresh() error {
	rowMap := posmap.NewTracked()
	if err := t.db.Scan(func(rid rdbms.RID, _ rdbms.Row) bool {
		rowMap.Insert(rowMap.Len()+1, rid)
		return true
	}); err != nil {
		return fmt.Errorf("model: link %q: %w", t.db.Name, err)
	}
	t.rowMap = rowMap
	return nil
}

// Table exposes the linked catalog table.
func (t *TOM) Table() *rdbms.Table { return t.db }

// Kind implements Translator.
func (t *TOM) Kind() hybrid.Kind { return hybrid.TOM }

// Rows implements Translator: data rows plus the header row if shown.
func (t *TOM) Rows() int { return t.rowMap.Len() + t.headerRows() }

// Cols implements Translator.
func (t *TOM) Cols() int { return t.db.Schema.Arity() }

func (t *TOM) headerRows() int {
	if t.headers {
		return 1
	}
	return 0
}

// ReadCells implements Translator: the header row renders from the schema,
// and the data rows flow through the batched read path — one positional-map
// range walk, one buffer-pool pin per heap page, only the covered attributes
// decoded.
func (t *TOM) ReadCells(g sheet.Range, fn func(i, j int, v sheet.Value)) error {
	if g.From.Col < 1 || g.To.Col > t.Cols() {
		return fmt.Errorf("model: TOM columns %d..%d out of range", g.From.Col, g.To.Col)
	}
	cols := g.Cols()
	hdr := t.headerRows()
	if t.headers && g.From.Row <= 1 && g.To.Row >= 1 {
		for j := 0; j < cols; j++ {
			fn(1-g.From.Row, j, sheet.Str(t.db.Schema.Cols[g.From.Col+j-1].Name))
		}
	}
	startData := max(g.From.Row-hdr, 1)
	count := g.To.Row - hdr - startData + 1
	if count <= 0 {
		return nil
	}
	proj := make([]int, cols)
	for j := range proj {
		proj[j] = g.From.Col + j - 1
	}
	bufp := getRIDBuf()
	defer putRIDBuf(bufp)
	rids := t.rowMap.FetchRangeInto(*bufp, startData, count)
	*bufp = rids
	rowOff := startData + hdr - g.From.Row
	err := t.db.GetMany(rids, proj, func(i int, vals rdbms.Row) error {
		for j, d := range vals {
			if v := DatumToValue(d); !v.IsEmpty() {
				fn(rowOff+i, j, v)
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("model: TOM range read: %w", err)
	}
	return nil
}

// datums converts a batch into the linked relation's types, refusing a write
// to a column or data row the table does not have, to the header row, of a
// formula, or of a value its column's type rejects.
func (t *TOM) datums(ws []CellWrite) ([]rdbms.Datum, error) {
	ds := make([]rdbms.Datum, len(ws))
	for k, w := range ws {
		switch dataRow := w.Row - t.headerRows(); {
		case w.Col < 1 || w.Col > t.Cols():
			return nil, fmt.Errorf("model: TOM column %d out of range", w.Col)
		case t.headers && w.Row == 1:
			return nil, fmt.Errorf("model: TOM header row is read-only")
		case w.Cell.Formula != "":
			return nil, fmt.Errorf("model: TOM cells cannot hold formulas (linked table data only)")
		case dataRow < 1 || dataRow > t.rowMap.Len():
			return nil, fmt.Errorf("model: TOM row %d out of range", w.Row)
		}
		d, err := ValueToDatum(w.Cell.Value, t.db.Schema.Cols[w.Col-1].Type)
		if err != nil {
			return nil, err
		}
		ds[k] = d
	}
	return ds, nil
}

func (t *TOM) refuse(ws []CellWrite) error {
	_, err := t.datums(ws)
	return err
}

// UpdateCells implements Translator: typed in-place updates of the linked
// relation — the two-way synchronization of linkTable — one per write, once
// the whole batch converted.
func (t *TOM) UpdateCells(ws []CellWrite) error {
	ds, err := t.datums(ws)
	if err != nil {
		return err
	}
	for k, w := range ws {
		dataRow := w.Row - t.headerRows()
		rid, _ := t.rowMap.Fetch(dataRow)
		tuple, err := t.db.GetInto(rid, t.row)
		if err != nil {
			return fmt.Errorf("model: TOM row %d: %w", w.Row, err)
		}
		t.row = tuple
		tuple[w.Col-1] = ds[k]
		newRID, err := t.db.Update(rid, tuple)
		if err != nil {
			return err
		}
		if newRID != rid {
			t.rowMap.Update(dataRow, newRID)
		}
	}
	return nil
}

// The refusals of a linked region's structural edits: the relation's
// attributes are the catalog's, not the grid's, and the header row shows
// them.
var (
	errFixedSchema = errors.New("model: TOM regions have a fixed schema; alter the table instead")
	errHeaderRow   = errors.New("model: TOM header row cannot be deleted")
)

// Shift implements Translator: rows become NULL tuples inserted into, or
// tuples deleted from, the linked table (shiftTuples). The header row, when
// shown, cannot be deleted or displaced, and columns do not shift at all.
func (t *TOM) Shift(rows bool, at, delta int) error {
	if err := t.refuseShift(rows, at, delta); err != nil {
		return err
	}
	return shiftTuples(t.db, t.rowMap, at-t.headerRows(), delta)
}

func (t *TOM) refuseShift(rows bool, at, delta int) error {
	switch {
	case !rows:
		return errFixedSchema
	case t.headers && delta < 0 && at <= 1:
		return errHeaderRow
	}
	return refuseRows(hybrid.TOM, t.db, t.rowMap, at-t.headerRows(), delta)
}

// StorageBytes implements Translator.
func (t *TOM) StorageBytes() int64 { return t.db.StorageBytes() }

// Drop implements Translator. Linked tables outlive their link; dropping
// the region only severs it.
func (t *TOM) Drop() error { return nil }

// DatumToValue converts a database datum to a spreadsheet value: the one
// Datum<->Value conversion, with ValueToDatum, for linked tables, sql(...)
// parameters and relational results.
func DatumToValue(d rdbms.Datum) sheet.Value {
	switch d.Type() {
	case rdbms.DTNull:
		return sheet.Empty
	case rdbms.DTInt, rdbms.DTFloat:
		return sheet.Number(d.Float64())
	case rdbms.DTBool:
		return sheet.Bool(d.BoolVal())
	}
	return sheet.Str(d.Str())
}

// ValueToDatum converts a spreadsheet value into the column's type.
func ValueToDatum(v sheet.Value, t rdbms.DType) (rdbms.Datum, error) {
	if v.IsEmpty() {
		return rdbms.Null, nil
	}
	switch t {
	case rdbms.DTInt:
		f, ok := v.Num()
		if !ok {
			return rdbms.Null, fmt.Errorf("model: %q is not an integer", v.Text())
		}
		return rdbms.Int(int64(f)), nil
	case rdbms.DTFloat:
		f, ok := v.Num()
		if !ok {
			return rdbms.Null, fmt.Errorf("model: %q is not a number", v.Text())
		}
		return rdbms.Float(f), nil
	case rdbms.DTBool:
		b, ok := v.BoolVal()
		if !ok {
			return rdbms.Null, fmt.Errorf("model: %q is not a boolean", v.Text())
		}
		return rdbms.Bool(b), nil
	}
	return rdbms.Text(v.Text()), nil
}
