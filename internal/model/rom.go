package model

import (
	"fmt"

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
	r := &ROM{cfg: cfg, table: t, rowMap: posmap.NewTracked(cfg.scheme()), nextCol: cols}
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

// Get implements Translator.
func (r *ROM) Get(row, col int) (sheet.Cell, error) {
	if col < 1 || col > len(r.colPos) {
		return sheet.Cell{}, fmt.Errorf("model: ROM column %d out of range", col)
	}
	rid, ok := r.rowMap.Fetch(row)
	if !ok {
		return sheet.Cell{}, nil // row not materialized: blank
	}
	tuple, ok := r.table.Get(rid)
	if !ok {
		return sheet.Cell{}, fmt.Errorf("model: ROM row %d dangling pointer %v", row, rid)
	}
	return cellAt(r.table, rid, r.colPos[col-1], attr(tuple, r.colPos[col-1]))
}

// GetCells implements Translator. This is the scrolling hot path: the
// viewport's tuple pointers come from one positional-map range walk into a
// pooled buffer, the rows are fetched with one buffer-pool pin per heap page
// (rdbms.Table.GetMany), and only the attributes backing the viewport's
// columns are decoded — a k-column viewport of an n-column region costs O(k)
// attribute materializations per row, not O(n).
func (r *ROM) GetCells(g sheet.Range) ([][]sheet.Cell, error) {
	rows, cols := g.Rows(), g.Cols()
	out := newCellGrid(rows, cols)
	// Projection: physical attribute index -> viewport column offset,
	// sorted by physical index as the partial decoder requires.
	proj := make([]int, 0, cols)
	offs := make([]int, 0, cols)
	for j := 0; j < cols; j++ {
		if col := g.From.Col + j; col >= 1 && col <= len(r.colPos) {
			proj = append(proj, r.colPos[col-1])
			offs = append(offs, j)
		}
	}
	sortProjPairs(proj, offs)
	bufp := getRIDBuf()
	defer putRIDBuf(bufp)
	rids := r.rowMap.FetchRangeInto(*bufp, g.From.Row, rows)
	*bufp = rids
	err := r.table.GetMany(rids, proj, func(i int, vals rdbms.Row) error {
		rowOut := out[i]
		for k, j := range offs {
			c, err := cellAt(r.table, rids[i], proj[k], vals[k])
			if err != nil {
				return err
			}
			rowOut[j] = c
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("model: ROM range read: %w", err)
	}
	return out, nil
}

// Update implements Translator. Rows are materialized on demand: writing to
// a row beyond the current extent appends empty tuples up to it.
func (r *ROM) Update(row, col int, c sheet.Cell) error {
	return r.UpdateRowCells(row, []int{col}, []sheet.Cell{c})
}

// UpdateRect implements Translator: one tuple rewrite per covered row.
func (r *ROM) UpdateRect(g sheet.Range, cells [][]sheet.Cell) error {
	cols := make([]int, g.Cols())
	for j := range cols {
		cols[j] = g.From.Col + j
	}
	for i, row := range cells {
		if err := r.UpdateRowCells(g.From.Row+i, cols, row); err != nil {
			return err
		}
	}
	return nil
}

// InsertRowAfter implements Translator: one tuple insert plus one
// positional-map insert — no cascading updates.
func (r *ROM) InsertRowAfter(row int) error { return r.InsertRowsAfter(row, 1) }

// InsertRowsAfter implements Translator: count tuple inserts plus one
// count-aware positional-map shift.
func (r *ROM) InsertRowsAfter(row, count int) error {
	if row < 0 || row > r.rowMap.Len() {
		return fmt.Errorf("model: ROM insert after row %d out of range", row)
	}
	if count < 1 {
		return fmt.Errorf("model: ROM insert of %d rows", count)
	}
	rids := make([]rdbms.RID, count)
	for i := range rids {
		rid, err := r.table.Insert(r.emptyRow())
		if err != nil {
			return err
		}
		rids[i] = rid
	}
	if !r.rowMap.InsertMany(row+1, rids) {
		return fmt.Errorf("model: ROM rowMap insert failed")
	}
	return nil
}

// DeleteRow implements Translator.
func (r *ROM) DeleteRow(row int) error { return r.DeleteRows(row, 1) }

// DeleteRows implements Translator: one positional-map pass removes the
// band, then the freed tuples are deleted from the heap.
func (r *ROM) DeleteRows(row, count int) error {
	if count < 1 {
		return fmt.Errorf("model: ROM delete of %d rows", count)
	}
	if row < 1 || row+count-1 > r.rowMap.Len() {
		return fmt.Errorf("model: ROM delete rows %d..%d out of range", row, row+count-1)
	}
	rids := r.rowMap.DeleteMany(row, count)
	if len(rids) != count {
		return fmt.Errorf("model: ROM delete of missing row %d", row+len(rids))
	}
	for _, rid := range rids {
		if !r.table.Delete(rid) {
			return fmt.Errorf("model: ROM dangling pointer %v on delete", rid)
		}
	}
	return nil
}

// InsertColAfter implements Translator: appends a physical attribute and
// splices it into the display order. Existing tuples are untouched (reads
// pad missing attributes with NULL).
func (r *ROM) InsertColAfter(col int) error { return r.InsertColsAfter(col, 1) }

// InsertColsAfter implements Translator: count appended attributes spliced
// into the display order with one copy.
func (r *ROM) InsertColsAfter(col, count int) error {
	if col < 0 || col > len(r.colPos) {
		return fmt.Errorf("model: ROM insert after column %d out of range", col)
	}
	if count < 1 {
		return fmt.Errorf("model: ROM insert of %d columns", count)
	}
	phys := make([]int, count)
	for i := range phys {
		p := r.nextCol
		r.nextCol++
		if err := r.table.AddColumn(rdbms.Column{Name: colName(p), Type: rdbms.DTAny}); err != nil {
			return err
		}
		phys[i] = r.table.Schema.Arity() - 1
	}
	r.colPos = append(r.colPos, make([]int, count)...)
	copy(r.colPos[col+count:], r.colPos[col:])
	copy(r.colPos[col:], phys)
	return nil
}

// DeleteCol implements Translator: drops the display mapping; the physical
// attribute is orphaned (its storage is reclaimed only on migration,
// mirroring dropped-column behaviour in row stores).
func (r *ROM) DeleteCol(col int) error { return r.DeleteCols(col, 1) }

// DeleteCols implements Translator.
func (r *ROM) DeleteCols(col, count int) error {
	if count < 1 {
		return fmt.Errorf("model: ROM delete of %d columns", count)
	}
	if col < 1 || col+count-1 > len(r.colPos) {
		return fmt.Errorf("model: ROM delete of missing column %d", col)
	}
	if len(r.colPos) == count {
		return fmt.Errorf("model: ROM cannot delete its last column")
	}
	r.colPos = append(r.colPos[:col-1], r.colPos[col-1+count:]...)
	return nil
}

// StorageBytes implements Translator.
func (r *ROM) StorageBytes() int64 { return r.table.StorageBytes() }

// Drop implements Translator.
func (r *ROM) Drop() error { return r.cfg.DB.DropTable(r.cfg.TableName) }

func (r *ROM) emptyRow() rdbms.Row {
	return make(rdbms.Row, r.table.Schema.Arity())
}

// attr returns the i-th attribute, padding short (pre-AddColumn) tuples.
func attr(row rdbms.Row, i int) rdbms.Datum {
	if i >= len(row) {
		return rdbms.Null
	}
	return row[i]
}

func padRow(row rdbms.Row, arity int) rdbms.Row {
	for len(row) < arity {
		row = append(row, rdbms.Null)
	}
	return row
}
