package core

import (
	"errors"
	"fmt"

	"dataspread/internal/hybrid"
	"dataspread/internal/model"
	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
)

// LinkTable establishes the two-way correspondence of Section III between a
// grid range and a database table. When the table does not exist it is
// created from the range's contents (first row = column names, types
// inferred from the first data row) and then linked; when it exists, the
// range must be empty and sized to the table. Readers see the clearing of the
// range and the link as two generations. A range outside the sheet is refused
// before anything is created.
func (e *Engine) LinkTable(g sheet.Range, tableName string) (*model.TOM, error) {
	if err := inSheet(g); err != nil {
		return nil, err
	}
	// Drained, so that the table is created from converged values.
	defer e.lockWritesDrained()()
	table := e.db.Table(tableName)
	if table == nil {
		var err error
		table, err = e.createTableFromRange(g, tableName)
		if err != nil {
			return nil, err
		}
		// The region's loose cells move into the linked table, so clear
		// them — values and formulas alike — from their current homes first.
		blanks := make([]cellWrite, 0, g.Rows()*g.Cols())
		for row := g.From.Row; row <= g.To.Row; row++ {
			for col := g.From.Col; col <= g.To.Col; col++ {
				blanks = append(blanks, cellWrite{ref: sheet.Ref{Row: row, Col: col}})
			}
		}
		if _, err := e.applyLocked(blanks); err != nil {
			return nil, err
		}
	}
	rows := table.RowCount() + 1 // headers
	rect := sheet.NewRange(g.From.Row, g.From.Col, g.From.Row+rows-1, g.From.Col+table.Schema.Arity()-1)
	e.latches.structure.Lock()
	tom, err := e.store.LinkTable(rect, table, true)
	if err == nil {
		e.grow(rect.To.Row, rect.To.Col)
		e.cache.Invalidate(rect)
		// Formulas reading the rectangle now read the table's rows.
		e.mark(e.deps.DirectDependents(rect), nil)
		e.gen.Add(1)
	}
	e.latches.structure.Unlock()
	// Settle on every exit: clearing the range marked its readers pending
	// whether or not the link then succeeded.
	return tom, errors.Join(err, e.settle())
}

// createTableFromRange infers a schema from the range and loads its data.
func (e *Engine) createTableFromRange(g sheet.Range, tableName string) (*rdbms.Table, error) {
	cells, err := e.cache.ReadRange(g)
	if err != nil {
		return nil, fmt.Errorf("core: linkTable range read: %w", err)
	}
	if len(cells) < 2 {
		return nil, fmt.Errorf("core: linkTable range %v needs a header row and at least one data row", g)
	}
	schema := rdbms.Schema{}
	for j, c := range cells[0] {
		name := c.Value.Text()
		if name == "" {
			name = fmt.Sprintf("col%d", j+1)
		}
		schema.Cols = append(schema.Cols, rdbms.Column{Name: name, Type: inferType(cells[1:], j)})
	}
	table, err := e.db.CreateTable(tableName, schema)
	if err != nil {
		return nil, err
	}
	for _, row := range cells[1:] {
		tuple := make(rdbms.Row, len(schema.Cols))
		for j := range schema.Cols {
			d, err := model.ValueToDatum(row[j].Value, schema.Cols[j].Type)
			if err != nil {
				return nil, err
			}
			tuple[j] = d
		}
		if _, err := table.Insert(tuple); err != nil {
			return nil, err
		}
	}
	return table, nil
}

func inferType(rows [][]sheet.Cell, col int) rdbms.DType {
	sawNumber := false
	for _, r := range rows {
		v := r[col].Value
		switch v.Kind() {
		case sheet.KindEmpty:
		case sheet.KindNumber:
			sawNumber = true
		case sheet.KindBool:
			if !sawNumber {
				return rdbms.DTBool
			}
		default:
			return rdbms.DTText
		}
	}
	if sawNumber {
		return rdbms.DTFloat
	}
	return rdbms.DTText
}

// TableValue is a composite table value: the result of the sql(...)
// spreadsheet function, placed on the grid by PlaceTable. The grid's
// relational operations (select, project, join, aggregate) are SQL over
// linked tables; there is no second algebra.
type TableValue struct {
	Cols []string
	Rows [][]sheet.Value
}

// SQL runs the sql(query, params...) spreadsheet function (Appendix B),
// returning a composite table value. It only reads: a write would go behind
// the grid of a linked region, which would show stale cells or none. It
// holds the edit lock, so its scan never races an edit of a linked region.
func (e *Engine) SQL(query string, params ...sheet.Value) (*TableValue, error) {
	datums := make([]rdbms.Datum, len(params))
	for i, p := range params {
		// A parameter's type is the one a column holding only it would get.
		d, err := model.ValueToDatum(p, inferType([][]sheet.Cell{{{Value: p}}}, 0))
		if err != nil {
			return nil, err
		}
		datums[i] = d
	}
	e.writeMu.Lock()
	res, err := e.db.Query(query, datums...)
	e.writeMu.Unlock()
	if err != nil {
		return nil, err
	}
	tv := &TableValue{Cols: res.Columns, Rows: make([][]sheet.Value, len(res.Rows))}
	for i, row := range res.Rows {
		tv.Rows[i] = make([]sheet.Value, len(row))
		for j, d := range row {
			tv.Rows[i][j] = model.DatumToValue(d)
		}
	}
	return tv, nil
}

// PlaceTable writes a composite table value onto the grid at anchor —
// the expansion step of the index(...) function family — and returns the
// covered range (including the header row).
func (e *Engine) PlaceTable(tv *TableValue, anchor sheet.Ref) (sheet.Range, error) {
	batch := make([]cellWrite, 0, (len(tv.Rows)+1)*len(tv.Cols))
	for j, name := range tv.Cols {
		batch = append(batch, cellWrite{ref: sheet.Ref{Row: anchor.Row, Col: anchor.Col + j}, value: sheet.Str(name)})
	}
	for i, row := range tv.Rows {
		for j, v := range row {
			batch = append(batch, cellWrite{ref: sheet.Ref{Row: anchor.Row + 1 + i, Col: anchor.Col + j}, value: v})
		}
	}
	if _, err := e.apply(batch); err != nil {
		return sheet.Range{}, err
	}
	return sheet.NewRange(anchor.Row, anchor.Col,
		anchor.Row+len(tv.Rows), anchor.Col+len(tv.Cols)-1), nil
}

// Optimize re-runs the hybrid optimizer over the current contents and
// migrates the store to the chosen decomposition. It returns the
// incremental result (Appendix A-C2). Linked TOM regions are preserved
// as-is.
func (e *Engine) Optimize(algo string, eta float64) (*hybrid.IncrementalResult, error) {
	// Drain before snapshotting: the snapshot must carry converged values into
	// the new decomposition.
	defer e.lockWritesDrained()()
	rows, cols := e.Bounds()
	bounds := sheet.NewRange(1, 1, max(rows, 1), max(cols, 1))
	snap, err := e.store.Snapshot(e.name, bounds)
	if err != nil {
		return nil, err
	}
	res, err := hybrid.DecomposeIncremental(snap, algo, hybrid.IncrementalOptions{
		Options: hybrid.Options{Params: e.params, Models: hybrid.AllModels},
		Eta:     eta,
		Old:     e.store.Regions(),
	})
	if err != nil {
		return nil, err
	}
	// Rebuild the store under the new decomposition.
	e.seq++
	hs, err := model.Materialize(e.db, fmt.Sprintf("%s_v%d", e.name, e.seq), e.store.Scheme(), snap, res.Decomposition)
	if err != nil {
		return nil, err
	}
	// The old store is replaced wholesale, readers out; drop its tables and
	// persisted manifest so neither the catalog nor a reopened database
	// carries a dead copy of every cell.
	e.latches.structure.Lock()
	defer e.latches.structure.Unlock()
	if err := e.store.Drop(); err != nil {
		return nil, err
	}
	e.store = hs
	e.cache.InvalidateAll()
	e.gen.Add(1)
	return res, nil
}
