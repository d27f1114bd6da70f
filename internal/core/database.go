package core

import (
	"errors"
	"fmt"

	"dataspread/internal/hybrid"
	"dataspread/internal/model"
	"dataspread/internal/rdbms"
	"dataspread/internal/rel"
	"dataspread/internal/sheet"
)

// LinkTable establishes the two-way correspondence of Section III between a
// grid range and a database table. When the table does not exist it is
// created from the range's contents (first row = column names, types
// inferred from the first data row) and then linked; when it exists, the
// range must be empty and sized to the table.
func (e *Engine) LinkTable(g sheet.Range, tableName string) (*model.TOM, error) {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
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
		if err := e.applyLocked(blanks); err != nil {
			return nil, err
		}
	}
	rows := table.RowCount() + 1 // headers
	rect := sheet.NewRange(g.From.Row, g.From.Col, g.From.Row+rows-1, g.From.Col+table.Schema.Arity()-1)
	tom, err := e.store.LinkTable(rect, table, true)
	if err == nil {
		e.grow(rect.To.Row, rect.To.Col)
		e.cache.Invalidate(rect)
		// Formulas reading the rectangle now read the table's rows.
		e.mark(e.deps.DirectDependents(rect), nil)
		e.bumpGeneration()
	}
	// Settle on every exit: clearing the range marked its readers pending
	// whether or not the link then succeeded.
	return tom, errors.Join(err, e.settle())
}

// createTableFromRange infers a schema from the range and loads its data.
func (e *Engine) createTableFromRange(g sheet.Range, tableName string) (*rdbms.Table, error) {
	cells := e.GetCells(g)
	if err := e.ReadErr(); err != nil {
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
			d, err := cellToDatum(row[j].Value, schema.Cols[j].Type)
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

func cellToDatum(v sheet.Value, t rdbms.DType) (rdbms.Datum, error) {
	if v.IsEmpty() {
		return rdbms.Null, nil
	}
	switch t {
	case rdbms.DTFloat:
		f, ok := v.Num()
		if !ok {
			return rdbms.Null, fmt.Errorf("core: %q is not numeric", v.Text())
		}
		return rdbms.Float(f), nil
	case rdbms.DTBool:
		b, ok := v.BoolVal()
		if !ok {
			return rdbms.Null, fmt.Errorf("core: %q is not boolean", v.Text())
		}
		return rdbms.Bool(b), nil
	}
	return rdbms.Text(v.Text()), nil
}

// SQL runs the sql(query, params...) spreadsheet function (Appendix B),
// returning a composite table value.
func (e *Engine) SQL(query string, params ...sheet.Value) (*rel.TableValue, error) {
	datums := make([]rdbms.Datum, len(params))
	for i, p := range params {
		d, err := cellToDatum(p, valueType(p))
		if err != nil {
			return nil, err
		}
		datums[i] = d
	}
	res, err := e.db.Exec(query, datums...)
	if err != nil {
		return nil, err
	}
	return rel.FromResult(res), nil
}

func valueType(v sheet.Value) rdbms.DType {
	switch v.Kind() {
	case sheet.KindNumber:
		return rdbms.DTFloat
	case sheet.KindBool:
		return rdbms.DTBool
	}
	return rdbms.DTText
}

// RangeTable converts a grid range into a composite table value (headers
// from the first row).
func (e *Engine) RangeTable(g sheet.Range, headers bool) *rel.TableValue {
	return rel.FromCells(e.GetCells(g), headers)
}

// PlaceTable writes a composite table value onto the grid at anchor —
// the expansion step of the index(...) function family — and returns the
// covered range (including the header row).
func (e *Engine) PlaceTable(tv *rel.TableValue, anchor sheet.Ref) (sheet.Range, error) {
	batch := make([]cellWrite, 0, (tv.Len()+1)*tv.Arity())
	for j, name := range tv.Cols {
		batch = append(batch, cellWrite{ref: sheet.Ref{Row: anchor.Row, Col: anchor.Col + j}, value: sheet.Str(name)})
	}
	for i, row := range tv.Rows {
		for j, v := range row {
			batch = append(batch, cellWrite{ref: sheet.Ref{Row: anchor.Row + 1 + i, Col: anchor.Col + j}, value: v})
		}
	}
	if err := e.apply(batch); err != nil {
		return sheet.Range{}, err
	}
	return sheet.NewRange(anchor.Row, anchor.Col,
		anchor.Row+tv.Len(), anchor.Col+tv.Arity()-1), nil
}

// Optimize re-runs the hybrid optimizer over the current contents and
// migrates the store to the chosen decomposition. It returns the
// incremental result (Appendix A-C2). Linked TOM regions are preserved
// as-is.
func (e *Engine) Optimize(algo string, eta float64) (*hybrid.IncrementalResult, error) {
	// Drain before snapshotting: the migration replaces the cache (and its
	// pending sidecar), so no staleness bit may be outstanding, and the
	// snapshot must carry converged values into the new decomposition.
	unlock := e.lockWritesDrained()
	defer unlock()
	bounds := sheet.NewRange(1, 1, max(e.maxRow, 1), max(e.maxCol, 1))
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
	// The old store is replaced wholesale; drop its backing tables and
	// persisted manifest so neither the catalog nor a reopened database
	// carries a dead copy of every cell.
	if err := e.store.Drop(); err != nil {
		return nil, err
	}
	e.store = hs
	e.cache = newEngineCache(e)
	e.bumpGeneration()
	return res, nil
}
