package model

import (
	"fmt"
	"sort"

	"dataspread/internal/hybrid"
	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
)

// AppendRow bulk-inserts one full row at the end of the ROM region: a
// single tuple write instead of one tuple rewrite per cell. The slice
// length must match the region width.
func (r *ROM) AppendRow(cells []sheet.Cell) error {
	if len(cells) != len(r.colPos) {
		return fmt.Errorf("model: ROM AppendRow arity %d != %d columns", len(cells), len(r.colPos))
	}
	tuple := make(rdbms.Row, r.table.Schema.Arity())
	for i, c := range cells {
		tuple[r.colPos[i]] = encodeCell(c)
	}
	rid, err := r.table.Insert(tuple)
	if err != nil {
		return err
	}
	if !r.rowMap.Insert(r.rowMap.Len()+1, rid) {
		return fmt.Errorf("model: ROM rowMap append failed")
	}
	return nil
}

// LoadRect bulk-loads a local rectangle starting at (1,1) into an empty ROM
// region.
func (r *ROM) LoadRect(cells [][]sheet.Cell) error {
	for _, row := range cells {
		if err := r.AppendRow(row); err != nil {
			return err
		}
	}
	return nil
}

// LoadRect bulk-loads into an empty COM region (transposing).
func (c *COM) LoadRect(cells [][]sheet.Cell) error {
	if len(cells) == 0 {
		return nil
	}
	colBuf := make([]sheet.Cell, len(cells))
	for j := range cells[0] {
		for i := range cells {
			colBuf[i] = cells[i][j]
		}
		if err := c.inner.AppendRow(colBuf); err != nil {
			return err
		}
	}
	return nil
}

// LoadRect bulk-loads into an RCV region (filled cells only; the region's
// surrogate extent must already cover the rectangle).
func (r *RCV) LoadRect(cells [][]sheet.Cell) error {
	for i := range cells {
		for j := range cells[i] {
			if cells[i][j].IsBlank() {
				continue
			}
			if err := r.Update(i+1, j+1, cells[i][j]); err != nil {
				return err
			}
		}
	}
	return nil
}

// UpdateRowCells writes several cells of one ROM row with a single tuple
// rewrite: the batched counterpart of Update for scattered (non-rectangular)
// edits. cols are display positions; duplicates apply in order (last wins).
func (r *ROM) UpdateRowCells(row int, cols []int, cells []sheet.Cell) error {
	if len(cols) != len(cells) {
		return fmt.Errorf("model: ROM UpdateRowCells %d cols, %d cells", len(cols), len(cells))
	}
	if row < 1 {
		return fmt.Errorf("model: ROM row %d out of range", row)
	}
	for _, col := range cols {
		if col < 1 || col > len(r.colPos) {
			return fmt.Errorf("model: ROM column %d out of range", col)
		}
	}
	for r.rowMap.Len() < row {
		rid, err := r.table.Insert(r.emptyRow())
		if err != nil {
			return err
		}
		if !r.rowMap.Insert(r.rowMap.Len()+1, rid) {
			return fmt.Errorf("model: ROM rowMap append failed")
		}
	}
	rid, _ := r.rowMap.Fetch(row)
	tuple, ok := r.table.Get(rid)
	if !ok {
		return fmt.Errorf("model: ROM row %d dangling pointer %v", row, rid)
	}
	tuple = padRow(tuple, r.table.Schema.Arity())
	for k, col := range cols {
		tuple[r.colPos[col-1]] = encodeCell(cells[k])
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

// CellWrite is one absolute-position cell write within a batch.
type CellWrite struct {
	Row, Col int
	Cell     sheet.Cell
}

// UpdateCells is the bulk mutation path: it routes a batch of writes to the
// owning regions, and inside each region coalesces the writes so that
// row-oriented models rewrite each covered tuple once (and column-oriented
// models each covered column tuple once) instead of once per cell. Cells in
// RCV/TOM regions and the overflow fall back to per-cell updates — the
// key-value model has no batching lever (one tuple per cell). Writes to the
// same cell apply in batch order: the last one wins.
//
// UpdateCells performs no durability work itself; callers commit the whole
// batch with one DB.FlushWAL (one fsync) — see core.Engine.SetCells.
func (h *HybridStore) UpdateCells(writes []CellWrite) error {
	// Bucket writes by owning region, preserving batch order per bucket.
	byRegion := make(map[*storeRegion][]CellWrite)
	var regOrder []*storeRegion
	var loose []CellWrite // overflow cells, written per-cell
	for _, w := range writes {
		reg := h.regionAt(w.Row, w.Col)
		if reg == nil {
			loose = append(loose, w)
			continue
		}
		if _, seen := byRegion[reg]; !seen {
			regOrder = append(regOrder, reg)
		}
		byRegion[reg] = append(byRegion[reg], w)
	}
	for _, reg := range regOrder {
		ws := byRegion[reg]
		rom, _ := reg.tr.(*ROM)
		com, isCol := reg.tr.(*COM)
		if isCol {
			rom = com.inner
		}
		// Region-local coordinates, transposed for a column-oriented region:
		// either way Row is now the tuple a write lands in.
		for k := range ws {
			ws[k].Row -= reg.rect.From.Row - 1
			ws[k].Col -= reg.rect.From.Col - 1
			if isCol {
				ws[k].Row, ws[k].Col = ws[k].Col, ws[k].Row
			}
		}
		if rom == nil {
			for _, w := range ws {
				if err := reg.tr.Update(w.Row, w.Col, w.Cell); err != nil {
					return err
				}
			}
			continue
		}
		sort.SliceStable(ws, func(i, j int) bool { return ws[i].Row < ws[j].Row })
		for i, j := 0, 0; i < len(ws); i = j {
			for j = i + 1; j < len(ws) && ws[j].Row == ws[i].Row; {
				j++
			}
			cols := make([]int, j-i)
			cells := make([]sheet.Cell, j-i)
			for k, w := range ws[i:j] {
				cols[k], cells[k] = w.Col, w.Cell
			}
			if err := rom.UpdateRowCells(ws[i].Row, cols, cells); err != nil {
				return err
			}
		}
	}
	for _, w := range loose {
		if err := h.overflow.Update(w.Row, w.Col, w.Cell); err != nil {
			return err
		}
	}
	return nil
}

// rectLoader is implemented by translators with a bulk-load fast path.
type rectLoader interface {
	LoadRect([][]sheet.Cell) error
}

// addRegionBulk creates a region translator and bulk-loads its contents:
// the full rectangle, blanks included, so ROM gets every row and COM every
// column of the region's extent.
func (h *HybridStore) addRegionBulk(rect sheet.Range, kind hybrid.Kind, cells [][]sheet.Cell) (Translator, error) {
	for _, r := range h.regions {
		if r.rect.Intersects(rect) {
			return nil, fmt.Errorf("model: region %v overlaps existing %v", rect, r.rect)
		}
	}
	h.seq++
	cfg := Config{DB: h.db, Scheme: h.scheme, TableName: fmt.Sprintf("%s_r%d", h.name, h.seq)}
	var tr Translator
	var err error
	switch kind {
	case hybrid.ROM, hybrid.TOM:
		tr, err = NewROM(cfg, rect.Cols())
	case hybrid.COM:
		tr, err = NewCOM(cfg, rect.Rows())
	case hybrid.RCV:
		tr, err = NewRCV(cfg, rect.Rows(), rect.Cols())
	default:
		return nil, fmt.Errorf("model: unsupported region kind %v", kind)
	}
	if err != nil {
		return nil, err
	}
	if err := tr.(rectLoader).LoadRect(cells); err != nil {
		return nil, err
	}
	h.regions = append(h.regions, storeRegion{rect: rect, tr: tr, seg: h.allocSeg()})
	return tr, nil
}
