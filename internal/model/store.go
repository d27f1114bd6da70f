package model

import (
	"fmt"
	"slices"
	"strings"

	"dataspread/internal/hybrid"
	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
)

// HybridStore is the hybrid translator of Section VI: it maps regions of a
// sheet to per-region translators and routes every spreadsheet operation to
// the responsible region(s). Cells outside every region live in a shared
// overflow RCV table (the single RCV of Appendix A-C1), so the store always
// covers the whole grid.
type HybridStore struct {
	db      *rdbms.DB
	scheme  string
	name    string
	regions []storeRegion
	// overflow holds cells outside all regions.
	overflow *RCV
	seq      int
	// nextSeg numbers manifest segments; deadSegs holds segment ids of
	// regions dropped since the last SaveManifest, whose meta keys the next
	// save garbage-collects.
	nextSeg  int
	deadSegs []int
}

// overflowSeg is the fixed manifest segment id of the overflow RCV.
const overflowSeg = 0

type storeRegion struct {
	rect sheet.Range // absolute coordinates
	tr   Translator
	// seg is the region's manifest segment id (stable across saves).
	seg int
}

// allocSeg assigns a fresh manifest segment id.
func (h *HybridStore) allocSeg() int {
	if h.nextSeg <= overflowSeg {
		h.nextSeg = overflowSeg + 1
	}
	seg := h.nextSeg
	h.nextSeg++
	return seg
}

// NewHybridStore creates an empty store whose backing tables are prefixed
// with name.
func NewHybridStore(db *rdbms.DB, name, scheme string) (*HybridStore, error) {
	if name == "" || strings.Contains(name, ":") {
		return nil, fmt.Errorf("model: store name %q must be non-empty and must not contain ':'", name)
	}
	if scheme == "" {
		scheme = "hierarchical"
	}
	ov, err := NewRCV(Config{DB: db, Scheme: scheme, TableName: name + "_overflow"}, 0, 0)
	if err != nil {
		return nil, err
	}
	return &HybridStore{db: db, scheme: scheme, name: name, overflow: ov, nextSeg: overflowSeg + 1}, nil
}

// Materialize builds a store from a sheet and its decomposition,
// bulk-loading every ROM/COM region (whole tuples at a time). RCV regions
// are not given dedicated tables: their cells land in the store's shared
// overflow RCV table, matching the cost model's single-RCV-table assumption
// (Appendix A-C1). The decomposition must be recoverable with respect to
// the sheet.
func Materialize(db *rdbms.DB, name, scheme string, s *sheet.Sheet, d *hybrid.Decomposition) (*HybridStore, error) {
	hs, err := NewHybridStore(db, name, scheme)
	if err != nil {
		return nil, err
	}
	for _, reg := range d.Regions {
		if reg.Kind == hybrid.RCV {
			continue // cells flow to the shared overflow below
		}
		if err := hs.addRegionBulk(reg.Rect, reg.Kind, s.GetRange(reg.Rect)); err != nil {
			return nil, err
		}
	}
	var loadErr error
	s.EachSorted(func(r sheet.Ref, c sheet.Cell) {
		if loadErr != nil {
			return
		}
		if hs.regionAt(r.Row, r.Col) == nil {
			loadErr = hs.overflow.Update(r.Row, r.Col, c)
		}
	})
	if loadErr != nil {
		return nil, loadErr
	}
	return hs, nil
}

// AddRegion creates a translator for the rectangle. Regions must not
// overlap existing ones.
func (h *HybridStore) AddRegion(rect sheet.Range, kind hybrid.Kind) (Translator, error) {
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
		var rom *ROM
		rom, err = NewROM(cfg, rect.Cols())
		if err == nil {
			// Materialize the rows so the region has its full extent.
			for i := 0; i < rect.Rows(); i++ {
				if e := rom.InsertRowAfter(i); e != nil {
					return nil, e
				}
			}
		}
		tr = rom
	case hybrid.COM:
		var com *COM
		com, err = NewCOM(cfg, rect.Rows())
		if err == nil {
			for j := 0; j < rect.Cols(); j++ {
				if e := com.InsertColAfter(j); e != nil {
					return nil, e
				}
			}
		}
		tr = com
	case hybrid.RCV:
		tr, err = NewRCV(cfg, rect.Rows(), rect.Cols())
	default:
		return nil, fmt.Errorf("model: unsupported region kind %v", kind)
	}
	if err != nil {
		return nil, err
	}
	h.regions = append(h.regions, storeRegion{rect: rect, tr: tr, seg: h.allocSeg()})
	return tr, nil
}

// LinkTable registers a linked TOM region displaying the catalog table at
// rect (linkTable of Section III). The rectangle's width must match the
// table arity; its height must accommodate headers plus rows.
func (h *HybridStore) LinkTable(rect sheet.Range, table *rdbms.Table, headers bool) (*TOM, error) {
	for _, r := range h.regions {
		if r.rect.Intersects(rect) {
			return nil, fmt.Errorf("model: region %v overlaps existing %v", rect, r.rect)
		}
	}
	if rect.Cols() != table.Schema.Arity() {
		return nil, fmt.Errorf("model: link range has %d columns, table %q has %d",
			rect.Cols(), table.Name, table.Schema.Arity())
	}
	tom := LinkTOM(table, h.scheme, headers)
	h.regions = append(h.regions, storeRegion{rect: rect, tr: tom, seg: h.allocSeg()})
	return tom, nil
}

// Name returns the store's table-name prefix (its manifest key).
func (h *HybridStore) Name() string { return h.name }

// Scheme returns the positional-mapping scheme of the store's regions.
func (h *HybridStore) Scheme() string { return h.scheme }

// Regions returns the current region rectangles and kinds.
func (h *HybridStore) Regions() []hybrid.Region {
	out := make([]hybrid.Region, 0, len(h.regions))
	for _, r := range h.regions {
		out = append(out, hybrid.Region{Rect: r.rect, Kind: r.tr.Kind()})
	}
	return out
}

// SegsFor returns the manifest segment ids of every backing table a read
// of the absolute range g can touch: each region intersecting g plus the
// shared overflow RCV (which spans the whole grid, so any range may read
// it). Segment ids are the stable per-table identity the engine's latch
// table keys on — callers latch these before reading concurrently with
// writers. The result is sorted ascending, giving a global latch
// acquisition order.
func (h *HybridStore) SegsFor(g sheet.Range) []int {
	segs := []int{overflowSeg}
	for i := range h.regions {
		if h.regions[i].rect.Intersects(g) {
			segs = append(segs, h.regions[i].seg)
		}
	}
	sortInts(segs)
	return segs
}

// SegsForWrites returns the segment ids of the backing tables a write of the
// given cells mutates: the owning region of each cell, or the overflow RCV
// for cells outside every region, appended to segs (empty, for its capacity)
// and sorted ascending (the latch order).
func (h *HybridStore) SegsForWrites(segs []int, writes []CellWrite) []int {
	for _, w := range writes {
		seg := overflowSeg
		if reg := h.regionAt(w.Row, w.Col); reg != nil {
			seg = reg.seg
		}
		if !slices.Contains(segs, seg) {
			segs = append(segs, seg)
		}
	}
	sortInts(segs)
	return segs
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// regionAt returns the region containing the cell, or nil.
func (h *HybridStore) regionAt(row, col int) *storeRegion {
	for i := range h.regions {
		if h.regions[i].rect.Contains(sheet.Ref{Row: row, Col: col}) {
			return &h.regions[i]
		}
	}
	return nil
}

// Get returns the cell at the absolute position.
func (h *HybridStore) Get(row, col int) (sheet.Cell, error) {
	if r := h.regionAt(row, col); r != nil {
		return r.tr.Get(row-r.rect.From.Row+1, col-r.rect.From.Col+1)
	}
	return h.overflow.Get(row, col)
}

// GetCells materializes an absolute rectangular range across regions. The
// output grid is backed by one flat allocation, and every region fills its
// overlap through its batched, projection-pushdown GetCells — the seam
// between the viewport abstraction and the per-region read paths.
func (h *HybridStore) GetCells(g sheet.Range) ([][]sheet.Cell, error) {
	out := newCellGrid(g.Rows(), g.Cols())
	fill := func(rect sheet.Range, tr Translator, local bool) error {
		overlap, ok := g.Intersect(rect)
		if !ok {
			return nil
		}
		q := overlap
		if local {
			q = sheet.NewRange(
				overlap.From.Row-rect.From.Row+1, overlap.From.Col-rect.From.Col+1,
				overlap.To.Row-rect.From.Row+1, overlap.To.Col-rect.From.Col+1,
			)
		}
		cells, err := tr.GetCells(q)
		if err != nil {
			return err
		}
		for i := range cells {
			for j := range cells[i] {
				if cells[i][j].IsBlank() {
					continue
				}
				out[overlap.From.Row-g.From.Row+i][overlap.From.Col-g.From.Col+j] = cells[i][j]
			}
		}
		return nil
	}
	for _, r := range h.regions {
		if err := fill(r.rect, r.tr, true); err != nil {
			return nil, err
		}
	}
	// Overflow spans the whole grid in absolute coordinates.
	if h.overflow.CellCount() > 0 {
		if err := fill(sheet.NewRange(1, 1, 1<<30, 1<<20-1), h.overflow, false); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Update writes a cell at the absolute position, routing to the owning
// region or the overflow RCV.
func (h *HybridStore) Update(row, col int, c sheet.Cell) error {
	if r := h.regionAt(row, col); r != nil {
		return r.tr.Update(row-r.rect.From.Row+1, col-r.rect.From.Col+1, c)
	}
	return h.overflow.Update(row, col, c)
}

// InsertRowAfter inserts one spreadsheet row after the absolute row:
// regions strictly below shift down, regions spanning the row grow, the
// overflow RCV shifts its own positional map.
func (h *HybridStore) InsertRowAfter(row int) error { return h.InsertRowsAfter(row, 1) }

// InsertRowsAfter inserts count spreadsheet rows after the absolute row in
// one pass: each region's rectangle adjusts once and each spanning region
// performs a single count-aware positional shift.
func (h *HybridStore) InsertRowsAfter(row, count int) error {
	if count < 1 {
		return fmt.Errorf("model: insert of %d rows", count)
	}
	for i := range h.regions {
		r := &h.regions[i]
		switch {
		case r.rect.From.Row > row:
			r.rect.From.Row += count
			r.rect.To.Row += count
		case r.rect.To.Row > row: // spans the boundary: grow
			if err := r.tr.InsertRowsAfter(row-r.rect.From.Row+1, count); err != nil {
				return err
			}
			r.rect.To.Row += count
		}
	}
	if row < h.overflow.Rows() {
		return h.overflow.InsertRowsAfter(row, count)
	}
	return nil
}

// DeleteRow removes one spreadsheet row. Several disjoint regions may span
// the same row band; each shrinks independently, and regions emptied by the
// delete are dropped.
func (h *HybridStore) DeleteRow(row int) error { return h.DeleteRows(row, 1) }

// DeleteRows removes the count spreadsheet rows [row, row+count-1] in one
// pass per region: each region deletes its overlap with the band through a
// single count-aware positional shift, regions entirely below shift up, and
// regions emptied by the delete are dropped.
func (h *HybridStore) DeleteRows(row, count int) error {
	if count < 1 {
		return fmt.Errorf("model: delete of %d rows", count)
	}
	b1, b2 := row, row+count-1
	kept := h.regions[:0]
	for i := range h.regions {
		r := h.regions[i]
		f, t := r.rect.From.Row, r.rect.To.Row
		switch {
		case f > b2: // entirely below: shift up
			r.rect.From.Row -= count
			r.rect.To.Row -= count
		case t >= b1: // intersects the band
			localFrom := max(f, b1) - f + 1
			n := min(t, b2) - max(f, b1) + 1
			if err := r.tr.DeleteRows(localFrom, n); err != nil {
				return err
			}
			newF := f
			if f >= b1 {
				newF = b1
			}
			newT := newF + (t - f + 1 - n) - 1
			if newT < newF {
				if err := r.tr.Drop(); err != nil {
					return err
				}
				h.deadSegs = append(h.deadSegs, r.seg)
				continue // dropped
			}
			r.rect.From.Row, r.rect.To.Row = newF, newT
		}
		kept = append(kept, r)
	}
	h.regions = kept
	if n := min(count, h.overflow.Rows()-row+1); row >= 1 && n >= 1 {
		return h.overflow.DeleteRows(row, n)
	}
	return nil
}

// InsertColumnAfter inserts one spreadsheet column after the absolute
// column.
func (h *HybridStore) InsertColumnAfter(col int) error { return h.InsertColumnsAfter(col, 1) }

// InsertColumnsAfter inserts count spreadsheet columns after the absolute
// column in one pass, mirroring InsertRowsAfter.
func (h *HybridStore) InsertColumnsAfter(col, count int) error {
	if count < 1 {
		return fmt.Errorf("model: insert of %d columns", count)
	}
	for i := range h.regions {
		r := &h.regions[i]
		switch {
		case r.rect.From.Col > col:
			r.rect.From.Col += count
			r.rect.To.Col += count
		case r.rect.To.Col > col:
			if err := r.tr.InsertColsAfter(col-r.rect.From.Col+1, count); err != nil {
				return err
			}
			r.rect.To.Col += count
		}
	}
	if col < h.overflow.Cols() {
		return h.overflow.InsertColsAfter(col, count)
	}
	return nil
}

// DeleteColumn removes one spreadsheet column, mirroring DeleteRow.
func (h *HybridStore) DeleteColumn(col int) error { return h.DeleteColumns(col, 1) }

// DeleteColumns removes the count spreadsheet columns [col, col+count-1] in
// one pass per region, mirroring DeleteRows.
func (h *HybridStore) DeleteColumns(col, count int) error {
	if count < 1 {
		return fmt.Errorf("model: delete of %d columns", count)
	}
	b1, b2 := col, col+count-1
	kept := h.regions[:0]
	for i := range h.regions {
		r := h.regions[i]
		f, t := r.rect.From.Col, r.rect.To.Col
		switch {
		case f > b2:
			r.rect.From.Col -= count
			r.rect.To.Col -= count
		case t >= b1:
			localFrom := max(f, b1) - f + 1
			n := min(t, b2) - max(f, b1) + 1
			if err := r.tr.DeleteCols(localFrom, n); err != nil {
				return err
			}
			newF := f
			if f >= b1 {
				newF = b1
			}
			newT := newF + (t - f + 1 - n) - 1
			if newT < newF {
				if err := r.tr.Drop(); err != nil {
					return err
				}
				h.deadSegs = append(h.deadSegs, r.seg)
				continue
			}
			r.rect.From.Col, r.rect.To.Col = newF, newT
		}
		kept = append(kept, r)
	}
	h.regions = kept
	if n := min(count, h.overflow.Cols()-col+1); col >= 1 && n >= 1 {
		return h.overflow.DeleteCols(col, n)
	}
	return nil
}

// StorageBytes reports the footprint of all regions plus the overflow.
func (h *HybridStore) StorageBytes() int64 {
	n := h.overflow.StorageBytes()
	for _, r := range h.regions {
		n += r.tr.StorageBytes()
	}
	return n
}

// Snapshot reads the whole store back into a sheet (used by recoverability
// tests and by migration).
func (h *HybridStore) Snapshot(name string, bounds sheet.Range) (*sheet.Sheet, error) {
	s := sheet.New(name)
	cells, err := h.GetCells(bounds)
	if err != nil {
		return nil, err
	}
	for i := range cells {
		for j := range cells[i] {
			if !cells[i][j].IsBlank() {
				s.Set(sheet.Ref{Row: bounds.From.Row + i, Col: bounds.From.Col + j}, cells[i][j])
			}
		}
	}
	return s, nil
}
