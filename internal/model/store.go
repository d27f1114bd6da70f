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
func NewHybridStore(db *rdbms.DB, name string) (*HybridStore, error) {
	if name == "" || strings.Contains(name, ":") {
		return nil, fmt.Errorf("model: store name %q must be non-empty and must not contain ':'", name)
	}
	ov, err := NewRCV(Config{DB: db, TableName: name + "_overflow"}, 0, 0)
	if err != nil {
		return nil, err
	}
	return &HybridStore{db: db, name: name, overflow: ov, nextSeg: overflowSeg + 1}, nil
}

// Materialize builds a store from a sheet and its decomposition, loading
// every ROM/COM region with one UpdateCells (whole tuples at a time). RCV
// regions are not given dedicated tables: their cells land in the store's
// shared overflow RCV table, matching the cost model's single-RCV-table
// assumption (Appendix A-C1). The decomposition must be recoverable with
// respect to the sheet. scheme names the positional map: "" or
// "hierarchical", the one every ordering is kept in.
func Materialize(db *rdbms.DB, name, scheme string, s *sheet.Sheet, d *hybrid.Decomposition) (*HybridStore, error) {
	if scheme != "" && scheme != positionalScheme {
		return nil, fmt.Errorf("model: unknown positional scheme %q", scheme)
	}
	hs, err := NewHybridStore(db, name)
	if err != nil {
		return nil, err
	}
	// One pass over the sheet splits its cells into each region's batch, in
	// region-local coordinates, and the overflow's.
	var regions []hybrid.Region
	var loads [][]CellWrite
	for _, reg := range d.Regions {
		if reg.Kind != hybrid.RCV { // an RCV region's cells flow to the overflow
			regions = append(regions, reg)
			loads = append(loads, []CellWrite{farCorner(reg.Rect)})
		}
	}
	var loose []CellWrite
	s.EachSorted(func(r sheet.Ref, c sheet.Cell) {
		for i, reg := range regions {
			if reg.Rect.Contains(r) {
				loads[i] = append(loads[i], CellWrite{Row: r.Row - reg.Rect.From.Row + 1, Col: r.Col - reg.Rect.From.Col + 1, Cell: c})
				return
			}
		}
		loose = append(loose, CellWrite{Row: r.Row, Col: r.Col, Cell: c})
	})
	for i, reg := range regions {
		if _, err := hs.addRegion(reg.Rect, reg.Kind, loads[i]); err != nil {
			return nil, err
		}
		loads[i] = nil // loaded: the collector may have it before the next region's
	}
	if err := hs.overflow.UpdateCells(loose); err != nil {
		return nil, err
	}
	return hs, nil
}

// farCorner is a blank write at a region's last cell: loaded first, it makes
// ROM materialize every row and COM every column of the region's extent.
func farCorner(rect sheet.Range) CellWrite { return CellWrite{Row: rect.Rows(), Col: rect.Cols()} }

// AddRegion creates a blank translator of the rectangle's full extent.
// Regions must not overlap existing ones.
func (h *HybridStore) AddRegion(rect sheet.Range, kind hybrid.Kind) (Translator, error) {
	return h.addRegion(rect, kind, []CellWrite{farCorner(rect)})
}

// addRegion creates a region translator and loads its cells, region-local
// writes that open with the region's farCorner, with one UpdateCells.
func (h *HybridStore) addRegion(rect sheet.Range, kind hybrid.Kind, load []CellWrite) (Translator, error) {
	for _, r := range h.regions {
		if r.rect.Intersects(rect) {
			return nil, fmt.Errorf("model: region %v overlaps existing %v", rect, r.rect)
		}
	}
	h.seq++
	cfg := Config{DB: h.db, TableName: fmt.Sprintf("%s_r%d", h.name, h.seq)}
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
	if err := tr.UpdateCells(load); err != nil {
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
	tom, err := LinkTOM(table, headers)
	if err != nil {
		return nil, err
	}
	h.regions = append(h.regions, storeRegion{rect: rect, tr: tom, seg: h.allocSeg()})
	return tom, nil
}

// Name returns the store's table-name prefix (its manifest key).
func (h *HybridStore) Name() string { return h.name }

// Regions returns the current region rectangles and kinds.
func (h *HybridStore) Regions() []hybrid.Region {
	out := make([]hybrid.Region, 0, len(h.regions))
	for _, r := range h.regions {
		out = append(out, hybrid.Region{Rect: r.rect, Kind: r.tr.Kind()})
	}
	return out
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

// ReadCells is the store's range read, in absolute coordinates: every region
// visits its overlap with g through its batched, projection-pushdown
// ReadCells — the seam between the viewport abstraction and the per-region
// read paths — and then the overflow, each cell moved by the overlap's offset
// from g. No grid is built.
func (h *HybridStore) ReadCells(g sheet.Range, fn func(i, j int, v sheet.Value)) error {
	for r := range h.parts {
		ov, ok := g.Intersect(r.rect)
		if !ok {
			continue
		}
		di, dj := ov.From.Row-g.From.Row, ov.From.Col-g.From.Col
		o := r.rect.From
		local := sheet.NewRange(ov.From.Row-o.Row+1, ov.From.Col-o.Col+1, ov.To.Row-o.Row+1, ov.To.Col-o.Col+1)
		if err := r.tr.ReadCells(local, func(i, j int, v sheet.Value) { fn(di+i, dj+j, v) }); err != nil {
			return err
		}
	}
	return nil
}

// parts yields the regions and then, when it holds cells, the overflow, whose
// local coordinates are absolute: its rectangle starts at A1.
func (h *HybridStore) parts(yield func(storeRegion) bool) {
	for _, r := range h.regions {
		if !yield(r) {
			return
		}
	}
	if h.overflow.CellCount() > 0 {
		yield(storeRegion{rect: sheet.NewRange(1, 1, 1<<30, h.overflow.Cols()), tr: h.overflow})
	}
}

// GetCells materializes an absolute rectangular range as a dense grid.
func (h *HybridStore) GetCells(g sheet.Range) ([][]sheet.Cell, error) { return GetCells(h, g) }

// ColumnSpan returns the columns of g, absolute, that a region or the
// overflow covers — the only ones a read of g can find a cell in — with
// lo > hi when there are none.
func (h *HybridStore) ColumnSpan(g sheet.Range) (lo, hi int) {
	lo, hi = g.To.Col+1, g.From.Col-1
	for r := range h.parts {
		if ov, ok := g.Intersect(r.rect); ok {
			lo, hi = min(lo, ov.From.Col), max(hi, ov.To.Col)
		}
	}
	return lo, hi
}

// UpdateCells is the store's one cell write, in absolute coordinates. Each
// write is routed, in region-local coordinates, to the region holding it or
// to the overflow RCV outside every region. Then every part of the batch
// decides its refusals before any part is written — a linked region's header
// row, a formula or a value its column's type rejects in a linked region, an
// overflow column past the RCV's 2^20 surrogate capacity — so a refused batch
// writes nothing. Each region then takes its part with one
// Translator.UpdateCells, in first-seen order, the overflow last; from there
// only I/O can fail, and that poisons the database. A batch that routes whole
// to one part at the sheet's origin (the overflow, or a region at A1) is that
// part, uncopied: no translator changes the batch it is given. Writes to one
// cell apply in batch order: the last one wins.
//
// UpdateCells performs no durability work itself; callers commit the whole
// batch with one DB.FlushWAL (one fsync) — see core.Engine.SetCells.
func (h *HybridStore) UpdateCells(writes []CellWrite) error {
	type part struct {
		tr     Translator
		dr, dc int // the region's offset from the sheet's origin
		n      int
		ws     []CellWrite
	}
	// Route and count every part's writes, then fill each in one allocation.
	parts := []part{{tr: h.overflow}}
	which := make([]int32, len(writes))
	for i, w := range writes {
		p := part{tr: h.overflow}
		if reg := h.regionAt(w.Row, w.Col); reg != nil {
			p = part{tr: reg.tr, dr: reg.rect.From.Row - 1, dc: reg.rect.From.Col - 1}
		}
		j := slices.IndexFunc(parts, func(q part) bool { return q.tr == p.tr })
		if j < 0 {
			j, parts = len(parts), append(parts, p)
		}
		which[i] = int32(j)
		parts[j].n++
	}
	if j := slices.IndexFunc(parts, func(p part) bool { return p.n == len(writes) }); j >= 0 && parts[j].dr == 0 && parts[j].dc == 0 {
		parts = []part{{tr: parts[j].tr, ws: writes}}
	} else {
		for j := range parts {
			parts[j].ws = make([]CellWrite, 0, parts[j].n)
		}
		for i, w := range writes {
			p := &parts[which[i]]
			w.Row, w.Col = w.Row-p.dr, w.Col-p.dc
			p.ws = append(p.ws, w)
		}
		parts = append(parts[1:], parts[0]) // the overflow's part last
	}
	for _, p := range parts {
		if err := p.tr.(refuser).refuse(p.ws); err != nil {
			return err
		}
	}
	for _, p := range parts {
		if err := p.tr.UpdateCells(p.ws); err != nil {
			return err
		}
	}
	return nil
}

// Shift is the store's one structural edit, in absolute coordinates and
// depgraph.Shift's convention: delta > 0 inserts delta blank rows (rows true)
// or columns before index at, delta < 0 deletes the -delta starting at at. Each
// region is decided on its own — several disjoint regions may span the band:
// one wholly past the edit moves, one the edit crosses grows or shrinks by
// its overlap through a single count-aware Translator.Shift, and one a
// delete covers on this axis is dropped without asking its translator. The
// overflow RCV shifts its own positional maps.
//
// Every refusal is decided before the first mutation — a linked region
// refuses a column edit that crosses it and a row delete that covers its
// header row, and every crossed region and the overflow read each tuple a
// delete removes (refuseShift) — so a refused edit leaves the store exactly
// as it was.
func (h *HybridStore) Shift(rows bool, at, delta int) error {
	if delta == 0 || at < 1 {
		return fmt.Errorf("model: structural edit of %d at index %d", delta, at)
	}
	// A region meets the edit when it spans [at, last]: for a delete that is
	// the band; an insert meets only regions it splits (f < at <= t).
	last := at - delta - 1
	if delta > 0 {
		last = at - 1
	}
	// crossing is a crossed region's local shift: an insert as it is, a
	// delete of the region's overlap with the band.
	crossing := func(f, t int) (int, int) {
		if delta > 0 {
			return at - f + 1, delta
		}
		lo := max(at, f)
		return lo - f + 1, lo - min(t, last) - 1
	}
	ext := h.overflow.Cols()
	if rows {
		ext = h.overflow.Rows()
	}
	drops := 0
	for _, r := range h.regions {
		f, t := axisSpan(&r.rect, rows)
		switch {
		case *t < at || *f > last: // the edit does not meet it
		case delta < 0 && at <= *f && *t <= last: // covered: dropped
			// A link still refuses a column delete and one of its header row.
			if tom, linked := r.tr.(*TOM); linked && (!rows || tom.headers) {
				return tom.refuseShift(rows, 1, delta)
			}
			drops++
		default:
			lo, d := crossing(*f, *t)
			if err := r.tr.(refuser).refuseShift(rows, lo, d); err != nil {
				return err
			}
		}
	}
	if at <= ext {
		if err := h.overflow.refuseShift(rows, at, max(delta, at-ext-1)); err != nil {
			return err
		}
	}
	// Rectangles move in place. A drop rebuilds the list into a fresh slice
	// (compacting in place would list a region twice if a later one failed);
	// an edit that drops nothing allocates nothing.
	regions := h.regions
	if drops > 0 {
		regions = make([]storeRegion, 0, len(h.regions)-drops)
	}
	for i := range h.regions {
		r := &h.regions[i]
		f, t := axisSpan(&r.rect, rows)
		switch {
		case *t < at: // before the edit: untouched
		case *f > last: // past it: moves
			*f += delta
			*t += delta
		case delta < 0 && at <= *f && *t <= last: // covered: dropped
			if err := r.tr.Drop(); err != nil {
				return err
			}
			h.deadSegs = append(h.deadSegs, r.seg)
			continue
		default: // crossed: grows, or shrinks by its overlap with the band
			lo, d := crossing(*f, *t)
			if err := r.tr.Shift(rows, lo, d); err != nil {
				return err
			}
			size := *t - *f + 1 + d
			*f = min(*f, at)
			*t = *f + size - 1
		}
		if drops > 0 {
			regions = append(regions, *r)
		}
	}
	h.regions = regions
	if at > ext {
		return nil // past the overflow's extent: none of its cells move
	}
	return h.overflow.Shift(rows, at, max(delta, at-ext-1))
}

// axisSpan points at g's first and last index on the edit's axis.
func axisSpan(g *sheet.Range, rows bool) (f, t *int) {
	if rows {
		return &g.From.Row, &g.To.Row
	}
	return &g.From.Col, &g.To.Col
}

// InsertRowsAfter inserts count rows after the absolute row (0 prepends):
// Shift in insertRowAfter's convention, like the three below.
func (h *HybridStore) InsertRowsAfter(row, count int) error {
	return h.Shift(true, row+1, max(count, 0))
}

// DeleteRows deletes the count rows starting at the absolute row.
func (h *HybridStore) DeleteRows(row, count int) error { return h.Shift(true, row, -max(count, 0)) }

// InsertColumnsAfter inserts count columns after the absolute column.
func (h *HybridStore) InsertColumnsAfter(col, count int) error {
	return h.Shift(false, col+1, max(count, 0))
}

// DeleteColumns deletes the count columns starting at the absolute column.
func (h *HybridStore) DeleteColumns(col, count int) error { return h.Shift(false, col, -max(count, 0)) }

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
	err := h.ReadCells(bounds, func(i, j int, v sheet.Value) {
		s.Set(sheet.Ref{Row: bounds.From.Row + i, Col: bounds.From.Col + j}, sheet.Cell{Value: v})
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}
