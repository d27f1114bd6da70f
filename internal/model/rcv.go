package model

import (
	"errors"
	"fmt"

	"dataspread/internal/hybrid"
	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
)

// rcvColBits packs the column surrogate into the low bits of the composite
// key: key = rowID<<rcvColBits | colID. This bounds an RCV region to 2^20
// (~1M) column surrogates and 2^43 row surrogates — ample for spreadsheets.
const rcvColBits = 20

// RCV is the row-column-value translator (Section IV-B): one tuple per
// filled cell, keyed by stable row/column surrogates. Positions map to
// surrogates through positional maps, so row and column inserts touch no
// tuples at all; the key index makes point and row-range access O(log N).
type RCV struct {
	cfg    Config
	table  *rdbms.Table
	rowIDs idMap
	colIDs idMap
	// Row and column surrogates draw from separate counters: the packed
	// key caps column surrogates at 2^20 while row surrogates are
	// unbounded (43 bits).
	nextRowID int64
	nextColID int64
	// key -> heap RID, maintained alongside the table. The table also
	// carries the key attribute so the region is self-describing.
	index *rdbms.BTree
	cells int
}

// NewRCV creates an empty RCV region of the given initial dimensions.
func NewRCV(cfg Config, rows, cols int) (*RCV, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cols >= 1<<rcvColBits {
		return nil, fmt.Errorf("model: RCV supports at most %d columns", 1<<rcvColBits-1)
	}
	t, err := cfg.DB.CreateTable(cfg.TableName, rdbms.NewSchema(
		rdbms.Column{Name: "rck", Type: rdbms.DTInt},
		rdbms.Column{Name: "val", Type: rdbms.DTAny},
	))
	if err != nil {
		return nil, err
	}
	r := &RCV{
		cfg:       cfg,
		table:     t,
		rowIDs:    newIDMap(cfg.scheme()),
		colIDs:    newIDMap(cfg.scheme()),
		nextRowID: 1,
		nextColID: 1,
		index:     rdbms.NewBTree(64),
	}
	for i := 0; i < rows; i++ {
		r.rowIDs.Insert(i+1, r.allocRow())
	}
	for j := 0; j < cols; j++ {
		id, err := r.allocCol()
		if err != nil {
			return nil, err
		}
		r.colIDs.Insert(j+1, id)
	}
	return r, nil
}

func (r *RCV) allocRow() int64 {
	id := r.nextRowID
	r.nextRowID++
	return id
}

var errColCapacity = errors.New("model: RCV column capacity exceeded")

func (r *RCV) allocCol() (int64, error) {
	if r.nextColID >= 1<<rcvColBits {
		return 0, errColCapacity
	}
	id := r.nextColID
	r.nextColID++
	return id, nil
}

// Kind implements Translator.
func (r *RCV) Kind() hybrid.Kind { return hybrid.RCV }

// Rows implements Translator.
func (r *RCV) Rows() int { return r.rowIDs.Len() }

// Cols implements Translator.
func (r *RCV) Cols() int { return r.colIDs.Len() }

// CellCount returns the number of stored (filled) cells.
func (r *RCV) CellCount() int { return r.cells }

func key(rowID, colID int64) int64 { return rowID<<rcvColBits | colID }

// rcvValProj projects the value attribute only: range reads never decode
// (or re-materialize) the composite key, which the index scan already knows.
var rcvValProj = []int{1}

// ReadCells implements Translator: one index range scan per row gathers the
// range's tuple pointers, then a single batched fetch pins each heap page
// once, decodes only the value attribute and hands it to fn at its cell.
func (r *RCV) ReadCells(g sheet.Range, fn func(i, j int, v sheet.Value)) error {
	rows, cols := g.Rows(), g.Cols()
	// Reverse map: column surrogate -> offset within the requested range.
	colIDs := r.colIDs.Range(g.From.Col, cols)
	rev := make(map[int64]int, len(colIDs))
	for j, id := range colIDs {
		rev[id] = j
	}
	rowIDs := r.rowIDs.Range(g.From.Row, rows)
	bufp := getRIDBuf()
	defer putRIDBuf(bufp)
	rids := *bufp
	// Sized for the range, bounded by the region's filled-cell count.
	cellPos := make([]int32, 0, min(rows*cols, r.cells))
	for i, rowID := range rowIDs {
		lo := key(rowID, 0)
		hi := key(rowID, 1<<rcvColBits-1)
		r.index.Scan(lo, hi, func(k int64, rid rdbms.RID) bool {
			if j, want := rev[k&(1<<rcvColBits-1)]; want {
				rids = append(rids, rid)
				cellPos = append(cellPos, int32(i*cols+j))
			}
			return true
		})
	}
	*bufp = rids
	err := r.table.GetMany(rids, rcvValProj, func(idx int, vals rdbms.Row) error {
		v, err := cellAt(r.table, rids[idx], 1, vals[0])
		if err != nil {
			return err
		}
		if p := int(cellPos[idx]); !v.IsEmpty() {
			fn(p/cols, p%cols, v)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("model: RCV range read: %w", err)
	}
	return nil
}

// refuse refuses a batch with a write above the first row or left of the
// first column, or one that would grow the columns past the 2^20 surrogate
// capacity — decided before a single surrogate is allocated.
func (r *RCV) refuse(ws []CellWrite) error {
	cols := 0
	for _, w := range ws {
		if w.Row < 1 || w.Col < 1 {
			return fmt.Errorf("model: RCV position (%d,%d) out of range", w.Row, w.Col)
		}
		cols = max(cols, w.Col)
	}
	if grow := int64(cols - r.colIDs.Len()); grow > 0 && r.nextColID+grow > 1<<rcvColBits {
		return errColCapacity
	}
	return nil
}

// UpdateCells implements Translator: the key-value model has no batching
// lever — one tuple operation per cell (the paper's 2000-query behaviour).
// Blank cells delete the tuple; new cells insert; existing cells update in
// place. Writing beyond the current extent grows the surrogate maps.
func (r *RCV) UpdateCells(ws []CellWrite) error {
	if err := r.refuse(ws); err != nil {
		return err
	}
	for _, w := range ws {
		for r.rowIDs.Len() < w.Row {
			r.rowIDs.Insert(r.rowIDs.Len()+1, r.allocRow())
		}
		for r.colIDs.Len() < w.Col {
			id, err := r.allocCol()
			if err != nil {
				return err
			}
			r.colIDs.Insert(r.colIDs.Len()+1, id)
		}
		rowID, _ := r.rowIDs.At(w.Row)
		colID, _ := r.colIDs.At(w.Col)
		k := key(rowID, colID)
		rid, exists := r.index.Search(k)
		if w.Cell.IsBlank() {
			if exists {
				if err := r.table.Delete(rid); err != nil {
					return fmt.Errorf("model: RCV clear of %v: %w", sheet.Ref{Row: w.Row, Col: w.Col}, err)
				}
				r.index.DeleteKey(k)
				r.cells--
			}
			continue
		}
		tuple := rdbms.Row{rdbms.Int(k), encodeCell(w.Cell)}
		if !exists {
			newRID, err := r.table.Insert(tuple)
			if err != nil {
				return err
			}
			r.index.Insert(k, newRID)
			r.cells++
			continue
		}
		newRID, err := r.table.Update(rid, tuple)
		if err != nil {
			return err
		}
		if newRID != rid {
			r.index.DeleteKey(k)
			r.index.Insert(k, newRID)
		}
	}
	return nil
}

// Shift implements Translator. An insert places fresh surrogates with one
// positional-map shift and touches no tuple at all. A row delete sweeps one
// key range per deleted row; a column delete scans the whole index once
// (cells of a column are scattered across row key ranges), so count columns
// cost the same sweep as one. The surrogates leave in one positional pass.
func (r *RCV) Shift(rows bool, at, delta int) error {
	ids := r.colIDs
	if rows {
		ids = r.rowIDs
	}
	if err := checkShift(hybrid.RCV, rows, at, delta, ids.Len()); err != nil {
		return err
	}
	if delta > 0 {
		fresh := make([]int64, delta)
		for i := range fresh {
			var err error
			if rows {
				fresh[i] = r.allocRow()
			} else if fresh[i], err = r.allocCol(); err != nil {
				return err
			}
		}
		ids.InsertMany(at, fresh)
		return nil
	}
	// The band's tuples are read, then deleted, and only then is the band
	// dropped from the map: an unreadable page refuses with nothing changed.
	doomed := ids.Range(at, -delta)
	var keys []int64
	var rids []rdbms.RID
	collect := func(k int64, rid rdbms.RID) bool {
		keys = append(keys, k)
		rids = append(rids, rid)
		return true
	}
	if rows {
		for _, id := range doomed {
			r.index.Scan(key(id, 0), key(id, 1<<rcvColBits-1), collect)
		}
	} else {
		cols := make(map[int64]bool, len(doomed))
		for _, id := range doomed {
			cols[id] = true
		}
		r.index.Scan(0, 1<<62, func(k int64, rid rdbms.RID) bool {
			if cols[k&(1<<rcvColBits-1)] {
				collect(k, rid)
			}
			return true
		})
	}
	if err := readAll(r.table, rids); err != nil {
		return fmt.Errorf("model: RCV shift: %w", err)
	}
	for i, rid := range rids {
		if err := r.table.Delete(rid); err != nil {
			return fmt.Errorf("model: RCV shift: %w", err)
		}
		r.index.Delete(keys[i], rid)
		r.cells--
	}
	ids.DeleteMany(at, -delta)
	return nil
}

// StorageBytes implements Translator (index entries are costed by the
// catalog via the table's key attribute; the in-memory B+ tree mirrors a
// database index of 16 bytes per entry).
func (r *RCV) StorageBytes() int64 {
	return r.table.StorageBytes() + int64(r.index.Len())*16
}

// Drop implements Translator.
func (r *RCV) Drop() error { return r.cfg.DB.DropTable(r.cfg.TableName) }
