package sheet

import (
	"cmp"
	"math"
	"slices"
)

// Cell is the unit of the conceptual data model: a location with a value
// and, optionally, the formula text that produced it (without the leading
// '='). A cell with only a formula and an empty value is awaiting
// evaluation.
type Cell struct {
	Value   Value
	Formula string // empty when the cell holds a plain value
}

// HasFormula reports whether the cell carries a formula.
func (c Cell) HasFormula() bool { return c.Formula != "" }

// IsBlank reports whether the cell has neither content nor formula.
func (c Cell) IsBlank() bool { return c.Value.IsEmpty() && c.Formula == "" }

// CellWrite is one cell of a write batch, the one type a batch has from the
// engine through the store to the cache's publish: absolute coordinates at
// the store and the cache, region-local at a translator.
type CellWrite struct {
	Row, Col int
	Cell     Cell
}

// Ref returns the written cell's reference.
func (w CellWrite) Ref() Ref { return Ref{Row: w.Row, Col: w.Col} }

// Sheet is a sparse in-memory spreadsheet: the ground-truth collection of
// cells C = {C1..Cm} of Section IV-A. Physical data models are recoverable
// when they reproduce exactly this collection. Sheet supports the
// spreadsheet-oriented operations of Section III directly; the storage
// engine (internal/core) layers persistence and positional indexes on top.
//
// Sheet is not safe for concurrent mutation; the engine serializes access.
type Sheet struct {
	Name  string
	cells map[Ref]Cell
}

// New returns an empty sheet with the given name.
func New(name string) *Sheet {
	return &Sheet{Name: name, cells: make(map[Ref]Cell)}
}

// Len returns the number of filled cells.
func (s *Sheet) Len() int { return len(s.cells) }

// Get returns the cell at the reference; blank if unfilled.
func (s *Sheet) Get(r Ref) Cell { return s.cells[r] }

// GetRC returns the cell at (row, col); blank if unfilled.
func (s *Sheet) GetRC(row, col int) Cell { return s.cells[Ref{row, col}] }

// Filled reports whether the cell at the reference holds content.
func (s *Sheet) Filled(r Ref) bool {
	_, ok := s.cells[r]
	return ok
}

// Set stores the cell, deleting it when blank.
func (s *Sheet) Set(r Ref, c Cell) {
	if c.IsBlank() {
		delete(s.cells, r)
		return
	}
	s.cells[r] = c
}

// SetValue stores a plain value at (row, col).
func (s *Sheet) SetValue(row, col int, v Value) {
	s.Set(Ref{row, col}, Cell{Value: v})
}

// SetFormula stores formula text (without '=') at (row, col) with a
// not-yet-evaluated value.
func (s *Sheet) SetFormula(row, col int, formula string) {
	s.Set(Ref{row, col}, Cell{Formula: formula})
}

// Clear removes the cell at the reference.
func (s *Sheet) Clear(r Ref) { delete(s.cells, r) }

// Each calls fn for every filled cell in unspecified order.
func (s *Sheet) Each(fn func(Ref, Cell)) {
	for r, c := range s.cells {
		fn(r, c)
	}
}

// EachSorted calls fn for every filled cell in row-major order. It is
// deterministic and therefore used by bulk loads, tests and corpus
// statistics. One pass collects the cells with their references. When their
// rows span at most twice as many rows as there are cells, a counting sort
// buckets them by row; otherwise (far-apart rows of a sparse sheet) a sort by
// row does, so memory stays O(cells) either way. Each row's cells are then
// sorted by column. One comparison sort of the entries by (row, column) is
// about 3x slower on dense sheets, where core.Open and model.Materialize
// each call this (BenchmarkEachSorted, 2-CPU VM, 3 alternating runs):
//
//	sheet                               this           one sort
//	dense 100,000x16                    0.41-0.45 s    1.16-1.29 s
//	dense 30,000x16                     113-119 ms     297-369 ms
//	sparse 20,000x4, rows 1,000 apart   37-43 ms       50-56 ms
func (s *Sheet) EachSorted(fn func(Ref, Cell)) {
	type entry struct {
		ref  Ref
		cell Cell
	}
	if len(s.cells) == 0 {
		return
	}
	all := make([]entry, 0, len(s.cells))
	lo, hi := math.MaxInt, math.MinInt
	for r, c := range s.cells {
		all = append(all, entry{r, c})
		lo, hi = min(lo, r.Row), max(hi, r.Row)
	}
	// order is all's indexes in row-major order of their cells.
	order := make([]int32, len(all))
	if span := hi - lo + 1; span <= 2*len(all) {
		next := make([]int32, span+1) // next[i]: where row lo+i's next cell goes
		for _, e := range all {
			next[e.ref.Row-lo+1]++
		}
		for i := 1; i < span; i++ {
			next[i] += next[i-1]
		}
		for i, e := range all {
			order[next[e.ref.Row-lo]] = int32(i)
			next[e.ref.Row-lo]++
		}
	} else {
		for i := range order {
			order[i] = int32(i)
		}
		slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(all[a].ref.Row, all[b].ref.Row) })
	}
	for i := 0; i < len(order); {
		row, j := all[order[i]].ref.Row, i+1
		for j < len(order) && all[order[j]].ref.Row == row {
			j++
		}
		slices.SortFunc(order[i:j], func(a, b int32) int { return cmp.Compare(all[a].ref.Col, all[b].ref.Col) })
		i = j
	}
	for _, i := range order {
		fn(all[i].ref, all[i].cell)
	}
}

// Bounds returns the minimum bounding rectangle of the filled cells and
// whether the sheet contains any. Density statistics in Section II are
// computed within this box.
func (s *Sheet) Bounds() (Range, bool) {
	if len(s.cells) == 0 {
		return Range{}, false
	}
	first := true
	var g Range
	for r := range s.cells {
		if first {
			g = Range{r, r}
			first = false
			continue
		}
		if r.Row < g.From.Row {
			g.From.Row = r.Row
		}
		if r.Row > g.To.Row {
			g.To.Row = r.Row
		}
		if r.Col < g.From.Col {
			g.From.Col = r.Col
		}
		if r.Col > g.To.Col {
			g.To.Col = r.Col
		}
	}
	return g, true
}

// Density returns the ratio of filled cells to the area of the minimum
// bounding rectangle (Section II-B), or 0 for an empty sheet.
func (s *Sheet) Density() float64 {
	g, ok := s.Bounds()
	if !ok {
		return 0
	}
	return float64(len(s.cells)) / float64(g.Area())
}

// CountInRange returns the number of filled cells inside the range.
func (s *Sheet) CountInRange(g Range) int {
	// For small ranges scan cells of the range; for large ranges scan the map.
	if g.Area() < len(s.cells) {
		n := 0
		for row := g.From.Row; row <= g.To.Row; row++ {
			for col := g.From.Col; col <= g.To.Col; col++ {
				if _, ok := s.cells[Ref{row, col}]; ok {
					n++
				}
			}
		}
		return n
	}
	n := 0
	for r := range s.cells {
		if g.Contains(r) {
			n++
		}
	}
	return n
}

// GetRange materializes the rectangular range as a row-major matrix of
// cells — the getCells(range) primitive of Section III.
func (s *Sheet) GetRange(g Range) [][]Cell {
	out := make([][]Cell, g.Rows())
	for i := range out {
		row := make([]Cell, g.Cols())
		for j := range row {
			row[j] = s.cells[Ref{g.From.Row + i, g.From.Col + j}]
		}
		out[i] = row
	}
	return out
}

// InsertRowAfter shifts all cells with row > after down by one —
// insertRowAfter(row) of Section III. Formula references are rewritten by
// the engine, not here.
func (s *Sheet) InsertRowAfter(after int) { s.shiftRows(after+1, 1) }

// DeleteRow removes the row and shifts subsequent rows up by one.
func (s *Sheet) DeleteRow(row int) {
	for r := range s.cells {
		if r.Row == row {
			delete(s.cells, r)
		}
	}
	s.shiftRows(row+1, -1)
}

// InsertColumnAfter shifts all cells with col > after right by one.
func (s *Sheet) InsertColumnAfter(after int) { s.shiftCols(after+1, 1) }

// DeleteColumn removes the column and shifts subsequent columns left.
func (s *Sheet) DeleteColumn(col int) {
	for r := range s.cells {
		if r.Col == col {
			delete(s.cells, r)
		}
	}
	s.shiftCols(col+1, -1)
}

func (s *Sheet) shiftRows(from, delta int) {
	moved := make(map[Ref]Cell)
	for r, c := range s.cells {
		if r.Row >= from {
			moved[Ref{r.Row + delta, r.Col}] = c
			delete(s.cells, r)
		}
	}
	for r, c := range moved {
		s.cells[r] = c
	}
}

func (s *Sheet) shiftCols(from, delta int) {
	moved := make(map[Ref]Cell)
	for r, c := range s.cells {
		if r.Col >= from {
			moved[Ref{r.Row, r.Col + delta}] = c
			delete(s.cells, r)
		}
	}
	for r, c := range moved {
		s.cells[r] = c
	}
}

// Clone returns a deep copy of the sheet.
func (s *Sheet) Clone() *Sheet {
	out := New(s.Name)
	for r, c := range s.cells {
		out.cells[r] = c
	}
	return out
}

// Grid is a compact boolean occupancy matrix of the sheet's bounding box,
// used by the decomposition optimizers. Row 0 / col 0 of the grid map to
// the bounding box's top-left cell. The second return value is the bounding
// box itself; ok is false for an empty sheet.
func (s *Sheet) Grid() (grid [][]bool, box Range, ok bool) {
	box, ok = s.Bounds()
	if !ok {
		return nil, Range{}, false
	}
	grid = make([][]bool, box.Rows())
	for i := range grid {
		grid[i] = make([]bool, box.Cols())
	}
	for r := range s.cells {
		grid[r.Row-box.From.Row][r.Col-box.From.Col] = true
	}
	return grid, box, true
}
