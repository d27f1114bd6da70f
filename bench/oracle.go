package main

import (
	"fmt"
	"math"
	"sort"

	"dataspread/internal/sheet"
)

// The oracle knows what every cell of one sheet must hold at every
// generation the server has acknowledged. Imported content is the
// generator's pure function; on top of it sit the write histories of the
// few rectangles the run writes to (paste areas, single edited cells), the
// transient row shifts of the struct phase, and the tick count. A read
// stamped with generation g is checked against the state after the last
// write acknowledged with a generation <= g — so a reader running beside a
// writer is held to snapshot consistency: it may see a batch or not, never
// part of one.

// stamp records that a write op acknowledged at gen left version behind.
type stamp struct {
	gen     uint64
	version uint32
}

// area is a rectangle only ever written whole, with its write history.
type area struct {
	rect sheet.Range
	hist []stamp
}

// shiftEvent is one structural op: after gen, the sheet has a blank row at
// at (inserted) or has lost it again.
type shiftEvent struct {
	gen      uint64
	at       int
	inserted bool
}

type oracle struct {
	seed     uint64
	spec     *sheetSpec
	sheetIdx int
	ticks    int
	areas    []*area
	cells    map[sheet.Ref][]stamp
	shifts   []shiftEvent
	version  uint32
}

func newOracle(seed uint64, spec *sheetSpec, sheetIdx int) *oracle {
	return &oracle{seed: seed, spec: spec, sheetIdx: sheetIdx, cells: make(map[sheet.Ref][]stamp)}
}

const latest = math.MaxUint64

func (o *oracle) nextVersion() uint32 {
	o.version++
	return o.version
}

func (o *oracle) addArea(g sheet.Range) *area {
	a := &area{rect: g}
	o.areas = append(o.areas, a)
	return a
}

func versionAt(hist []stamp, gen uint64) uint32 {
	i := sort.Search(len(hist), func(i int) bool { return hist[i].gen > gen })
	if i == 0 {
		return 0
	}
	return hist[i-1].version
}

// input is the text a client sends to put version into a data cell.
func (o *oracle) input(row, col int, version uint32) string {
	return fmt.Sprintf("%.0f", dataValue(o.seed, o.sheetIdx, row, col, version))
}

// tickerValue is what workload.Tick(o.ticks) left in A1.
func (o *oracle) tickerValue() float64 { return float64(100 + o.ticks) }

// dataAt returns a data-class cell's content at gen; ok is false for a cell
// the generator left empty and no write has filled.
func (o *oracle) dataAt(row, col int, gen uint64, near []*area) (float64, bool) {
	var v uint32
	hit := false
	for _, a := range near {
		if a.rect.Contains(sheet.Ref{Row: row, Col: col}) {
			v, hit = versionAt(a.hist, gen), true
			break
		}
	}
	if !hit {
		if hist, ok := o.cells[sheet.Ref{Row: row, Col: col}]; ok {
			v = versionAt(hist, gen)
		}
	}
	if v == 0 && !o.spec.filledAtImport(o.seed, o.sheetIdx, row, col) {
		return 0, false
	}
	return dataValue(o.seed, o.sheetIdx, row, col, v), true
}

// expect returns what logical cell (row, col) holds at gen; ok is false for
// an empty cell. Formula results are the naive evaluation over expected
// inputs, valid once the recalc has drained.
func (o *oracle) expect(row, col int, gen uint64, near []*area) (float64, bool) {
	class, a, b := o.spec.classify(row, col)
	switch class {
	case classTicker:
		return o.tickerValue(), true
	case classInter:
		return o.tickerValue() * float64(a), true
	case classLeaf:
		return o.tickerValue()*float64(a) + float64(b), true
	case classData:
		return o.dataAt(row, col, gen, near)
	case classSum:
		sum := 0.0
		for c := 1; c <= o.spec.BlockCols; c++ {
			if v, ok := o.dataAt(row, c, gen, near); ok {
				sum += v
			}
		}
		return sum, true
	}
	return 0, false
}

// blankRowAt returns the sheet row holding the struct phase's transient
// blank row at gen, 0 when the sheet is in shape.
func (o *oracle) blankRowAt(gen uint64) int {
	i := sort.Search(len(o.shifts), func(i int) bool { return o.shifts[i].gen > gen })
	if i == 0 || !o.shifts[i-1].inserted {
		return 0
	}
	return o.shifts[i-1].at
}

// check compares one get-range reply, served at gen, with the oracle and
// returns a description of the first wrong cell.
func (o *oracle) check(g sheet.Range, cells [][]sheet.Cell, gen uint64) error {
	if len(cells) != g.Rows() {
		return fmt.Errorf("%s %v: %d rows in reply, want %d", o.spec.Name, g, len(cells), g.Rows())
	}
	var near []*area
	for _, a := range o.areas {
		// One row of slack: under a transient shift, sheet row r shows
		// logical row r-1.
		if a.rect.Intersects(sheet.NewRange(g.From.Row-1, 1, g.To.Row, math.MaxInt32)) {
			near = append(near, a)
		}
	}
	blank := o.blankRowAt(gen)
	for i, rowCells := range cells {
		if len(rowCells) != g.Cols() {
			return fmt.Errorf("%s %v: %d cols in reply row %d, want %d", o.spec.Name, g, len(rowCells), i, g.Cols())
		}
		row := g.From.Row + i
		logical := row
		if blank != 0 && row > blank {
			logical = row - 1
		}
		for j, c := range rowCells {
			col := g.From.Col + j
			want, filled := 0.0, false
			if row != blank {
				want, filled = o.expect(logical, col, gen, near)
			}
			got, _ := c.Value.Num()
			switch {
			case !filled && !c.Value.IsEmpty():
				return fmt.Errorf("%s %v at gen %d: got %v, want empty", o.spec.Name, sheet.Ref{Row: row, Col: col}, gen, c.Value)
			case filled && (c.Value.Kind() != sheet.KindNumber || got != want):
				return fmt.Errorf("%s %v at gen %d: got %v, want %.0f", o.spec.Name, sheet.Ref{Row: row, Col: col}, gen, c.Value, want)
			}
		}
	}
	return nil
}
