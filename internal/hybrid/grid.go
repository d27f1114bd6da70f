package hybrid

import (
	"math"

	"dataspread/internal/sheet"
)

// Grid is the optimizer's view of a sheet: the occupancy of the minimum
// bounding rectangle, with adjacent identical rows/columns collapsed into
// weighted ones (Theorem 5) and a 2-D prefix-sum for O(1) filled-cell
// counts over any rectangle.
type Grid struct {
	// R, C are the collapsed dimensions.
	R, C int
	// rowW, colW are the weights (how many original rows/columns each
	// collapsed row/column represents).
	rowW, colW []int
	// rowStart, colStart map collapsed indexes to absolute sheet
	// coordinates (the first original row/column of the group).
	rowStart, colStart []int
	// occ is the collapsed occupancy matrix.
	occ [][]bool
	// pre[i][j] = number of filled ORIGINAL cells in collapsed rectangle
	// [0..i-1] x [0..j-1] (weights applied).
	pre [][]int
	// preRows, preCols are weight prefix sums: preRows[i] = sum of
	// rowW[0..i-1].
	preRows, preCols []int
}

// NewGrid builds a grid from the sheet. When collapse is true, identical
// adjacent rows and columns are merged into weighted ones; Theorem 5
// guarantees this loses no optimality. ok is false for an empty sheet.
func NewGrid(s *sheet.Sheet, collapse bool) (*Grid, bool) {
	occ, box, ok := s.Grid()
	if !ok {
		return nil, false
	}
	return newGridFromOcc(occ, box.From.Row, box.From.Col, collapse, nil, nil), true
}

// NewGridConstrained is NewGrid with mandatory group boundaries: collapsing
// never merges across an absolute row in rowBreaks or column in colBreaks
// (a break at r means groups split between r-1 and r). Incremental
// maintenance uses the old regions' edges as breaks so every old rectangle
// stays exactly representable in the collapsed grid.
func NewGridConstrained(s *sheet.Sheet, rowBreaks, colBreaks []int) (*Grid, bool) {
	occ, box, ok := s.Grid()
	if !ok {
		return nil, false
	}
	br := make(map[int]bool, len(rowBreaks))
	for _, r := range rowBreaks {
		br[r] = true
	}
	bc := make(map[int]bool, len(colBreaks))
	for _, c := range colBreaks {
		bc[c] = true
	}
	return newGridFromOcc(occ, box.From.Row, box.From.Col, true, br, bc), true
}

func newGridFromOcc(occ [][]bool, baseRow, baseCol int, collapse bool, rowBreaks, colBreaks map[int]bool) *Grid {
	rows := len(occ)
	cols := 0
	if rows > 0 {
		cols = len(occ[0])
	}

	// Group adjacent identical rows, never across a mandatory break.
	rowGroup := make([]int, 0, rows) // representative original index per group
	rowW := make([]int, 0, rows)
	for i := 0; i < rows; i++ {
		if collapse && len(rowGroup) > 0 && !rowBreaks[baseRow+i] &&
			equalRows(occ[rowGroup[len(rowGroup)-1]], occ[i]) {
			rowW[len(rowW)-1]++
			continue
		}
		rowGroup = append(rowGroup, i)
		rowW = append(rowW, 1)
	}
	// Group adjacent identical columns (compared on the collapsed rows).
	colGroup := make([]int, 0, cols)
	colW := make([]int, 0, cols)
	for j := 0; j < cols; j++ {
		if collapse && len(colGroup) > 0 && !colBreaks[baseCol+j] &&
			equalCols(occ, rowGroup, colGroup[len(colGroup)-1], j) {
			colW[len(colW)-1]++
			continue
		}
		colGroup = append(colGroup, j)
		colW = append(colW, 1)
	}

	g := &Grid{
		R: len(rowGroup), C: len(colGroup),
		rowW: rowW, colW: colW,
		rowStart: make([]int, len(rowGroup)),
		colStart: make([]int, len(colGroup)),
	}
	// Absolute coordinates of each group's first original row/column.
	off := baseRow
	for i := range rowGroup {
		g.rowStart[i] = off
		off += rowW[i]
	}
	off = baseCol
	for j := range colGroup {
		g.colStart[j] = off
		off += colW[j]
	}

	g.occ = make([][]bool, g.R)
	for i := range g.occ {
		g.occ[i] = make([]bool, g.C)
		for j := range g.occ[i] {
			g.occ[i][j] = occ[rowGroup[i]][colGroup[j]]
		}
	}

	g.pre = make([][]int, g.R+1)
	g.pre[0] = make([]int, g.C+1)
	for i := 1; i <= g.R; i++ {
		g.pre[i] = make([]int, g.C+1)
		for j := 1; j <= g.C; j++ {
			cell := 0
			if g.occ[i-1][j-1] {
				cell = rowW[i-1] * colW[j-1]
			}
			g.pre[i][j] = g.pre[i-1][j] + g.pre[i][j-1] - g.pre[i-1][j-1] + cell
		}
	}
	g.preRows = make([]int, g.R+1)
	for i := 0; i < g.R; i++ {
		g.preRows[i+1] = g.preRows[i] + rowW[i]
	}
	g.preCols = make([]int, g.C+1)
	for j := 0; j < g.C; j++ {
		g.preCols[j+1] = g.preCols[j] + colW[j]
	}
	return g
}

func equalRows(a, b []bool) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalCols(occ [][]bool, rowGroup []int, a, b int) bool {
	for _, i := range rowGroup {
		if occ[i][a] != occ[i][b] {
			return false
		}
	}
	return true
}

// rect is a rectangle in collapsed coordinates, inclusive.
type rect struct{ r1, c1, r2, c2 int }

// Filled returns the number of filled original cells inside the collapsed
// rectangle.
func (g *Grid) Filled(r rect) int {
	return g.pre[r.r2+1][r.c2+1] - g.pre[r.r1][r.c2+1] - g.pre[r.r2+1][r.c1] + g.pre[r.r1][r.c1]
}

// Rows returns the number of original rows spanned.
func (g *Grid) Rows(r rect) int { return g.preRows[r.r2+1] - g.preRows[r.r1] }

// Cols returns the number of original columns spanned.
func (g *Grid) Cols(r rect) int { return g.preCols[r.c2+1] - g.preCols[r.c1] }

// Area returns the number of original cells spanned.
func (g *Grid) Area(r rect) int { return g.Rows(r) * g.Cols(r) }

// FilledTotal returns the total filled cells in the sheet.
func (g *Grid) FilledTotal() int { return g.pre[g.R][g.C] }

// NonEmptyRowsCols returns how many original rows and columns contain at
// least one filled cell (for the OPT lower bound).
func (g *Grid) NonEmptyRowsCols() (nr, nc int) {
	for i := 0; i < g.R; i++ {
		if g.Filled(rect{i, 0, i, g.C - 1}) > 0 {
			nr += g.rowW[i]
		}
	}
	for j := 0; j < g.C; j++ {
		if g.Filled(rect{0, j, g.R - 1, j}) > 0 {
			nc += g.colW[j]
		}
	}
	return nr, nc
}

// ToRange converts a collapsed rectangle to absolute sheet coordinates.
func (g *Grid) ToRange(r rect) sheet.Range {
	return sheet.NewRange(
		g.rowStart[r.r1], g.colStart[r.c1],
		g.rowStart[r.r2]+g.rowW[r.r2]-1, g.colStart[r.c2]+g.colW[r.c2]-1,
	)
}

// full returns the rectangle covering the whole grid.
func (g *Grid) full() rect { return rect{0, 0, g.R - 1, g.C - 1} }

// intersectRects returns the overlap of two collapsed rectangles.
func intersectRects(a, b rect) (rect, bool) {
	out := rect{
		r1: maxInt(a.r1, b.r1), c1: maxInt(a.c1, b.c1),
		r2: minInt(a.r2, b.r2), c2: minInt(a.c2, b.c2),
	}
	if out.r1 > out.r2 || out.c1 > out.c2 {
		return rect{}, false
	}
	return out, true
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// regionCost evaluates one region under a single model kind. maxCols
// enforces the Theorem 8 size constraint: a ROM wider (or COM taller) than
// the database's column limit is inadmissible (+Inf), forcing a split.
func regionCost(g *Grid, p CostParams, r rect, k Kind, maxCols int) float64 {
	switch k {
	case ROM, TOM:
		if maxCols > 0 && g.Cols(r) > maxCols {
			return math.Inf(1)
		}
		return p.ROMCost(g.Rows(r), g.Cols(r))
	case COM:
		if maxCols > 0 && g.Rows(r) > maxCols {
			return math.Inf(1)
		}
		return p.COMCost(g.Rows(r), g.Cols(r))
	case RCV:
		return p.RCVCost(g.Filled(r))
	}
	return 0
}
