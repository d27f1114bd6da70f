package workload

import (
	"fmt"

	"dataspread/internal/sheet"
)

// TickerSpec parameterizes the ticking-market scenario driving the async
// recalc benchmark (LazyBrowsing): one ticker cell A1 fans out to a column
// of intermediate aggregates, each of which fans out to a row of leaf
// positions. A single tick to A1 therefore dirties a cone of
// 1 + Intermediates + Intermediates*LeavesPer cells — the shape where
// inline recalculation makes an edit unresponsive and background,
// viewport-first evaluation pays off.
type TickerSpec struct {
	// Intermediates is the number of aggregate cells in column B, each
	// reading the ticker (default 1000).
	Intermediates int
	// LeavesPer is the number of leaf formulas per intermediate, laid out
	// along the intermediate's row from column C (default 100).
	LeavesPer int
}

func (s *TickerSpec) defaults() {
	if s.Intermediates <= 0 {
		s.Intermediates = 1000
	}
	if s.LeavesPer <= 0 {
		s.LeavesPer = 100
	}
}

// ConeSize is the number of cells a tick dirties (the ticker's transitive
// dependents, excluding A1 itself).
func (s TickerSpec) ConeSize() int {
	s.defaults()
	return s.Intermediates + s.Intermediates*s.LeavesPer
}

// Viewport is the "screen" a client watches: the top-left 50x10 window of
// the leaf region, the cells a viewport-first recalc must converge before
// the rest of the cone.
func (s TickerSpec) Viewport() sheet.Range {
	s.defaults()
	rows := minI2(50, s.Intermediates)
	cols := minI2(10, s.LeavesPer)
	return sheet.NewRange(1, 3, rows, 2+cols)
}

// TickerMarket builds the market sheet: A1 = 100 (the ticker), column B
// the intermediates B<i> = A1*i, and each row's leaves (C<i>..) reading
// that intermediate. Apply it to an engine with Edits.
func TickerMarket(spec TickerSpec) *sheet.Sheet {
	spec.defaults()
	s := sheet.New("market")
	s.SetValue(1, 1, sheet.Number(100))
	for i := 1; i <= spec.Intermediates; i++ {
		s.SetFormula(i, 2, fmt.Sprintf("A1*%d", i))
		for j := 1; j <= spec.LeavesPer; j++ {
			s.SetFormula(i, 2+j, fmt.Sprintf("B%d+%d", i, j))
		}
	}
	return s
}

// Edit is one cell edit, following the engine's Set convention ("=..."
// installs a formula, "" clears, anything else is a literal).
type Edit struct {
	Row, Col int
	Input    string
}

// Edits flattens a sheet into one bulk edit batch (formulas as "=...",
// values as literal text) for the engine's bulk path.
func Edits(s *sheet.Sheet) []Edit {
	var edits []Edit
	s.EachSorted(func(r sheet.Ref, c sheet.Cell) {
		input := c.Value.Text()
		if c.HasFormula() {
			input = "=" + c.Formula
		}
		edits = append(edits, Edit{Row: r.Row, Col: r.Col, Input: input})
	})
	return edits
}

// Tick is the n-th market tick: a new price for the ticker cell. Prices
// vary so every tick really changes the whole cone.
func Tick(n int) Edit {
	return Edit{Row: 1, Col: 1, Input: fmt.Sprintf("%d", 100+n)}
}
