// Package workload generates the synthetic workloads behind every
// experiment in the reproduction: statistical spreadsheet corpora
// calibrated to the four datasets of Table I (the real corpora are not
// redistributable; sheets are drawn to match their published statistics),
// the large synthetic sheets of Section VII-B.e, the VCF-scale genomics data of
// Example 1, the update-operation mix of Appendix C-A2, and the published
// user-survey distribution of Figure 6.
//
// All generators are deterministic given their seed.
package workload

import (
	"fmt"
	"math/rand"

	"dataspread/internal/sheet"
)

// Profile parameterizes a corpus generator, calibrated so the generated
// corpus reproduces the marginal statistics the paper reports for the
// matching dataset (Table I).
type Profile struct {
	Name string
	// FormulaSheetFrac is the fraction of sheets containing formulas.
	FormulaSheetFrac float64
	// HeavyFormulaFrac is the fraction of formula sheets where formulas
	// exceed 20% of filled cells.
	HeavyFormulaFrac float64
	// SparseFrac is the fraction of sheets with density below 0.5;
	// VerySparseFrac below 0.2.
	SparseFrac     float64
	VerySparseFrac float64
	// TablesPerSheet is the mean number of tabular regions per sheet.
	TablesPerSheet float64
	// TableRows/TableCols bound table dimensions.
	TableRowsMin, TableRowsMax int
	TableColsMin, TableColsMax int
	// RangeFormulaFrac is the share of formulas that read a whole range
	// (SUM/AVERAGE/VLOOKUP style) rather than a few cells — this drives
	// cells-per-formula.
	RangeFormulaFrac float64
}

// The four corpus profiles of Table I.
var (
	Internet = Profile{
		Name: "Internet", FormulaSheetFrac: 0.29, HeavyFormulaFrac: 0.69,
		SparseFrac: 0.23, VerySparseFrac: 0.06, TablesPerSheet: 1.3,
		TableRowsMin: 8, TableRowsMax: 60, TableColsMin: 3, TableColsMax: 12,
		RangeFormulaFrac: 0.65,
	}
	ClueWeb09 = Profile{
		Name: "ClueWeb09", FormulaSheetFrac: 0.42, HeavyFormulaFrac: 0.64,
		SparseFrac: 0.47, VerySparseFrac: 0.24, TablesPerSheet: 1.4,
		TableRowsMin: 6, TableRowsMax: 45, TableColsMin: 3, TableColsMax: 10,
		RangeFormulaFrac: 0.5,
	}
	Enron = Profile{
		Name: "Enron", FormulaSheetFrac: 0.40, HeavyFormulaFrac: 0.77,
		SparseFrac: 0.50, VerySparseFrac: 0.25, TablesPerSheet: 0.6,
		TableRowsMin: 6, TableRowsMax: 40, TableColsMin: 2, TableColsMax: 10,
		RangeFormulaFrac: 0.5,
	}
	Academic = Profile{
		Name: "Academic", FormulaSheetFrac: 0.91, HeavyFormulaFrac: 0.78,
		SparseFrac: 0.91, VerySparseFrac: 0.61, TablesPerSheet: 0.45,
		TableRowsMin: 5, TableRowsMax: 20, TableColsMin: 2, TableColsMax: 6,
		RangeFormulaFrac: 0.05,
	}
)

// Profiles lists the four corpus profiles in the paper's order.
func Profiles() []Profile { return []Profile{Internet, ClueWeb09, Enron, Academic} }

// Corpus generates n sheets under the profile.
func Corpus(p Profile, n int, seed int64) []*sheet.Sheet {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*sheet.Sheet, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, GenSheet(p, rng, fmt.Sprintf("%s-%d", p.Name, i)))
	}
	return out
}

// GenSheet generates one sheet under the profile.
func GenSheet(p Profile, rng *rand.Rand, name string) *sheet.Sheet {
	s := sheet.New(name)

	// Density class decides layout: dense sheets are dominated by tables;
	// sparse sheets scatter cells and small forms.
	r := rng.Float64()
	var class int // 0 dense, 1 medium-sparse, 2 very sparse
	switch {
	case r < p.VerySparseFrac:
		class = 2
	case r < p.SparseFrac:
		class = 1
	}

	// Place tables.
	tables := poissonish(rng, p.TablesPerSheet)
	if class == 0 && tables == 0 {
		tables = 1
	}
	cursorRow := 1
	var tableBoxes []sheet.Range
	for t := 0; t < tables; t++ {
		rows := p.TableRowsMin + rng.Intn(p.TableRowsMax-p.TableRowsMin+1)
		cols := p.TableColsMin + rng.Intn(p.TableColsMax-p.TableColsMin+1)
		startRow := cursorRow + rng.Intn(3)
		startCol := 1 + rng.Intn(4)
		box := sheet.NewRange(startRow, startCol, startRow+rows-1, startCol+cols-1)
		fillTable(s, box, rng)
		tableBoxes = append(tableBoxes, box)
		cursorRow = box.To.Row + 2 + rng.Intn(4)
	}

	// Sparse classes scatter extra content (labels, notes, form fields) far
	// from the tables, dropping overall density. Stray content comes in
	// small clumps — a label next to its value, a short form block — not as
	// isolated cells, matching the highly dense connected components the
	// paper observes even on sparse sheets (Figure 4).
	if class >= 1 {
		span := 40 + rng.Intn(100)
		if class == 2 {
			span = 120 + rng.Intn(300)
		}
		clumps := 2 + rng.Intn(5)
		for i := 0; i < clumps; i++ {
			r0 := rng.Intn(span) + 1
			c0 := rng.Intn(span/2+2) + 1
			h := 1 + rng.Intn(3)
			w := 1 + rng.Intn(3)
			for dr := 0; dr < h; dr++ {
				for dc := 0; dc < w; dc++ {
					s.SetValue(r0+dr, c0+dc, randomValue(rng))
				}
			}
		}
	}

	// Formulas.
	if rng.Float64() < p.FormulaSheetFrac {
		frac := 0.02 + rng.Float64()*0.1
		if rng.Float64() < p.HeavyFormulaFrac {
			frac = 0.21 + rng.Float64()*0.3
		}
		nf := int(frac * float64(s.Len()))
		if nf < 1 {
			nf = 1
		}
		box, ok := s.Bounds()
		if !ok {
			s.SetValue(1, 1, sheet.Number(1))
			box, _ = s.Bounds()
		}
		for i := 0; i < nf; i++ {
			placeFormula(s, box, tableBoxes, p, rng)
		}
	}
	return s
}

func fillTable(s *sheet.Sheet, box sheet.Range, rng *rand.Rand) {
	for col := box.From.Col; col <= box.To.Col; col++ {
		s.SetValue(box.From.Row, col, sheet.Str(fmt.Sprintf("col%d", col)))
	}
	for row := box.From.Row + 1; row <= box.To.Row; row++ {
		for col := box.From.Col; col <= box.To.Col; col++ {
			// Tables are dense but not perfect (~95% fill).
			if rng.Float64() < 0.95 {
				s.SetValue(row, col, randomValue(rng))
			}
		}
	}
}

func randomValue(rng *rand.Rand) sheet.Value {
	switch rng.Intn(4) {
	case 0:
		return sheet.Str(fmt.Sprintf("v%d", rng.Intn(1000)))
	case 1:
		return sheet.Number(float64(rng.Intn(100000)) / 100)
	default:
		return sheet.Number(float64(rng.Intn(10000)))
	}
}

// placeFormula adds one formula below or beside existing content.
func placeFormula(s *sheet.Sheet, box sheet.Range, tables []sheet.Range, p Profile, rng *rand.Rand) {
	row := box.To.Row + 1 + rng.Intn(3)
	col := box.From.Col + rng.Intn(box.Cols())
	if s.Filled(sheet.Ref{Row: row, Col: col}) {
		row++
	}
	var src string
	if len(tables) > 0 && rng.Float64() < p.RangeFormulaFrac {
		// Range aggregate over a table column (SUM/AVERAGE/VLOOKUP).
		tb := tables[rng.Intn(len(tables))]
		c := tb.From.Col + rng.Intn(tb.Cols())
		cn := sheet.ColumnName(c)
		switch rng.Intn(4) {
		case 0:
			src = fmt.Sprintf("SUM(%s%d:%s%d)", cn, tb.From.Row+1, cn, tb.To.Row)
		case 1:
			src = fmt.Sprintf("AVERAGE(%s%d:%s%d)", cn, tb.From.Row+1, cn, tb.To.Row)
		case 2:
			src = fmt.Sprintf("COUNT(%s%d:%s%d)", cn, tb.From.Row+1, cn, tb.To.Row)
		default:
			src = fmt.Sprintf("VLOOKUP(\"v1\",%s%d:%s%d,2)",
				sheet.ColumnName(tb.From.Col), tb.From.Row+1,
				sheet.ColumnName(tb.To.Col), tb.To.Row)
		}
	} else {
		// Small arithmetic / conditional over nearby cells.
		r1 := box.From.Row + rng.Intn(box.Rows())
		c1 := sheet.ColumnName(box.From.Col + rng.Intn(box.Cols()))
		c2 := sheet.ColumnName(box.From.Col + rng.Intn(box.Cols()))
		switch rng.Intn(5) {
		case 0:
			src = fmt.Sprintf("%s%d+%s%d", c1, r1, c2, r1)
		case 1:
			src = fmt.Sprintf("IF(%s%d>0,%s%d,0)", c1, r1, c2, r1)
		case 2:
			src = fmt.Sprintf("ROUND(%s%d*1.08,2)", c1, r1)
		case 3:
			src = fmt.Sprintf("ISBLANK(%s%d)", c1, r1)
		default:
			src = fmt.Sprintf("LN(ABS(%s%d)+1)", c1, r1)
		}
	}
	s.SetFormula(row, col, src)
}

// poissonish draws a small non-negative integer with the given mean.
func poissonish(rng *rand.Rand, mean float64) int {
	n := 0
	for mean > 0 {
		if mean >= 1 {
			n++
			mean--
			continue
		}
		if rng.Float64() < mean {
			n++
		}
		break
	}
	// Add +/-1 jitter.
	if n > 0 && rng.Float64() < 0.3 {
		n += rng.Intn(3) - 1
		if n < 0 {
			n = 0
		}
	}
	return n
}
