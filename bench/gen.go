package main

import (
	"fmt"

	"dataspread/internal/sheet"
	"dataspread/internal/workload"
)

// sheetSpec is the geometry of one generated sheet. Every cell's content is
// a pure function of (seed, sheet index, row, col, version), so the oracle
// never holds the sheet.
//
// From the top: an optional ticker cone, workload.TickerMarket(Cone) as it
// is: the ticker in A1, =A1*i down column B, each row's leaves =B<i>+j from
// column C. Then a grid of Bands x PerBand data
// blocks of BlockRows x BlockCols cells separated by blank gutters, each
// block filled to Permille/1000; with Diagonal each band starts right of
// the one above, which leaves the empty corners that make the hybrid
// optimizer keep the blocks as separate tables. With a single block per
// band, the first SumRows rows of the body carry =SUM(A<r>:<last><r>) in the
// column right of the block.
type sheetSpec struct {
	Name string
	// Algo is the layout algorithm handed to core.Open ("rom", "agg").
	Algo string
	// Cone is the zero value for a sheet without one.
	Cone                 workload.TickerSpec
	Bands, PerBand       int
	BlockRows, BlockCols int
	RowGutter, ColGutter int
	Diagonal             bool
	Permille             int
	SumRows              int
}

type cellClass uint8

const (
	classBlank cellClass = iota
	classTicker
	classInter // a = intermediate i
	classLeaf  // a = i, b = leaf j
	classData
	classSum
)

func (s *sheetSpec) bodyTop() int {
	if s.Cone.Intermediates == 0 {
		return 1
	}
	return s.Cone.Intermediates + 1 + s.RowGutter
}

func (s *sheetSpec) maxRow() int {
	return s.bodyTop() + s.Bands*(s.BlockRows+s.RowGutter) - s.RowGutter - 1
}

// bandWidth is the width of one band's blocks and the gutters between them.
func (s *sheetSpec) bandWidth() int { return s.PerBand*(s.BlockCols+s.ColGutter) - s.ColGutter }

// bandLeft is the first column of band b.
func (s *sheetSpec) bandLeft(b int) int {
	if s.Diagonal {
		return 1 + b*(s.bandWidth()+s.ColGutter)
	}
	return 1
}

func (s *sheetSpec) maxCol() int {
	w := s.bandLeft(s.Bands-1) + s.bandWidth() - 1
	if s.SumRows > 0 {
		w++
	}
	if s.Cone.Intermediates > 0 {
		w = max(w, 2+s.Cone.LeavesPer)
	}
	return w
}

// blockRect returns the rectangle of data block k of band b.
func (s *sheetSpec) blockRect(b, k int) sheet.Range {
	top := s.bodyTop() + b*(s.BlockRows+s.RowGutter)
	left := s.bandLeft(b) + k*(s.BlockCols+s.ColGutter)
	return sheet.NewRange(top, left, top+s.BlockRows-1, left+s.BlockCols-1)
}

// coneRect is the rectangle of the cone block, ticker column included.
func (s *sheetSpec) coneRect() sheet.Range {
	return sheet.NewRange(1, 1, s.Cone.Intermediates, 2+s.Cone.LeavesPer)
}

// classify names what the generator put at (row, col), ignoring the fill
// density of data blocks.
func (s *sheetSpec) classify(row, col int) (c cellClass, a, b int) {
	if row < 1 || col < 1 {
		return classBlank, 0, 0
	}
	if row <= s.Cone.Intermediates {
		switch {
		case col > 2+s.Cone.LeavesPer:
			return classBlank, 0, 0
		case col == 1 && row == 1:
			return classTicker, 0, 0
		case col == 1:
			return classBlank, 0, 0
		case col == 2:
			return classInter, row, 0
		}
		return classLeaf, row, col - 2
	}
	top := s.bodyTop()
	if row < top || row > s.maxRow() {
		return classBlank, 0, 0
	}
	if (row-top)%(s.BlockRows+s.RowGutter) >= s.BlockRows {
		return classBlank, 0, 0
	}
	off := col - s.bandLeft((row-top)/(s.BlockRows+s.RowGutter))
	if off >= 0 && off < s.bandWidth() && off%(s.BlockCols+s.ColGutter) < s.BlockCols {
		return classData, 0, 0
	}
	if s.SumRows > 0 && col == s.BlockCols+1 && row < top+s.SumRows {
		return classSum, 0, 0
	}
	return classBlank, 0, 0
}

func mix(seed uint64, sheetIdx, row, col int) uint64 {
	x := seed ^ uint64(sheetIdx)<<58 ^ uint64(row)<<24 ^ uint64(col)
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// dataValue is the content of a data cell at a version (0 is the imported
// sheet; every write op of the run takes the next version). Every value has
// eleven significant decimal digits, the last one non-zero, so the store's
// shortest-float text encoding is the same length for all of them: a rewrite
// never changes a stored tuple's size and the pages an edit dirties depend
// on its position alone — which is what lets the byte counts repeat exactly,
// whatever the seed. The version is readable back out of the value: that is
// the stamp a reader checks a pasted batch by.
func dataValue(seed uint64, sheetIdx, row, col int, version uint32) float64 {
	h := mix(seed, sheetIdx, row, col)
	return float64(uint64(10000+version)*1_000_000 + h>>8%100_000*10 + 1 + h>>32%9)
}

// filledAtImport reports whether the generator filled a data-class cell.
func (s *sheetSpec) filledAtImport(seed uint64, sheetIdx, row, col int) bool {
	return s.Permille >= 1000 || int(mix(seed, sheetIdx, row, col)>>40%1000) < s.Permille
}

func (s *sheetSpec) sumFormula(row int) string {
	return fmt.Sprintf("SUM(A%d:%s%d)", row, sheet.ColumnName(s.BlockCols), row)
}

// build generates the sheet and returns it with its non-empty cell count.
func (s *sheetSpec) build(seed uint64, sheetIdx int) (*sheet.Sheet, int) {
	sh := sheet.New(s.Name)
	if s.Cone.Intermediates > 0 {
		workload.TickerMarket(s.Cone).Each(sh.Set)
	}
	for b := 0; b < s.Bands; b++ {
		for k := 0; k < s.PerBand; k++ {
			g := s.blockRect(b, k)
			for row := g.From.Row; row <= g.To.Row; row++ {
				for col := g.From.Col; col <= g.To.Col; col++ {
					if s.filledAtImport(seed, sheetIdx, row, col) {
						sh.SetValue(row, col, sheet.Number(dataValue(seed, sheetIdx, row, col, 0)))
					}
				}
			}
		}
	}
	for row := s.bodyTop(); row < s.bodyTop()+s.SumRows; row++ {
		sh.SetFormula(row, s.BlockCols+1, s.sumFormula(row))
	}
	return sh, sh.Len()
}
