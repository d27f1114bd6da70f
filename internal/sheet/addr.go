// Package sheet implements the conceptual data model of Section III of the
// DataSpread paper: a spreadsheet is a collection of cells addressed by
// (row, column) position, each holding a typed value or a formula. The
// package provides A1-style address notation, rectangular ranges, and a
// sparse in-memory Sheet used as the ground truth against which physical
// data models (internal/model) are checked for recoverability.
package sheet

import (
	"fmt"
	"strings"
)

// Ref addresses a single cell. Rows and columns are 1-based, matching the
// spreadsheet interface convention (column A = 1, row 1 = 1).
type Ref struct {
	Row, Col int
}

// Valid reports whether the reference lies in the addressable region.
func (r Ref) Valid() bool { return r.Row >= 1 && r.Col >= 1 }

// String renders the reference in A1 notation.
func (r Ref) String() string { return ColumnName(r.Col) + fmt.Sprintf("%d", r.Row) }

// Range is a rectangular region of cells, inclusive of both corners.
// A Range is normalized when From.Row <= To.Row and From.Col <= To.Col.
type Range struct {
	From, To Ref
}

// NewRange returns the normalized range covering both corners.
func NewRange(r1, c1, r2, c2 int) Range {
	if r1 > r2 {
		r1, r2 = r2, r1
	}
	if c1 > c2 {
		c1, c2 = c2, c1
	}
	return Range{Ref{r1, c1}, Ref{r2, c2}}
}

// Rows returns the number of rows spanned by the range.
func (g Range) Rows() int { return g.To.Row - g.From.Row + 1 }

// Cols returns the number of columns spanned by the range.
func (g Range) Cols() int { return g.To.Col - g.From.Col + 1 }

// Area returns the number of cells inside the range.
func (g Range) Area() int { return g.Rows() * g.Cols() }

// Contains reports whether the cell reference lies inside the range.
func (g Range) Contains(r Ref) bool {
	return r.Row >= g.From.Row && r.Row <= g.To.Row && r.Col >= g.From.Col && r.Col <= g.To.Col
}

// Intersects reports whether two ranges share at least one cell.
func (g Range) Intersects(o Range) bool {
	return g.From.Row <= o.To.Row && o.From.Row <= g.To.Row &&
		g.From.Col <= o.To.Col && o.From.Col <= g.To.Col
}

// Intersect returns the overlapping region and whether it is non-empty.
func (g Range) Intersect(o Range) (Range, bool) {
	if !g.Intersects(o) {
		return Range{}, false
	}
	return NewRange(
		maxInt(g.From.Row, o.From.Row), maxInt(g.From.Col, o.From.Col),
		minInt(g.To.Row, o.To.Row), minInt(g.To.Col, o.To.Col),
	), true
}

// String renders the range in A1:B2 notation.
func (g Range) String() string {
	if g.From == g.To {
		return g.From.String()
	}
	return g.From.String() + ":" + g.To.String()
}

// ColumnName converts a 1-based column number to spreadsheet letters:
// 1 -> A, 26 -> Z, 27 -> AA, ...
func ColumnName(col int) string { return string(AppendColumnName(nil, col)) }

// AppendColumnName appends ColumnName(col) to dst.
func AppendColumnName(dst []byte, col int) []byte {
	if col < 1 {
		return append(dst, '?')
	}
	var b [8]byte
	i := len(b)
	for col > 0 {
		col--
		i--
		b[i] = byte('A' + col%26)
		col /= 26
	}
	return append(dst, b[i:]...)
}

// ColumnNumber converts spreadsheet letters to a 1-based column number.
// It returns 0 if the name contains characters outside A-Z (case-insensitive).
func ColumnNumber(name string) int {
	col := 0
	for _, ch := range name {
		switch {
		case ch >= 'A' && ch <= 'Z':
			col = col*26 + int(ch-'A') + 1
		case ch >= 'a' && ch <= 'z':
			col = col*26 + int(ch-'a') + 1
		default:
			return 0
		}
		if col > 1<<28 {
			return 0
		}
	}
	return col
}

// ParseRef parses an A1-style reference such as "B12". Absolute markers
// ('$') are accepted and ignored; formula-level parsing tracks them
// separately.
func ParseRef(s string) (Ref, error) {
	s = strings.ReplaceAll(s, "$", "")
	i := 0
	for i < len(s) && isLetter(s[i]) {
		i++
	}
	if i == 0 || i == len(s) {
		return Ref{}, fmt.Errorf("sheet: invalid cell reference %q", s)
	}
	col := ColumnNumber(s[:i])
	if col == 0 {
		return Ref{}, fmt.Errorf("sheet: invalid column in reference %q", s)
	}
	row := 0
	for ; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return Ref{}, fmt.Errorf("sheet: invalid row in reference %q", s)
		}
		row = row*10 + int(s[i]-'0')
		if row > 1<<30 {
			return Ref{}, fmt.Errorf("sheet: row overflow in reference %q", s)
		}
	}
	if row == 0 {
		return Ref{}, fmt.Errorf("sheet: row must be >= 1 in reference %q", s)
	}
	return Ref{Row: row, Col: col}, nil
}

// ParseRange parses "A1:B2" or a single-cell "A1" into a normalized Range.
func ParseRange(s string) (Range, error) {
	from, to, ok := strings.Cut(s, ":")
	r1, err := ParseRef(from)
	if err != nil {
		return Range{}, err
	}
	if !ok {
		return Range{From: r1, To: r1}, nil
	}
	r2, err := ParseRef(to)
	if err != nil {
		return Range{}, err
	}
	return NewRange(r1.Row, r1.Col, r2.Row, r2.Col), nil
}

func isLetter(b byte) bool { return (b >= 'A' && b <= 'Z') || (b >= 'a' && b <= 'z') }

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
