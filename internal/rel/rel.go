// Package rel implements the spreadsheet-level relational operators of
// Section III and Appendix B: union, difference, intersection,
// crossproduct, join, select (filter), project and rename over composite
// table values, plus conversion from SQL results and ranges and the
// index(table, row, col) accessor that places individual cells of a
// composite value onto the grid.
package rel

import (
	"fmt"
	"strings"

	"dataspread/internal/model"
	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
)

// TableValue is a composite table value: the result of a relational
// function, displayed on the grid via Index.
type TableValue struct {
	Cols []string
	Rows [][]sheet.Value
}

// Arity returns the number of columns.
func (t *TableValue) Arity() int { return len(t.Cols) }

// Len returns the number of rows.
func (t *TableValue) Len() int { return len(t.Rows) }

// Index returns the (i, j) element, counting the header as row 0:
// Index(0, j) yields column names; data rows start at 1.
func (t *TableValue) Index(i, j int) (sheet.Value, error) {
	if j < 1 || j > t.Arity() {
		return sheet.Empty, fmt.Errorf("rel: column %d out of range 1..%d", j, t.Arity())
	}
	if i == 0 {
		return sheet.Str(t.Cols[j-1]), nil
	}
	if i < 0 || i > t.Len() {
		return sheet.Empty, fmt.Errorf("rel: row %d out of range 0..%d", i, t.Len())
	}
	return t.Rows[i-1][j-1], nil
}

// ColIndex finds a column by name (case-insensitive), or -1.
func (t *TableValue) ColIndex(name string) int {
	for i, c := range t.Cols {
		if strings.EqualFold(c, name) {
			return i
		}
	}
	return -1
}

// FromResult converts a SQL result into a table value.
func FromResult(r *rdbms.Result) *TableValue {
	tv := &TableValue{Cols: append([]string(nil), r.Columns...)}
	for _, row := range r.Rows {
		out := make([]sheet.Value, len(row))
		for i, d := range row {
			out[i] = model.DatumToValue(d)
		}
		tv.Rows = append(tv.Rows, out)
	}
	return tv
}

// FromCells converts a rectangular cell matrix into a table value; when
// headers is true the first row names the columns, otherwise columns are
// named col1..colN.
func FromCells(cells [][]sheet.Cell, headers bool) *TableValue {
	tv := &TableValue{}
	if len(cells) == 0 {
		return tv
	}
	start := 0
	if headers {
		for _, c := range cells[0] {
			tv.Cols = append(tv.Cols, c.Value.Text())
		}
		start = 1
	} else {
		for i := range cells[0] {
			tv.Cols = append(tv.Cols, fmt.Sprintf("col%d", i+1))
		}
	}
	for _, row := range cells[start:] {
		out := make([]sheet.Value, len(row))
		for i, c := range row {
			out[i] = c.Value
		}
		tv.Rows = append(tv.Rows, out)
	}
	return tv
}

func rowKey(row []sheet.Value) string {
	var sb strings.Builder
	for _, v := range row {
		sb.WriteString(string(rune(v.Kind() + 'a')))
		sb.WriteString(v.Text())
		sb.WriteByte(0)
	}
	return sb.String()
}

func compatible(a, b *TableValue) error {
	if a.Arity() != b.Arity() {
		return fmt.Errorf("rel: arity mismatch %d vs %d", a.Arity(), b.Arity())
	}
	return nil
}

// Union returns the set union (duplicates eliminated, relational
// semantics). Column names come from the left operand.
func Union(a, b *TableValue) (*TableValue, error) {
	if err := compatible(a, b); err != nil {
		return nil, err
	}
	out := &TableValue{Cols: append([]string(nil), a.Cols...)}
	seen := make(map[string]bool)
	for _, src := range [][][]sheet.Value{a.Rows, b.Rows} {
		for _, row := range src {
			k := rowKey(row)
			if !seen[k] {
				seen[k] = true
				out.Rows = append(out.Rows, row)
			}
		}
	}
	return out, nil
}

// Difference returns rows of a not present in b.
func Difference(a, b *TableValue) (*TableValue, error) {
	if err := compatible(a, b); err != nil {
		return nil, err
	}
	drop := make(map[string]bool)
	for _, row := range b.Rows {
		drop[rowKey(row)] = true
	}
	out := &TableValue{Cols: append([]string(nil), a.Cols...)}
	seen := make(map[string]bool)
	for _, row := range a.Rows {
		k := rowKey(row)
		if !drop[k] && !seen[k] {
			seen[k] = true
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// Intersection returns rows present in both operands.
func Intersection(a, b *TableValue) (*TableValue, error) {
	if err := compatible(a, b); err != nil {
		return nil, err
	}
	keep := make(map[string]bool)
	for _, row := range b.Rows {
		keep[rowKey(row)] = true
	}
	out := &TableValue{Cols: append([]string(nil), a.Cols...)}
	seen := make(map[string]bool)
	for _, row := range a.Rows {
		k := rowKey(row)
		if keep[k] && !seen[k] {
			seen[k] = true
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// CrossProduct returns the Cartesian product; right-hand columns are
// prefixed on name collisions.
func CrossProduct(a, b *TableValue) *TableValue {
	out := &TableValue{Cols: append([]string(nil), a.Cols...)}
	for _, c := range b.Cols {
		name := c
		if out.ColIndex(c) >= 0 {
			name = "r_" + c
		}
		out.Cols = append(out.Cols, name)
	}
	for _, l := range a.Rows {
		for _, r := range b.Rows {
			row := make([]sheet.Value, 0, len(l)+len(r))
			row = append(append(row, l...), r...)
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

// Predicate filters rows by named column values.
type Predicate func(row map[string]sheet.Value) (bool, error)

// Select returns rows satisfying the predicate.
func Select(a *TableValue, p Predicate) (*TableValue, error) {
	out := &TableValue{Cols: append([]string(nil), a.Cols...)}
	for _, row := range a.Rows {
		ok, err := p(bindRow(a.Cols, row))
		if err != nil {
			return nil, err
		}
		if ok {
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// Join returns the theta-join of a and b under the predicate (nil means
// natural cross join).
func Join(a, b *TableValue, p Predicate) (*TableValue, error) {
	cross := CrossProduct(a, b)
	if p == nil {
		return cross, nil
	}
	return Select(cross, p)
}

// Project keeps the named columns, in order.
func Project(a *TableValue, cols ...string) (*TableValue, error) {
	idx := make([]int, len(cols))
	for i, c := range cols {
		j := a.ColIndex(c)
		if j < 0 {
			return nil, fmt.Errorf("rel: no column %q", c)
		}
		idx[i] = j
	}
	out := &TableValue{Cols: append([]string(nil), cols...)}
	for _, row := range a.Rows {
		nr := make([]sheet.Value, len(idx))
		for i, j := range idx {
			nr[i] = row[j]
		}
		out.Rows = append(out.Rows, nr)
	}
	return out, nil
}

// Rename renames one column.
func Rename(a *TableValue, old, new string) (*TableValue, error) {
	j := a.ColIndex(old)
	if j < 0 {
		return nil, fmt.Errorf("rel: no column %q", old)
	}
	out := &TableValue{Cols: append([]string(nil), a.Cols...), Rows: a.Rows}
	out.Cols[j] = new
	return out, nil
}

func bindRow(cols []string, row []sheet.Value) map[string]sheet.Value {
	m := make(map[string]sheet.Value, len(cols))
	for i, c := range cols {
		m[strings.ToLower(c)] = row[i]
	}
	return m
}

// ParsePredicate compiles a simple "column op literal" condition (ops:
// = != <> < <= > >=) into a Predicate — the filter argument format
// supported on the spreadsheet front-end.
func ParsePredicate(cond string) (Predicate, error) {
	for _, op := range []string{"<=", ">=", "!=", "<>", "=", "<", ">"} {
		if i := strings.Index(cond, op); i > 0 {
			col := strings.ToLower(strings.TrimSpace(cond[:i]))
			lit := strings.TrimSpace(cond[i+len(op):])
			lit = strings.Trim(lit, `'"`)
			rhs := sheet.ParseLiteral(lit)
			operator := op
			if operator == "<>" {
				operator = "!="
			}
			return func(row map[string]sheet.Value) (bool, error) {
				v, ok := row[col]
				if !ok {
					return false, fmt.Errorf("rel: no column %q in predicate", col)
				}
				c := compareValues(v, rhs)
				switch operator {
				case "=":
					return c == 0, nil
				case "!=":
					return c != 0, nil
				case "<":
					return c < 0, nil
				case "<=":
					return c <= 0, nil
				case ">":
					return c > 0, nil
				case ">=":
					return c >= 0, nil
				}
				return false, fmt.Errorf("rel: bad operator %q", operator)
			}, nil
		}
	}
	return nil, fmt.Errorf("rel: cannot parse predicate %q (want column op literal)", cond)
}

func compareValues(a, b sheet.Value) int {
	af, aok := a.Num()
	bf, bok := b.Num()
	if aok && bok && a.Kind() != sheet.KindString && b.Kind() != sheet.KindString {
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		}
		return 0
	}
	return strings.Compare(strings.ToUpper(a.Text()), strings.ToUpper(b.Text()))
}
