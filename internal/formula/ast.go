// Package formula implements the spreadsheet formula language used by
// DataSpread's execution engine (Section VI): parsing, evaluation against a
// cell resolver, dependency (reference) extraction for the dependency
// graph, and reference rewriting under row/column structural edits.
//
// The function set covers the families observed in the paper's corpus study
// (Figure 5): arithmetic, SUM/AVERAGE-style range aggregates, IF/ISBLANK
// conditionals, AND/OR/NOT, LN/LOG/ROUND/FLOOR numerics, SEARCH, and
// VLOOKUP.
package formula

import (
	"math"
	"strconv"

	"dataspread/internal/sheet"
)

// Expr is a parsed formula expression.
type Expr interface {
	// String renders the expression back to canonical formula text
	// (without the leading '=').
	String() string
}

// NumberLit is a numeric literal.
type NumberLit struct{ Val float64 }

// StringLit is a quoted text literal.
type StringLit struct{ Val string }

// BoolLit is TRUE or FALSE.
type BoolLit struct{ Val bool }

// ErrorLit is a literal error value such as #REF!, produced when structural
// edits invalidate a reference.
type ErrorLit struct{ Code string }

// RefNode is a single cell reference, with $-absoluteness flags.
type RefNode struct {
	Ref            sheet.Ref
	AbsRow, AbsCol bool
}

// RangeNode is a rectangular range reference A1:B2.
type RangeNode struct {
	From, To RefNode
}

// Call is a function invocation.
type Call struct {
	Name string // upper-cased
	Args []Expr
}

// Unary is -x, +x or x% (percent divides by 100).
type Unary struct {
	Op string // "-", "+", "%"
	X  Expr
}

// Binary is a binary operation: + - * / ^ & = <> < <= > >=.
type Binary struct {
	Op   string
	L, R Expr
}

func (n *NumberLit) String() string { return string(AppendAt(nil, n, 0)) }
func (s *StringLit) String() string { return string(AppendAt(nil, s, 0)) }
func (b *BoolLit) String() string   { return string(AppendAt(nil, b, 0)) }
func (e *ErrorLit) String() string  { return e.Code }
func (r *RefNode) String() string   { return string(AppendAt(nil, r, 0)) }
func (r *RangeNode) String() string { return string(AppendAt(nil, r, 0)) }
func (c *Call) String() string      { return string(AppendAt(nil, c, 0)) }
func (u *Unary) String() string     { return string(AppendAt(nil, u, 0)) }
func (b *Binary) String() string    { return string(AppendAt(nil, b, 0)) }

// opPrec orders binary operators for minimal re-parenthesization:
// comparisons < & < +- < */ < ^.
func opPrec(op string) int {
	switch op {
	case "=", "<>", "<", "<=", ">", ">=":
		return 1
	case "&":
		return 2
	case "+", "-":
		return 3
	case "*", "/":
		return 4
	case "^":
		return 5
	}
	return 0
}

// AppendAt appends the canonical text of e moved down k rows — the String of
// MoveDown(e, k) — to dst, building no tree and no intermediate string: the
// one renderer behind every String.
func AppendAt(dst []byte, e Expr, k int) []byte { return printer{k: k}.append(dst, e) }

// printer renders canonical text k rows down.
type printer struct{ k int }

func (p printer) append(dst []byte, e Expr) []byte {
	switch v := e.(type) {
	case *NumberLit:
		// 'g' prints an integer below 10^6 as its digits: skip the shortest-
		// float search for the literals fill-down runs are made of.
		if f := v.Val; f == math.Trunc(f) && math.Abs(f) < 1e6 && !(f == 0 && math.Signbit(f)) {
			return strconv.AppendInt(dst, int64(f), 10)
		}
		return strconv.AppendFloat(dst, v.Val, 'g', -1, 64)
	case *StringLit:
		dst = append(dst, '"')
		for i := 0; i < len(v.Val); i++ {
			if v.Val[i] == '"' {
				dst = append(dst, '"')
			}
			dst = append(dst, v.Val[i])
		}
		return append(dst, '"')
	case *BoolLit:
		if v.Val {
			return append(dst, "TRUE"...)
		}
		return append(dst, "FALSE"...)
	case *ErrorLit:
		return append(dst, v.Code...)
	case *RefNode:
		return p.ref(dst, *v)
	case *RangeNode:
		return p.ref(append(p.ref(dst, v.From), ':'), v.To)
	case *Call:
		dst = append(append(dst, v.Name...), '(')
		for i, a := range v.Args {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = p.append(dst, a)
		}
		return append(dst, ')')
	case *Unary:
		if v.Op == "%" {
			return append(p.append(dst, v.X), '%')
		}
		_, paren := v.X.(*Binary)
		return p.operand(append(dst, v.Op...), v.X, paren)
	case *Binary:
		prec := opPrec(v.Op)
		// The left child needs parens when weaker, or equal under the
		// right-associative '^'; the right one when weaker, or equal under a
		// left-associative operator (a-(b-c) != a-b-c).
		l, lok := v.L.(*Binary)
		r, rok := v.R.(*Binary)
		dst = p.operand(dst, v.L, lok && (opPrec(l.Op) < prec || opPrec(l.Op) == prec && v.Op == "^"))
		dst = append(dst, v.Op...)
		return p.operand(dst, v.R, rok && (opPrec(r.Op) < prec || opPrec(r.Op) == prec && v.Op != "^"))
	}
	return append(dst, e.String()...)
}

// operand is append, in parentheses when paren is set.
func (p printer) operand(dst []byte, e Expr, paren bool) []byte {
	if !paren {
		return p.append(dst, e)
	}
	return append(p.append(append(dst, '('), e), ')')
}

// ref appends the reference's A1 text, $-flags included.
func (p printer) ref(dst []byte, r RefNode) []byte {
	if r.AbsCol {
		dst = append(dst, '$')
	}
	dst = sheet.AppendColumnName(dst, r.Ref.Col)
	if r.AbsRow {
		return strconv.AppendInt(append(dst, '$'), int64(r.Ref.Row), 10)
	}
	return strconv.AppendInt(dst, int64(r.Ref.Row+p.k), 10)
}

// Range returns the rectangular range a RangeNode denotes, normalized.
func (r *RangeNode) Range() sheet.Range {
	return sheet.NewRange(r.From.Ref.Row, r.From.Ref.Col, r.To.Ref.Row, r.To.Ref.Col)
}

// Refs collects every cell and range the expression references, as
// normalized ranges (single cells become 1x1 ranges). This drives both the
// dependency graph and the formula-access statistics of Section II.
func Refs(e Expr) []sheet.Range {
	var out []sheet.Range
	for _, r := range Reads(e) {
		out = append(out, r.Range)
	}
	return out
}

// Read is one reference as the dependency graph files it: the range it reads,
// normalized, and which of its two row bounds are $-absolute, so the range a
// fill-down member k rows below reads is arithmetic (At), not a moved tree.
type Read struct {
	sheet.Range
	FromAbs, ToAbs bool
}

// At is the range r reads k rows further down: Refs(MoveDown(e, k)) holds
// Reads(e)[i].At(k) at position i. Both bounds move unless $-absolute, so a
// mixed range such as A$5:A1 may swap them.
func (r Read) At(k int) sheet.Range {
	f, t := r.From.Row, r.To.Row
	if !r.FromAbs {
		f += k
	}
	if !r.ToAbs {
		t += k
	}
	return sheet.NewRange(f, r.From.Col, t, r.To.Col)
}

// Reads is Refs with each range's row anchors.
func Reads(e Expr) []Read {
	var out []Read
	collectReads(e, &out)
	return out
}

func collectReads(e Expr, out *[]Read) {
	switch v := e.(type) {
	case *RefNode:
		*out = append(*out, Read{Range: sheet.Range{From: v.Ref, To: v.Ref}, FromAbs: v.AbsRow, ToAbs: v.AbsRow})
	case *RangeNode:
		from, to := v.From, v.To
		if from.Ref.Row > to.Ref.Row {
			from, to = to, from
		}
		*out = append(*out, Read{Range: v.Range(), FromAbs: from.AbsRow, ToAbs: to.AbsRow})
	case *Call:
		for _, a := range v.Args {
			collectReads(a, out)
		}
	case *Unary:
		collectReads(v.X, out)
	case *Binary:
		collectReads(v.L, out)
		collectReads(v.R, out)
	}
}
