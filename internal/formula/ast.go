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
	"fmt"
	"strconv"
	"strings"

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

func (n *NumberLit) String() string {
	return strconv.FormatFloat(n.Val, 'g', -1, 64)
}

func (s *StringLit) String() string {
	return `"` + strings.ReplaceAll(s.Val, `"`, `""`) + `"`
}

func (b *BoolLit) String() string {
	if b.Val {
		return "TRUE"
	}
	return "FALSE"
}

func (e *ErrorLit) String() string { return e.Code }

func (r *RefNode) String() string {
	var sb strings.Builder
	if r.AbsCol {
		sb.WriteByte('$')
	}
	sb.WriteString(sheet.ColumnName(r.Ref.Col))
	if r.AbsRow {
		sb.WriteByte('$')
	}
	fmt.Fprintf(&sb, "%d", r.Ref.Row)
	return sb.String()
}

func (r *RangeNode) String() string { return r.From.String() + ":" + r.To.String() }

func (c *Call) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return c.Name + "(" + strings.Join(parts, ",") + ")"
}

func (u *Unary) String() string {
	if u.Op == "%" {
		return u.X.String() + "%"
	}
	if _, ok := u.X.(*Binary); ok {
		return u.Op + "(" + u.X.String() + ")"
	}
	return u.Op + u.X.String()
}

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

func (b *Binary) String() string {
	p := opPrec(b.Op)
	l := b.L.String()
	if lb, ok := b.L.(*Binary); ok {
		// Left child needs parens when weaker, or equal under the
		// right-associative '^'.
		if lp := opPrec(lb.Op); lp < p || (lp == p && b.Op == "^") {
			l = "(" + l + ")"
		}
	}
	r := b.R.String()
	if rb, ok := b.R.(*Binary); ok {
		// Right child needs parens when weaker, or equal under a
		// left-associative operator (a-(b-c) != a-b-c).
		if rp := opPrec(rb.Op); rp < p || (rp == p && b.Op != "^") {
			r = "(" + r + ")"
		}
	}
	return l + b.Op + r
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
