package formula

import (
	"math"

	"dataspread/internal/sheet"
)

// Shift describes a structural edit that moves cell coordinates:
// inserting or deleting rows/columns (Section III operations 3).
type Shift struct {
	// Rows selects the axis: true for row edits, false for column edits.
	Rows bool
	// At is the first affected index: for inserts, existing indexes >= At
	// move up by Count; for deletes, indexes in [At, At+Count-1] vanish and
	// higher ones move down.
	At int
	// Count is the number of inserted (positive) or deleted (negative is
	// not used; deletes use Delete=true) rows/columns.
	Count int
	// Delete marks a deletion rather than an insertion.
	Delete bool
}

// InsertRows returns the shift for inserting count rows starting at `at`.
func InsertRows(at, count int) Shift { return Shift{Rows: true, At: at, Count: count} }

// DeleteRows returns the shift for deleting count rows starting at `at`.
func DeleteRows(at, count int) Shift { return Shift{Rows: true, At: at, Count: count, Delete: true} }

// InsertCols returns the shift for inserting count columns starting at `at`.
func InsertCols(at, count int) Shift { return Shift{At: at, Count: count} }

// DeleteCols returns the shift for deleting count columns starting at `at`.
func DeleteCols(at, count int) Shift { return Shift{At: at, Count: count, Delete: true} }

// Apply rewrites the expression's references under the shift, returning a
// new expression. References into a deleted span become #REF! (single
// cells) or are clipped (ranges); ranges entirely inside the deleted span
// become #REF!.
func (sh Shift) Apply(e Expr) Expr {
	switch v := e.(type) {
	case *RefNode:
		nr, ok := sh.shiftRef(v.Ref)
		if !ok {
			return &ErrorLit{Code: "#REF!"}
		}
		return &RefNode{Ref: nr, AbsRow: v.AbsRow, AbsCol: v.AbsCol}
	case *RangeNode:
		from, to, ok := sh.shiftRange(v.From.Ref, v.To.Ref)
		if !ok {
			return &ErrorLit{Code: "#REF!"}
		}
		return &RangeNode{
			From: RefNode{Ref: from, AbsRow: v.From.AbsRow, AbsCol: v.From.AbsCol},
			To:   RefNode{Ref: to, AbsRow: v.To.AbsRow, AbsCol: v.To.AbsCol},
		}
	case *Call:
		out := &Call{Name: v.Name, Args: make([]Expr, len(v.Args))}
		for i, a := range v.Args {
			out.Args[i] = sh.Apply(a)
		}
		return out
	case *Unary:
		return &Unary{Op: v.Op, X: sh.Apply(v.X)}
	case *Binary:
		return &Binary{Op: v.Op, L: sh.Apply(v.L), R: sh.Apply(v.R)}
	}
	return e
}

// AdjustText parses, shifts and re-serializes formula text in one step.
func (sh Shift) AdjustText(src string) (string, error) {
	e, err := Parse(src)
	if err != nil {
		return "", err
	}
	return sh.Apply(e).String(), nil
}

// shiftRef moves a single coordinate; ok is false when the cell is deleted.
func (sh Shift) shiftRef(r sheet.Ref) (sheet.Ref, bool) {
	idx := r.Col
	if sh.Rows {
		idx = r.Row
	}
	if sh.Delete {
		switch {
		case idx >= sh.At && idx < sh.At+sh.Count:
			return sheet.Ref{}, false
		case idx >= sh.At+sh.Count:
			idx -= sh.Count
		}
	} else if idx >= sh.At {
		idx += sh.Count
	}
	if sh.Rows {
		return sheet.Ref{Row: idx, Col: r.Col}, true
	}
	return sheet.Ref{Row: r.Row, Col: idx}, true
}

// shiftRange moves both corners, clipping a range that partially overlaps a
// deleted span; ok is false when the whole range is deleted.
func (sh Shift) shiftRange(from, to sheet.Ref) (sheet.Ref, sheet.Ref, bool) {
	nf, okF := sh.shiftRef(from)
	nt, okT := sh.shiftRef(to)
	if okF && okT {
		return nf, nt, true
	}
	if !sh.Delete {
		return nf, nt, okF && okT
	}
	// Clip into the surviving part.
	clip := func(r sheet.Ref, toStart bool) sheet.Ref {
		idx := r.Col
		if sh.Rows {
			idx = r.Row
		}
		if toStart {
			idx = sh.At // first surviving index after shift
		} else {
			idx = sh.At - 1 // last index before the deleted span
		}
		if sh.Rows {
			return sheet.Ref{Row: idx, Col: r.Col}
		}
		return sheet.Ref{Row: r.Row, Col: idx}
	}
	if !okF && !okT {
		return sheet.Ref{}, sheet.Ref{}, false
	}
	if !okF {
		nf = clip(from, true)
	}
	if !okT {
		nt = clip(to, false)
	}
	// A clipped range can invert when the surviving part is empty.
	if sh.Rows && nf.Row > nt.Row || !sh.Rows && nf.Col > nt.Col {
		return sheet.Ref{}, sheet.Ref{}, false
	}
	return nf, nt, true
}

// MoveDown returns e as it reads k rows further down — what filling a formula
// down k rows makes of it: every row reference that is not $-absolute grows by
// k, everything else stays. Literals are shared with e, like Apply's.
func MoveDown(e Expr, k int) Expr {
	switch v := e.(type) {
	case *RefNode:
		n := v.movedDown(k)
		return &n
	case *RangeNode:
		return &RangeNode{From: v.From.movedDown(k), To: v.To.movedDown(k)}
	case *Call:
		out := &Call{Name: v.Name, Args: make([]Expr, len(v.Args))}
		for i, a := range v.Args {
			out.Args[i] = MoveDown(a, k)
		}
		return out
	case *Unary:
		return &Unary{Op: v.Op, X: MoveDown(v.X, k)}
	case *Binary:
		return &Binary{Op: v.Op, L: MoveDown(v.L, k), R: MoveDown(v.R, k)}
	}
	return e
}

func (r RefNode) movedDown(k int) RefNode {
	if !r.AbsRow {
		r.Ref.Row += k
	}
	return r
}

// IsMovedDown reports whether b is MoveDown(a, k), by walking the two trees
// side by side: no expression and no text is built.
func IsMovedDown(a, b Expr, k int) bool {
	switch x := a.(type) {
	case *NumberLit:
		y, ok := b.(*NumberLit)
		return ok && math.Float64bits(x.Val) == math.Float64bits(y.Val)
	case *StringLit:
		y, ok := b.(*StringLit)
		return ok && *x == *y
	case *BoolLit:
		y, ok := b.(*BoolLit)
		return ok && *x == *y
	case *ErrorLit:
		y, ok := b.(*ErrorLit)
		return ok && *x == *y
	case *RefNode:
		y, ok := b.(*RefNode)
		return ok && x.movedDown(k) == *y
	case *RangeNode:
		y, ok := b.(*RangeNode)
		return ok && x.From.movedDown(k) == y.From && x.To.movedDown(k) == y.To
	case *Call:
		y, ok := b.(*Call)
		if !ok || x.Name != y.Name || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if !IsMovedDown(x.Args[i], y.Args[i], k) {
				return false
			}
		}
		return true
	case *Unary:
		y, ok := b.(*Unary)
		return ok && x.Op == y.Op && IsMovedDown(x.X, y.X, k)
	case *Binary:
		y, ok := b.(*Binary)
		return ok && x.Op == y.Op && IsMovedDown(x.L, y.L, k) && IsMovedDown(x.R, y.R, k)
	}
	return false
}
