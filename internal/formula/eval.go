package formula

import (
	"math"
	"strings"

	"dataspread/internal/sheet"
)

// Resolver supplies cell contents to the evaluator. getCells-range access
// (takeaway 4) flows through VisitRange so storage engines can serve
// rectangular reads efficiently.
type Resolver interface {
	// CellValue returns the value at the reference (Empty when blank).
	CellValue(sheet.Ref) sheet.Value
	// VisitRange visits the filled cells of the range in row-major order,
	// stopping when fn returns false.
	VisitRange(g sheet.Range, fn func(sheet.Ref, sheet.Value) bool)
}

// Eval evaluates the expression against the resolver. Errors surface as
// spreadsheet error values, never as Go errors.
func Eval(e Expr, res Resolver) sheet.Value { return EvalAt(e, 0, res) }

// EvalAt evaluates e as it reads k rows further down: Eval(MoveDown(e, k)),
// without building the moved tree, so every member of a fill-down run
// evaluates through its head.
func EvalAt(e Expr, k int, res Resolver) sheet.Value { return at{res, k}.eval(e) }

// at is one evaluation: the resolver and the row offset references move by.
type at struct {
	Resolver
	k int
}

// rng is the range a RangeNode reads at the offset.
func (res at) rng(r *RangeNode) sheet.Range {
	f, t := r.From.movedDown(res.k).Ref, r.To.movedDown(res.k).Ref
	return sheet.NewRange(f.Row, f.Col, t.Row, t.Col)
}

func (res at) eval(e Expr) sheet.Value {
	switch v := e.(type) {
	case *NumberLit:
		return sheet.Number(v.Val)
	case *StringLit:
		return sheet.Str(v.Val)
	case *BoolLit:
		return sheet.Bool(v.Val)
	case *ErrorLit:
		return sheet.Errorf(v.Code)
	case *RefNode:
		return res.CellValue(v.movedDown(res.k).Ref)
	case *RangeNode:
		// A bare range in scalar context yields #VALUE!.
		return sheet.ErrValue
	case *Unary:
		return evalUnary(v, res)
	case *Binary:
		return evalBinary(v, res)
	case *Call:
		return evalCall(v, res)
	}
	return sheet.ErrValue
}

func evalUnary(u *Unary, res at) sheet.Value {
	x := res.eval(u.X)
	if x.IsError() {
		return x
	}
	f, ok := x.Num()
	if !ok {
		return sheet.ErrValue
	}
	switch u.Op {
	case "-":
		return sheet.Number(-f)
	case "+":
		return sheet.Number(f)
	case "%":
		return sheet.Number(f / 100)
	}
	return sheet.ErrValue
}

func evalBinary(b *Binary, res at) sheet.Value {
	l := res.eval(b.L)
	if l.IsError() {
		return l
	}
	r := res.eval(b.R)
	if r.IsError() {
		return r
	}
	switch b.Op {
	case "&":
		return sheet.Str(l.Text() + r.Text())
	case "=", "<>", "<", "<=", ">", ">=":
		return evalComparison(b.Op, l, r)
	}
	lf, lok := l.Num()
	rf, rok := r.Num()
	if !lok || !rok {
		return sheet.ErrValue
	}
	switch b.Op {
	case "+":
		return sheet.Number(lf + rf)
	case "-":
		return sheet.Number(lf - rf)
	case "*":
		return sheet.Number(lf * rf)
	case "/":
		if rf == 0 {
			return sheet.ErrDiv0
		}
		return sheet.Number(lf / rf)
	case "^":
		return sheet.Number(math.Pow(lf, rf))
	}
	return sheet.ErrValue
}

func evalComparison(op string, l, r sheet.Value) sheet.Value {
	var c int
	lf, lok := l.Num()
	rf, rok := r.Num()
	switch {
	case lok && rok:
		switch {
		case lf < rf:
			c = -1
		case lf > rf:
			c = 1
		}
	default:
		c = strings.Compare(strings.ToUpper(l.Text()), strings.ToUpper(r.Text()))
	}
	switch op {
	case "=":
		return sheet.Bool(c == 0)
	case "<>":
		return sheet.Bool(c != 0)
	case "<":
		return sheet.Bool(c < 0)
	case "<=":
		return sheet.Bool(c <= 0)
	case ">":
		return sheet.Bool(c > 0)
	case ">=":
		return sheet.Bool(c >= 0)
	}
	return sheet.ErrValue
}

// argNums flattens arguments into numeric values: scalars contribute their
// numeric interpretation (non-numeric strings are skipped, matching
// spreadsheet aggregate semantics); ranges contribute every filled numeric
// cell.
func argNums(args []Expr, res at) ([]float64, sheet.Value) {
	var out []float64
	for _, a := range args {
		if rng, ok := a.(*RangeNode); ok {
			res.VisitRange(res.rng(rng), func(_ sheet.Ref, v sheet.Value) bool {
				if v.Kind() == sheet.KindNumber {
					f, _ := v.Num()
					out = append(out, f)
				}
				return true
			})
			continue
		}
		v := res.eval(a)
		if v.IsError() {
			return nil, v
		}
		if v.IsEmpty() {
			continue
		}
		if f, ok := v.Num(); ok {
			out = append(out, f)
		}
	}
	return out, sheet.Empty
}

func evalCall(c *Call, res at) sheet.Value {
	switch c.Name {
	case "SUM", "AVERAGE", "MIN", "MAX", "COUNT", "PRODUCT":
		nums, errv := argNums(c.Args, res)
		if errv.IsError() {
			return errv
		}
		return aggregate(c.Name, nums)
	case "COUNTA":
		n := 0
		for _, a := range c.Args {
			if rng, ok := a.(*RangeNode); ok {
				res.VisitRange(res.rng(rng), func(_ sheet.Ref, v sheet.Value) bool {
					if !v.IsEmpty() {
						n++
					}
					return true
				})
				continue
			}
			if !res.eval(a).IsEmpty() {
				n++
			}
		}
		return sheet.Number(float64(n))
	case "COUNTBLANK":
		if len(c.Args) != 1 {
			return sheet.ErrValue
		}
		rng, ok := c.Args[0].(*RangeNode)
		if !ok {
			return sheet.ErrValue
		}
		filled := 0
		res.VisitRange(res.rng(rng), func(_ sheet.Ref, v sheet.Value) bool {
			if !v.IsEmpty() {
				filled++
			}
			return true
		})
		return sheet.Number(float64(res.rng(rng).Area() - filled))
	case "IF":
		if len(c.Args) < 2 || len(c.Args) > 3 {
			return sheet.ErrValue
		}
		cond := res.eval(c.Args[0])
		if cond.IsError() {
			return cond
		}
		b, ok := cond.BoolVal()
		if !ok {
			return sheet.ErrValue
		}
		if b {
			return res.eval(c.Args[1])
		}
		if len(c.Args) == 3 {
			return res.eval(c.Args[2])
		}
		return sheet.Bool(false)
	case "ISBLANK", "ISBLK":
		if len(c.Args) != 1 {
			return sheet.ErrValue
		}
		return sheet.Bool(res.eval(c.Args[0]).IsEmpty())
	case "AND", "OR":
		result := c.Name == "AND"
		for _, a := range c.Args {
			v := res.eval(a)
			if v.IsError() {
				return v
			}
			b, ok := v.BoolVal()
			if !ok {
				return sheet.ErrValue
			}
			if c.Name == "AND" {
				result = result && b
			} else {
				result = result || b
			}
		}
		return sheet.Bool(result)
	case "NOT":
		if len(c.Args) != 1 {
			return sheet.ErrValue
		}
		v := res.eval(c.Args[0])
		if v.IsError() {
			return v
		}
		b, ok := v.BoolVal()
		if !ok {
			return sheet.ErrValue
		}
		return sheet.Bool(!b)
	case "ABS", "LN", "LOG10", "EXP", "SQRT", "INT", "FLOOR", "CEILING", "SIGN":
		return numeric1(c, res)
	case "LOG":
		// LOG(x[, base]); default base 10.
		nums, errv := scalarNums(c.Args, res)
		if errv.IsError() {
			return errv
		}
		if len(nums) < 1 || len(nums) > 2 {
			return sheet.ErrValue
		}
		base := 10.0
		if len(nums) == 2 {
			base = nums[1]
		}
		if nums[0] <= 0 || base <= 0 || base == 1 {
			return sheet.ErrDiv0
		}
		return sheet.Number(math.Log(nums[0]) / math.Log(base))
	case "ROUND":
		nums, errv := scalarNums(c.Args, res)
		if errv.IsError() {
			return errv
		}
		if len(nums) < 1 || len(nums) > 2 {
			return sheet.ErrValue
		}
		scale := 0.0
		if len(nums) == 2 {
			scale = nums[1]
		}
		m := math.Pow(10, scale)
		return sheet.Number(math.Round(nums[0]*m) / m)
	case "MOD", "POWER":
		nums, errv := scalarNums(c.Args, res)
		if errv.IsError() {
			return errv
		}
		if len(nums) != 2 {
			return sheet.ErrValue
		}
		if c.Name == "MOD" {
			if nums[1] == 0 {
				return sheet.ErrDiv0
			}
			return sheet.Number(math.Mod(nums[0], nums[1]))
		}
		return sheet.Number(math.Pow(nums[0], nums[1]))
	case "CONCATENATE", "CONCAT":
		var sb strings.Builder
		for _, a := range c.Args {
			v := res.eval(a)
			if v.IsError() {
				return v
			}
			sb.WriteString(v.Text())
		}
		return sheet.Str(sb.String())
	case "LEN":
		if len(c.Args) != 1 {
			return sheet.ErrValue
		}
		return sheet.Number(float64(len(res.eval(c.Args[0]).Text())))
	case "UPPER", "LOWER", "TRIM":
		if len(c.Args) != 1 {
			return sheet.ErrValue
		}
		v := res.eval(c.Args[0])
		if v.IsError() {
			return v
		}
		switch c.Name {
		case "UPPER":
			return sheet.Str(strings.ToUpper(v.Text()))
		case "LOWER":
			return sheet.Str(strings.ToLower(v.Text()))
		}
		return sheet.Str(strings.TrimSpace(v.Text()))
	case "LEFT", "RIGHT":
		if len(c.Args) < 1 || len(c.Args) > 2 {
			return sheet.ErrValue
		}
		s := res.eval(c.Args[0]).Text()
		n := 1
		if len(c.Args) == 2 {
			f, ok := res.eval(c.Args[1]).Num()
			if !ok || f < 0 {
				return sheet.ErrValue
			}
			n = int(f)
		}
		if n > len(s) {
			n = len(s)
		}
		if c.Name == "LEFT" {
			return sheet.Str(s[:n])
		}
		return sheet.Str(s[len(s)-n:])
	case "MID":
		if len(c.Args) != 3 {
			return sheet.ErrValue
		}
		s := res.eval(c.Args[0]).Text()
		start, ok1 := res.eval(c.Args[1]).Num()
		count, ok2 := res.eval(c.Args[2]).Num()
		if !ok1 || !ok2 || start < 1 || count < 0 {
			return sheet.ErrValue
		}
		i := int(start) - 1
		if i >= len(s) {
			return sheet.Str("")
		}
		end := i + int(count)
		if end > len(s) {
			end = len(s)
		}
		return sheet.Str(s[i:end])
	case "SEARCH":
		// SEARCH(needle, haystack[, start]) -> 1-based position or #VALUE!.
		if len(c.Args) < 2 || len(c.Args) > 3 {
			return sheet.ErrValue
		}
		needle := strings.ToUpper(res.eval(c.Args[0]).Text())
		hay := strings.ToUpper(res.eval(c.Args[1]).Text())
		start := 1
		if len(c.Args) == 3 {
			f, ok := res.eval(c.Args[2]).Num()
			if !ok || f < 1 {
				return sheet.ErrValue
			}
			start = int(f)
		}
		if start > len(hay) {
			return sheet.ErrValue
		}
		i := strings.Index(hay[start-1:], needle)
		if i < 0 {
			return sheet.ErrValue
		}
		return sheet.Number(float64(start + i))
	case "VLOOKUP", "VL":
		return evalVlookup(c, res)
	case "SUMIF":
		return evalSumif(c, res)
	}
	return sheet.ErrName
}

func aggregate(name string, nums []float64) sheet.Value {
	switch name {
	case "COUNT":
		return sheet.Number(float64(len(nums)))
	case "SUM":
		s := 0.0
		for _, f := range nums {
			s += f
		}
		return sheet.Number(s)
	case "PRODUCT":
		p := 1.0
		for _, f := range nums {
			p *= f
		}
		return sheet.Number(p)
	case "AVERAGE":
		if len(nums) == 0 {
			return sheet.ErrDiv0
		}
		s := 0.0
		for _, f := range nums {
			s += f
		}
		return sheet.Number(s / float64(len(nums)))
	case "MIN", "MAX":
		if len(nums) == 0 {
			return sheet.Number(0)
		}
		best := nums[0]
		for _, f := range nums[1:] {
			if (name == "MIN" && f < best) || (name == "MAX" && f > best) {
				best = f
			}
		}
		return sheet.Number(best)
	}
	return sheet.ErrName
}

// numeric1 handles single-argument numeric functions.
func numeric1(c *Call, res at) sheet.Value {
	nums, errv := scalarNums(c.Args, res)
	if errv.IsError() {
		return errv
	}
	if len(nums) != 1 {
		return sheet.ErrValue
	}
	x := nums[0]
	switch c.Name {
	case "ABS":
		return sheet.Number(math.Abs(x))
	case "LN":
		if x <= 0 {
			return sheet.ErrDiv0
		}
		return sheet.Number(math.Log(x))
	case "LOG10":
		if x <= 0 {
			return sheet.ErrDiv0
		}
		return sheet.Number(math.Log10(x))
	case "EXP":
		return sheet.Number(math.Exp(x))
	case "SQRT":
		if x < 0 {
			return sheet.ErrValue
		}
		return sheet.Number(math.Sqrt(x))
	case "INT":
		return sheet.Number(math.Floor(x))
	case "FLOOR":
		return sheet.Number(math.Floor(x))
	case "CEILING":
		return sheet.Number(math.Ceil(x))
	case "SIGN":
		switch {
		case x > 0:
			return sheet.Number(1)
		case x < 0:
			return sheet.Number(-1)
		}
		return sheet.Number(0)
	}
	return sheet.ErrName
}

// scalarNums evaluates scalar arguments to numbers, propagating errors.
func scalarNums(args []Expr, res at) ([]float64, sheet.Value) {
	out := make([]float64, 0, len(args))
	for _, a := range args {
		v := res.eval(a)
		if v.IsError() {
			return nil, v
		}
		f, ok := v.Num()
		if !ok {
			return nil, sheet.ErrValue
		}
		out = append(out, f)
	}
	return out, sheet.Empty
}

// evalVlookup implements VLOOKUP(key, range, colIndex[, exact]) with exact
// matching (the relational-join workhorse the corpus study highlights).
func evalVlookup(c *Call, res at) sheet.Value {
	if len(c.Args) < 3 || len(c.Args) > 4 {
		return sheet.ErrValue
	}
	key := res.eval(c.Args[0])
	if key.IsError() {
		return key
	}
	rng, ok := c.Args[1].(*RangeNode)
	if !ok {
		return sheet.ErrValue
	}
	colF, ok := res.eval(c.Args[2]).Num()
	if !ok || colF < 1 {
		return sheet.ErrValue
	}
	colOffset := int(colF) - 1
	g := res.rng(rng)
	if colOffset >= g.Cols() {
		return sheet.ErrRef
	}
	// Scan the first column for the key; fetch the target column of the
	// matching row.
	matchRow := -1
	res.VisitRange(sheet.Range{From: g.From, To: sheet.Ref{Row: g.To.Row, Col: g.From.Col}},
		func(r sheet.Ref, v sheet.Value) bool {
			if valueLooseEqual(v, key) {
				matchRow = r.Row
				return false
			}
			return true
		})
	if matchRow < 0 {
		return sheet.ErrNA
	}
	return res.CellValue(sheet.Ref{Row: matchRow, Col: g.From.Col + colOffset})
}

// evalSumif implements SUMIF(range, criteria[, sumRange]). Criteria may be
// a value (equality) or a string like ">=10".
func evalSumif(c *Call, res at) sheet.Value {
	if len(c.Args) < 2 || len(c.Args) > 3 {
		return sheet.ErrValue
	}
	rng, ok := c.Args[1-1+0].(*RangeNode)
	if !ok {
		return sheet.ErrValue
	}
	crit := res.eval(c.Args[1])
	if crit.IsError() {
		return crit
	}
	critRange := res.rng(rng)
	sumRange := critRange
	if len(c.Args) == 3 {
		sr, ok := c.Args[2].(*RangeNode)
		if !ok {
			return sheet.ErrValue
		}
		sumRange = res.rng(sr)
	}
	match := parseCriteria(crit)
	total := 0.0
	res.VisitRange(critRange, func(r sheet.Ref, v sheet.Value) bool {
		if !match(v) {
			return true
		}
		target := sheet.Ref{
			Row: sumRange.From.Row + (r.Row - critRange.From.Row),
			Col: sumRange.From.Col + (r.Col - critRange.From.Col),
		}
		if f, ok := res.CellValue(target).Num(); ok {
			total += f
		}
		return true
	})
	return sheet.Number(total)
}

func parseCriteria(crit sheet.Value) func(sheet.Value) bool {
	s := crit.Text()
	for _, op := range []string{">=", "<=", "<>", ">", "<", "="} {
		if strings.HasPrefix(s, op) {
			rhs := sheet.ParseLiteral(s[len(op):])
			return func(v sheet.Value) bool {
				out := evalComparison(op, v, rhs)
				b, _ := out.BoolVal()
				return b
			}
		}
	}
	return func(v sheet.Value) bool { return valueLooseEqual(v, crit) }
}

// valueLooseEqual compares with numeric coercion, mirroring spreadsheet
// lookup semantics.
func valueLooseEqual(a, b sheet.Value) bool {
	af, aok := a.Num()
	bf, bok := b.Num()
	if aok && bok && a.Kind() != sheet.KindString && b.Kind() != sheet.KindString {
		return af == bf
	}
	return strings.EqualFold(a.Text(), b.Text())
}
