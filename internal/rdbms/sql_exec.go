package rdbms

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Result is the outcome of a SQL statement. SELECT fills Columns and Rows;
// DML fills RowsAffected.
type Result struct {
	Columns      []string
	Rows         []Row
	RowsAffected int
}

// Exec parses and runs a SQL statement. '?' placeholders are substituted
// from params in order (prepared-statement style, as the paper's sql()
// spreadsheet function requires).
func (db *DB) Exec(query string, params ...Datum) (*Result, error) {
	return db.exec(query, params, false)
}

// Query is Exec for SELECT only: any other statement is refused before it
// touches the catalog. The sql() spreadsheet function runs through it, so a
// formula cannot write behind a sheet's linked tables.
func (db *DB) Query(query string, params ...Datum) (*Result, error) {
	return db.exec(query, params, true)
}

// MustExec is Exec for tests and examples; it panics on error.
func (db *DB) MustExec(query string, params ...Datum) *Result {
	r, err := db.Exec(query, params...)
	if err != nil {
		panic(err)
	}
	return r
}

// exec runs a statement in three steps: parse, bind every name and
// parameter, then read the rows.
func (db *DB) exec(query string, params []Datum, selectOnly bool) (*Result, error) {
	stmt, nparams, err := parseSQL(query)
	if err != nil {
		return nil, err
	}
	if nparams != len(params) {
		return nil, fmt.Errorf("sql: query has %d parameters, got %d", nparams, len(params))
	}
	if _, ok := stmt.(*selectStmt); selectOnly && !ok {
		return nil, fmt.Errorf("sql: a read-only query must be a SELECT")
	}
	switch s := stmt.(type) {
	case *selectStmt:
		return db.execSelect(s, params)
	case *createStmt:
		_, err = db.CreateTable(s.Table, Schema{Cols: s.Cols})
	case *dropStmt:
		err = db.DropTable(s.Table)
	case *insertStmt:
		return db.execInsert(s, params)
	case *changeStmt:
		return db.execChange(s, params)
	}
	if err != nil {
		return nil, err
	}
	return &Result{}, nil
}

// binder resolves a statement's names to row offsets, its '?' to their
// datums and its aggregate calls, once and before any row is read, so a
// query's errors do not depend on its data. It keeps the first error.
type binder struct {
	scope  []scopeCol
	params []Datum
	aggOK  bool // aggregates are allowed in the clause being bound
	inAgg  bool
	naggs  int // aggregates bound so far
	err    error
}

// scopeCol is a column of the statement's row; qual is its table's alias or name.
type scopeCol struct{ qual, name string }

// sqlFuncs are the functions a query may call, with their least and
// greatest argument counts (-1: any).
var sqlFuncs = map[string][2]int{
	"ABS": {1, 1}, "UPPER": {1, 1}, "LOWER": {1, 1}, "LENGTH": {1, 1},
	"ROUND": {1, -1}, "COALESCE": {0, -1},
	"COUNT": {1, 1}, "SUM": {1, 1}, "AVG": {1, 1}, "MIN": {1, 1}, "MAX": {1, 1},
}

var aggregates = map[string]bool{"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true}

func (b *binder) fail(format string, args ...any) sqlExpr {
	if b.err == nil {
		b.err = fmt.Errorf("sql: "+format, args...)
	}
	return &litExpr{}
}

// bind returns e with its names resolved, rewriting the statement's own
// tree in place; nil stays nil.
func (b *binder) bind(e sqlExpr) sqlExpr {
	switch v := e.(type) {
	case *paramExpr:
		return &litExpr{Val: b.params[v.Index]}
	case *colExpr:
		return b.column(v)
	case *starExpr:
		return b.fail("* is not allowed here")
	case *unaryExpr:
		v.X = b.bind(v.X)
	case *binExpr:
		v.L, v.R = b.bind(v.L), b.bind(v.R)
	case *isNullExpr:
		v.X = b.bind(v.X)
	case *funcExpr:
		return b.call(v)
	}
	return e
}

func (b *binder) column(c *colExpr) sqlExpr {
	found := -1
	for i, sc := range b.scope {
		if !strings.EqualFold(sc.name, c.Name) || c.Qual != "" && !strings.EqualFold(sc.qual, c.Qual) {
			continue
		}
		if found >= 0 {
			return b.fail("ambiguous column %q", c.Name)
		}
		found = i
	}
	if found < 0 && c.Qual != "" {
		return b.fail("unknown column %s.%s", c.Qual, c.Name)
	} else if found < 0 {
		return b.fail("unknown column %q", c.Name)
	}
	return &colRef{idx: found}
}

func (b *binder) call(f *funcExpr) sqlExpr {
	arity, ok := sqlFuncs[f.Name]
	switch {
	case !ok:
		return b.fail("unknown function %q", f.Name)
	case len(f.Args) < arity[0] || arity[1] >= 0 && len(f.Args) > arity[1]:
		return b.fail("%s takes %d argument(s), got %d", f.Name, arity[0], len(f.Args))
	case !aggregates[f.Name]:
		for i, a := range f.Args {
			f.Args[i] = b.bind(a)
		}
		return f
	case !b.aggOK:
		return b.fail("aggregate %s is not allowed here", f.Name)
	case b.inAgg:
		return b.fail("aggregate %s inside another aggregate", f.Name)
	}
	b.naggs++
	if star, ok := f.Args[0].(*starExpr); ok && f.Name == "COUNT" && star.Qual == "" {
		return &aggExpr{Name: f.Name} // COUNT(*)
	}
	b.inAgg = true
	arg := b.bind(f.Args[0])
	b.inAgg = false
	return &aggExpr{Name: f.Name, Arg: arg}
}

// rowSource is where every statement reads its rows: the FROM tables,
// joined by nested loop under their ON filters; one empty row for a SELECT
// without FROM; or an INSERT's VALUES rows. WHERE is applied inside the
// scan, so a consumer sees, and copies, matching rows only. The row handed
// to fn is reused: fn copies what it keeps. rid is the first table's.
type rowSource struct {
	tables []*Table
	off    []int     // offset of each table's first column in the row
	on     []sqlExpr // per table; nil: no filter
	values [][]sqlExpr
	where  sqlExpr
	width  int
}

// source resolves FROM's tables into a row source and a binder over their
// columns; each ON condition is bound against the tables up to its own.
func (db *DB) source(from []tableRef, params []Datum) (*rowSource, *binder, error) {
	src := &rowSource{}
	b := &binder{params: params}
	for _, tr := range from {
		t := db.Table(tr.Table)
		if t == nil {
			return nil, nil, fmt.Errorf("sql: table %q does not exist", tr.Table)
		}
		qual := tr.Alias
		if qual == "" {
			qual = tr.Table
		}
		src.tables = append(src.tables, t)
		src.off = append(src.off, len(b.scope))
		for _, c := range t.Schema.Cols {
			b.scope = append(b.scope, scopeCol{qual, c.Name})
		}
		src.on = append(src.on, b.bind(tr.On))
	}
	src.width = len(b.scope)
	return src, b, nil
}

func (s *rowSource) scan(fn func(rid RID, row Row) error) error {
	row := make(Row, s.width)
	if len(s.tables) == 0 {
		values := s.values
		if values == nil {
			values = [][]sqlExpr{nil} // a SELECT without FROM reads one empty row
		}
		for _, exprs := range values {
			for j, e := range exprs {
				v, err := eval(e, nil, nil)
				if err != nil {
					return err
				}
				row[j] = v
			}
			if err := s.emit(RID{}, row, fn); err != nil {
				return err
			}
		}
		return nil
	}
	// The joined tables are read once; the first streams beneath them.
	inner := make([][]Row, len(s.tables))
	for i := 1; i < len(s.tables); i++ {
		if err := s.tables[i].Scan(func(_ RID, r Row) bool {
			inner[i] = append(inner[i], r.Clone())
			return true
		}); err != nil {
			return err
		}
	}
	var rid RID
	var join func(i int) error
	join = func(i int) error {
		if i == len(s.tables) {
			return s.emit(rid, row, fn)
		}
		for _, r := range inner[i] {
			s.place(row, i, r)
			ok, err := match(s.on[i], row, nil)
			if err == nil && ok {
				err = join(i + 1)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	var err error
	if serr := s.tables[0].Scan(func(r RID, tuple Row) bool {
		rid = r
		s.place(row, 0, tuple)
		err = join(1)
		return err == nil
	}); serr != nil {
		return serr
	}
	return err
}

// place copies table i's tuple into its columns of row; a tuple written
// before an AddColumn is short, and reads NULL for the columns it lacks.
func (s *rowSource) place(row Row, i int, tuple Row) {
	cols := row[s.off[i] : s.off[i]+s.tables[i].Schema.Arity()]
	clear(cols[copy(cols, tuple):])
}

func (s *rowSource) emit(rid RID, row Row, fn func(RID, Row) error) error {
	if ok, err := match(s.where, row, nil); !ok || err != nil {
		return err
	}
	return fn(rid, row)
}

// group scans the source into groups keyed by the values of by, in order of
// first appearance, and hands fn each group with its first row. Without
// GROUP BY there is one group, even of no rows. GROUP BY and DISTINCT key a
// row by its row-codec encoding, which tags each datum with its type: NULL
// and the text 'NULL' are different keys.
func (s *rowSource) group(by []sqlExpr, fn func(first Row, group []Row) error) error {
	ids := map[string]int{}
	var groups [][]Row
	var buf []byte
	key := make(Row, len(by))
	err := s.scan(func(_ RID, row Row) error {
		for i, g := range by {
			v, err := eval(g, row, nil)
			if err != nil {
				return err
			}
			key[i] = v
		}
		buf = encodeRow(buf[:0], key)
		id, ok := ids[string(buf)]
		if !ok {
			id = len(groups)
			ids[string(buf)] = id
			groups = append(groups, nil)
		}
		groups[id] = append(groups[id], row.Clone())
		return nil
	})
	if err != nil {
		return err
	}
	if len(by) == 0 && len(groups) == 0 {
		groups = append(groups, nil)
	}
	for _, g := range groups {
		var first Row
		if len(g) > 0 {
			first = g[0]
		}
		if err := fn(first, g); err != nil {
			return err
		}
	}
	return nil
}

// match reports whether row passes the filter cond, whose aggregates (in
// HAVING) fold group; a nil cond passes every row.
func match(cond sqlExpr, row Row, group []Row) (bool, error) {
	if cond == nil {
		return true, nil
	}
	v, err := eval(cond, row, group)
	return truthy(v), err
}

func (db *DB) execSelect(s *selectStmt, params []Datum) (*Result, error) {
	src, b, err := db.source(s.From, params)
	if err != nil {
		return nil, err
	}
	src.where = b.bind(s.Where)
	for i, g := range s.GroupBy {
		s.GroupBy[i] = b.bind(g)
	}
	b.aggOK = true
	res := &Result{}
	var out []sqlExpr
	for _, item := range s.Items {
		star, ok := item.Expr.(*starExpr)
		if !ok {
			name := item.Alias
			if name == "" {
				name = displayName(item.Expr)
			}
			res.Columns = append(res.Columns, name)
			out = append(out, b.bind(item.Expr))
			continue
		}
		n := len(out)
		for i, c := range b.scope {
			if star.Qual == "" || strings.EqualFold(c.qual, star.Qual) {
				res.Columns = append(res.Columns, c.name)
				out = append(out, &colRef{idx: i})
			}
		}
		if star.Qual != "" && len(out) == n {
			b.fail("unknown table %q in %s.*", star.Qual, star.Qual)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("sql: empty select list")
	}
	having := b.bind(s.Having)
	exprs := out[:len(out):len(out)]
	for _, ob := range s.OrderBy {
		exprs = append(exprs, b.orderKey(ob.Expr, res.Columns, out))
	}
	if b.err != nil {
		return nil, b.err
	}

	// A result row holds the outputs, then the ORDER BY keys.
	var results []Row
	project := func(row Row, group []Row) error {
		if ok, err := match(having, row, group); !ok || err != nil {
			return err
		}
		r := make(Row, len(exprs))
		for i, e := range exprs {
			v, err := eval(e, row, group)
			if err != nil {
				return err
			}
			r[i] = v
		}
		results = append(results, r)
		return nil
	}
	if len(s.GroupBy) == 0 && having == nil && b.naggs == 0 {
		err = src.scan(func(_ RID, row Row) error { return project(row, nil) })
	} else {
		err = src.group(s.GroupBy, project)
	}
	if err != nil {
		return nil, err
	}

	n := len(out)
	if s.Distinct {
		seen := map[string]bool{}
		var buf []byte
		kept := results[:0]
		for _, r := range results {
			if buf = encodeRow(buf[:0], r[:n]); !seen[string(buf)] {
				seen[string(buf)] = true
				kept = append(kept, r)
			}
		}
		results = kept
	}
	if len(s.OrderBy) > 0 {
		sort.SliceStable(results, func(i, j int) bool {
			for k, ob := range s.OrderBy {
				if c := results[i][n+k].Compare(results[j][n+k]); c != 0 {
					return (c < 0) != ob.Desc
				}
			}
			return false
		})
	}
	if s.Limit >= 0 && len(results) > s.Limit {
		results = results[:s.Limit]
	}
	for _, r := range results {
		res.Rows = append(res.Rows, r[:n:n])
	}
	return res, nil
}

// orderKey binds an ORDER BY key. A key that names a select-list alias
// ("ORDER BY total") or a 1-based output position ("ORDER BY 2") sorts by
// that output's expression.
func (b *binder) orderKey(e sqlExpr, names []string, out []sqlExpr) sqlExpr {
	switch k := e.(type) {
	case *colExpr:
		for j, name := range names {
			if k.Qual == "" && strings.EqualFold(name, k.Name) {
				return out[j]
			}
		}
	case *litExpr:
		if pos := k.Val.Int64(); k.Val.Type() == DTInt && (pos < 1 || pos > int64(len(out))) {
			return b.fail("ORDER BY position %d out of range", pos)
		} else if k.Val.Type() == DTInt {
			return out[pos-1]
		}
	}
	return b.bind(e)
}

func displayName(e sqlExpr) string {
	switch v := e.(type) {
	case *colExpr:
		return v.Name
	case *funcExpr:
		return strings.ToLower(v.Name)
	}
	return "?column?"
}

func (db *DB) execInsert(s *insertStmt, params []Datum) (*Result, error) {
	t := db.Table(s.Table)
	if t == nil {
		return nil, fmt.Errorf("sql: table %q does not exist", s.Table)
	}
	// An INSERT without a column list names every column.
	cols := s.Cols
	if cols == nil {
		for _, c := range t.Schema.Cols {
			cols = append(cols, c.Name)
		}
	}
	idx, err := columns(t, cols)
	if err != nil {
		return nil, err
	}
	b := &binder{params: params}
	for _, exprs := range s.Rows {
		if len(exprs) != len(cols) {
			return nil, fmt.Errorf("sql: INSERT arity mismatch: %d values for %d columns", len(exprs), len(cols))
		}
		for j, e := range exprs {
			exprs[j] = b.bind(e)
		}
	}
	if b.err != nil {
		return nil, b.err
	}
	n := 0
	src := &rowSource{values: s.Rows, width: len(cols)}
	err = src.scan(func(_ RID, vals Row) error {
		row := make(Row, t.Schema.Arity())
		for j, v := range vals {
			row[idx[j]] = coerce(v, t.Schema.Cols[idx[j]].Type)
		}
		if _, err := t.Insert(row); err != nil {
			return err
		}
		n++
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{RowsAffected: n}, nil
}

// columns returns the positions of the named columns of t.
func columns(t *Table, names []string) ([]int, error) {
	idx := make([]int, len(names))
	for j, c := range names {
		if idx[j] = t.Schema.ColIndex(c); idx[j] < 0 {
			return nil, fmt.Errorf("sql: table %q has no column %q", t.Name, c)
		}
	}
	return idx, nil
}

// execChange runs UPDATE and DELETE as one "for each matching row". Every
// change is computed before the first is written: the heap is not written
// under its own scan, and an expression error leaves the table as it was.
func (db *DB) execChange(s *changeStmt, params []Datum) (*Result, error) {
	src, b, err := db.source([]tableRef{{Table: s.Table}}, params)
	if err != nil {
		return nil, err
	}
	t := src.tables[0]
	set, err := columns(t, s.Cols)
	if err != nil {
		return nil, err
	}
	for i, e := range s.Set {
		s.Set[i] = b.bind(e)
	}
	src.where = b.bind(s.Where)
	if b.err != nil {
		return nil, b.err
	}
	var rids []RID
	var rows []Row
	err = src.scan(func(rid RID, row Row) error {
		rids = append(rids, rid)
		if s.Delete {
			return nil
		}
		nr := row.Clone()
		for i, j := range set {
			v, err := eval(s.Set[i], row, nil)
			if err != nil {
				return err
			}
			nr[j] = coerce(v, t.Schema.Cols[j].Type)
		}
		rows = append(rows, nr)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, rid := range rids {
		if s.Delete {
			if err := t.Delete(rid); err != nil {
				return nil, err
			}
		} else if _, err := t.Update(rid, rows[i]); err != nil {
			return nil, err
		}
	}
	return &Result{RowsAffected: len(rids)}, nil
}

func truthy(d Datum) bool { return d.BoolVal() || d.typ == DTText && d.s != "" }

// coerce converts a number to the numeric type of the column it is stored in.
func coerce(d Datum, t DType) Datum {
	switch {
	case t == DTInt && d.typ == DTFloat:
		return Int(int64(d.f))
	case t == DTFloat && d.typ == DTInt:
		return Float(float64(d.i))
	}
	return d
}

// eval computes a bound expression over row. group holds the rows an
// aggregate folds: nil outside a grouped query, and for the empty group.
func eval(e sqlExpr, row Row, group []Row) (Datum, error) {
	switch v := e.(type) {
	case *litExpr:
		return v.Val, nil
	case *colRef:
		if v.idx >= len(row) { // the empty group's row
			return Null, nil
		}
		return row[v.idx], nil
	case *unaryExpr:
		x, err := eval(v.X, row, group)
		switch {
		case err != nil || x.IsNull():
			return Null, err
		case v.Op == "NOT":
			return Bool(!truthy(x)), nil
		case x.typ == DTInt:
			return Int(-x.i), nil
		}
		return Float(-x.Float64()), nil
	case *isNullExpr:
		x, err := eval(v.X, row, group)
		return Bool(x.IsNull() != v.Not), err
	case *binExpr:
		return evalBin(v, row, group)
	case *funcExpr:
		return evalFunc(v, row, group)
	case *aggExpr:
		return v.fold(group)
	}
	return Null, fmt.Errorf("sql: unhandled expression %T", e)
}

func evalBin(v *binExpr, row Row, group []Row) (Datum, error) {
	l, err := eval(v.L, row, group)
	if err != nil {
		return Null, err
	}
	// AND and OR short-circuit.
	if v.Op == "AND" || v.Op == "OR" {
		if lt := truthy(l); lt == (v.Op == "OR") {
			return Bool(lt), nil
		}
		r, err := eval(v.R, row, group)
		return Bool(truthy(r)), err
	}
	r, err := eval(v.R, row, group)
	if err != nil || l.IsNull() || r.IsNull() {
		return Null, err
	}
	// A comparison holds when its operator's spelling has the sign of the
	// outcome: <> is < or >, and the parser spells != as <>.
	if op := v.Op; strings.ContainsAny(op, "<=>") {
		c := l.Compare(r)
		return Bool(c < 0 && strings.Contains(op, "<") || c > 0 && strings.Contains(op, ">") || c == 0 && strings.Contains(op, "=")), nil
	}
	if v.Op == "+" && (l.typ == DTText || r.typ == DTText) {
		return Text(l.String() + r.String()), nil
	}
	if !l.IsNumeric() || !r.IsNumeric() {
		return Null, fmt.Errorf("sql: %s on non-numeric values", v.Op)
	}
	if (v.Op == "/" || v.Op == "%") && r.Float64() == 0 {
		return Null, fmt.Errorf("sql: division by zero")
	}
	f := arithmetic[v.Op]
	if l.typ == DTInt && r.typ == DTInt && f.ints != nil {
		return Int(f.ints(l.i, r.i)), nil
	}
	return Float(f.floats(l.Float64(), r.Float64())), nil
}

// arithmetic holds each operator over BIGINTs and over DOUBLEs; '/' is
// always a DOUBLE division.
var arithmetic = map[string]struct {
	ints   func(a, b int64) int64
	floats func(a, b float64) float64
}{
	"+": {func(a, b int64) int64 { return a + b }, func(a, b float64) float64 { return a + b }},
	"-": {func(a, b int64) int64 { return a - b }, func(a, b float64) float64 { return a - b }},
	"*": {func(a, b int64) int64 { return a * b }, func(a, b float64) float64 { return a * b }},
	"/": {nil, func(a, b float64) float64 { return a / b }},
	"%": {func(a, b int64) int64 { return a % b }, math.Mod},
}

func evalFunc(v *funcExpr, row Row, group []Row) (Datum, error) {
	args := make([]Datum, len(v.Args))
	for i, a := range v.Args {
		d, err := eval(a, row, group)
		if err != nil {
			return Null, err
		}
		args[i] = d
	}
	if v.Name == "COALESCE" {
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return Null, nil
	}
	switch a := args[0]; {
	case v.Name == "UPPER":
		return Text(strings.ToUpper(a.String())), nil
	case v.Name == "LOWER":
		return Text(strings.ToLower(a.String())), nil
	case v.Name == "LENGTH":
		return Int(int64(len(a.String()))), nil
	case a.IsNull():
		return Null, nil
	case v.Name == "ABS" && a.typ == DTInt:
		return Int(max(a.i, -a.i)), nil
	case v.Name == "ABS":
		return Float(math.Abs(a.Float64())), nil
	}
	// ROUND
	scale := 0.0
	if len(args) > 1 {
		scale = args[1].Float64()
	}
	m := math.Pow(10, scale)
	return Float(math.Round(args[0].Float64()*m) / m), nil
}

// fold computes the aggregate over group. SUM of BIGINTs is exact: it adds
// in int64, and an overflow is an error.
func (a *aggExpr) fold(group []Row) (Datum, error) {
	if a.Arg == nil {
		return Int(int64(len(group))), nil // COUNT(*)
	}
	var (
		count, isum    int64
		fsum           float64
		ints, overflow = true, false
		best           Datum
	)
	for _, m := range group {
		d, err := eval(a.Arg, m, nil)
		if err != nil {
			return Null, err
		}
		if d.IsNull() {
			continue
		}
		count++
		fsum += d.Float64()
		if d.typ == DTInt {
			overflow = overflow || d.i > 0 && isum > math.MaxInt64-d.i || d.i < 0 && isum < math.MinInt64-d.i
			isum += d.i
		} else {
			ints = false
		}
		if count == 1 || a.Name == "MIN" && d.Compare(best) < 0 || a.Name == "MAX" && d.Compare(best) > 0 {
			best = d
		}
	}
	switch {
	case a.Name == "COUNT":
		return Int(count), nil
	case a.Name == "MIN" || a.Name == "MAX" || count == 0:
		return best, nil
	case a.Name == "AVG":
		return Float(fsum / float64(count)), nil
	case !ints:
		return Float(fsum), nil
	case overflow:
		return Null, fmt.Errorf("sql: SUM overflows BIGINT")
	}
	return Int(isum), nil
}
