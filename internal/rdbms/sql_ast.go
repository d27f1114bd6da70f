package rdbms

// SQL abstract syntax tree. Only the subset the DataSpread front-end needs
// (Appendix B): single-block SELECT with joins, grouping, ordering and '?'
// parameters, plus basic DDL/DML for linked tables. A statement is one of
// the *Stmt types.

type (
	selectStmt struct {
		Distinct bool
		Items    []selectItem
		From     []tableRef // empty: the statement reads one empty row
		Where    sqlExpr
		GroupBy  []sqlExpr
		Having   sqlExpr
		OrderBy  []orderItem
		Limit    int // -1 when absent
	}
	selectItem struct {
		Expr  sqlExpr // a *starExpr for '*' and 't.*'
		Alias string  // optional
	}
	tableRef struct {
		Table, Alias string
		On           sqlExpr // JOIN's condition; nil for the first table and a comma join
	}
	orderItem struct {
		Expr sqlExpr
		Desc bool
	}
	createStmt struct {
		Table string
		Cols  []Column
	}
	insertStmt struct {
		Table string
		Cols  []string // optional explicit column list
		Rows  [][]sqlExpr
	}
	// changeStmt is UPDATE, or DELETE when Delete is set: both rewrite each
	// row of Table that matches Where. UPDATE sets Cols[i] to Set[i].
	changeStmt struct {
		Table  string
		Cols   []string
		Set    []sqlExpr
		Where  sqlExpr
		Delete bool
	}
	dropStmt struct{ Table string }
)

// Expressions. The parser builds litExpr through funcExpr. Binding replaces
// each colExpr by a colRef, each paramExpr by a litExpr and each aggregate
// call by an aggExpr, and admits a starExpr only as a select item or as
// COUNT's argument.
type (
	sqlExpr   interface{ isExpr() }
	litExpr   struct{ Val Datum }
	paramExpr struct{ Index int } // '?' placeholder, 0-based
	colExpr   struct {
		Qual string // optional table/alias qualifier
		Name string
	}
	starExpr  struct{ Qual string } // '*' or 't.*'
	unaryExpr struct {
		Op string // "-" or "NOT"
		X  sqlExpr
	}
	binExpr struct {
		Op   string // + - * / % = <> < <= > >= AND OR
		L, R sqlExpr
	}
	isNullExpr struct {
		X   sqlExpr
		Not bool // IS NOT NULL
	}
	funcExpr struct {
		Name string // upper-cased
		Args []sqlExpr
	}
	colRef  struct{ idx int } // a bound column: its offset in the statement's row
	aggExpr struct {
		Name string
		Arg  sqlExpr // nil for COUNT(*)
	}
)

func (*litExpr) isExpr()    {}
func (*paramExpr) isExpr()  {}
func (*colExpr) isExpr()    {}
func (*starExpr) isExpr()   {}
func (*unaryExpr) isExpr()  {}
func (*binExpr) isExpr()    {}
func (*isNullExpr) isExpr() {}
func (*funcExpr) isExpr()   {}
func (*colRef) isExpr()     {}
func (*aggExpr) isExpr()    {}
