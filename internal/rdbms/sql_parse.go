package rdbms

import (
	"fmt"
	"strconv"
	"strings"
)

type tokKind uint8

const (
	tkEOF    tokKind = iota
	tkWord           // bare identifier or keyword, as written
	tkQuoted         // "quoted identifier": a name, never a keyword
	tkNumber
	tkString // 'string' literal, quotes removed and '' unescaped
	tkOp     // ( ) , . * ? ; = != <> < <= > >= + - / %
)

type token struct {
	kind tokKind
	text string
}

// sqlParser is a cursor over the query: it lexes one token at a time and
// keeps the first error, as RecordReader does. After an error the current
// token is EOF, so every accept fails and every loop ends: a statement
// parser is a straight run of expects, checked once by parseSQL.
type sqlParser struct {
	src    string
	pos    int // offset of the first byte not yet lexed
	tok    token
	err    error
	params int // '?' seen so far
}

func parseSQL(query string) (any, int, error) {
	p := &sqlParser{src: query}
	p.next()
	var st any
	switch {
	case p.kw("SELECT"):
		st = p.selectStmt()
	case p.kw("CREATE", "TABLE"):
		st = p.createStmt()
	case p.kw("INSERT", "INTO"):
		st = p.insertStmt()
	case p.kw("UPDATE"):
		st = p.changeStmt(false)
	case p.kw("DELETE", "FROM"):
		st = p.changeStmt(true)
	case p.kw("DROP", "TABLE"):
		st = &dropStmt{Table: p.name()}
	default:
		p.fail("expected statement, got %q", p.tok.text)
	}
	p.accept(";")
	if p.tok.kind != tkEOF {
		p.fail("unexpected trailing input at %q", p.tok.text)
	}
	return st, p.params, p.err
}

func (p *sqlParser) fail(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf("sql: "+format, args...)
	}
	p.tok = token{}
}

// next lexes the token after the current one.
func (p *sqlParser) next() {
	s := p.src
	i := len(s) - len(strings.TrimLeft(s[p.pos:], " \t\n\r"))
	if p.err != nil || i == len(s) {
		p.tok, p.pos = token{}, len(s)
		return
	}
	c, j, kind := s[i], i+1, tkOp
	switch {
	case isDigit(c) || c == '.' && j < len(s) && isDigit(s[j]):
		kind, j = tkNumber, numberEnd(s, i)
	case c == '\'':
		for {
			k := strings.IndexByte(s[j:], '\'')
			if k < 0 {
				p.fail("unterminated string at %d", i)
				return
			}
			j += k + 1
			if j == len(s) || s[j] != '\'' {
				break
			}
			j++ // '' is an escaped quote
		}
		p.tok, p.pos = token{tkString, strings.ReplaceAll(s[i+1:j-1], "''", "'")}, j
		return
	case c == '"':
		k := strings.IndexByte(s[j:], '"')
		if k < 0 {
			p.fail("unterminated quoted identifier at %d", i)
			return
		}
		p.tok, p.pos = token{tkQuoted, s[j : j+k]}, j+k+1
		return
	case isIdentStart(c):
		for j < len(s) && (isIdentStart(s[j]) || isDigit(s[j])) {
			j++
		}
		kind = tkWord
	case c == '<' || c == '>' || c == '!' || c == '=':
		if j < len(s) && (s[j] == '=' || c == '<' && s[j] == '>') {
			j++
		}
	case strings.IndexByte("+-/%(),.*?;", c) < 0:
		p.fail("unexpected character %q at %d", c, i)
		return
	}
	p.tok, p.pos = token{kind, s[i:j]}, j
}

// numberEnd returns the end of the number starting at s[i]: digits, an
// optional fraction, and an optional exponent with an optional sign.
func numberEnd(s string, i int) int {
	digits := func(j int) int {
		for j < len(s) && isDigit(s[j]) {
			j++
		}
		return j
	}
	j := digits(i)
	if j < len(s) && s[j] == '.' {
		j = digits(j + 1)
	}
	if j < len(s) && (s[j] == 'e' || s[j] == 'E') {
		j++
		if j < len(s) && (s[j] == '+' || s[j] == '-') {
			j++
		}
		j = digits(j)
	}
	return j
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func (p *sqlParser) isKw(word string) bool {
	return p.tok.kind == tkWord && strings.EqualFold(p.tok.text, word)
}

// kw consumes the keyword sequence words when the current token is its
// first word, and then expects the rest. A keyword is a bare word in any
// case, and only where the grammar asks for it: elsewhere it is a name.
func (p *sqlParser) kw(words ...string) bool {
	if !p.isKw(words[0]) {
		return false
	}
	for _, w := range words[1:] {
		p.next()
		if !p.isKw(w) {
			p.fail("expected %s, got %q", w, p.tok.text)
		}
	}
	p.next()
	return true
}

func (p *sqlParser) expectKw(word string) {
	if !p.kw(word) {
		p.fail("expected %s, got %q", word, p.tok.text)
	}
}

func (p *sqlParser) accept(op string) bool {
	if p.tok.kind == tkOp && p.tok.text == op {
		p.next()
		return true
	}
	return false
}

func (p *sqlParser) expect(op string) {
	if !p.accept(op) {
		p.fail("expected %q, got %q", op, p.tok.text)
	}
}

// name consumes an identifier: a bare word or a quoted one.
func (p *sqlParser) name() string {
	t := p.tok
	if t.kind != tkWord && t.kind != tkQuoted {
		p.fail("expected identifier, got %q", t.text)
	}
	p.next()
	return t.text
}

// alias consumes an optional alias: AS and a name, or a bare name that is
// not a word that may follow an expression or a table. LEFT is among them
// so that "a LEFT JOIN b", which is not supported, fails instead of
// joining an a aliased LEFT.
func (p *sqlParser) alias() string {
	if p.kw("AS") || p.tok.kind == tkQuoted {
		return p.name()
	}
	for _, w := range [...]string{"FROM", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "JOIN", "INNER", "LEFT", "ON"} {
		if p.isKw(w) {
			return ""
		}
	}
	if p.tok.kind != tkWord {
		return ""
	}
	return p.name()
}

func (p *sqlParser) exprList() []sqlExpr {
	var xs []sqlExpr
	for {
		xs = append(xs, p.expr(precOr))
		if !p.accept(",") {
			return xs
		}
	}
}

func (p *sqlParser) selectStmt() *selectStmt {
	s := &selectStmt{Limit: -1, Distinct: p.kw("DISTINCT")}
	for {
		item := selectItem{Expr: p.expr(precOr)}
		if _, star := item.Expr.(*starExpr); !star {
			item.Alias = p.alias()
		}
		s.Items = append(s.Items, item)
		if !p.accept(",") {
			break
		}
	}
	if p.kw("FROM") {
		s.From = []tableRef{p.tableRef()}
		for {
			join := p.kw("JOIN") || p.kw("INNER", "JOIN")
			if !join && !p.accept(",") {
				break
			}
			tr := p.tableRef()
			if join {
				p.expectKw("ON")
				tr.On = p.expr(precOr)
			}
			s.From = append(s.From, tr)
		}
	}
	if p.kw("WHERE") {
		s.Where = p.expr(precOr)
	}
	if p.kw("GROUP", "BY") {
		s.GroupBy = p.exprList()
	}
	if p.kw("HAVING") {
		s.Having = p.expr(precOr)
	}
	if p.kw("ORDER", "BY") {
		for {
			item := orderItem{Expr: p.expr(precOr), Desc: p.kw("DESC")}
			if !item.Desc {
				p.kw("ASC")
			}
			s.OrderBy = append(s.OrderBy, item)
			if !p.accept(",") {
				break
			}
		}
	}
	if p.kw("LIMIT") {
		n, err := strconv.Atoi(p.tok.text)
		if p.tok.kind != tkNumber || err != nil || n < 0 {
			p.fail("invalid LIMIT %q", p.tok.text)
		}
		s.Limit = n
		p.next()
	}
	return s
}

func (p *sqlParser) tableRef() tableRef { return tableRef{Table: p.name(), Alias: p.alias()} }

// sqlTypes are the column type names CREATE TABLE accepts.
var sqlTypes = map[string]DType{
	"BIGINT": DTInt, "INT": DTInt, "INTEGER": DTInt, "DOUBLE": DTFloat, "FLOAT": DTFloat,
	"TEXT": DTText, "VARCHAR": DTText, "BOOLEAN": DTBool, "BOOL": DTBool,
}

func (p *sqlParser) createStmt() *createStmt {
	st := &createStmt{Table: p.name()}
	p.expect("(")
	for {
		name := p.name()
		typ, ok := sqlTypes[strings.ToUpper(p.tok.text)]
		if p.tok.kind != tkWord || !ok {
			p.fail("expected column type, got %q", p.tok.text)
		}
		p.next()
		if typ == DTText && p.accept("(") { // VARCHAR(n)
			if p.tok.kind != tkNumber {
				p.fail("expected length in VARCHAR(n)")
			}
			p.next()
			p.expect(")")
		}
		st.Cols = append(st.Cols, Column{Name: name, Type: typ})
		if !p.accept(",") {
			break
		}
	}
	p.expect(")")
	return st
}

func (p *sqlParser) insertStmt() *insertStmt {
	st := &insertStmt{Table: p.name()}
	if p.accept("(") {
		for {
			st.Cols = append(st.Cols, p.name())
			if !p.accept(",") {
				break
			}
		}
		p.expect(")")
	}
	p.expectKw("VALUES")
	for {
		p.expect("(")
		st.Rows = append(st.Rows, p.exprList())
		p.expect(")")
		if !p.accept(",") {
			break
		}
	}
	return st
}

func (p *sqlParser) changeStmt(del bool) *changeStmt {
	st := &changeStmt{Table: p.name(), Delete: del}
	if !del {
		p.expectKw("SET")
		for {
			st.Cols = append(st.Cols, p.name())
			p.expect("=")
			st.Set = append(st.Set, p.expr(precOr))
			if !p.accept(",") {
				break
			}
		}
	}
	if p.kw("WHERE") {
		st.Where = p.expr(precOr)
	}
	return st
}

// Binary operator precedence, lowest first; 0 is not an operator.
const (
	precOr = 1 + iota
	precAnd
	precCmp
	precAdd
	precMul
)

// binaryOps is the one precedence table of the expression grammar.
var binaryOps = [...]struct {
	op   string
	prec int
}{
	{"OR", precOr}, {"AND", precAnd},
	{"=", precCmp}, {"!=", precCmp}, {"<>", precCmp}, {"<", precCmp}, {"<=", precCmp},
	{">", precCmp}, {">=", precCmp}, {"IS", precCmp},
	{"+", precAdd}, {"-", precAdd}, {"*", precMul}, {"/", precMul}, {"%", precMul},
}

func (p *sqlParser) binaryOp() (string, int) {
	if p.tok.kind == tkOp || p.tok.kind == tkWord {
		for _, o := range binaryOps {
			if strings.EqualFold(p.tok.text, o.op) {
				return o.op, o.prec
			}
		}
	}
	return "", 0
}

// expr parses an expression whose binary operators bind at least as
// tightly as min, by precedence climbing over binaryOps. NOT and unary
// minus are prefixes: NOT binds looser than a comparison and only where an
// AND or OR operand may start, minus tighter than '*'. Comparisons do not
// chain, and a NOT's operand ends at its comparison.
func (p *sqlParser) expr(min int) sqlExpr {
	var x sqlExpr
	limit := precMul + 1 // operators at or above limit end the expression
	switch {
	case min <= precCmp && p.kw("NOT"):
		x, limit = &unaryExpr{Op: "NOT", X: p.expr(precCmp)}, precCmp
	case p.accept("-"):
		x = &unaryExpr{Op: "-", X: p.expr(precMul + 1)}
	default:
		x = p.primary()
	}
	for {
		op, prec := p.binaryOp()
		if prec < min || prec >= limit {
			return x
		}
		p.next()
		if prec == precCmp {
			limit = precCmp
		}
		if op == "!=" {
			op = "<>"
		}
		if op == "IS" {
			not := p.kw("NOT")
			p.expectKw("NULL")
			x = &isNullExpr{X: x, Not: not}
			continue
		}
		x = &binExpr{Op: op, L: x, R: p.expr(prec + 1)}
	}
}

func (p *sqlParser) primary() sqlExpr {
	t := p.tok
	switch {
	case t.kind == tkNumber:
		p.next()
		if !strings.ContainsAny(t.text, ".eE") {
			if n, err := strconv.ParseInt(t.text, 10, 64); err == nil {
				return &litExpr{Val: Int(n)}
			}
		}
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			p.fail("bad number %q", t.text)
		}
		return &litExpr{Val: Float(f)}
	case t.kind == tkString:
		p.next()
		return &litExpr{Val: Text(t.text)}
	case p.kw("NULL"):
		return &litExpr{Val: Null}
	case p.kw("TRUE") || p.kw("FALSE"):
		return &litExpr{Val: Bool(strings.EqualFold(t.text, "TRUE"))}
	case p.accept("?"):
		p.params++
		return &paramExpr{Index: p.params - 1}
	case p.accept("*"):
		return &starExpr{}
	case p.accept("("):
		e := p.expr(precOr)
		p.expect(")")
		return e
	case t.kind == tkWord || t.kind == tkQuoted:
		p.next()
		if p.accept("(") {
			f := &funcExpr{Name: strings.ToUpper(t.text)}
			if !p.accept(")") {
				f.Args = p.exprList()
				p.expect(")")
			}
			return f
		}
		if !p.accept(".") {
			return &colExpr{Name: t.text}
		}
		if p.accept("*") {
			return &starExpr{Qual: t.text}
		}
		return &colExpr{Qual: t.text, Name: p.name()}
	}
	p.fail("unexpected token %q in expression", t.text)
	return &litExpr{}
}
