package rdbms

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// corpusStmt is one statement of the SQL corpus with its parameters.
type corpusStmt struct {
	q      string
	params []Datum
}

// corpusDB is invoiceDB with NULLs, the text 'NULL' and the table f of the
// malformed queries beside it.
func corpusDB(t *testing.T) *DB {
	db := invoiceDB(t)
	db.MustExec("INSERT INTO supp VALUES (4, NULL, 'Urbana'), (5, 'NULL', NULL)")
	db.MustExec("INSERT INTO invoice VALUES (16, NULL, NULL, NULL), (17, 4, 12.5, NULL)")
	db.MustExec("CREATE TABLE f (a BIGINT, b TEXT)")
	db.MustExec("INSERT INTO f VALUES (1,'x')")
	return db
}

// malformedSQL are mangled variants of real queries: each must return an
// error or a Result, never panic.
var malformedSQL = []string{
	"SELECT", "SELECT *", "SELECT * FROM", "SELECT * FROM f WHERE",
	"SELECT a a a FROM f", "SELECT (a FROM f", "SELECT * FROM f GROUP BY",
	"SELECT COUNT(*) FROM f HAVING a", "SELECT * FROM f ORDER BY 99",
	"SELECT * FROM f LIMIT a", "SELECT a+ FROM f", "SELECT MIN() FROM f",
	"SELECT 'b FROM f", "SELECT a FROM f JOIN f ON", "UPDATE f SET",
	"INSERT INTO f (a) VALUES", "DELETE FROM", "DROP", "CREATE TABLE",
	"SELECT * FROM f WHERE a = 'text' + 1", "SELECT a % 0 FROM f",
	"SELECT ? FROM f", "SELECT a FROM f, f",
}

// probeSQL are fixed statements at the edges of the grammar and of the
// executor's semantics, beside the generated ones.
var probeSQL = []corpusStmt{
	{q: "SELECT 1+1"},
	{q: "SELECT 2 * 3 AS six, 'a' + 'b'"},
	{q: "SELECT FROM supp"},
	{q: "SELECT name AS text FROM supp ORDER BY suppid"},
	{q: "SELECT city AS left FROM supp ORDER BY 1"},
	{q: "SELECT name, COUNT(*) n FROM supp GROUP BY name ORDER BY n, name"},
	{q: "SELECT name, city FROM supp GROUP BY name, city"},
	{q: "SELECT DISTINCT name FROM supp"},
	{q: "SELECT SUM(?) FROM invoice WHERE invid < 12", params: []Datum{Int(9007199254740993)}},
	{q: "SELECT SUM(?) FROM invoice", params: []Datum{Int(math.MaxInt64)}},
	{q: "SELECT SUM(invid), SUM(amount), SUM(paid), SUM(name) FROM invoice, supp WHERE invid = 10"},
	{q: "SELECT nope FROM supp WHERE suppid > 99"},
	{q: "SELECT name FROM supp WHERE nope = 1 AND suppid > 99"},
	{q: "SELECT name FROM supp WHERE SUM(suppid) > 0"},
	{q: "SELECT SUM(COUNT(*)) FROM supp"},
	{q: "SELECT COUNT(*) FROM supp GROUP BY COUNT(*)"},
	{q: "SELECT UPPER(name, city) FROM supp WHERE suppid > 99"},
	{q: "SELECT s.*, i.amount FROM supp s JOIN invoice i ON s.suppid = i.suppid ORDER BY i.amount DESC LIMIT 3"},
	{q: "SELECT * FROM supp s, invoice WHERE s.suppid = invoice.suppid AND amount > 100"},
	{q: "SELECT suppid, name FROM supp ORDER BY name DESC, suppid"},
	{q: "SELECT a, b FROM f WHERE a IS NOT NULL AND NOT b IS NULL OR a = 2"},
	{q: "SELECT -amount, amount % 7, invid % 3, invid / 4, invid * 2 - 1 FROM invoice ORDER BY invid"},
	{q: "SELECT COALESCE(name, city, 'none'), LOWER(city), LENGTH(name), ROUND(amount / 3, 1) FROM supp, invoice WHERE supp.suppid = invoice.suppid"},
	{q: "INSERT INTO invoice (amount, invid) VALUES (?, 7), (3, 8)", params: []Datum{Text("x")}},
	{q: "INSERT INTO invoice (amount, invid) VALUES (2, 7), (3, 8)"},
	{q: "INSERT INTO supp VALUES (9, 'Hooli', 'Palo Alto'), (10, 'Umbrella')"},
	{q: "UPDATE invoice SET amount = amount + 1, paid = NOT paid WHERE suppid = 3"},
	{q: "UPDATE invoice SET amount = COUNT(*)"},
	{q: "DELETE FROM supp WHERE name IS NULL OR city IS NULL"},
	{q: "CREATE TABLE t2 (a INT, b VARCHAR(10), c FLOAT, d BOOL)"},
	{q: "DROP TABLE f"},
}

// corpusCol is a column a generated expression may name.
type corpusCol struct {
	ref string
	typ DType
}

type corpusGen struct {
	r      *rand.Rand
	params []Datum
}

func (g *corpusGen) pick(xs ...string) string { return xs[g.r.Intn(len(xs))] }

func (g *corpusGen) chance(p float64) bool { return g.r.Float64() < p }

// lit renders a literal of type t, as a '?' parameter one time in five.
func (g *corpusGen) lit(t DType) string {
	var d Datum
	var text string
	switch {
	case g.chance(0.06):
		d, text = Null, "NULL"
	case t == DTInt:
		n := int64(g.r.Intn(20) - 2)
		d, text = Int(n), fmt.Sprint(n)
	case t == DTFloat:
		f := float64(g.r.Intn(600)) / 2
		d, text = Float(f), fmt.Sprintf("%.1f", f)
	case t == DTBool:
		b := g.chance(0.5)
		d, text = Bool(b), fmt.Sprint(b)
	default:
		s := g.pick("Acme", "Champaign", "Urbana", "NULL", "", "zz", "Globex")
		d, text = Text(s), "'"+s+"'"
	}
	if g.chance(0.2) {
		g.params = append(g.params, d)
		return "?"
	}
	return text
}

func (g *corpusGen) col(cols []corpusCol, types ...DType) (corpusCol, bool) {
	var ok []corpusCol
	for _, c := range cols {
		for _, t := range types {
			if c.typ == t {
				ok = append(ok, c)
			}
		}
	}
	if len(ok) == 0 {
		return corpusCol{}, false
	}
	return ok[g.r.Intn(len(ok))], true
}

// num is a numeric expression; one time in thirty it mixes in text.
func (g *corpusGen) num(cols []corpusCol, depth int) string {
	if depth > 0 && g.chance(0.4) {
		switch g.r.Intn(5) {
		case 0:
			return "-" + g.num(cols, depth-1)
		case 1:
			return g.pick("ABS(", "ROUND(") + g.num(cols, depth-1) + ")"
		case 2:
			return "(" + g.num(cols, depth-1) + ")"
		default:
			l := g.num(cols, depth-1)
			return l + " " + g.pick("+", "-", "*", "/", "%") + " " + g.num(cols, depth-1)
		}
	}
	if g.chance(0.03) {
		return g.text(cols, 0)
	}
	if c, ok := g.col(cols, DTInt, DTFloat); ok && g.chance(0.6) {
		return c.ref
	}
	if g.chance(0.5) {
		return g.lit(DTInt)
	}
	return g.lit(DTFloat)
}

func (g *corpusGen) text(cols []corpusCol, depth int) string {
	if depth > 0 && g.chance(0.3) {
		switch g.r.Intn(3) {
		case 0:
			return g.pick("UPPER(", "LOWER(") + g.text(cols, depth-1) + ")"
		case 1:
			return "COALESCE(" + g.text(cols, depth-1) + ", " + g.lit(DTText) + ")"
		default:
			l := g.text(cols, depth-1)
			return l + " + " + g.text(cols, depth-1)
		}
	}
	if c, ok := g.col(cols, DTText); ok && g.chance(0.7) {
		return c.ref
	}
	return g.lit(DTText)
}

func (g *corpusGen) pred(cols []corpusCol, depth int) string {
	if depth > 0 && g.chance(0.35) {
		switch g.r.Intn(4) {
		case 0:
			return "NOT " + g.pred(cols, depth-1)
		case 1:
			return "(" + g.pred(cols, depth-1) + ")"
		default:
			l := g.pred(cols, depth-1)
			return l + " " + g.pick("AND", "OR") + " " + g.pred(cols, depth-1)
		}
	}
	switch g.r.Intn(6) {
	case 0:
		c := cols[g.r.Intn(len(cols))]
		return c.ref + g.pick(" IS NULL", " IS NOT NULL")
	case 1:
		if c, ok := g.col(cols, DTBool); ok {
			return g.pick(c.ref, c.ref+" = "+g.lit(DTBool))
		}
		return g.lit(DTBool)
	case 2:
		return g.text(cols, 1) + " " + g.pick("=", "<>", "!=", "<", ">=") + " " + g.text(cols, 0)
	default:
		return g.num(cols, 1) + " " + g.pick("=", "!=", "<", "<=", ">", ">=") + " " + g.num(cols, 1)
	}
}

// item is a select-list expression of any type.
func (g *corpusGen) item(cols []corpusCol) string {
	switch g.r.Intn(6) {
	case 0:
		return g.num(cols, 2)
	case 1:
		return g.text(cols, 1)
	case 2:
		return "LENGTH(" + g.text(cols, 0) + ")"
	default:
		return cols[g.r.Intn(len(cols))].ref
	}
}

func (g *corpusGen) agg(cols []corpusCol) string {
	switch g.r.Intn(6) {
	case 0:
		return "COUNT(*)"
	case 1:
		return "COUNT(" + cols[g.r.Intn(len(cols))].ref + ")"
	case 2:
		return g.pick("MIN(", "MAX(") + g.item(cols) + ")"
	default:
		return g.pick("SUM(", "AVG(", "SUM(") + g.num(cols, 1) + ")"
	}
}

// from picks a FROM clause and the columns it puts in scope.
func (g *corpusGen) from() (string, []corpusCol) {
	supp := []corpusCol{{"suppid", DTInt}, {"name", DTText}, {"city", DTText}}
	inv := []corpusCol{{"invid", DTInt}, {"suppid", DTInt}, {"amount", DTFloat}, {"paid", DTBool}}
	qualify := func(q string, cs []corpusCol) []corpusCol {
		out := make([]corpusCol, len(cs))
		for i, c := range cs {
			out[i] = corpusCol{q + "." + c.ref, c.typ}
		}
		return out
	}
	switch g.r.Intn(8) {
	case 0:
		return "supp", supp
	case 1:
		return "supp s", append(qualify("s", supp), supp[1:]...)
	case 2:
		return "invoice", inv
	case 3:
		return "invoice AS i", append(qualify("i", inv), inv[2:]...)
	case 4:
		return "invoice i JOIN supp s ON i.suppid = s.suppid", append(qualify("i", inv), qualify("s", supp)...)
	case 5:
		return fmt.Sprintf("supp s INNER JOIN invoice i ON s.suppid = i.suppid AND i.amount > %d", g.r.Intn(300)),
			append(qualify("s", supp), qualify("i", inv)...)
	case 6:
		return "supp, invoice", append(qualify("supp", supp), qualify("invoice", inv)...)
	}
	return "f", []corpusCol{{"a", DTInt}, {"b", DTText}}
}

// orderBy names outputs by position or alias as well as by expression.
func (g *corpusGen) orderBy(cols []corpusCol, aliases []string, n int) string {
	keys := make([]string, 1+g.r.Intn(3))
	for i := range keys {
		switch {
		case g.chance(0.3):
			keys[i] = fmt.Sprint(1 + g.r.Intn(n+1))
		case len(aliases) > 0 && g.chance(0.4):
			keys[i] = aliases[g.r.Intn(len(aliases))]
		default:
			keys[i] = cols[g.r.Intn(len(cols))].ref
		}
		keys[i] += g.pick("", " ASC", " DESC", " DESC")
	}
	return " ORDER BY " + strings.Join(keys, ", ")
}

func (g *corpusGen) sel() string {
	from, cols := g.from()
	var b strings.Builder
	b.WriteString("SELECT ")
	grouped := g.chance(0.35)
	var items, aliases []string
	var groupBy []string
	if grouped {
		for i := g.r.Intn(3); i > 0; i-- {
			groupBy = append(groupBy, cols[g.r.Intn(len(cols))].ref)
		}
		items = append(items, groupBy...)
		for i := 1 + g.r.Intn(3); i > 0; i-- {
			items = append(items, g.agg(cols))
		}
	} else {
		if g.chance(0.2) {
			b.WriteString("DISTINCT ")
		}
		if g.chance(0.1) {
			items = append(items, "*")
		}
		for i := 1 + g.r.Intn(3); i > 0; i-- {
			items = append(items, g.item(cols))
		}
	}
	for i := range items {
		if items[i] != "*" && g.chance(0.3) {
			alias := fmt.Sprintf("c%d", i)
			aliases = append(aliases, alias)
			items[i] += g.pick(" AS ", " ") + alias
		}
	}
	b.WriteString(strings.Join(items, ", "))
	b.WriteString(" FROM " + from)
	if g.chance(0.6) {
		b.WriteString(" WHERE " + g.pred(cols, 2))
	}
	if len(groupBy) > 0 {
		b.WriteString(" GROUP BY " + strings.Join(groupBy, ", "))
	}
	if grouped && g.chance(0.4) {
		b.WriteString(" HAVING " + g.agg(cols) + " " + g.pick(">", ">=", "<", "=") + " " + g.lit(DTInt))
	}
	if g.chance(0.6) {
		b.WriteString(g.orderBy(cols, aliases, len(items)))
	}
	if g.chance(0.3) {
		fmt.Fprintf(&b, " LIMIT %d", g.r.Intn(5))
	}
	return b.String()
}

func (g *corpusGen) dml() string {
	supp := []corpusCol{{"suppid", DTInt}, {"name", DTText}, {"city", DTText}}
	inv := []corpusCol{{"invid", DTInt}, {"suppid", DTInt}, {"amount", DTFloat}, {"paid", DTBool}}
	table, cols := "supp", supp
	if g.chance(0.6) {
		table, cols = "invoice", inv
	}
	switch g.r.Intn(3) {
	case 0:
		target := cols
		head := ""
		if g.chance(0.4) {
			target = nil
			for _, i := range g.r.Perm(len(cols))[:1+g.r.Intn(len(cols))] {
				target = append(target, cols[i])
			}
			names := make([]string, len(target))
			for i, c := range target {
				names[i] = c.ref
			}
			head = " (" + strings.Join(names, ", ") + ")"
		}
		rows := make([]string, 1+g.r.Intn(3))
		for i := range rows {
			vals := make([]string, len(target))
			for j, c := range target {
				typ := c.typ
				if g.chance(0.05) {
					typ = DTText
				}
				if typ == DTFloat && g.chance(0.3) {
					typ = DTInt
				}
				vals[j] = g.lit(typ)
			}
			if g.chance(0.05) {
				vals = vals[1:]
			}
			rows[i] = "(" + strings.Join(vals, ", ") + ")"
		}
		return "INSERT INTO " + table + head + " VALUES " + strings.Join(rows, ", ")
	case 1:
		sets := make([]string, 1+g.r.Intn(2))
		for i := range sets {
			c := cols[g.r.Intn(len(cols))]
			var e string
			switch c.typ {
			case DTText:
				e = g.text(cols, 1)
			case DTBool:
				e = g.pick("NOT "+c.ref, g.lit(DTBool))
			default:
				e = g.num(cols, 1)
			}
			sets[i] = c.ref + " = " + e
		}
		q := "UPDATE " + table + " SET " + strings.Join(sets, ", ")
		if g.chance(0.8) {
			q += " WHERE " + g.pred(cols, 1)
		}
		return q
	}
	q := "DELETE FROM " + table
	if g.chance(0.85) {
		q += " WHERE " + g.pred(cols, 2)
	}
	return q
}

// sqlCorpus is the seeded statement list TestSQLCorpus pins and FuzzSQL
// starts from.
func sqlCorpus() []corpusStmt {
	g := &corpusGen{r: rand.New(rand.NewSource(29))}
	var out []corpusStmt
	for i := 0; i < 360; i++ {
		g.params = nil
		var q string
		if g.chance(0.2) {
			q = g.dml()
		} else {
			q = g.sel()
		}
		out = append(out, corpusStmt{q: q, params: g.params})
	}
	for _, q := range malformedSQL {
		out = append(out, corpusStmt{q: q})
	}
	return append(out, probeSQL...)
}

// corpusDatum renders a datum with its type: i1, f1, t"1", btrue, NULL.
func corpusDatum(d Datum) string {
	switch d.Type() {
	case DTInt:
		return "i" + d.String()
	case DTFloat:
		return "f" + d.String()
	case DTText:
		return fmt.Sprintf("t%q", d.Str())
	case DTBool:
		return "b" + d.String()
	}
	return d.String()
}

func corpusRow(r Row) string {
	parts := make([]string, len(r))
	for i, d := range r {
		parts[i] = corpusDatum(d)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// TestSQLCorpus runs every corpus statement against a fresh corpusDB and
// compares each Result — or the word error — and, after a statement that
// is not a SELECT, every table's rows with testdata/sql_corpus.golden.
// GOLDEN_REGEN=1 rewrites the file.
func TestSQLCorpus(t *testing.T) {
	stmts := sqlCorpus()
	if len(stmts) < 300 {
		t.Fatalf("corpus has %d statements, want at least 300", len(stmts))
	}
	var b strings.Builder
	for i, s := range stmts {
		fmt.Fprintf(&b, "#%d %s", i, s.q)
		if len(s.params) > 0 {
			fmt.Fprintf(&b, " %s", corpusRow(s.params))
		}
		b.WriteByte('\n')
		db := corpusDB(t)
		res, err := db.Exec(s.q, s.params...)
		if err != nil {
			b.WriteString("  error\n")
			continue
		}
		if res.Columns != nil {
			fmt.Fprintf(&b, "  cols %s\n", strings.Join(res.Columns, " | "))
		}
		for _, r := range res.Rows {
			fmt.Fprintf(&b, "  row %s\n", corpusRow(r))
		}
		if strings.HasPrefix(s.q, "SELECT") {
			continue
		}
		fmt.Fprintf(&b, "  affected %d\n", res.RowsAffected)
		for _, name := range db.TableNames() {
			fmt.Fprintf(&b, "  %s:", name)
			db.Table(name).Scan(func(_ RID, r Row) bool {
				b.WriteString(" " + corpusRow(r))
				return true
			})
			b.WriteByte('\n')
		}
	}
	path := filepath.Join("testdata", "sql_corpus.golden")
	if os.Getenv("GOLDEN_REGEN") != "" {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("corpus differs from %s at line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("corpus differs from %s in length: %d lines, want %d", path, len(gl), len(wl))
	}
}
