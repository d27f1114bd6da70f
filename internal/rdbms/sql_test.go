package rdbms

import (
	"testing"
)

// invoiceDB builds the customer-management schema of Example 2.
func invoiceDB(t *testing.T) *DB {
	t.Helper()
	db := testDB()
	db.MustExec("CREATE TABLE supp (suppid BIGINT, name TEXT, city TEXT)")
	db.MustExec("CREATE TABLE invoice (invid BIGINT, suppid BIGINT, amount DOUBLE, paid BOOLEAN)")
	db.MustExec("INSERT INTO supp VALUES (1,'Acme','Champaign'),(2,'Globex','Urbana'),(3,'Initech','Champaign')")
	db.MustExec(`INSERT INTO invoice VALUES
		(10,1,100.0,true),(11,1,250.0,false),(12,2,75.5,true),
		(13,3,500.0,false),(14,3,25.0,true),(15,3,60.0,false)`)
	return db
}

func TestSQLSelectBasics(t *testing.T) {
	db := invoiceDB(t)
	r := db.MustExec("SELECT name, city FROM supp WHERE city = 'Champaign' ORDER BY name")
	if len(r.Rows) != 2 || r.Rows[0][0].Str() != "Acme" || r.Rows[1][0].Str() != "Initech" {
		t.Fatalf("rows = %v", r.Rows)
	}
	if r.Columns[0] != "name" || r.Columns[1] != "city" {
		t.Fatalf("columns = %v", r.Columns)
	}
}

func TestSQLStar(t *testing.T) {
	db := invoiceDB(t)
	r := db.MustExec("SELECT * FROM supp ORDER BY suppid")
	if len(r.Columns) != 3 || len(r.Rows) != 3 {
		t.Fatalf("star select: cols=%v rows=%d", r.Columns, len(r.Rows))
	}
	r = db.MustExec("SELECT s.* FROM supp s ORDER BY s.suppid LIMIT 1")
	if len(r.Rows) != 1 || r.Rows[0][1].Str() != "Acme" {
		t.Fatalf("qualified star = %v", r.Rows)
	}
}

func TestSQLJoin(t *testing.T) {
	db := invoiceDB(t)
	r := db.MustExec(`SELECT s.name, i.amount FROM invoice i
		JOIN supp s ON i.suppid = s.suppid
		WHERE NOT i.paid ORDER BY i.amount DESC`)
	if len(r.Rows) != 3 {
		t.Fatalf("join rows = %v", r.Rows)
	}
	if r.Rows[0][0].Str() != "Initech" || r.Rows[0][1].Float64() != 500 {
		t.Fatalf("top unpaid = %v", r.Rows[0])
	}
}

func TestSQLGroupByAggregates(t *testing.T) {
	db := invoiceDB(t)
	r := db.MustExec(`SELECT s.name, SUM(i.amount) total, COUNT(*) n
		FROM invoice i JOIN supp s ON i.suppid = s.suppid
		GROUP BY s.name ORDER BY total DESC`)
	if len(r.Rows) != 3 {
		t.Fatalf("groups = %v", r.Rows)
	}
	if r.Columns[1] != "total" || r.Columns[2] != "n" {
		t.Fatalf("columns = %v", r.Columns)
	}
	if r.Rows[0][0].Str() != "Initech" || r.Rows[0][1].Float64() != 585 || r.Rows[0][2].Int64() != 3 {
		t.Fatalf("Initech group = %v", r.Rows[0])
	}
	if r.Rows[1][0].Str() != "Acme" || r.Rows[1][1].Float64() != 350 {
		t.Fatalf("Acme group = %v", r.Rows[1])
	}
}

func TestSQLHaving(t *testing.T) {
	db := invoiceDB(t)
	r := db.MustExec(`SELECT suppid, COUNT(*) n FROM invoice
		GROUP BY suppid HAVING COUNT(*) >= 2 ORDER BY suppid`)
	if len(r.Rows) != 2 || r.Rows[0][0].Int64() != 1 || r.Rows[1][0].Int64() != 3 {
		t.Fatalf("having = %v", r.Rows)
	}
}

func TestSQLGlobalAggregate(t *testing.T) {
	db := invoiceDB(t)
	r := db.MustExec("SELECT COUNT(*), SUM(amount), AVG(amount), MIN(amount), MAX(amount) FROM invoice")
	row := r.Rows[0]
	if row[0].Int64() != 6 || row[1].Float64() != 1010.5 {
		t.Fatalf("aggregates = %v", row)
	}
	if row[3].Float64() != 25 || row[4].Float64() != 500 {
		t.Fatalf("min/max = %v", row)
	}
	// Global aggregate over empty relation yields one row.
	db.MustExec("CREATE TABLE empty (x BIGINT)")
	r = db.MustExec("SELECT COUNT(*), SUM(x) FROM empty")
	if len(r.Rows) != 1 || r.Rows[0][0].Int64() != 0 || !r.Rows[0][1].IsNull() {
		t.Fatalf("empty aggregate = %v", r.Rows)
	}
}

func TestSQLParams(t *testing.T) {
	db := invoiceDB(t)
	r, err := db.Exec("SELECT name FROM supp WHERE suppid = ?", Int(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 || r.Rows[0][0].Str() != "Globex" {
		t.Fatalf("param query = %v", r.Rows)
	}
	if _, err := db.Exec("SELECT name FROM supp WHERE suppid = ?"); err == nil {
		t.Fatal("missing parameter must fail")
	}
	if _, err := db.Exec("SELECT name FROM supp", Int(1)); err == nil {
		t.Fatal("extra parameter must fail")
	}
}

func TestSQLDistinctLimit(t *testing.T) {
	db := invoiceDB(t)
	r := db.MustExec("SELECT DISTINCT city FROM supp ORDER BY city")
	if len(r.Rows) != 2 || r.Rows[0][0].Str() != "Champaign" {
		t.Fatalf("distinct = %v", r.Rows)
	}
	r = db.MustExec("SELECT invid FROM invoice ORDER BY invid LIMIT 2")
	if len(r.Rows) != 2 || r.Rows[1][0].Int64() != 11 {
		t.Fatalf("limit = %v", r.Rows)
	}
	r = db.MustExec("SELECT invid FROM invoice LIMIT 0")
	if len(r.Rows) != 0 {
		t.Fatalf("limit 0 = %v", r.Rows)
	}
}

func TestSQLUpdateDelete(t *testing.T) {
	db := invoiceDB(t)
	r := db.MustExec("UPDATE invoice SET paid = true WHERE suppid = 3")
	if r.RowsAffected != 3 {
		t.Fatalf("update affected %d", r.RowsAffected)
	}
	r = db.MustExec("SELECT COUNT(*) FROM invoice WHERE paid = false")
	if r.Rows[0][0].Int64() != 1 {
		t.Fatalf("unpaid after update = %v", r.Rows)
	}
	r = db.MustExec("DELETE FROM invoice WHERE amount < 100")
	if r.RowsAffected != 3 {
		t.Fatalf("delete affected %d", r.RowsAffected)
	}
	r = db.MustExec("SELECT COUNT(*) FROM invoice")
	if r.Rows[0][0].Int64() != 3 {
		t.Fatalf("rows after delete = %v", r.Rows)
	}
}

func TestSQLArithmeticAndFunctions(t *testing.T) {
	db := invoiceDB(t)
	r := db.MustExec("SELECT amount * 2 + 1 FROM invoice WHERE invid = 10")
	if r.Rows[0][0].Float64() != 201 {
		t.Fatalf("arith = %v", r.Rows)
	}
	r = db.MustExec("SELECT UPPER(name), LENGTH(city), ABS(-5), ROUND(2.567, 2) FROM supp WHERE suppid = 1")
	row := r.Rows[0]
	if row[0].Str() != "ACME" || row[1].Int64() != 9 || row[2].Int64() != 5 || row[3].Float64() != 2.57 {
		t.Fatalf("functions = %v", row)
	}
	r = db.MustExec("SELECT COALESCE(NULL, 7) FROM supp LIMIT 1")
	if r.Rows[0][0].Int64() != 7 {
		t.Fatalf("coalesce = %v", r.Rows)
	}
	if _, err := db.Exec("SELECT amount / 0 FROM invoice"); err == nil {
		t.Fatal("division by zero must error")
	}
}

func TestSQLNullSemantics(t *testing.T) {
	db := testDB()
	db.MustExec("CREATE TABLE n (a BIGINT, b BIGINT)")
	db.MustExec("INSERT INTO n VALUES (1, NULL), (2, 5)")
	r := db.MustExec("SELECT a FROM n WHERE b = NULL")
	if len(r.Rows) != 0 {
		t.Fatal("= NULL must match nothing")
	}
	r = db.MustExec("SELECT a FROM n WHERE b IS NULL")
	if len(r.Rows) != 1 || r.Rows[0][0].Int64() != 1 {
		t.Fatalf("IS NULL = %v", r.Rows)
	}
	r = db.MustExec("SELECT a FROM n WHERE b IS NOT NULL")
	if len(r.Rows) != 1 || r.Rows[0][0].Int64() != 2 {
		t.Fatalf("IS NOT NULL = %v", r.Rows)
	}
	r = db.MustExec("SELECT SUM(b), COUNT(b), COUNT(*) FROM n")
	if r.Rows[0][0].Int64() != 5 || r.Rows[0][1].Int64() != 1 || r.Rows[0][2].Int64() != 2 {
		t.Fatalf("null aggregation = %v", r.Rows[0])
	}
}

func TestSQLCrossJoinComma(t *testing.T) {
	db := invoiceDB(t)
	r := db.MustExec("SELECT COUNT(*) FROM supp, invoice")
	if r.Rows[0][0].Int64() != 18 {
		t.Fatalf("cross product count = %v", r.Rows)
	}
}

func TestSQLErrors(t *testing.T) {
	db := invoiceDB(t)
	bad := []string{
		"SELEC x FROM supp",
		"SELECT FROM supp",
		"SELECT x FROM nosuch",
		"SELECT nosuchcol FROM supp",
		"SELECT suppid FROM supp, invoice", // ambiguous
		"SELECT name FROM supp WHERE",
		"INSERT INTO supp VALUES (1)",       // arity
		"INSERT INTO nosuch VALUES (1)",     // missing table
		"UPDATE supp SET nosuch = 1",        // missing column
		"CREATE TABLE supp (a BIGINT)",      // duplicate
		"CREATE TABLE t2 (a NOTATYPE)",      // bad type
		"SELECT name FROM supp LIMIT -1",    // negative limit
		"SELECT name FROM supp; SELECT 1",   // trailing input
		"SELECT 'unterminated FROM supp",    // lexer error
		"SELECT NOSUCHFUNC(name) FROM supp", // unknown function
		"SELECT name FROM supp ORDER",       // incomplete
		"DROP TABLE nosuch",                 // missing table
		"DELETE FROM nosuch",                // missing table
		"UPDATE nosuch SET a = 1",           // missing table
		"INSERT INTO supp (zzz) VALUES (1)", // bad column list
	}
	for _, q := range bad {
		if _, err := db.Exec(q); err == nil {
			t.Errorf("query %q should fail", q)
		}
	}
}

func TestSQLStringEscapes(t *testing.T) {
	db := testDB()
	db.MustExec("CREATE TABLE s (v TEXT)")
	db.MustExec("INSERT INTO s VALUES ('it''s')")
	r := db.MustExec("SELECT v FROM s")
	if r.Rows[0][0].Str() != "it's" {
		t.Fatalf("escape = %q", r.Rows[0][0].Str())
	}
}

func TestSQLOrderByMultiKey(t *testing.T) {
	db := invoiceDB(t)
	r := db.MustExec("SELECT suppid, amount FROM invoice ORDER BY suppid ASC, amount DESC")
	if r.Rows[0][0].Int64() != 1 || r.Rows[0][1].Float64() != 250 {
		t.Fatalf("multi-key order = %v", r.Rows)
	}
	if r.Rows[3][0].Int64() != 3 || r.Rows[3][1].Float64() != 500 {
		t.Fatalf("multi-key order = %v", r.Rows)
	}
}

func TestSQLSemicolonAndQuotedIdent(t *testing.T) {
	db := invoiceDB(t)
	r := db.MustExec(`SELECT "name" FROM supp ORDER BY name LIMIT 1;`)
	if r.Rows[0][0].Str() != "Acme" {
		t.Fatalf("quoted ident = %v", r.Rows)
	}
}

func TestSQLNullAndTextNullAreDifferentKeys(t *testing.T) {
	db := testDB()
	db.MustExec("CREATE TABLE k (name TEXT, n BIGINT)")
	db.MustExec("INSERT INTO k VALUES (NULL, 1), ('NULL', 2), ('a', 3)")
	r := db.MustExec("SELECT name, SUM(n) FROM k GROUP BY name")
	if len(r.Rows) != 3 || !r.Rows[0][0].IsNull() || r.Rows[1][0].Str() != "NULL" || r.Rows[1][1].Int64() != 2 {
		t.Fatalf("groups = %v, want NULL, 'NULL' and 'a' apart", r.Rows)
	}
	if r := db.MustExec("SELECT DISTINCT name FROM k"); len(r.Rows) != 3 {
		t.Fatalf("distinct = %v, want 3 rows", r.Rows)
	}
}

func TestSQLSumIsExact(t *testing.T) {
	db := testDB()
	db.MustExec("CREATE TABLE big (x BIGINT)")
	db.MustExec("INSERT INTO big VALUES (9007199254740993), (1)")
	r := db.MustExec("SELECT SUM(x) FROM big")
	if r.Rows[0][0].Type() != DTInt || r.Rows[0][0].Int64() != 9007199254740994 {
		t.Fatalf("SUM = %v, want the BIGINT 9007199254740994", r.Rows[0][0])
	}
	db.MustExec("INSERT INTO big VALUES (9223372036854775807)")
	if r, err := db.Exec("SELECT SUM(x) FROM big"); err == nil {
		t.Fatalf("SUM past the BIGINT range = %v, want an error", r.Rows)
	}
}

// TestSQLWordsReservedOnlyInPlace: a type name or LEFT is a column name
// (LinkTable takes column names from a sheet's header row), and a SELECT
// needs no FROM.
func TestSQLWordsReservedOnlyInPlace(t *testing.T) {
	db := testDB()
	if _, err := db.CreateTable("h", NewSchema(Column{"Text", DTText}, Column{"Left", DTInt})); err != nil {
		t.Fatal(err)
	}
	db.MustExec("INSERT INTO h VALUES ('a', 1)")
	for _, q := range []string{"SELECT Text FROM h", "SELECT Left FROM h", "SELECT h.text, left AS int FROM h"} {
		if r, err := db.Exec(q); err != nil || len(r.Rows) != 1 {
			t.Errorf("%s: %v, %v", q, r, err)
		}
	}
	r := db.MustExec("SELECT 1+1")
	if len(r.Rows) != 1 || r.Rows[0][0].Int64() != 2 {
		t.Fatalf("SELECT 1+1 = %v", r.Rows)
	}
	for _, q := range []string{"SELECT FROM h", "SELECT * FROM h LEFT JOIN h g ON h.left = g.left"} {
		if _, err := db.Exec(q); err == nil {
			t.Errorf("%s must fail", q)
		}
	}
}

// TestSQLBindErrorsOnAnyInput: a name or an aggregate the statement cannot
// have is an error before any row is read, so also over an empty table.
func TestSQLBindErrorsOnAnyInput(t *testing.T) {
	db := testDB()
	db.MustExec("CREATE TABLE e (x BIGINT)")
	for _, q := range []string{
		"SELECT nope FROM e",
		"SELECT x FROM e WHERE nope = 1",
		"SELECT x FROM e WHERE SUM(x) > 0",
		"SELECT SUM(COUNT(*)) FROM e",
	} {
		if r, err := db.Exec(q); err == nil {
			t.Errorf("%s = %v, want an error", q, r.Rows)
		}
	}
}

func TestSQLQueryOnlySelects(t *testing.T) {
	db := invoiceDB(t)
	if r, err := db.Query("SELECT COUNT(*) FROM supp"); err != nil || r.Rows[0][0].Int64() != 3 {
		t.Fatalf("Query(SELECT) = %v, %v", r, err)
	}
	for _, q := range []string{"DELETE FROM supp", "UPDATE supp SET name = 'x'", "INSERT INTO supp VALUES (9, 'x', 'y')", "CREATE TABLE t (a INT)", "DROP TABLE supp"} {
		if _, err := db.Query(q); err == nil {
			t.Errorf("Query(%q) must fail", q)
		}
	}
	if r := db.MustExec("SELECT COUNT(*) FROM supp"); r.Rows[0][0].Int64() != 3 || db.Table("t") != nil {
		t.Fatalf("a refused Query changed the catalog: %v", r.Rows)
	}
}
