package rdbms

import (
	"testing"
	"testing/quick"
)

// TestSQLParserNeverPanics: arbitrary input must yield a statement or an
// error, never a panic.
func TestSQLParserNeverPanics(t *testing.T) {
	f := func(query string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		parseSQL(query) //nolint:errcheck // robustness only
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// TestLexerProperty: the token cursor either errors or walks the whole
// input to EOF, every token it yields consuming at least one byte.
func TestLexerProperty(t *testing.T) {
	f := func(s string) bool {
		p := &sqlParser{src: s}
		for last := -1; ; last = p.pos {
			if p.next(); p.tok.kind == tkEOF {
				break
			}
			if p.pos <= last || p.pos > len(s) {
				return false
			}
		}
		return p.err != nil || p.pos == len(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// FuzzSQL: any input must yield a Result or an error against a live
// catalog, never a panic. It starts from the statements of TestSQLCorpus;
// a '?' the input asks for is bound to a datum of each type in turn.
func FuzzSQL(f *testing.F) {
	for _, s := range sqlCorpus() {
		f.Add(s.q)
	}
	kinds := []Datum{Int(1), Text("a"), Null, Float(2.5), Bool(true)}
	f.Fuzz(func(t *testing.T, q string) {
		st, n, _ := parseSQL(q)
		if s, ok := st.(*selectStmt); ok && len(s.From) > 3 {
			return // a long cross product is slow and large, not wrong
		}
		params := make([]Datum, n)
		for i := range params {
			params[i] = kinds[i%len(kinds)]
		}
		res, err := corpusDB(t).Exec(q, params...)
		if (res == nil) == (err == nil) {
			t.Fatalf("Exec(%q) = %v, %v: want a Result or an error", q, res, err)
		}
	})
}

// TestSQLExecNeverPanics drives mangled variants of real queries through
// the executor against a live catalog.
func TestSQLExecNeverPanics(t *testing.T) {
	db := Open(Options{})
	db.MustExec("CREATE TABLE f (a BIGINT, b TEXT)")
	db.MustExec("INSERT INTO f VALUES (1,'x')")
	for _, q := range malformedSQL {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("Exec(%q) panicked: %v", q, r)
				}
			}()
			db.Exec(q) //nolint:errcheck // robustness only
		}()
	}
}
