package core

import (
	"fmt"
	"testing"

	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
)

func benchEngine(b *testing.B, rows int) *Engine {
	b.Helper()
	e, err := New(rdbms.Open(rdbms.Options{}), "bench", Options{})
	if err != nil {
		b.Fatal(err)
	}
	for r := 1; r <= rows; r++ {
		for c := 1; c <= 10; c++ {
			if err := e.SetValue(r, c, sheet.Number(float64(r*c))); err != nil {
				b.Fatal(err)
			}
		}
	}
	return e
}

func BenchmarkEngineSetValue(b *testing.B) {
	e := benchEngine(b, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.SetValue(i%100+1, i%10+1, sheet.Number(float64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineGetCellsViewport(b *testing.B) {
	e := benchEngine(b, 1000)
	g := sheet.NewRange(100, 1, 150, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.GetCells(g)
	}
}

func BenchmarkEngineFormulaChainPropagation(b *testing.B) {
	e := benchEngine(b, 10)
	// A 50-deep dependency chain off A1.
	for i := 0; i < 50; i++ {
		col := sheet.ColumnName(11 + i)
		prev := "A1"
		if i > 0 {
			prev = fmt.Sprintf("%s1", sheet.ColumnName(10+i))
		}
		if err := e.SetFormula(1, 11+i, prev+"+1"); err != nil {
			b.Fatal(err)
		}
		_ = col
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.SetValue(1, 1, sheet.Number(float64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineInsertRow(b *testing.B) {
	e := benchEngine(b, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.InsertRowsAfter(500, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineSQLThrough(b *testing.B) {
	e := benchEngine(b, 10)
	e.DB().MustExec("CREATE TABLE t (x BIGINT)")
	e.DB().MustExec("INSERT INTO t VALUES (1),(2),(3)")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.SQL("SELECT SUM(x) FROM t"); err != nil {
			b.Fatal(err)
		}
	}
}
