package core

import (
	"fmt"
	"testing"

	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
	"dataspread/internal/workload"
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

// BenchmarkEngineColdReadParallel reads 50x10 viewports of a 1,000-row sheet
// from every P with a 2-block cache, so most reads load from the store and
// take the read latches.
func BenchmarkEngineColdReadParallel(b *testing.B) {
	e, err := New(rdbms.Open(rdbms.Options{}), "bench", Options{CacheBlocks: 2})
	if err != nil {
		b.Fatal(err)
	}
	edits := make([]CellEdit, 0, 10_000)
	for r := 1; r <= 1000; r++ {
		for c := 1; c <= 10; c++ {
			edits = append(edits, CellEdit{Row: r, Col: c, Input: fmt.Sprint(r * c)})
		}
	}
	if _, err := e.ApplyCells(edits); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			r := (i*137)%951 + 1
			if _, _, _, err := e.ReadRange(sheet.NewRange(r, 1, r+49, 10)); err != nil {
				b.Error(err)
				return
			}
		}
	})
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

// BenchmarkLoad reopens a saved sheet shaped like the benchmark's
// edit-contended one: workload.TickerMarket(1,334 x 14) — the ticker, 1,334
// intermediates and 14 leaf columns, 15 formula columns — on rows 1..1,334,
// then 30,000 row sums =SUM(A<r>:P<r>) in column Q below it, each row with
// one number to sum. 50,010 formula cells in 1,349 fill-down runs.
func BenchmarkLoad(b *testing.B) {
	s := workload.TickerMarket(workload.TickerSpec{Intermediates: 1334, LeavesPer: 14})
	for r := 1335; r < 1335+30_000; r++ {
		s.SetValue(r, 1, sheet.Number(float64(r)))
		s.SetFormula(r, 17, fmt.Sprintf("SUM(A%d:P%d)", r, r))
	}
	db := rdbms.Open(rdbms.Options{})
	e, err := Open(db, "load", s, "rom", Options{})
	if err != nil {
		b.Fatal(err)
	}
	if err := e.Save(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Load(db, "load", Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTick times one tick of the async 400x100 ticker (the
// ticker-recalc cone, 40,400 cells) as a client sees it: SetCells of the new
// price, then WaitRange on the registered 50x10 viewport. The rest of the
// cone drains between ticks, off the clock.
func BenchmarkTick(b *testing.B) {
	spec := workload.TickerSpec{Intermediates: 400, LeavesPer: 100}
	e, err := Open(rdbms.Open(rdbms.Options{}), "ticker", workload.TickerMarket(spec), "rom", Options{AsyncRecalc: true})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	vp := spec.Viewport()
	e.RegisterViewport(vp)
	if err := e.Drain(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		tick := workload.Tick(i + 1)
		if err := e.SetCells([]CellEdit{{Row: tick.Row, Col: tick.Col, Input: tick.Input}}); err != nil {
			b.Fatal(err)
		}
		if err := e.WaitRange(vp); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := e.Drain(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// tickerEngine opens the ticker-recalc cone — workload.TickerMarket(400 x
// 100), 40,400 formula cells — on a synchronous in-memory engine.
func tickerEngine(b *testing.B) *Engine {
	b.Helper()
	spec := workload.TickerSpec{Intermediates: 400, LeavesPer: 100}
	e, err := Open(rdbms.Open(rdbms.Options{}), "ticker", workload.TickerMarket(spec), "rom", Options{})
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkDrain times a full recalculation on a synchronous engine. ticker:
// one tick of the ticker, whose whole 40,400-cell cone is evaluated and
// written back before the edit returns.
func BenchmarkDrain(b *testing.B) {
	b.Run("ticker", func(b *testing.B) {
		e := tickerEngine(b)
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			tick := workload.Tick(i + 1)
			if _, err := e.ApplyCells([]CellEdit{{Row: tick.Row, Col: tick.Col, Input: tick.Input}}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFirstScreenTile times the first screen's tile of the ticker, the
// 64 x 16 cells at A1, 960 of them formulas: load is the cache's block load
// (the store's range read, formula text overlaid), render the overlay alone.
func BenchmarkFirstScreenTile(b *testing.B) {
	e := tickerEngine(b)
	tile := sheet.NewRange(1, 1, 64, 16)
	b.Run("load", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := (storeBacking{e}).LoadBlock(tile); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("render", func(b *testing.B) {
		cells, err := e.store.GetCells(tile)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for b.Loop() {
			e.overlayFormulas(tile, cells)
		}
	})
}

// BenchmarkTopOfSheetShift times a row inserted after row 1 and deleted
// again over 30,000 row sums =SUM(A<r>:P<r>), each row with one number to
// sum: every sum moves and is re-texted in the registry, twice.
func BenchmarkTopOfSheetShift(b *testing.B) {
	s := sheet.New("sums")
	for r := 1; r <= 30_000; r++ {
		s.SetValue(r, 1, sheet.Number(float64(r)))
		s.SetFormula(r, 17, fmt.Sprintf("SUM(A%d:P%d)", r, r))
	}
	e, err := Open(rdbms.Open(rdbms.Options{}), "sums", s, "rom", Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if err := e.InsertRowsAfter(1, 1); err != nil {
			b.Fatal(err)
		}
		if err := e.DeleteRows(2, 1); err != nil {
			b.Fatal(err)
		}
	}
}
