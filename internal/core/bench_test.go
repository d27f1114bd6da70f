package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"dataspread/internal/cache"
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
	b.ResetTimer()
	// A counted loop, not b.Loop: b.Loop measures its stop test from the
	// last StartTimer, so the drain off the clock would grow b.N forever.
	for i := 0; i < b.N; i++ {
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
// 100), 40,400 formula cells — on an in-memory engine, synchronous unless
// opts say otherwise.
func tickerEngine(tb testing.TB, opts Options) *Engine {
	tb.Helper()
	spec := workload.TickerSpec{Intermediates: 400, LeavesPer: 100}
	e, err := Open(rdbms.Open(rdbms.Options{}), "ticker", workload.TickerMarket(spec), "rom", opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = e.Close() })
	return e
}

// BenchmarkDrain times a full recalculation. ticker: one tick of the ticker
// on a synchronous engine, whose whole 40,400-cell cone is evaluated and
// written back before the edit returns, on the plan the tick before kept.
// ticker-replan: the same tick with the last intermediate's formula
// re-entered in its batch, a registry change that makes every tick rebuild
// its plan. ticker-async: the tick on an AsyncRecalc engine, Drain the
// waiter — it ends the quiet window at once — so the op is the cold pass over
// the cone on the dispatcher.
func BenchmarkDrain(b *testing.B) {
	for _, c := range []struct {
		name  string
		extra []CellEdit
		opts  Options
	}{
		{"ticker", nil, Options{}},
		{"ticker-replan", []CellEdit{{Row: 400, Col: 2, Input: "=A1*400"}}, Options{}},
		{"ticker-async", nil, Options{AsyncRecalc: true}},
	} {
		b.Run(c.name, func(b *testing.B) {
			e := tickerEngine(b, c.opts)
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				tick := workload.Tick(i + 1)
				if _, err := e.ApplyCells(append([]CellEdit{{Row: tick.Row, Col: tick.Col, Input: tick.Input}}, c.extra...)); err != nil {
					b.Fatal(err)
				}
				if err := e.Drain(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFirstScreenTile times the first screen's tile of the ticker, the
// 64 x 16 cells at A1, 960 of them formulas: load is the cache's block load
// into a fresh tile (the store's range read, formula text overlaid), render
// the overlay alone, into a tile that holds the values already.
func BenchmarkFirstScreenTile(b *testing.B) {
	e := tickerEngine(b, Options{})
	tile := sheet.NewRange(1, 1, 64, 16)
	b.Run("load", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if err := (storeBacking{e}).LoadBlock(tile, cache.NewTile()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("render", func(b *testing.B) {
		t := cache.NewTile()
		if err := e.store.ReadCells(tile, t.Set); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for b.Loop() {
			e.overlayFormulas(tile, t)
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

// BenchmarkEditBesideCycles times an unrelated one-cell SetValue on a
// synchronous engine opened beside 0, 1,000 and 10,000 two-cell cycles
// (A{i} = B{i}, B{i} = A{i}): the cycles are ordinary registrations, so the
// edit's cost does not grow with them.
func BenchmarkEditBesideCycles(b *testing.B) {
	for _, n := range []int{0, 1_000, 10_000} {
		b.Run(fmt.Sprintf("cycles=%d", n), func(b *testing.B) {
			s := sheet.New("c")
			for i := 1; i <= n; i++ {
				s.SetFormula(i, 1, fmt.Sprintf("B%d", i))
				s.SetFormula(i, 2, fmt.Sprintf("A%d", i))
			}
			s.SetValue(1, 9, sheet.Number(0))
			e, err := Open(rdbms.Open(rdbms.Options{}), "c", s, "rom", Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				if err := e.SetValue(1, 9, sheet.Number(float64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkColdView reads random 50 x 10 views of a 100,000 x 16 ROM sheet
// on a file database, scroll-large's shape: a cell cache of 5% of the sheet's
// tiles (78) and a buffer pool of 10% of the checkpointed file's pages, so a
// view loads about 1.7 tiles from the store and misses some pages.
func BenchmarkColdView(b *testing.B) {
	const rows, cols = 100_000, 16
	path := filepath.Join(b.TempDir(), "cold.dsdb")
	db, err := rdbms.OpenFile(path, rdbms.Options{})
	if err != nil {
		b.Fatal(err)
	}
	s := sheet.New("grid")
	for r := 1; r <= rows; r++ {
		for c := 1; c <= cols; c++ {
			s.SetValue(r, c, sheet.Number(float64(r*cols+c)))
		}
	}
	e, err := Open(db, "grid", s, "rom", Options{})
	if err != nil {
		b.Fatal(err)
	}
	s = nil
	if err := e.Save(); err != nil {
		b.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	if db, err = rdbms.OpenFile(path, rdbms.Options{BufferPoolPages: int(st.Size() / rdbms.PageSize / 10)}); err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	tiles := rows / cache.BlockRows
	if e, err = Load(db, "grid", Options{CacheBlocks: tiles / 20}); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for b.Loop() {
		r, c := 1+rng.Intn(rows-49), 1+rng.Intn(cols-9)
		if _, _, _, err := e.ReadRange(sheet.NewRange(r, c, r+49, c+9)); err != nil {
			b.Fatal(err)
		}
	}
	st2 := e.CacheStats()
	b.ReportMetric(float64(st2.Misses)/float64(b.N), "loads/op")
}
